import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nuolab import bounds, fpl, learners, nature, runner, specs
from nuolab.hypotheses import (DomainError, ExplicitListFamily, FiniteClass,
                               FiniteSupportFamily, Hypothesis, constant_hypothesis, row_hypothesis,
                               support_hypothesis, threshold_hypothesis)
from nuolab.runner import (GameRound, GameTrace, best_rival_mistakes,
                           comparison_values, monte_carlo, play_seeded,
                           regret, regret_curve, run_game, split_seed,
                           trace_to_csv, trial_seeds)
from nuolab.specs import make_learner, make_nature, play_config

TWO_CLASS = FiniteClass((0,), [[0], [1]])
TWO_POINT_CONSTANTS = [constant_hypothesis(0), constant_hypothesis(1)]
TWO_CLASS_SPEC = {"domain": [0], "hypotheses": [[0], [1]]}
# FiniteClass.full_class(("a", "b"))
FULL_AB_SPEC = {"domain": ["a", "b"], "hypotheses": [[0, 0], [0, 1], [1, 0], [1, 1]]}


class TestRunGame:
    def test_exact_trace(self):
        strategy = nature.AgnosticScripted([0, 0, 0], [1, 0, 1])
        trace = run_game(learners.ConstantLearner(0), strategy, 3)
        assert [(r.t, r.x, r.y, r.predicted) for r in trace.rounds] == \
            [(1, 0, 1, 0), (2, 0, 0, 0), (3, 0, 1, 0)]
        assert trace.mistakes == 2

    def test_zero_horizon(self):
        strategy = nature.AgnosticScripted([], [])
        trace = run_game(learners.ConstantLearner(0), strategy, 0)
        assert len(trace) == 0 and trace.mistakes == 0

    def test_exhaustion_carries_round(self):
        strategy = nature.AgnosticScripted([0], [1])
        with pytest.raises(nature.ExhaustionError, match="round 2"):
            run_game(learners.ConstantLearner(0), strategy, 2)

    def test_protocol_error_carries_round(self):
        strategy = nature.AgnosticScripted([0, 0], [1, 0])
        learner = learners.SoaLearner(TWO_CLASS)
        with pytest.raises(learners.ProtocolError, match="round 2"):
            run_game(learner, strategy, 2)

    def test_nature_without_a_drawn_script_plays_the_loop(self):
        # `run_game` draws a script only from a nature that defines `_drawn`,
        # and plays any other round by round, handing it the trace so far
        class Counting(nature.NatureStrategy):
            def next_point(self, trace=None):
                return len(trace)

            def reveal_label(self, x, predicted, trace=None):
                return x % 2

        trace = run_game(learners.ConstantLearner(0), Counting(), 4)
        assert (trace.xs, trace.ys, trace.predicted) == ([0, 1, 2, 3], [0, 1, 0, 1], [0] * 4)

    def test_trace_self_consistency(self):
        strategy = nature.CoinFlip(seed=5)
        trace = run_game(learners.ConstantLearner(0), strategy, 50)
        assert trace.cumulative_mistakes()[-1] == trace.mistakes
        assert trace.mistakes == sum(r.y != r.predicted for r in trace.rounds)


def traces(points):
    """Hypothesis traces over `points`, which repeat."""
    return st.integers(0, 60).flatmap(lambda T: st.builds(
        GameTrace,
        st.lists(st.sampled_from(points), min_size=T, max_size=T),
        st.lists(st.integers(0, 1), min_size=T, max_size=T),
        st.lists(st.integers(0, 1), min_size=T, max_size=T)))


class TestGameTrace:
    @settings(max_examples=60, deadline=None)
    @given(traces((0, 1, Fraction(1, 2), "a")))
    def test_columns_match_hand_built_rounds(self, trace):
        rounds = [GameRound(t, trace.xs[t - 1], trace.ys[t - 1], trace.predicted[t - 1])
                  for t in range(1, len(trace.ys) + 1)]
        assert trace.rounds == rounds and len(trace) == len(rounds)
        assert trace.mistakes == sum(r.y != r.predicted for r in rounds)
        acc, cumulative = 0, []
        for r in rounds:
            acc += r.y != r.predicted
            cumulative.append(acc)
        assert trace.cumulative_mistakes() == cumulative
        assert all(type(v) is int for v in [trace.mistakes, *cumulative])
        assert trace.xs == [r.x for r in rounds]
        assert trace.labels() == [r.y for r in rounds]
        # the accessor hands out a copy, so a caller cannot change the trace
        trace.labels().append(1)
        assert len(trace.xs) == len(trace.ys) == len(rounds)


MIXED_DOMAIN = (1, 2, Fraction(1, 2), Fraction(7, 3), "a", "b")
NUMERIC_POINTS = (0, 1, 3, Fraction(1, 2), Fraction(1, 3), Fraction(7, 3))


def per_round_rival_mistakes(comparison, trace):
    """The best rival's mistakes by a scan of every round, on no code of the
    package: a class's row is read at the point's place in its domain, the
    real thresholds cut at every point and above the largest, and a listed
    hypothesis is called at every round."""
    if isinstance(comparison, FiniteClass):
        hs = [lambda x, row=row: row[comparison.domain.index(x)] for row in comparison.rows]
    elif comparison == "real-thresholds":
        cuts = [*trace.xs, max(trace.xs, default=0) + 1]
        hs = [lambda x, cut=cut: int(x >= cut) for cut in cuts]
    else:
        hs = comparison
    return min(sum(h(x) != y for x, y in zip(trace.xs, trace.ys)) for h in hs)


def assert_rival_column_counts_best_rival(comparison, trace):
    """The CSV's column counts round by round and `best_rival_mistakes` by
    distinct pairs: every row gives the best rival's mistakes on its prefix."""
    rows = list(csv.DictReader(io.StringIO(trace_to_csv(trace, comparison))))
    assert len(rows) == len(trace)
    for t, row in enumerate(rows, 1):
        prefix = GameTrace(trace.xs[:t], trace.ys[:t], trace.predicted[:t])
        assert int(row["cum_best_rival"]) == best_rival_mistakes(comparison, prefix), t


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except DomainError as exc:
        return ("error", str(exc))


class TestCountedRivalMistakes:
    # the pair counts must give the per-round scan's integer, and its error,
    # and the CSV's rival column on every prefix

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(*[st.integers(0, 1)] * len(MIXED_DOMAIN)),
                         min_size=1, max_size=8, unique=True),
           trace=traces(MIXED_DOMAIN))
    def test_finite_class(self, rows, trace):
        comparison = FiniteClass(MIXED_DOMAIN, rows)
        assert best_rival_mistakes(comparison, trace) == \
            per_round_rival_mistakes(comparison, trace)
        assert_rival_column_counts_best_rival(comparison, trace)

    @settings(max_examples=60, deadline=None)
    @given(traces(NUMERIC_POINTS))
    def test_real_thresholds(self, trace):
        assert best_rival_mistakes(runner.REAL_THRESHOLDS, trace) == \
            per_round_rival_mistakes(runner.REAL_THRESHOLDS, trace)
        assert_rival_column_counts_best_rival(runner.REAL_THRESHOLDS, trace)

    @settings(max_examples=60, deadline=None)
    @given(trace=traces(MIXED_DOMAIN),
           hs=st.lists(st.sampled_from([
               constant_hypothesis(0), constant_hypothesis(1),
               support_hypothesis(["a", Fraction(1, 2)]), support_hypothesis([2]),
               row_hypothesis(MIXED_DOMAIN, [1, 0, 1, 1, 0, 1]),
               # raises on the string points
               threshold_hypothesis(Fraction(3, 2))]), min_size=1, max_size=4))
    # the error names the first string point, though "b" occurs more often
    @example(trace=GameTrace([1, "a", "b", "b"], [0, 1, 0, 0], [0, 0, 0, 0]),
             hs=[threshold_hypothesis(Fraction(3, 2))])
    def test_hypothesis_list(self, trace, hs):
        assert outcome(best_rival_mistakes, hs, trace) == \
            outcome(per_round_rival_mistakes, hs, trace)


    @settings(max_examples=80, deadline=None)
    @given(trace=traces(MIXED_DOMAIN),
           table=st.lists(st.lists(st.sampled_from([0, 1, True, False, 2, -1, 0.5, None,
                                                     ValueError]),
                                   min_size=len(MIXED_DOMAIN), max_size=len(MIXED_DOMAIN)),
                          min_size=1, max_size=3))
    # the first raising point is "b", though 2 raises too and occurs more often
    @example(trace=GameTrace([1, "b", 2, 2], [0, 1, 0, 0], [0, 0, 0, 0]),
             table=[[0, ValueError, 2, 2, 2, 2], [1, 1, 1, 1, 1, 1]])
    def test_any_hypothesis_output(self, trace, table):
        # a hypothesis may give any value, or raise: the counts per point,
        # and the CSV's rival column on its last row, give `h(x) != y`
        # summed over the rounds, and the same first error
        hs = [Hypothesis(f"h{i}", lambda x, row=row: point_value(row, x))
              for i, row in enumerate(table)]

        def per_pair(hs, trace):
            return min(sum(h(x) != y for x, y in zip(trace.xs, trace.ys)) for h in hs)

        def csv_column(hs, trace):
            rows = list(csv.DictReader(io.StringIO(trace_to_csv(trace, hs))))
            return int(rows[-1]["cum_best_rival"]) if rows else 0

        def result(fn):
            try:
                value = fn(hs, trace)
                return ("value", value, type(value))
            except ValueError as exc:
                return ("error", str(exc))

        assert result(best_rival_mistakes) == result(per_pair) == result(csv_column)


def point_value(row, x):
    """row's entry for the point x of MIXED_DOMAIN; the entry ValueError
    raises, naming the point."""
    value = row[MIXED_DOMAIN.index(x)]
    if value is ValueError:
        raise ValueError(f"no value at {x!r}")
    return value


class TestRegret:
    def test_perfect_realizable_learner(self):
        target = threshold_hypothesis(2)
        strategy = nature.RealizableScripted(target, [1, 2, 3], cycle=True)
        learner = learners.FollowHypothesisLearner(target)
        trace = run_game(learner, strategy, 9)
        cls = FiniteClass.thresholds((1, 2, 3), (1, 2, 3, 4))
        assert regret(trace, cls) == 0

    def test_hand_counted_example(self):
        # y = (1,0,1,0) on one point, all-zero predictions: 2 vs best 2
        strategy = nature.AgnosticScripted([0] * 4, [1, 0, 1, 0])
        trace = run_game(learners.ConstantLearner(0), strategy, 4)
        assert trace.mistakes == 2
        assert best_rival_mistakes(TWO_CLASS, trace) == 2
        assert regret(trace, TWO_CLASS) == 0

    @pytest.mark.parametrize("comparison", [FiniteClass((0,), []), []], ids=["class", "list"])
    def test_empty_comparison(self, comparison):
        # no hypothesis, no best rival: a typed error, not min()'s ValueError,
        # before any point is read, though the class knows none of them
        trace = GameTrace([5, "a", 5], [1, 0, 1], [0, 0, 0])
        for measure in (lambda: best_rival_mistakes(comparison, trace),
                        lambda: regret(trace, comparison),
                        lambda: trace_to_csv(trace, comparison)):
            with pytest.raises(DomainError, match="^comparison class has no hypotheses$"):
                measure()

    @pytest.mark.parametrize("label", [2, -1, None, 0.5, True, 1.0])
    def test_trace_label_outside_0_1(self, label):
        # the counts per point read a round as labelled 1 or 0, so a trace
        # holding any other label is refused, not miscounted
        trace = GameTrace([0, 0, 0], [1, label, 0], [0, 0, 0])
        with pytest.raises(DomainError, match="^trace labels must be 0 or 1$"):
            best_rival_mistakes(TWO_CLASS, trace)

    def test_trace_columns_of_unequal_lengths(self):
        # counted per point, the three points would meet one label: rival 1
        # and regret -1, where the CSV's rival column, round by round, says 0
        trace = GameTrace([1, 1, 1], [1], [1])
        comparison = FiniteClass((1,), [[0], [1]])
        for measure in (lambda: best_rival_mistakes(comparison, trace),
                        lambda: regret(trace, comparison)):
            with pytest.raises(DomainError, match="^trace points and labels differ in length$"):
                measure()

    def test_threshold_behaviors_materialization(self):
        points = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]
        rows = comparison_values(runner.REAL_THRESHOLDS, points)
        assert rows == [[1, 1, 1], [1, 0, 1], [0, 0, 1], [0, 0, 0]]     # cut by cut, rising

    def test_point_outside_the_class(self):
        # the class's own refusal, at the first point it does not know,
        # from the count and from the CSV alike
        trace = GameTrace([0, 7, 5, 5], [1, 0, 1, 1], [0, 0, 0, 0])
        for measure in (lambda: best_rival_mistakes(TWO_CLASS, trace),
                        lambda: trace_to_csv(trace, TWO_CLASS)):
            with pytest.raises(DomainError, match="^point 7 not in class domain$"):
                measure()

    def test_unmaterializable_comparison(self):
        strategy = nature.AgnosticScripted(["a"], [1])
        trace = run_game(learners.ConstantLearner(0), strategy, 1)
        with pytest.raises(DomainError):
            regret(trace, "not-a-class")

    def test_aggregator_regret_at_most_mistakes(self):
        fam = FiniteSupportFamily(tuple(range(1, 13)))
        target = support_hypothesis((1, 5))
        xs = [((t * 7) % 12) + 1 for t in range(120)]
        trace = run_game(learners.AggregatorLearner(fam),
                         nature.RealizableScripted(target, xs), 120)
        comparison = fam.component(2).cls.materialize()
        assert regret(trace, comparison) <= trace.mistakes

    def test_coinflip_expected_regret_matches_binomial_oracle(self):
        T = 400
        # exact E|S|/2 for S the centered simple random walk at T
        total = Fraction(0)
        for k in range(T + 1):
            total += Fraction(math.comb(T, k), 2 ** T) * abs(2 * k - T)
        oracle = float(total) / 2
        assert oracle == pytest.approx(math.sqrt(2 * T / math.pi) / 2, rel=0.01)

        def trial(seed):
            trace = run_game(learners.ConstantLearner(0),
                             nature.CoinFlip(seed), T)
            return float(regret(trace, TWO_CLASS))

        stats = monte_carlo(trial, trials=400, master_seed=8)
        assert abs(stats.mean - oracle) <= 4 * stats.se


class TestCsv:
    def test_golden_trace(self):
        strategy = nature.AgnosticScripted([0, 0, 0], [1, 0, 1])
        trace = run_game(learners.ConstantLearner(0), strategy, 3)
        expected = ("t,x,y,yhat,mistake,cum_mistakes,cum_best_rival\n"
                    "1,0,1,0,1,1,0\n"
                    "2,0,0,0,0,1,1\n"
                    "3,0,1,0,1,2,1\n")
        assert trace_to_csv(trace, TWO_CLASS) == expected

    def test_rival_column_blank_without_comparison(self):
        strategy = nature.AgnosticScripted([0], [1])
        trace = run_game(learners.ConstantLearner(0), strategy, 1)
        assert trace_to_csv(trace).splitlines()[1] == "1,0,1,0,1,1,"

    def test_points_that_need_quoting(self):
        # a point holding a comma, a quote or a newline is quoted, so each
        # row reads back as 7 fields with the point's text
        points = ["a,b", 'c"d', "x\ny"]
        trace = run_game(learners.ConstantLearner(0),
                         nature.AgnosticScripted(points, [1, 0, 1]), 3)
        comparison = [constant_hypothesis(0), constant_hypothesis(1)]
        rows = list(csv.reader(io.StringIO(trace_to_csv(trace, comparison))))
        assert rows == [["t", "x", "y", "yhat", "mistake", "cum_mistakes", "cum_best_rival"],
                        ["1", "a,b", "1", "0", "1", "1", "0"],
                        ["2", 'c"d', "0", "0", "0", "1", "1"],
                        ["3", "x\ny", "1", "0", "1", "2", "1"]]

    def test_carriage_return_round_trips(self):
        # the writer leaves a bare "\r" unquoted under a "\n" line
        # terminator, so its row is quoted whole and reads back as written
        trace = run_game(learners.ConstantLearner(0),
                         nature.AgnosticScripted(["p\rq", "a"], [1, 0]), 2)
        text = trace_to_csv(trace, TWO_POINT_CONSTANTS)
        assert list(csv.reader(io.StringIO(text))) == [
            ["t", "x", "y", "yhat", "mistake", "cum_mistakes", "cum_best_rival"],
            ["1", "p\rq", "1", "0", "1", "1", "0"],
            ["2", "a", "0", "0", "0", "1", "1"]]
        assert text.splitlines(keepends=True)[-1] == "2,a,0,0,0,1,1\n"

    def test_replay_determinism(self):
        learner_spec = {"learner": "fpl",
                        "experts": [{"kind": "constant", "value": 0},
                                    {"kind": "constant", "value": 1}],
                        "k": [1.0, 1.0]}
        nature_spec = {"nature": "coin-flip"}
        one, _ = play_config(learner_spec, nature_spec, 80, seed=4)
        two, _ = play_config(learner_spec, nature_spec, 80, seed=4)
        assert trace_to_csv(one) == trace_to_csv(two)
        three, _ = play_config(learner_spec, nature_spec, 80, seed=5)
        assert trace_to_csv(one) != trace_to_csv(three)


class TestMonteCarlo:
    def test_requires_two_trials(self):
        with pytest.raises(ValueError):
            monte_carlo(lambda s: 0.0, trials=1)

    def test_seed_derivation_stable(self):
        assert trial_seeds(3, 5) == trial_seeds(3, 5)
        assert trial_seeds(3, 5) != trial_seeds(4, 5)

    def test_split_seed_keeps_the_seed_sequence_halves(self):
        for seed in trial_seeds(7, 20) + [0, 1]:
            halves = np.random.SeedSequence(seed).generate_state(2)
            assert split_seed(seed) == (int(halves[0]), int(halves[1]))
            assert all(type(s) is int for s in split_seed(seed))

    def test_play_seeded_builds_the_learner_then_the_nature(self):
        built = []

        def make_learner(s):
            built.append(("learner", s))
            return learners.ConstantLearner(0)

        def make_nature(s):
            built.append(("nature", s))
            return nature.CoinFlip(s)

        trace, learner = play_seeded(make_learner, make_nature, 30, seed=11)
        learner_seed, nature_seed = split_seed(11)
        assert built == [("learner", learner_seed), ("nature", nature_seed)]
        assert isinstance(learner, learners.ConstantLearner)
        assert trace.labels() == run_game(learners.ConstantLearner(0),
                                          nature.CoinFlip(nature_seed), 30).labels()

    def test_vector_trial_columns_equal_scalar_runs(self):
        # values whose sums round, so a reduction in another order would show
        f = lambda s: (s % 1000) / 7.0
        g = lambda s: math.sqrt(s % 97)
        both = monte_carlo(lambda s: [f(s), g(s)], trials=60, master_seed=3)
        assert both.values.shape == (60, 2) and both.trials == 60
        for j, fn in enumerate((f, g)):
            one = monte_carlo(fn, trials=60, master_seed=3)
            assert one.values.ndim == 1 and isinstance(one.mean, float)
            assert (both.values[:, j] == one.values).all()
            assert both.mean[j] == one.mean
            assert both.se[j] == one.se

    def test_stats(self):
        stats = monte_carlo(lambda s: float(s % 7), trials=50, master_seed=0)
        assert stats.trials == 50
        assert stats.se == pytest.approx(
            np.std(stats.values, ddof=1) / math.sqrt(50))

    def test_regret_curve_with_bound(self):
        # one TrialStats of the score per horizon; a config's regret rows are
        # that curve of `regret`, and its bound column is `bounds`'s
        stats = regret_curve(
            [lambda s: learners.ConstantLearner(0)],
            lambda s: nature.CoinFlip(s),
            horizons=[25, 50], trials=40, master_seed=1,
            score=lambda traces, _: regret(traces[0], TWO_CLASS))
        assert [row.trials for row in stats] == [40, 40]
        horizons, rows, limits = specs.regret_experiment_from_config(
            {"learner": {"learner": "constant"}, "nature": {"nature": "coin-flip"},
             "comparison": TWO_CLASS_SPEC, "Ts": [25, 50], "trials": 40, "master_seed": 1,
             "bound": {"kind": "fpl", "k": 1.0}})
        assert horizons == [25, 50]
        assert limits == pytest.approx([15.0, 3 * math.sqrt(50)])
        assert [row.values.tolist() for row in rows] == [row.values.tolist() for row in stats]

    def test_shared_seed_columns_equal_one_maker_runs(self):
        # the coin-flip check's three learners in one call, scored against
        # one rival count per script: each column is, bit for bit, the
        # `values` of a call with that learner alone scored by `regret`
        family = ExplicitListFamily([TWO_CLASS])
        makers = [lambda s: fpl.AgnosticFpl(family, 1, seed=s, cap_dim=2),
                  lambda s: learners.ExpertLearner(TWO_CLASS, ()),
                  lambda s: learners.ConstantLearner(0)]

        def shared(traces, _):
            rival = best_rival_mistakes(TWO_CLASS, traces[0])
            return [trace.mistakes - rival for trace in traces]

        [both] = regret_curve(makers, nature.CoinFlip, [50], 60, 149, shared)
        assert both.values.shape == (60, 3)
        for j, make in enumerate(makers):
            [one] = regret_curve([make], nature.CoinFlip, [50], 60, 149,
                                 lambda traces, _: regret(traces[0], TWO_CLASS))
            assert both.values[:, j].tobytes() == one.values.tobytes()
            assert (both.mean[j], both.se[j]) == (one.mean, one.se)

    def test_regret_curve_evaluates_every_bound_before_any_trial(self, monkeypatch):
        # a bound that has no value at the last horizon fails before the
        # first trial, not after all of them
        def run_game(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(runner, "run_game", run_game)
        monkeypatch.setattr(bounds, "fpl_regret", lambda k, T: math.log(T))
        with pytest.raises(ValueError, match="math domain error"):
            specs.regret_experiment_from_config(
                {"learner": {"learner": "constant"}, "nature": {"nature": "coin-flip"},
                 "comparison": TWO_CLASS_SPEC, "Ts": [25, 0], "trials": 2, "master_seed": 1,
                 "bound": {"kind": "fpl", "k": 1.0}})


class TestConfigFactories:
    def test_learner_dispatch(self):
        cls_spec = TWO_CLASS_SPEC
        assert isinstance(make_learner({"learner": "soa", "class": cls_spec}),
                          learners.SoaLearner)
        assert isinstance(make_learner({"learner": "expert", "class": cls_spec,
                                        "key": [1, 3]}), learners.ExpertLearner)
        agg_spec = {"learner": "aggregator",
                    "family": {"family": "finite-support",
                               "params": {"domain": [1, 2, 3]}}}
        assert isinstance(make_learner(agg_spec), learners.AggregatorLearner)
        cov = make_learner({"learner": "cover",
                            "cover": [{"kind": "constant", "value": 0}]})
        assert isinstance(cov, learners.CoverLearner)
        assert isinstance(make_learner({"learner": "natural-threshold"}),
                          learners.NaturalThresholdLearner)
        with pytest.raises(DomainError):
            make_learner({"learner": "what"})

    def test_nature_dispatch(self):
        scripted = make_nature({"nature": "scripted", "x": [1, 2],
                                "target": {"kind": "threshold", "value": 2}})
        assert isinstance(scripted, nature.RealizableScripted)
        iid = make_nature({"nature": "iid",
                           "measure": {"support": [1, 2], "mass": ["1/2", "1/2"]},
                           "target": {"kind": "constant", "value": 0}}, seed=1)
        assert isinstance(iid, nature.StochasticIid)
        assert isinstance(make_nature({"nature": "window-halving", "depth": 8}),
                          nature.WindowHalving)
        committed = make_nature(
            {"nature": "tree-adversary", "mode": "committed",
             "class": FULL_AB_SPEC},
            learner_spec={"learner": "soa", "class": FULL_AB_SPEC})
        assert isinstance(committed, nature.RealizableScripted)
        with pytest.raises(DomainError):
            make_nature({"nature": "what"})

    def test_committed_mode_needs_learner(self):
        with pytest.raises(DomainError):
            make_nature({"nature": "tree-adversary", "mode": "committed",
                         "class": FULL_AB_SPEC})

    def test_regret_experiment_from_config(self):
        config = {
            "learner": {"learner": "fpl",
                        "experts": [{"kind": "constant", "value": 0},
                                    {"kind": "constant", "value": 1}],
                        "k": [1.0, 1.0]},
            "nature": {"nature": "coin-flip"},
            "comparison": TWO_CLASS_SPEC,
            "Ts": [30], "trials": 30, "master_seed": 5,
            "bound": {"kind": "fpl", "k": 1.0},
        }
        _, [stats], [bound] = specs.regret_experiment_from_config(config)
        assert bound == pytest.approx(3 * math.sqrt(30))
        assert stats.mean + 3 * stats.se <= bound
