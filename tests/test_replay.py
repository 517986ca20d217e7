"""Differential test of the batch replay: a game against an oblivious
nature (replayed through `learner.play`) must equal the same game played
round by round through a pass-through nature that is not oblivious."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nuolab import nature, runner
from nuolab.fpl import AgnosticFpl, ConfigurationError, ExpertPoolFpl, FplLearner
from nuolab.hypotheses import (DomainError, ExplicitListFamily, FamilyComponent,
                               FiniteClass, FiniteSupportClass, FiniteSupportFamily,
                               SingletonClass, is_label, support_hypothesis,
                               threshold_hypothesis)
from nuolab.learners import (AggregatorLearner, ConstantLearner, CoverLearner,
                             CoverSpec, ExpertLearner, FollowHypothesisLearner,
                             NaturalThresholdLearner, OnlineLearner, ProtocolError,
                             SoaLearner, TruncatedThresholdSoa, labelled_prefix)

DOMAIN = (1, 2, 3, 4)
CONSTANTS = FiniteClass(DOMAIN, [[0, 0, 0, 0], [1, 1, 1, 1]])
THRESHOLDS = FiniteClass.thresholds(DOMAIN, (1, 2, 3, 4, 5))

FAMILIES = {
    "support": FiniteSupportFamily(DOMAIN),
    "constants-thresholds": ExplicitListFamily([CONSTANTS, THRESHOLDS]),
    # later components see fewer points: a sub-learner created late raises
    # DomainError on a point that the earlier ones accept
    "shrinking-domains": ExplicitListFamily([
        THRESHOLDS, FiniteClass((1, 2, 3), [[0, 0, 1], [0, 1, 1], [1, 1, 1]]),
        FiniteClass((1, 2), [[0, 1], [1, 1]])]),
}
# every threshold over DOMAIN, the constants and two supports: the targets
# of the realizable scripts, and the cover in this order
TARGETS = ([threshold_hypothesis(c) for c in (1, 2, 3, 4, 5)] +
           [support_hypothesis([2]), support_hypothesis([1, 3])])

COMPONENTS = {
    "dim0-singleton": FamilyComponent(1, SingletonClass(threshold_hypothesis(2)), 0),
    "dim0-finite": FamilyComponent(1, FiniteClass(DOMAIN, [[0, 1, 1, 0]]), 0),
    "dim1-constants": FamilyComponent(1, CONSTANTS, 1),
    "dim1-support": FamilyComponent(1, FiniteSupportClass(DOMAIN, 1), 1),
    "dim2-thresholds": FamilyComponent(2, THRESHOLDS, 2),
    "dim2-support": FamilyComponent(2, FiniteSupportClass(DOMAIN, 2), 2),
}


class PassThrough(nature.NatureStrategy):
    """Serves another nature's points and labels without being oblivious,
    so `run_game` plays it round by round."""

    def __init__(self, inner: nature.NatureStrategy):
        self.inner = inner

    def next_point(self, trace=None):
        return self.inner.next_point(trace)

    def reveal_label(self, x, predicted, trace=None):
        return self.inner.reveal_label(x, predicted, trace)


class RawScript(nature.NatureStrategy):
    """An oblivious script that serves its labels unconverted."""

    oblivious = True

    def __init__(self, points, labels):
        self.script = list(zip(points, labels))
        self.served = 0

    def next_point(self, trace=None):
        if self.served >= len(self.script):
            raise nature.ExhaustionError(f"raw script exhausted after {self.served} points")
        self.served += 1
        return self.script[self.served - 1][0]

    def reveal_label(self, x, predicted, trace=None):
        return self.script[self.served - 1][1]


class LastLabel(OnlineLearner):
    """Predicts the previously revealed label (0 on the first round)."""

    def __init__(self):
        super().__init__()
        self.last = 0

    def predict(self, x) -> int:
        return self.last

    def _absorb(self, x, y, predicted) -> None:
        self.last = y


def snapshot(learner) -> dict:
    """Everything observable about a learner's state, its experts' and its
    random generator's included."""
    out = {"type": type(learner).__name__, "t": learner.t, "mistakes": learner.mistakes}
    if isinstance(learner, (ExpertPoolFpl, FplLearner)):
        out.update(chosen_index=learner.chosen_index, mass=learner._mass,
                   rng=learner.rng.bit_generator.state,
                   losses=[int(v) for v in learner.losses],
                   complexities=[float(k) for k in learner.complexities])
    if isinstance(learner, ExpertPoolFpl):
        out.update(state=learner.state.tolist(), keys=learner.keys,
                   pool_size=learner.pool_size,
                   engine_states=list(getattr(learner.engine, "states", [])))
    if isinstance(learner, FplLearner):
        out["experts"] = [snapshot(e) for e in learner.experts]
    if isinstance(learner, SoaLearner):
        out.update(sid=learner.sid, engine_states=list(getattr(learner.engine, "states", [])))
    if isinstance(learner, AggregatorLearner):
        out.update(sub=[(n, snapshot(sub)) for n, sub in learner.sub.items()],
                   history=list(learner.history), selected=learner.selected)
    if isinstance(learner, CoverLearner):
        out.update(index=learner.index, history=list(learner.history))
    if isinstance(learner, LastLabel):
        out["last"] = learner.last
    return out


def rounds(trace):
    return [(r.t, r.x, r.y, r.predicted) for r in trace.rounds]


GAME_ERRORS = (ProtocolError, ConfigurationError, DomainError, nature.ExhaustionError)


def both_ways(make_learner, make_nature, horizon):
    """(trace or error, snapshot) for the replayed game and the looped one."""
    out = []
    for wrap in (lambda s: s, PassThrough):
        learner, strategy = make_learner(), wrap(make_nature())
        try:
            trace = runner.run_game(learner, strategy, horizon)
            result = ("trace", rounds(trace), trace.mistakes, len(trace))
        except GAME_ERRORS as exc:
            result = ("error", type(exc).__name__, str(exc))
        out.append((result, snapshot(learner)))
    return out


def assert_same_game(make_learner, make_nature, horizon):
    assert make_nature().oblivious and not PassThrough(make_nature()).oblivious
    replayed, looped = both_ways(make_learner, make_nature, horizon)
    assert replayed[0] == looped[0]
    if replayed[0][:2] != ("error", "DomainError"):
        # after an error from inside the learner only the error is promised
        # (`OnlineLearner.play`)
        assert replayed[1] == looped[1]
    return replayed[0]


scripts = st.integers(0, 120).flatmap(lambda T: st.tuples(
    st.lists(st.sampled_from(DOMAIN), min_size=T, max_size=T),
    st.lists(st.integers(0, 1), min_size=T, max_size=T)))
seeds = st.integers(0, 2 ** 32 - 1)
realizable_scripts = st.tuples(
    st.lists(st.sampled_from(DOMAIN), max_size=120),
    st.sampled_from(TARGETS)).map(lambda s: (s[0], [s[1](x) for x in s[0]]))
any_scripts = st.one_of(scripts, realizable_scripts)


@pytest.mark.parametrize("name", sorted(COMPONENTS))
@settings(max_examples=25, deadline=None)
@given(script=scripts, seed=seeds)
def test_pool_replay_matches_loop(name, script, seed):
    xs, ys = script
    comp = COMPONENTS[name]
    assert_same_game(lambda: ExpertPoolFpl(comp, seed=seed),
                     lambda: nature.AgnosticScripted(xs, ys), len(xs))


@pytest.mark.parametrize("components", [1, 2])
@settings(max_examples=25, deadline=None)
@given(script=scripts, seed=seeds, cap=st.one_of(st.none(), st.integers(0, 130)))
def test_agnostic_replay_matches_loop(components, script, seed, cap):
    xs, ys = script
    family = ExplicitListFamily([CONSTANTS, THRESHOLDS])
    result = assert_same_game(
        lambda: AgnosticFpl(family, components, seed=seed, cap_rounds=cap),
        lambda: nature.AgnosticScripted(xs, ys), len(xs))
    if cap is not None and cap < len(xs):
        assert result == ("error", "ConfigurationError",
                          f"round {cap + 1} beyond the configured cap of {cap}; "
                          "the expert pools grow polynomially per round")


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=40, deadline=None)
@given(script=any_scripts)
def test_aggregator_replay_matches_loop(name, script):
    xs, ys = script
    assert_same_game(lambda: AggregatorLearner(FAMILIES[name]),
                     lambda: nature.AgnosticScripted(xs, ys), len(xs))


@settings(max_examples=40, deadline=None)
@given(script=any_scripts)
def test_cover_replay_matches_loop(script):
    xs, ys = script
    assert_same_game(lambda: CoverLearner(CoverSpec(TARGETS)),
                     lambda: nature.AgnosticScripted(xs, ys), len(xs))


@pytest.mark.parametrize("xs, ys, point", [
    # sub-learner 2 (points 1-3) fails on point 4 at round 3; the loop
    # never creates sub-learner 3 (points 1-2), which a fallback from
    # sub-learners that kept the batch's rounds would create at once
    ([1, 3, 4], [1, 1, 0], 4),
    # the loop creates sub-learner 3 at round 4, whose replay fails on
    # point 3 before sub-learner 2 sees point 4, the batch's first error
    ([1, 1, 3, 4], [0, 1, 0, 0], 3),
], ids=["late-sub-learner-never-created", "late-sub-learner-fails-first"])
def test_aggregator_error_from_inside_matches_loop(xs, ys, point):
    result = assert_same_game(lambda: AggregatorLearner(FAMILIES["shrinking-domains"]),
                              lambda: nature.AgnosticScripted(xs, ys), len(xs))
    assert result == ("error", "DomainError", f"point {point} not in class domain")


def test_aggregator_batch_does_not_fall_back(monkeypatch):
    # the batch never runs the aggregator's own round loop on a script
    # whose sub-learners raise nothing
    xs = [(t % 4) + 1 for t in range(60)]
    ys = [(t * 7 // 3) % 2 for t in range(60)]
    learner = AggregatorLearner(FAMILIES["support"])

    def predict(self, x):
        raise AssertionError("the round loop ran")

    monkeypatch.setattr(AggregatorLearner, "predict", predict)
    learner.play(xs, ys)
    assert learner.t == 61 and len(learner.sub) > 3


def test_cap_hit_and_not_hit():
    family = ExplicitListFamily([CONSTANTS])
    xs, ys = [1] * 30, [t % 2 for t in range(30)]
    for cap, expected in ((29, "error"), (30, "trace")):
        result = assert_same_game(lambda: AgnosticFpl(family, 1, seed=3, cap_rounds=cap),
                                  lambda: nature.AgnosticScripted(xs, ys), 30)
        assert result[0] == expected


def five_experts():
    return [ConstantLearner(0), ConstantLearner(1),
            FollowHypothesisLearner(threshold_hypothesis(3)),
            SoaLearner(THRESHOLDS, on_empty="freeze"), LastLabel()]


@settings(max_examples=40, deadline=None)
@given(script=scripts, seed=seeds)
def test_five_expert_replay_matches_loop(script, seed):
    xs, ys = script
    ks = [1.0 + math.log(i) for i in range(1, 6)]
    assert_same_game(lambda: FplLearner(five_experts(), ks, seed=seed),
                     lambda: nature.AgnosticScripted(xs, ys), len(xs))


@settings(max_examples=40, deadline=None)
@given(script=scripts)
def test_deterministic_learners_replay_matches_loop(script):
    xs, ys = script
    for make in (lambda: ConstantLearner(1),
                 lambda: SoaLearner(THRESHOLDS, on_empty="freeze"),
                 lambda: SoaLearner(CONSTANTS, always_restrict=True, on_empty="freeze")):
        assert_same_game(make, lambda: nature.AgnosticScripted(xs, ys), len(xs))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, horizon=st.integers(0, 150))
def test_coin_flip_replay_matches_loop(seed, horizon):
    family = ExplicitListFamily([FiniteClass((0,), [[0], [1]])])
    assert_same_game(lambda: AgnosticFpl(family, 1, seed=seed),
                     lambda: nature.CoinFlip(seed), horizon)


@pytest.mark.parametrize("make", [
    lambda: AgnosticFpl(ExplicitListFamily([CONSTANTS, THRESHOLDS]), 2, seed=4),
    lambda: FplLearner(five_experts(), [1.0 + math.log(i) for i in range(1, 6)], seed=4),
    lambda: ExpertPoolFpl(COMPONENTS["dim1-constants"], seed=4),
    lambda: SoaLearner(THRESHOLDS, on_empty="freeze"),
], ids=["agnostic-2", "fpl-five", "pool-dim1", "soa"])
def test_exhaustion_mid_script(make):
    xs, ys = [1, 2, 3, 4, 1, 2, 3], [0, 1, 1, 0, 1, 1, 0]
    result = assert_same_game(make, lambda: nature.AgnosticScripted(xs, ys), 12)
    assert result == ("error", "ExhaustionError",
                      "round 8: scripted stream exhausted after 7 points")


@pytest.mark.parametrize("bad", [True, 1.0, 2, -1, None])
@pytest.mark.parametrize("make", [
    lambda: AgnosticFpl(ExplicitListFamily([CONSTANTS, THRESHOLDS]), 2, seed=5),
    lambda: FplLearner(five_experts(), [1.0 + math.log(i) for i in range(1, 6)], seed=5),
    lambda: ExpertPoolFpl(COMPONENTS["dim1-support"], seed=5),
    lambda: ConstantLearner(0),
    lambda: AggregatorLearner(FAMILIES["support"]),
    lambda: AggregatorLearner(FAMILIES["constants-thresholds"]),
], ids=["agnostic-2", "fpl-five", "pool-dim1", "constant", "aggregator-support",
        "aggregator-list"])
def test_bad_label_mid_script(make, bad):
    xs = [1, 2, 3, 4, 1, 2, 3, 4]
    ys = [0, 1, 1, 0, 1, bad, 0, 1]
    result = assert_same_game(make, lambda: RawScript(xs, ys), 8)
    assert result == ("error", "ProtocolError", f"round 6: label must be 0 or 1, got {bad!r}")


@pytest.mark.parametrize("bad", [True, 1.0, 2, -1, None])
def test_cover_bad_label_mid_script(bad):
    # labels of thr-2, so that no cover hypothesis runs out first
    xs = [1, 2, 3, 4, 1, 2, 3, 4]
    ys = [0, 1, 1, 1, 0, bad, 1, 1]
    result = assert_same_game(lambda: CoverLearner(CoverSpec(TARGETS)),
                              lambda: RawScript(xs, ys), 8)
    assert result == ("error", "ProtocolError", f"round 6: label must be 0 or 1, got {bad!r}")


@pytest.mark.parametrize("make", [
    lambda: ExpertPoolFpl(COMPONENTS["dim1-constants"], seed=9),
    lambda: ExpertPoolFpl(COMPONENTS["dim0-singleton"], seed=9),
    lambda: FplLearner(five_experts(), [1.0 + math.log(i) for i in range(1, 6)], seed=9),
    lambda: AgnosticFpl(ExplicitListFamily([CONSTANTS, THRESHOLDS]), 2, seed=9),
    lambda: AggregatorLearner(FAMILIES["support"]),
    lambda: AggregatorLearner(FAMILIES["constants-thresholds"]),
], ids=["pool-dim1", "pool-dim0", "fpl-five", "agnostic-2", "aggregator-support",
        "aggregator-list"])
@pytest.mark.parametrize("pending", [False, True])
def test_play_after_rounds_matches_loop(make, pending):
    # rounds played one by one, optionally a prediction of the next round
    # (a pending choice), then the rest in one call: the same as playing
    # every round one by one
    xs = [(t % 4) + 1 for t in range(40)]
    ys = [(t * 7 // 3) % 2 for t in range(40)]
    learners = [make(), make()]
    for learner in learners:
        for x, y in zip(xs[:10], ys[:10]):
            learner.predict(x)
            learner.update(x, y)
    if pending:
        learners[0].predict(xs[10])
    played = learners[0].play(xs[10:], ys[10:])
    looped = OnlineLearner.play(learners[1], xs[10:], ys[10:])
    assert played == looped
    assert snapshot(learners[0]) == snapshot(learners[1])


def test_shared_generator_takes_the_loop():
    # an expert drawing from the leader's generator interleaves its draws
    # with the leader's, which only the round loop reproduces
    xs, ys = [1, 2, 3, 4] * 10, [0, 1] * 20

    def make():
        rng = np.random.default_rng(12)
        pools = [ExpertPoolFpl(COMPONENTS["dim1-constants"], seed=rng)]
        learner = FplLearner(pools, [1.0], seed=rng)
        # a Generator passed as the seed is drawn from as it is
        assert learner.rng is rng and pools[0].rng is rng
        return learner

    assert_same_game(make, lambda: nature.AgnosticScripted(xs, ys), 40)


LEARNER_KINDS = {
    "constant": lambda: ConstantLearner(1),
    "soa": lambda: SoaLearner(THRESHOLDS),
    "soa-freeze": lambda: SoaLearner(THRESHOLDS, on_empty="freeze"),
    "soa-always": lambda: SoaLearner(CONSTANTS, always_restrict=True, on_empty="freeze"),
    "expert": lambda: ExpertLearner(THRESHOLDS, (1, 3, 4, 9), on_empty="freeze"),
    "follow": lambda: FollowHypothesisLearner(threshold_hypothesis(3)),
    "aggregator": lambda: AggregatorLearner(FAMILIES["constants-thresholds"]),
    "cover": lambda: CoverLearner(CoverSpec(TARGETS)),
    "natural-threshold": NaturalThresholdLearner,
    "truncated-threshold": TruncatedThresholdSoa,
    "last-label": LastLabel,
    "fpl-five": lambda: FplLearner(five_experts(), [1.0 + math.log(i) for i in range(1, 6)],
                                   seed=11),
    "pool": lambda: ExpertPoolFpl(COMPONENTS["dim2-thresholds"], seed=11),
    "agnostic": lambda: AgnosticFpl(ExplicitListFamily([CONSTANTS, THRESHOLDS]), 2, seed=11),
}


def hand_loop(learner, strategy, horizon):
    """The game as a caller of the public `predict` and `update` plays it."""
    rounds = []
    try:
        for t in range(1, horizon + 1):
            x = strategy.next_point()
            predicted = learner.predict(x)
            y = strategy.reveal_label(x, predicted)
            learner.update(x, y)
            rounds.append((t, x, y, predicted))
    except GAME_ERRORS as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("trace", rounds, sum(y != p for _, _, y, p in rounds), len(rounds))


@pytest.mark.parametrize("kind", sorted(LEARNER_KINDS))
@settings(max_examples=15, deadline=None)
@given(script=any_scripts)
def test_run_game_matches_hand_loop(kind, script):
    # run_game steps with the round's prediction instead of calling update;
    # both of its paths must equal predict-then-update by hand
    xs, ys = script
    make = LEARNER_KINDS[kind]
    learner = make()
    expected = (hand_loop(learner, nature.AgnosticScripted(xs, ys), len(xs)),
                snapshot(learner))
    for result in both_ways(make, lambda: nature.AgnosticScripted(xs, ys), len(xs)):
        assert result == expected


BAD_LABELS = [True, False, 1.0, 0.0, np.int64(1), 2, -1, None, [1]]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 1), st.sampled_from(BAD_LABELS)), max_size=12))
def test_labelled_prefix_matches_label_scan(ys):
    # the set-based fast path against the scan it short-cuts; [1] is unhashable
    assert labelled_prefix(ys) == next(
        (i for i, y in enumerate(ys) if not is_label(y)), len(ys))
    assert labelled_prefix(tuple(ys)) == labelled_prefix(ys)


def checked_loop(learner, xs, ys):
    """The round loop that checks each label as its round comes."""
    preds = []
    for x, y in zip(xs, ys):
        p = learner.predict(x)
        learner._check_label(y)
        learner._record(x, y, p)
        preds.append(p)
    return preds


def played(play, learner, xs, ys):
    try:
        result = ("preds", play(learner, xs, ys))
    except GAME_ERRORS as exc:
        result = ("error", type(exc).__name__, getattr(exc, "round_index", None), str(exc))
    return result, snapshot(learner)


@pytest.mark.parametrize("kind", sorted(LEARNER_KINDS))
@settings(max_examples=15, deadline=None)
@given(script=any_scripts,
       bad=st.one_of(st.none(), st.tuples(st.integers(0, 120), st.sampled_from(BAD_LABELS))))
def test_base_play_matches_checked_loop(kind, script, bad):
    # labels checked once up front, then predict and step: the same
    # predictions, state and bad-label error as a check in every round
    xs, ys = script
    if bad is not None:
        at, label = bad
        at = min(at, len(ys))
        xs, ys = xs[:at] + [DOMAIN[at % 4]] + xs[at:], ys[:at] + [label] + ys[at:]
    make = LEARNER_KINDS[kind]
    assert played(OnlineLearner.play, make(), xs, ys) == \
        played(checked_loop, make(), xs, ys)
