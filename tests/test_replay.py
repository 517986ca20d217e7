"""Differential test of the batch replay: a game against an oblivious
nature (replayed through `learner.play`) must equal the same game played
round by round through a pass-through nature that is not oblivious."""
import hashlib
import math
import os
import random
import threading

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from nuolab import fpl, nature, runner
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
                   complexities=[float(k) for k in complexities(learner)])
    if isinstance(learner, ExpertPoolFpl):
        out.update(range_rng=learner._range_rng.bit_generator.state,
                   resolve_rng=learner._resolve_rng.bit_generator.state,
                   ends=list(learner._ends),
                   state=learner.state.tolist(), keys=learner.keys,
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


def complexities(learner):
    """Each expert's complexity; a pool's, expanded from its cohorts'."""
    if isinstance(learner, ExpertPoolFpl):
        return np.repeat(learner._ks, np.diff(learner._ends, prepend=0))
    return learner.complexities


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


# no shrink phase: shrinking a failing script of two dimension-2 pools
# takes minutes, and the fixed-seed tests below pin the failure down
@pytest.mark.parametrize("name", sorted(COMPONENTS))
@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
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


def test_cover_batch_does_not_fall_back(monkeypatch):
    # the cover learner replays every round of a realizable script without
    # the round loop, stepping through six hypotheses to the last target
    xs = [(t % 4) + 1 for t in range(60)]
    ys = [TARGETS[-1](x) for x in xs]
    looped = CoverLearner(CoverSpec(TARGETS))
    expected = checked_loop(looped, xs, ys)
    learner = CoverLearner(CoverSpec(TARGETS))

    def predict(self, x):
        raise AssertionError("the round loop ran")

    def loop(self, xs, ys, n):
        if len(ys):
            raise AssertionError("the round loop ran")
        return []

    monkeypatch.setattr(CoverLearner, "predict", predict)
    monkeypatch.setattr(CoverLearner, "_loop", loop)
    assert learner.play(xs, ys) == expected
    assert snapshot(learner) == snapshot(looped)
    assert learner.t == 61 and learner.index == len(TARGETS)


def test_cover_exhausted_mid_batch_matches_loop():
    # point 1 labelled 0 at round 1 and 1 at round 4: no hypothesis fits both
    xs, ys = [1, 2, 3, 1, 4, 2], [0, 1, 1, 1, 0, 0]
    result = assert_same_game(lambda: CoverLearner(CoverSpec(TARGETS)),
                              lambda: nature.AgnosticScripted(xs, ys), len(xs))
    assert result == ("error", "ProtocolError",
                      "round 4: every enumerated cover hypothesis eliminated")


@pytest.mark.parametrize("cover, xs, ys, t, index", [
    # thr-3 cannot label "x" at round 3, before any mistake
    ([threshold_hypothesis(3)], [1, 3, "x", 2], [0, 1, 1, 0], 3, 1),
    # supp-{2} errs at round 2; thr-3, which cannot label "x", leads from then
    ([support_hypothesis([2]), threshold_hypothesis(3)], [1, 2, 3, "x"], [0, 0, 1, 1], 4, 2),
    # supp-{2} labels "x" 0 and errs at round 2; thr-3 then fails the
    # consistency check on the history's "x"
    ([support_hypothesis([2]), threshold_hypothesis(3)], ["x", 2, 3], [0, 0, 1], 2, 2),
], ids=["before-a-mistake", "after-a-mistake", "in-the-step"])
def test_cover_hypothesis_raises_mid_batch(cover, xs, ys, t, index):
    # a hypothesis that raises on a point mid-batch: the batch raises the
    # loop's error and leaves index, history and t where the loop leaves them
    replayed, looped = both_ways(lambda: CoverLearner(CoverSpec(cover)),
                                 lambda: nature.AgnosticScripted(xs, ys), len(xs))
    assert replayed == looped
    assert replayed[0][:2] == ("error", "DomainError")
    assert (replayed[1]["t"], replayed[1]["index"]) == (t, index)


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


def walk(learner, xs, ys):
    """The loop's (choice, pool size, number of sub-learners at the
    minimum) in each round of the script, played by hand."""
    out = []
    for x, y in zip(xs, ys):
        learner.predict(x)
        scores = [c + n for n, c in learner.counters().items()]
        out.append((learner.selected, len(learner.sub), scores.count(min(scores))))
        learner.update(x, y)
    return out


@pytest.mark.parametrize("xs, ys, moved", [
    # round 7: sub-learners 1-3 tie at the minimum and 1, the choice, errs;
    # round 8: 2 and 3 tie there and 2 takes over; the pool of 6 stays
    ([2, 3, 1, 4, 1, 4, 1, 1, 3, 3], [0, 1, 1, 1, 1, 1, 1, 1, 1, 0], 8),
    # the pool grows at rounds 2 and 4, and the choice never moves
    ([2, 1, 1, 3, 3, 1], [1, 0, 1, 0, 0, 0], None),
], ids=["tie-moves-the-choice", "pool-grows-twice"])
def test_aggregator_walk_matches_loop(xs, ys, moved, monkeypatch):
    # the walk jumps between changes of choice: pinned on a script where a
    # tie at the minimum moves the choice without growing the pool, and on
    # one where the pool grows twice in one batch
    looped = AggregatorLearner(FAMILIES["support"])
    rounds = walk(looped, xs, ys)
    choices = [c for c, _, _ in rounds]
    sizes = [s for _, s, _ in rounds]
    if moved is None:
        assert set(choices) == {1}
        assert [t for t in range(2, len(xs) + 1) if sizes[t - 1] > sizes[t - 2]] == [2, 4]
    else:
        assert choices[moved - 2:moved] == [1, 2] and set(choices[:moved - 1]) == {1}
        assert sizes[moved - 2] == sizes[moved - 1] and rounds[moved - 1][2] == 2

    def predict(self, x):
        raise AssertionError("the round loop ran")

    learner = AggregatorLearner(FAMILIES["support"])
    expected = checked_loop(AggregatorLearner(FAMILIES["support"]), xs, ys)
    monkeypatch.setattr(AggregatorLearner, "predict", predict)
    assert learner.play(xs, ys) == expected
    assert snapshot(learner) == snapshot(looped)


def reference_choices(family, xs, ys):
    """Each round's (selection, pool size) by the rule the aggregator's
    docstring states, on counters from standalone learners: sub-learner n's
    counter is the mistakes of a frozen `SoaLearner` on component n played
    on the rounds before. The pool grows while its top index is below the
    least counter + index; the selection is the argmin of counter + index,
    ties to the smallest index."""
    def standalone(n, t):
        learner = SoaLearner(family.component(n).cls, on_empty="freeze")
        for x, y in zip(xs[:t], ys[:t]):
            learner.update(x, y)
        return learner

    subs, out = [standalone(1, 0)], []
    for t, (x, y) in enumerate(zip(xs, ys)):
        while len(subs) < min(l.mistakes + n for n, l in enumerate(subs, 1)):
            subs.append(standalone(len(subs) + 1, t))
        out.append((min(range(1, len(subs) + 1), key=lambda n: (subs[n - 1].mistakes + n, n)),
                    len(subs)))
        for learner in subs:
            learner.update(x, y)
    return out


@pytest.mark.parametrize("name", ["support", "constants-thresholds"])
@settings(max_examples=25, deadline=None)
@given(script=any_scripts)
def test_aggregator_choices_match_the_docstring_rule(name, script):
    # the loop and the replay walk share `_choose`, so neither can check the
    # other's rule: both are checked round by round against a reference
    # that shares no code with `_choose`, the loop through predict and
    # update and the walk through `play` on every prefix
    xs, ys = script
    expected = reference_choices(FAMILIES[name], xs, ys)
    looped, choices = AggregatorLearner(FAMILIES[name]), []
    for x, y in zip(xs, ys):
        looped.predict(x)
        choices.append((looped.selected, len(looped.sub)))
        looped.update(x, y)
    assert choices == expected
    for t in range(1, len(ys) + 1):
        replayed = AggregatorLearner(FAMILIES[name])
        replayed.play(xs[:t], ys[:t])
        assert (replayed.selected, len(replayed.sub)) == expected[t - 1], t


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_pool_batch_does_not_fall_back(name, monkeypatch):
    # a fresh pool of dimension at most 2 replays every round of a script
    # without the round loop
    xs = [(t % 4) + 1 for t in range(60)]
    ys = [(t * 7 // 3) % 2 for t in range(60)]
    learner = ExpertPoolFpl(COMPONENTS[name], seed=3)

    def predict(self, x):
        raise AssertionError("the round loop ran")

    def loop(self, xs, ys, n):
        if len(ys):
            raise AssertionError("the round loop ran")
        return []

    monkeypatch.setattr(ExpertPoolFpl, "predict", predict)
    monkeypatch.setattr(ExpertPoolFpl, "_loop", loop)
    learner.play(xs, ys)
    assert learner.t == 61
    assert learner.pool_size == sum(math.comb(60, j) for j in range(COMPONENTS[name].dim + 1))


def test_dim3_pool_takes_the_loop(monkeypatch):
    def replay(self, xs, ys):
        raise AssertionError("the batch replay ran")

    monkeypatch.setattr(ExpertPoolFpl, "_replay", replay)
    learner = ExpertPoolFpl(FamilyComponent(3, FiniteClass.full_class((1, 2, 3)), 3), seed=3)
    learner.play([1, 2, 3, 1, 2, 3, 1, 2], [0, 1, 1, 0, 1, 0, 0, 1])
    assert learner.t == 9 and learner.pool_size == sum(math.comb(8, j) for j in range(4))


def check_script(points, labels, horizon=200):
    """The hierarchical check's script: cycling points, and alternating
    labels or fair coins from a seeded `random.Random`."""
    xs = [points[t % len(points)] for t in range(horizon)]
    rng = random.Random(horizon)
    ys = ([t % 2 for t in range(1, horizon + 1)] if labels == "alternating"
          else [rng.getrandbits(1) for _ in range(horizon)])
    return xs, ys


DIM2_CASES = {
    "thresholds-alternating": (THRESHOLDS, DOMAIN, "alternating"),
    "thresholds-coin": (THRESHOLDS, DOMAIN, "coin"),
    # every labeling of three points: more states than the thresholds, so
    # a replay that interned them in another order than the loop shows
    "full3-coin": (FiniteClass.full_class((1, 2, 3)), (1, 2, 3), "coin"),
    "support2-coin": (FiniteSupportClass(DOMAIN, 2), DOMAIN, "coin"),
}


@pytest.mark.parametrize("case", sorted(DIM2_CASES))
def test_dim2_replay_at_check_scale(case):
    # T=200 as in the hierarchical check, then five more rounds, which
    # both pools play by the round loop
    cls, points, labels = DIM2_CASES[case]
    xs, ys = check_script(points, labels)
    replayed, looped = (ExpertPoolFpl(FamilyComponent(2, cls, 2), seed=31) for _ in range(2))
    assert replayed.play(xs, ys) == checked_loop(looped, xs, ys)
    assert snapshot(replayed) == snapshot(looped)
    assert replayed.pool_size == 1 + 200 * 201 // 2
    assert replayed.engine.n_states > 4
    more = [points[t % len(points)] for t in range(3, 8)], [1, 1, 0, 1, 0]
    assert replayed.play(*more) == checked_loop(looped, *more)
    assert snapshot(replayed) == snapshot(looped)


POOL_DIMS = {0: COMPONENTS["dim0-finite"], 1: COMPONENTS["dim1-constants"],
             2: COMPONENTS["dim2-thresholds"]}


@pytest.mark.parametrize("dim", sorted(POOL_DIMS))
def test_replay_charges_mass_as_the_loop(dim):
    # the replay charges its cohorts in one pass, with the loop's float
    # operations in the loop's order
    xs, ys = check_script(DOMAIN, "coin")
    replayed, looped = (ExpertPoolFpl(POOL_DIMS[dim], seed=34) for _ in range(2))
    assert replayed.play(xs, ys) == checked_loop(looped, xs, ys)
    assert replayed._mass.hex() == looped._mass.hex()
    assert replayed._size == looped._size == sum(math.comb(200, j) for j in range(dim + 1))


def test_replay_mass_overflow_names_the_loop_round(monkeypatch):
    # with complexity 1 for every key, the root and the cohorts of rounds 1
    # and 2 bring a dimension-1 pool's mass to 3/e, over the budget at round 2
    monkeypatch.setattr(fpl, "pool_complexity", lambda dim, last_round: 1.0)
    xs, ys = [1, 2, 3, 4], [0, 1, 1, 0]
    results = both_ways(lambda: ExpertPoolFpl(COMPONENTS["dim1-constants"], seed=35),
                        lambda: nature.AgnosticScripted(xs, ys), len(xs))
    assert [result for result, _ in results] == 2 * [
        ("error", "ConfigurationError", "complexity mass 1.103638 exceeds 1 at round 2")]


def pool_replay(comp, xs, ys, seed, loop=False):
    """The predictions, the leaders chosen round by round and the final
    snapshot of a fresh pool replaying a script, or with `loop`, playing it
    round by round."""
    pool = ExpertPoolFpl(comp, seed=seed)
    chosen = []
    score = pool._lazy_leaders

    def scored(*args):
        leaders = score(*args)
        chosen.extend(leaders.tolist())
        return leaders

    pool._lazy_leaders = scored
    preds = checked_loop(pool, xs, ys) if loop else pool.play(xs, ys)
    return preds, chosen, snapshot(pool)


@pytest.mark.parametrize("affinity", [True, False], ids=["one-cpu", "no-affinity-call"])
def test_one_cpu_draws_inline(affinity, monkeypatch):
    # a replay draws every perturbation on the calling thread: a process
    # allowed one CPU starts no thread and replays as any other process
    xs, ys = check_script(DOMAIN, "coin")
    expected = pool_replay(COMPONENTS["dim2-thresholds"], xs, ys, 38)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

    def start(thread):
        raise AssertionError(f"thread {thread.name!r} started")

    monkeypatch.setattr(threading.Thread, "start", start)
    assert pool_replay(COMPONENTS["dim2-thresholds"], xs, ys, 38) == expected


# the plan of a replay: made once per (dimension, horizon, exact cohorts),
# shared read-only by every replay of that shape

def plan_parts(value):
    """Every value inside a plan, tuples opened."""
    if isinstance(value, tuple):
        for part in value:
            yield from plan_parts(part)
    else:
        yield value


def scored_inputs(comp, xs, ys, seed, loop=False):
    """What the scorer is given, round by round, when a fresh pool replays
    a script, or with `loop`, plays it round by round: the exact set's
    experts, losses and complexities, and each cohort range's members,
    smallest loss and complexity, and a digest of its members' losses."""
    pool = ExpertPoolFpl(comp, seed=seed)
    rounds = []
    score = pool._lazy_leaders

    def scored(ts, exact, ranges, loss_of):
        slot, loss, k, mask = exact
        at, first, count, low_loss, low_k = ranges
        birth = np.searchsorted(pool._ends, np.arange(pool.pool_size), side="right")
        for i, t in enumerate(ts.tolist()):
            drawn = slice(None) if mask is None else mask[i]
            inside = np.flatnonzero(at == i)
            members = []
            for r in inside:
                held = np.arange(first[r], first[r] + count[r])
                losses = np.asarray(loss_of(i, held), dtype=float)
                # the bound that thins a range is its members' smallest c
                assert low_loss[r] == losses.min() and low_k[r] == pool._ks[birth[held]].min()
                members.append(hashlib.sha256(losses.tobytes()).hexdigest())
            rounds.append((t, slot[i][drawn].tolist(),
                           np.asarray(loss[i][drawn], dtype=float).tolist(),
                           k[i][drawn].tolist(), first[inside].tolist(), count[inside].tolist(),
                           np.asarray(low_loss[inside], dtype=float).tolist(),
                           np.asarray(low_k[inside], dtype=float).tolist(), members))
        return score(ts, exact, ranges, loss_of)

    pool._lazy_leaders = scored
    if loop:
        checked_loop(pool, xs, ys)
    else:
        pool.play(xs, ys)
    return rounds


@pytest.mark.parametrize("horizon", [1, 2, 50, 200])
@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_replay_matches_loop_at_every_block_size(name, horizon, monkeypatch):
    # the cohort ranges double from the first block [E, 2E), and a round's
    # newborns are a range of their own once they are E or more: E = 1
    # thins every cohort but the root, and E = 2**22 none of these scripts'
    # cohorts, so that every perturbation is drawn; each round's scorer
    # inputs and leader are the loop's, newborns in their birth round included
    xs, ys = check_script(DOMAIN, "coin", horizon)
    comp = COMPONENTS[name]
    for exact in (1, 3, 8, 2 ** 22):
        monkeypatch.setattr(ExpertPoolFpl, "_EXACT", exact)
        plan = fpl._replay_plan(comp.dim, horizon, exact, fpl.pool_complexity)
        ranges = sum(len(list(fpl._ranges(exact, t))) for t in range(1, horizon + 1))
        ranges += int((np.diff(plan.live) >= exact).sum())
        assert len(plan.ranges[0]) == (ranges if comp.dim else 0)
        assert pool_replay(comp, xs, ys, 39) == pool_replay(comp, xs, ys, 39, loop=True)
        assert scored_inputs(comp, xs, ys, 39) == scored_inputs(comp, xs, ys, 39, loop=True)


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_warm_plan_replays_as_a_cold_one(name):
    # the plan holds nothing of a game: a replay that makes it, and one that
    # finds it made by a pool of another class of the same dimension, play
    # the same game
    xs, ys = check_script(DOMAIN, "coin", horizon=120)
    comp = COMPONENTS[name]
    fpl._replay_plan.cache_clear()
    cold = pool_replay(comp, xs, ys, 40)
    sibling = next(c for n, c in COMPONENTS.items() if n != name and c.dim == comp.dim)
    pool_replay(sibling, xs, ys, 41)
    assert pool_replay(comp, xs, ys, 40) == cold
    info = fpl._replay_plan.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("dim", sorted(POOL_DIMS))
def test_plan_is_read_only(dim):
    plan = fpl._replay_plan(dim, 60, ExpertPoolFpl._EXACT, fpl.pool_complexity)
    parts = list(plan_parts(plan))
    arrays = [part for part in parts if isinstance(part, np.ndarray)]
    # every container in it is a tuple or an array, and a pool that grows
    # has cohort ranges
    assert all(part is None or type(part) in (int, float, np.ndarray) for part in parts)
    assert (len(plan.ranges[0]) > 0) == (dim > 0)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def draw_counts(plan):
    """(the values a replay draws, those of them a newborn draws, the
    rounds whose newborns draw), read from the plan's mask."""
    newborn = plan.mask & (plan.slot >= plan.live[:-1, None])
    return int(plan.mask.sum()), int(newborn.sum()), int(newborn.any(axis=1).sum())


def test_plan_draw_counts():
    # a dimension-1 newborn is one expert, never a range at E = 8: the plan
    # draws its 3,572 values at T = 400 as before newborn ranges, newborns
    # included. A dimension-2 pool draws its newborns for rounds 1-7 and
    # thins them from round 8 on, one range a round
    plan = fpl._replay_plan(1, 400, 8, fpl.pool_complexity)
    assert draw_counts(plan) == (3572, 400, 400)
    assert (plan.ranges[3] <= 400).all()
    plan = fpl._replay_plan(2, 200, 8, fpl.pool_complexity)
    assert draw_counts(plan) == (5688, 28, 7)
    born = plan.ranges[3] > 200
    assert plan.ranges[0][born].tolist() == list(range(7, 200))
    assert (plan.ranges[2][born] == plan.ranges[0][born] + 1).all()


def reference_layouts(dim, horizon, exact):
    """Each round's layout, rule by rule from the `fpl` docstring, over the
    experts of `ExpertPoolFpl.keys`: an expert's cohort is its key's last
    round (the root's is 0) and its complexity that cohort's. Returns the
    cohort ends, the cohorts' complexities, the growable experts after the
    last round, and per round (its exact set, its ranges as (first member,
    member count, smallest k, last cohort))."""
    pool = ExpertPoolFpl(POOL_DIMS[dim], seed=0)
    pool.play(*check_script(DOMAIN, "coin", horizon))
    keys = pool.keys
    birth = np.array([key[-1] if key else 0 for key in keys])
    ks = [fpl.pool_complexity(dim, b) for b in range(horizon + 1)]
    ends = np.cumsum(np.bincount(birth, minlength=horizon + 1))
    growable = [(i, len(key)) for i, key in enumerate(keys) if len(key) < dim]
    rounds = []
    for t in range(1, horizon + 1):
        newborn = np.flatnonzero(birth == t)
        head = np.flatnonzero(birth < min(exact, t))
        big = len(newborn) >= exact
        # every other live expert falls in the range [E 2^m, E 2^(m + 1))
        # of its birth round, and a round's many newborns in one range last
        groups = {}
        for i in np.flatnonzero((birth >= exact) & (birth < t)):
            groups.setdefault(int(math.log2(birth[i] // exact)), []).append(i)
        members = [groups[m] for m in sorted(groups)] + ([newborn.tolist()] if big else [])
        spans = []
        for held in members:
            assert held == list(range(held[0], held[-1] + 1))
            spans.append((held[0], len(held), min(ks[birth[i]] for i in held),
                          max(birth[i] for i in held)))
        exact_set = head.tolist() + ([] if big else newborn.tolist())
        rounds.append((exact_set, spans))
    return ends, np.array(ks), growable, rounds


@pytest.mark.parametrize("exact", [1, 2, 3, 8])
@pytest.mark.parametrize("dim", sorted(POOL_DIMS))
def test_layout_and_plan_match_the_docstring_rules(dim, exact):
    # `_layout` serves the round loop and the plan alike, so both are
    # checked against a reference that shares no code with it
    horizon = 60
    ends, ks, growable, rounds = reference_layouts(dim, horizon, exact)

    def spans_of(first, count, low_k, last):
        return list(zip(first.tolist(), count.tolist(), low_k.tolist(), last.tolist()))

    for t, (exact_set, spans) in enumerate(rounds, 1):
        slot, ranges = fpl._layout(ends, ks, t, exact)
        assert (slot.tolist(), spans_of(*ranges)) == (exact_set, spans)
    # the horizons on both sides of each range boundary the exacts give
    for T in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 24, 25, 32, 33, 60):
        plan = fpl._replay_plan(dim, T, exact, fpl.pool_complexity)
        assert plan.live.tolist() == ends[:T + 1].tolist()
        assert plan.ks.tolist() == ks[1:T + 1].tolist()
        assert plan.growable.tolist() == [[i, n] for i, n in growable if i < ends[T]]
        assert plan.cohort.tolist() == np.repeat(np.arange(T + 1), np.diff(ends[:T + 1],
                                                                           prepend=0)).tolist()
        at, first, count, row, low_k = plan.ranges
        for t, (exact_set, spans) in enumerate(rounds[:T], 1):
            assert plan.slot[t - 1][plan.mask[t - 1]].tolist() == exact_set
            assert not plan.slot[t - 1][~plan.mask[t - 1]].any()
            here = at == t - 1
            # a newborn range's row is T + its count, an older one's its last cohort
            last = np.where(row[here] > T, t, row[here])
            assert spans_of(first[here], count[here], low_k[here], last) == spans
            assert (row[here][last == t] == T + count[here][last == t]).all()


def test_second_replay_of_a_shape_computes_no_complexity(monkeypatch):
    calls = []
    complexity = fpl.pool_complexity

    def counted(dim, last_round):
        calls.append(last_round)
        return complexity(dim, last_round)

    monkeypatch.setattr(fpl, "pool_complexity", counted)
    xs, ys = check_script(DOMAIN, "coin", horizon=50)
    first, second = (ExpertPoolFpl(COMPONENTS["dim2-thresholds"], seed=s) for s in (42, 43))
    calls.clear()
    first.play(xs, ys)
    assert calls == list(range(1, 51))
    calls.clear()
    second.play(xs, ys)
    assert calls == [] and second.t == first.t == 51


def test_plan_cache_stays_bounded():
    # more shapes than the cache holds: it never grows past its bound, and
    # the first shape, evicted, is planned again and replays as before
    maxsize = fpl._replay_plan.cache_info().maxsize
    xs, ys = check_script(DOMAIN, "coin", horizon=maxsize + 4)
    shapes = [(name, T) for T in range(1, maxsize + 5)
              for name in ("dim1-support", "dim2-support")]
    fpl._replay_plan.cache_clear()
    results = {}
    for name, T in shapes:
        results[name, T] = pool_replay(COMPONENTS[name], xs[:T], ys[:T], 44)
        assert fpl._replay_plan.cache_info().currsize <= maxsize
    assert fpl._replay_plan.cache_info().currsize == maxsize
    name, T = shapes[0]
    assert pool_replay(COMPONENTS[name], xs[:T], ys[:T], 44) == results[name, T]
    assert fpl._replay_plan.cache_info().misses == len(shapes) + 1


# a replayed pool builds its per-expert arrays only when they are first read

def arrays_in(value):
    """Every array inside an attribute's value, tuples opened."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for part in value:
            yield from arrays_in(part)


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_replay_builds_no_per_expert_array_unread(name):
    # the pool holds per-cohort and (round x state) tables; the per-expert
    # arrays it builds them from are the plan's, shared and read-only. A
    # dimension-2 pool's experts outnumber the entries of every such table,
    # so there an array of the pool's size can only be a per-expert one
    xs, ys = check_script(DOMAIN, "coin")
    pool = ExpertPoolFpl(COMPONENTS[name], seed=45)
    pool.play(xs, ys)
    assert pool.pool_size == sum(math.comb(200, j) for j in range(COMPONENTS[name].dim + 1))
    assert not {"state", "losses", "complexities"} & set(vars(pool))
    if COMPONENTS[name].dim == 2:
        held = {key for key, value in vars(pool).items() for array in arrays_in(value)
                if array.size == pool.pool_size and array.flags.writeable}
        assert held == set()


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_first_read_builds_the_loop_arrays(name):
    xs, ys = check_script(DOMAIN, "coin")
    replayed, looped = (ExpertPoolFpl(COMPONENTS[name], seed=46) for _ in range(2))
    assert replayed.play(xs, ys) == checked_loop(looped, xs, ys)
    for attr in ("state", "losses", "_ends", "_ks"):
        built, expected = getattr(replayed, attr), getattr(looped, attr)
        assert built.dtype == expected.dtype and np.array_equal(built, expected), attr
    assert "_unread" not in vars(replayed)


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_loop_after_replay_builds_the_arrays(name):
    # a second play takes the round loop, which is the first to read the
    # arrays: its predictions and the final state are the loop's
    xs, ys = check_script(DOMAIN, "coin")
    more = xs[:7], [1, 0, 0, 1, 1, 1, 0]
    replayed, looped = (ExpertPoolFpl(COMPONENTS[name], seed=47) for _ in range(2))
    assert replayed.play(xs, ys) == checked_loop(looped, xs, ys)
    assert "_unread" in vars(replayed)
    assert replayed.play(*more) == checked_loop(looped, *more)
    assert snapshot(replayed) == snapshot(looped)


def test_dim2_bad_label_after_round_100():
    # the first 100 rounds replay, round 101 is predicted and raises, and
    # the rounds after it take the loop
    xs, ys = check_script(DOMAIN, "coin")
    ys[100] = 2
    replayed, looped = (ExpertPoolFpl(COMPONENTS["dim2-thresholds"], seed=32) for _ in range(2))
    with pytest.raises(ProtocolError, match="round 101: label must be 0 or 1, got 2"):
        replayed.play(xs, ys)
    with pytest.raises(ProtocolError, match="round 101: label must be 0 or 1, got 2"):
        checked_loop(looped, xs, ys)
    assert snapshot(replayed) == snapshot(looped)
    assert replayed.t == 101 and replayed.chosen_index is not None
    more = xs[100:105], [1, 0, 0, 1, 1]
    assert replayed.play(*more) == checked_loop(looped, *more)
    assert snapshot(replayed) == snapshot(looped)


def test_cap_hit_and_not_hit():
    family = ExplicitListFamily([CONSTANTS])
    xs, ys = [1] * 30, [t % 2 for t in range(30)]
    for cap, expected in ((29, "error"), (30, "trace")):
        result = assert_same_game(lambda: AgnosticFpl(family, 1, seed=3, cap_rounds=cap),
                                  lambda: nature.AgnosticScripted(xs, ys), 30)
        assert result[0] == expected


def test_cap_hit_and_not_hit_past_the_ranges():
    # with both components, rounds 9 to 40 thin the pools' cohorts 8 to 31
    # in two ranges; the cap stops replay and loop at the same round
    family = ExplicitListFamily([CONSTANTS, THRESHOLDS])
    xs, ys = check_script(DOMAIN, "coin", horizon=60)
    for cap, expected in ((40, "error"), (60, "trace")):
        result = assert_same_game(lambda: AgnosticFpl(family, 2, seed=6, cap_rounds=cap),
                                  lambda: nature.AgnosticScripted(xs, ys), 60)
        assert result[0] == expected


def test_replay_mass_overflow_past_the_ranges(monkeypatch):
    # complexity 4 for every key after the root brings a dimension-1 pool
    # over the budget at round 35, after the ranges went live at round 9
    monkeypatch.setattr(fpl, "pool_complexity",
                        lambda dim, last_round: 1.0 if last_round < 1 else 4.0)
    xs, ys = check_script(DOMAIN, "coin", horizon=60)
    results = both_ways(lambda: ExpertPoolFpl(COMPONENTS["dim1-support"], seed=7),
                        lambda: nature.AgnosticScripted(xs, ys), len(xs))
    assert [result for result, _ in results] == 2 * [
        ("error", "ConfigurationError", "complexity mass 1.008927 exceeds 1 at round 35")]


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_one_round_draws_every_perturbation(name):
    # T = 1: no range is live, so the replay draws one perturbation per
    # expert from the pool's own generator and none from the other two
    for play in (OnlineLearner.play, checked_loop):
        pool = ExpertPoolFpl(COMPONENTS[name], seed=8)
        fresh = [g.bit_generator.state for g in (pool._range_rng, pool._resolve_rng)]
        play(pool, [2], [1])
        reference = np.random.default_rng(8)
        reference.standard_exponential(pool.pool_size)
        assert pool.rng.bit_generator.state == reference.bit_generator.state
        assert [g.bit_generator.state for g in (pool._range_rng, pool._resolve_rng)] == fresh


@pytest.mark.parametrize("name", ["dim0-singleton", "dim0-finite"])
def test_ranges_with_no_member_draw_nothing(name):
    # the cohorts of a dimension-0 pool are empty, so none of its ranges
    # holds a live member: replay and loop draw one perturbation a round,
    # for the root, and nothing from the range and resolution streams
    xs, ys = check_script(DOMAIN, "coin", horizon=60)
    assert not len(fpl._replay_plan(0, 60, ExpertPoolFpl._EXACT, fpl.pool_complexity).ranges[0])
    for play in (OnlineLearner.play, checked_loop):
        pool = ExpertPoolFpl(COMPONENTS[name], seed=9)
        fresh = [g.bit_generator.state for g in (pool._range_rng, pool._resolve_rng)]
        play(pool, xs, ys)
        reference = np.random.default_rng(9)
        reference.standard_exponential(60)
        assert pool.rng.bit_generator.state == reference.bit_generator.state
        assert [g.bit_generator.state for g in (pool._range_rng, pool._resolve_rng)] == fresh


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
                 lambda: SoaLearner(CONSTANTS, always_restrict=True, on_empty="freeze"),
                 lambda: SoaLearner(FiniteSupportClass(DOMAIN, 2), on_empty="freeze"),
                 lambda: ExpertLearner(THRESHOLDS, (1, 3, 4, 9, 20), on_empty="freeze"),
                 # most scripts empty the space mid-batch, which raises
                 lambda: SoaLearner(THRESHOLDS),
                 lambda: SoaLearner(FiniteSupportClass(DOMAIN, 1))):
        assert_same_game(make, lambda: nature.AgnosticScripted(xs, ys), len(xs))


SOA_KINDS = {
    "finite": lambda: SoaLearner(THRESHOLDS, on_empty="freeze"),
    "finite-always": lambda: SoaLearner(CONSTANTS, always_restrict=True, on_empty="freeze"),
    "support": lambda: SoaLearner(FiniteSupportClass(DOMAIN, 2), on_empty="freeze"),
    "singleton": lambda: SoaLearner(SingletonClass(threshold_hypothesis(2)),
                                    on_empty="freeze"),
    "expert": lambda: ExpertLearner(THRESHOLDS, (1, 3, 4, 9), on_empty="freeze"),
    "follow": lambda: FollowHypothesisLearner(threshold_hypothesis(3)),
}


@pytest.mark.parametrize("kind", sorted(SOA_KINDS))
def test_soa_batch_does_not_fall_back(kind, monkeypatch):
    # a version-space learner replays every round of a script without the
    # round loop, and ends where the loop ends
    xs = [(t % 4) + 1 for t in range(60)]
    ys = [(t * 7 // 3) % 2 for t in range(60)]
    looped = SOA_KINDS[kind]()
    expected = checked_loop(looped, xs, ys)
    learner = SOA_KINDS[kind]()

    def predict(self, x):
        raise AssertionError("the round loop ran")

    def loop(self, xs, ys, n):
        if len(ys):
            raise AssertionError("the round loop ran")
        return []

    monkeypatch.setattr(SoaLearner, "predict", predict)
    monkeypatch.setattr(SoaLearner, "_loop", loop)
    assert learner.play(xs, ys) == expected
    assert snapshot(learner) == snapshot(looped)
    assert learner.t == 61


@pytest.mark.parametrize("make, xs, ys, message", [
    # thresholds: the labels of thr-3, then 1 at point 2, which no
    # threshold consistent with the mistakes so far gives
    (lambda: SoaLearner(THRESHOLDS), [1, 4, 3, 2, 1, 2], [0, 1, 1, 0, 0, 1],
     "round 6: restriction by (2, 1) empties the version space"),
    # support 1: the second 1-labelled point is one too many
    (lambda: SoaLearner(FiniteSupportClass(DOMAIN, 1)), [1, 2, 3, 4], [0, 1, 0, 1],
     "round 4: restriction by (4, 1) empties the version space"),
    (lambda: ExpertLearner(THRESHOLDS, (1, 2, 3, 4, 5, 6)), [1, 4, 3, 2, 1, 2],
     [0, 1, 1, 0, 0, 1], "round 6: restriction by (2, 1) empties the version space"),
], ids=["finite", "support", "expert"])
def test_soa_emptied_mid_batch_matches_loop(make, xs, ys, message):
    result = assert_same_game(make, lambda: nature.AgnosticScripted(xs, ys), len(xs))
    assert result == ("error", "ProtocolError", message)


@pytest.mark.parametrize("make", [
    lambda: SoaLearner(FiniteClass((1, 2, 3), [[0, 0, 1], [0, 1, 1]])),
    lambda: SoaLearner(FiniteSupportClass((1, 2, 3), 1), on_empty="freeze"),
    lambda: FollowHypothesisLearner(threshold_hypothesis(2)),
], ids=["finite", "support", "follow"])
def test_soa_point_outside_domain_mid_batch(make):
    # round 5 shows a point the class does not know: the batch raises the
    # loop's error and leaves the learner where the loop leaves it
    xs, ys = [1, 3, 2, 3, "x", 1], [0, 1, 1, 1, 1, 0]
    replayed, looped = both_ways(make, lambda: nature.AgnosticScripted(xs, ys), len(xs))
    assert replayed == looped
    assert replayed[0][:2] == ("error", "DomainError") and replayed[1]["t"] == 5


def test_empty_class_takes_the_loop(monkeypatch):
    def replay(self, xs, ys):
        raise AssertionError("the batch replay ran")

    monkeypatch.setattr(SoaLearner, "_replay", replay)
    learner = SoaLearner(FiniteClass(DOMAIN, []))
    with pytest.raises(ProtocolError, match="round 1: version space is empty"):
        learner.play([1, 2], [0, 1])
    assert learner.t == 1 and learner.mistakes == 0


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
