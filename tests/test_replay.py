"""Differential test of the batch game, one harness for both of its sides.

`ROWS` holds the learner makers of every class that defines `_replay`, and
`TABLE` each test's check and the cases it plays, the oblivious natures'
`draw_script` among them. `same_game` plays a case as `play` (through
`run_game` against an oblivious nature), as `run_game`'s round loop, which
checks each label, and by predict-then-`update`, and compares each batch's
rounds or error and the learner's and the nature's state after it. One test
runs every case, collected under each entry's name. The plan, cache and
lazy-read tests, and the references that share no code with `src/`, follow
the table."""
import hashlib
import itertools
import math
import random
from collections import Counter
from contextlib import ExitStack
from functools import partial
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from doubles import OBLIVIOUS, LastLabel
from nuolab import fpl, nature, runner, verification
from nuolab import learners as learners_module
from nuolab.fpl import AgnosticFpl, ConfigurationError, ExpertPoolFpl, FplLearner
from nuolab.hypotheses import (DomainError, ExplicitListFamily, FamilyComponent,
                               FiniteClass, FiniteSupportClass, FiniteSupportFamily,
                               SingletonClass, is_label, support_hypothesis,
                               threshold_hypothesis)
from nuolab.learners import (AggregatorLearner, ConstantLearner, CoverLearner,
                             CoverSpec, ExpertLearner, FollowHypothesisLearner,
                             NaturalThresholdLearner, OnlineLearner, ProtocolError,
                             SoaLearner, TruncatedThresholdSoa, labelled_prefix)
from nuolab.littlestone import engine_for

DOMAIN = (1, 2, 3, 4)
CONSTANTS = FiniteClass(DOMAIN, [[0, 0, 0, 0], [1, 1, 1, 1]])
THRESHOLDS = FiniteClass.thresholds(DOMAIN, (1, 2, 3, 4, 5))
SMALL = FiniteClass((1, 2, 3), [[0, 0, 1], [0, 1, 1]])
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
POOL_DIMS = {0: "dim0-finite", 1: "dim1-constants", 2: "dim2-thresholds"}
FIVE_KS = [1.0 + math.log(i) for i in range(1, 6)]


def five_experts():
    return [ConstantLearner(0), ConstantLearner(1),
            FollowHypothesisLearner(threshold_hypothesis(3)),
            SoaLearner(THRESHOLDS, on_empty="freeze"), LastLabel()]


def frozen(cls, **kwargs):
    return partial(SoaLearner, cls, on_empty="freeze", **kwargs)


# a row per class that defines `_replay` (test_source_rules.py keeps it so),
# and one for the learners with none, whose `play` is the base round loop
ROWS = {
    OnlineLearner: {"natural-threshold": NaturalThresholdLearner,
                    "truncated-threshold": TruncatedThresholdSoa, "last-label": LastLabel},
    ConstantLearner: {"constant": ConstantLearner},
    SoaLearner: {
        "finite": frozen(THRESHOLDS), "finite-always": frozen(CONSTANTS, always_restrict=True),
        "support": frozen(FiniteSupportClass(DOMAIN, 2)),
        "singleton": frozen(SingletonClass(threshold_hypothesis(2))),
        "follow": lambda c=3: FollowHypothesisLearner(threshold_hypothesis(c)),
        "small-support": frozen(FiniteSupportClass((1, 2, 3), 1)),
        # these raise once the space empties, or on a point outside (1, 2, 3)
        "finite-error": partial(SoaLearner, THRESHOLDS), "small": partial(SoaLearner, SMALL),
        "support-error": partial(SoaLearner, FiniteSupportClass(DOMAIN, 1)),
        "empty": partial(SoaLearner, FiniteClass(DOMAIN, []))},
    ExpertLearner: {"thresholds": lambda key=(1, 3, 4, 9), on_empty="freeze":
                    ExpertLearner(THRESHOLDS, key, on_empty=on_empty),
                    "small": lambda key: ExpertLearner(SMALL, key, on_empty="freeze")},
    AggregatorLearner: {name: partial(AggregatorLearner, f) for name, f in FAMILIES.items()},
    CoverLearner: {"cover": lambda cover=TARGETS: CoverLearner(CoverSpec(cover))},
    FplLearner: {
        "agnostic": lambda components=2, seed=0, cap=None, classes=(CONSTANTS, THRESHOLDS):
            AgnosticFpl(ExplicitListFamily(list(classes)), components, seed=seed,
                        cap_rounds=cap),
        "five": lambda seed: FplLearner(five_experts(), FIVE_KS, seed=seed),
        # takes any point, and draws on `predict`
        "constants": lambda seed: FplLearner([ConstantLearner(0), ConstantLearner(1)],
                                             FIVE_KS[:2], seed=seed)},
    ExpertPoolFpl: {name: partial(ExpertPoolFpl, c) for name, c in {
        **COMPONENTS, "dim2-full3": FamilyComponent(2, FiniteClass.full_class((1, 2, 3)), 2),
        "dim3-full3": FamilyComponent(3, FiniteClass.full_class((1, 2, 3)), 3)}.items()},
    verification._ParityExpert: {"parity-0": partial(verification._ParityExpert, 0),
                                 "parity-1": partial(verification._ParityExpert, 1)},
    verification._LastLabelExpert: {"last-label": verification._LastLabelExpert},
}


def learner(cls, name, **kwargs) -> Callable[[], OnlineLearner]:
    return partial(ROWS[cls][name], **kwargs)


soa, expert, aggregator = (partial(learner, c) for c in (SoaLearner, ExpertLearner,
                                                         AggregatorLearner))
agnostic, five = partial(learner, FplLearner, "agnostic"), partial(learner, FplLearner, "five")
cover = partial(learner, CoverLearner, "cover")


def pool(name, seed):
    return learner(ExpertPoolFpl, name, seed=seed)


ANY = "any"


class Case(NamedTuple):
    make: Callable[[], OnlineLearner]
    batches: list       # (nature maker, horizon) each, played one after another
    error: object = None    # the first error's (type, message); None: none; ANY: any
    hand_first: bool = False    # every way plays the first batch by `update`
    pending: bool = False   # `play` and `update` predict the next batch's first round
    patches: tuple = ()     # (object, attribute, value), in place while the case plays
    scored: bool = False    # log a pool's scorer inputs and leaders
    pin: Callable | None = None     # holds of the learner after the first batch
    # False where the error comes from inside the learner, after which
    # `play` promises the error but not the state (`OnlineLearner.play`)
    state_at_error: bool = True
    # True where the errors are the nature's: a draw that raised, after which
    # `play` and the loop have drawn the same rounds. After the learner's,
    # `play` has drawn the whole script and the loop only up to the error
    nature_at_error: bool = False


def game(make, *scripts, horizon=None, **kwargs) -> Case:
    """A case that plays the scripts in turn, the last one `horizon` rounds."""
    batches = [(partial(nature.AgnosticScripted, xs, ys), len(xs)) for xs, ys in scripts]
    if horizon is not None:
        batches[-1] = batches[-1][0], horizon
    return Case(make, batches, **kwargs)


def split(script, at):
    return (script[0][:at], script[1][:at]), (script[0][at:], script[1][at:])


def check_script(points, labels, horizon=200):
    """The hierarchical check's script: cycling points, and alternating
    labels or fair coins from a seeded `random.Random`."""
    xs = [points[t % len(points)] for t in range(horizon)]
    rng = random.Random(horizon)
    ys = ([t % 2 for t in range(1, horizon + 1)] if labels == "alternating"
          else [rng.getrandbits(1) for _ in range(horizon)])
    return xs, ys


def cycle(n):
    return [(t % 4) + 1 for t in range(n)], [(t * 7 // 3) % 2 for t in range(n)]


GAME_ERRORS = (ProtocolError, ConfigurationError, DomainError, nature.ExhaustionError)
# `run_game`'s round loop is the checked loop: predict, check the label, step
WAYS = ("play", "run_game", "update")


def by_hand(learner, strategy, horizon):
    """The rounds as a caller plays them: predict, reveal, then `update`."""
    rounds = []
    for t in range(1, horizon + 1):
        try:
            x = strategy.next_point()
        except nature.ExhaustionError as exc:
            raise nature.ExhaustionError(f"round {t}: {exc}") from exc
        p = learner.predict(x)
        y = strategy.reveal_label(x, p)
        learner.update(x, y)
        rounds.append((x, y, p))
    return rounds


def played(way, case):
    """Each batch's rounds or error and the learner's and the nature's
    snapshots after it, as `way` plays the case, and with `scored` the
    pool's scorer log."""
    with ExitStack() as stack:
        for target, name, value in case.patches:
            stack.enter_context(mock.patch.object(target, name, value))
        learner = case.make()
        log = score_log(learner) if case.scored and way != "update" else None
        out = []
        for i, (make_nature, horizon) in enumerate(case.batches):
            mode = "update" if case.hand_first and i == 0 else way
            if case.pending and i == 1 and way != "run_game":
                learner.predict(make_nature().next_point())
            strategy = make_nature()
            strategy.oblivious = mode == "play"     # else `run_game` plays round by round
            try:
                if mode == "update":
                    got = ("rounds", by_hand(learner, strategy, horizon))
                else:
                    trace = runner.run_game(learner, strategy, horizon)
                    got = ("rounds", list(zip(trace.xs, trace.ys, trace.predicted)))
            except GAME_ERRORS as exc:
                got = ("error", type(exc).__name__, getattr(exc, "round_index", None), str(exc))
            out.append((got, snapshot(learner), snapshot(strategy)))
            assert i or case.pin is None or case.pin(learner), way
        return out, log


def same_game(case, ways=WAYS):
    """Play the case in `ways`, `play` first and `run_game`'s round loop
    second: every way plays the loop's game, `play` its state included
    unless an error from inside the learner ended a batch; the first error
    is the case's."""
    outs, logs = zip(*(played(way, case) for way in ways))
    for way, out in zip(ways[2:], outs[2:]):
        assert out == outs[1], way
    assert logs[0] == logs[1], "the scorer's log"
    assert promised(case, outs[0]) == promised(case, outs[1]), "play"
    assert_error(case, outs[0])


def promised(case, out):
    """What `play` promises of each batch: its rounds or error, and the
    states after it, which after an error depend on the case."""
    return [(got, learner if got[0] == "rounds" or case.state_at_error else None,
             strategy if got[0] == "rounds" or case.nature_at_error else None)
            for got, learner, strategy in out]


def assert_error(case, out):
    errors = [(got[1], got[3]) for got, *_ in out if got[0] == "error"]
    assert case.error == ANY or errors[:1] == ([case.error] if case.error else [])


def one_path(case, replays):
    """`play` takes the case's rounds by the replay alone (`replays`) or by
    the round loop alone, and plays the loop's game."""
    def refused(self, *args):   # predict(x), _loop(xs, ys, n) with rounds, or _replay
        if len(args) != 3 or len(args[1]):
            raise AssertionError("the path refused ran")
        return []

    cls = next(c for c in type(case.make()).__mro__ if "_replay" in vars(c))
    expected = played("run_game", case)
    with ExitStack() as stack:
        for name in ("predict", "_loop") if replays else ("_replay",):
            stack.enter_context(mock.patch.object(cls, name, refused))
        out, log = played("play", case)
    assert (promised(case, out), log) == (promised(case, expected[0]), expected[1])
    assert_error(case, expected[0])


def snapshot(learner) -> dict:
    """Everything observable about a learner's state, its experts' and its
    random generators' included; or a nature's attributes, a `random.Random`
    by its state, but the `oblivious` switch that `played` sets."""
    if isinstance(learner, nature.NatureStrategy):
        return {k: v.getstate() if isinstance(v, random.Random) else v
                for k, v in vars(learner).items() if k != "oblivious"}
    out = {k: v for k, v in vars(learner).items() if type(v) in (int, float, bool, str)}
    out["type"] = type(learner).__name__
    if isinstance(learner, (ExpertPoolFpl, FplLearner)):
        out.update(chosen=learner.chosen_index, rng=learner.rng.bit_generator.state,
                   losses=np.asarray(learner.losses).tolist())
    if isinstance(learner, ExpertPoolFpl):
        out.update(range_rng=learner._range_rng.bit_generator.state,
                   resolve_rng=learner._resolve_rng.bit_generator.state,
                   ends=learner._ends.tolist(), ks=learner._ks.tolist(),
                   growable=learner._growable.tolist(), state=learner.state.tolist())
    if isinstance(learner, FplLearner):
        out.update(experts=[snapshot(e) for e in learner.experts],
                   complexities=learner.complexities.tolist())
    if isinstance(learner, (SoaLearner, ExpertPoolFpl)):
        out["engine_states"] = list(getattr(learner.engine, "states", []))
    if isinstance(learner, AggregatorLearner):
        out.update(sub=[(n, snapshot(sub)) for n, sub in learner.sub.items()],
                   history=list(learner.history), selected=learner.selected)
    if isinstance(learner, CoverLearner):
        out["history"] = list(learner.history)
    return out


def score_log(pool):
    """Log each round's leader and a digest of its scorer inputs: the exact
    set's experts, losses and complexities, and each cohort range's first
    member, member count, smallest loss and complexity, and members' losses."""
    log, score = [], pool._lazy_leaders

    def scored(ts, exact, ranges, loss_of):
        (slot, loss, k, mask), (at, first, count, low_loss, low_k) = exact, ranges
        digests = []
        for i in range(len(ts)):
            drawn = slice(None) if mask is None else mask[i]
            inside = np.flatnonzero(at == i)
            parts = [ts[i], slot[i][drawn], loss[i][drawn], k[i][drawn], first[inside],
                     count[inside], low_loss[inside], low_k[inside]]
            for r in inside:
                held = np.arange(first[r], first[r] + count[r])
                parts.append(np.asarray(loss_of(i, held), dtype=float))
                # the bound that thins a range is its members' smallest c
                cohorts = np.searchsorted(pool._ends, held, side="right")
                assert low_loss[r] == parts[-1].min() and low_k[r] == pool._ks[cohorts].min()
            digests.append(hashlib.sha256(b"|".join(
                np.asarray(part, dtype=float).tobytes() for part in parts)).hexdigest())
        leaders = score(ts, exact, ranges, loss_of)
        log.extend(zip(digests, leaders.tolist()))
        return leaders

    pool._lazy_leaders = scored
    return log


# a script is drawn as bytes, a round each: bits 0-1 pick the point and
# bit 2 the label, so a 120-round script is one draw, not 240
def script_of(rounds: bytes, target=None):
    xs = [DOMAIN[b & 3] for b in rounds]
    return xs, [target(x) for x in xs] if target else [(b >> 2) & 1 for b in rounds]


scripts = st.integers(0, 120).flatmap(lambda T: st.binary(min_size=T, max_size=T)).map(script_of)
seeds = st.integers(0, 2 ** 32 - 1)
any_scripts = st.one_of(scripts, st.builds(script_of, st.binary(max_size=120),
                                           st.sampled_from(TARGETS)))
BAD_LABELS = [True, False, 1.0, 0.0, np.int64(1), 2, -1, None, [1]]


class Drawn(NamedTuple):
    examples: int
    cases: st.SearchStrategy    # of lists of cases, one list a draw
    ways: tuple
    shrink: bool


def drawn(examples, build, *strategies, ways=WAYS[:2], shrink=True) -> Drawn:
    """`examples` drawn lists of cases, each built from one draw and played
    in `ways`: by default `play` and the round loop, as a replay is proven."""
    return Drawn(examples, st.tuples(*strategies).map(lambda values: build(*values)), ways,
                 shrink)


def run(entry, check, key):
    """Check each case of a fixed entry, or of each drawn example."""
    if not isinstance(entry, Drawn):
        for case in entry:
            check(case)
        return

    def each(cases):
        for case in cases:
            check(case, entry.ways)

    # a database key of its own, as hypothesis's pytest plugin gives each
    # collected test, so that no id replays or deletes another's examples
    each._hypothesis_internal_add_digest = key.encode()
    # no shrink phase for the pools' and the agnostic learner's entries:
    # shrinking a failing game of two dimension-2 pools takes minutes, and
    # the fixed cases pin failures down
    phases = [phase for phase in settings().phases if entry.shrink or phase is not Phase.shrink]
    settings(max_examples=entry.examples, deadline=None, phases=phases)(
        given(entry.cases)(each))()


def cap_error(cap):
    return ("ConfigurationError", f"round {cap + 1} beyond the configured cap of {cap}; "
            "the expert pools grow polynomially per round")


def label_error(t, bad):
    return "ProtocolError", f"round {t}: label must be 0 or 1, got {bad!r}"


def emptied(t, x):
    return "ProtocolError", f"round {t}: restriction by ({x}, 1) empties the version space"


def pool_size(dim, T):
    return sum(math.comb(T, j) for j in range(dim + 1))


def laid_out(pool):
    # a pin: the plan holds the cohort ranges `_ranges` lays out, and a
    # round's newborns as a range of their own once they are E or more
    T, exact = pool.t - 1, ExpertPoolFpl._EXACT
    plan = fpl._replay_plan(pool.dim, T, exact, fpl.pool_complexity)
    ranges = sum(len(list(fpl._ranges(exact, t))) for t in range(1, T + 1))
    return len(plan.ranges[0]) == (ranges + (np.diff(plan.live) >= exact).sum()) * (pool.dim > 0)


def own_draws(seed, count):
    # a pin: the pool drew count(pool) perturbations, all from its own
    # generator, and none from its range and resolution generators
    def pin(pool):
        reference = np.random.default_rng(seed)
        fresh = [g.bit_generator.state for g in reference.spawn(2)]
        reference.standard_exponential(count(pool))
        return (pool.rng.bit_generator.state == reference.bit_generator.state and
                [g.bit_generator.state for g in (pool._range_rng, pool._resolve_rng)] == fresh)
    return pin


def with_bad_label(script, bad):
    if bad is None:
        return script
    (xs, ys), (at, label) = script, bad
    at = min(at, len(ys))
    return xs[:at] + [DOMAIN[at % 4]] + xs[at:], ys[:at] + [label] + ys[at:]


def faults(*rows, **kwargs):
    """Fixed cases by id, from rows (id, maker, script, error)."""
    return {id: [game(make, script, error=error, **kwargs)] for id, make, script, error in rows}


SOA_KINDS = {"expert": expert("thresholds"), **{kind: soa(kind) for kind in (
    "finite", "finite-always", "support", "singleton", "follow")}}
KINDS = {       # the makers of the tests of every row
    "constant": learner(ConstantLearner, "constant", value=1), "soa": soa("finite-error"),
    "soa-freeze": soa("finite"), "soa-always": soa("finite-always"),
    "expert": expert("thresholds"), "follow": soa("follow"), "cover": cover(),
    "aggregator": aggregator("constants-thresholds"),
    **{name: learner(OnlineLearner, name) for name in ROWS[OnlineLearner]},
    "fpl-five": five(seed=11), "pool": pool("dim2-thresholds", 11), "agnostic": agnostic(seed=11),
}
SEEDED = {      # the makers whose bad labels, exhaustion and later batches are pinned
    "agnostic-2": lambda seed: agnostic(seed=seed), "fpl-five": lambda seed: five(seed=seed),
    "pool-dim1": partial(pool, "dim1-constants"), "pool-dim0": partial(pool, "dim0-singleton"),
    "constant": lambda seed: learner(ConstantLearner, "constant", value=0),
    "aggregator-support": lambda seed: aggregator("support"),
    "aggregator-list": lambda seed: aggregator("constants-thresholds"),
}
CHECK_EXPERTS = {"parity-0": learner(verification._ParityExpert, "parity-0"),
                 "parity-1": learner(verification._ParityExpert, "parity-1"),
                 "last-label": learner(verification._LastLabelExpert, "last-label")}
EIGHT = [1, 2, 3, 4, 1, 2, 3, 4]
UNKNOWN = "point 'x' not in class domain"
NOT_NUMERIC = "threshold needs a numeric point, got 'x'"
COIN = check_script(DOMAIN, "coin")

replays_alone, loop_alone = partial(one_path, replays=True), partial(one_path, replays=False)


def prefixed(name, seed, prefix):
    """The oblivious nature `name`, its first `prefix` rounds drawn by hand:
    by the base class's round loop, which every nature's own `draw_script`
    overrides but a realizable script's, which draws by that loop alone."""
    strategy = OBLIVIOUS[name](seed)
    overrides = type(strategy).draw_script is not nature.NatureStrategy.draw_script
    assert overrides != isinstance(strategy, nature.RealizableScripted)
    nature.NatureStrategy.draw_script(strategy, prefix)
    return strategy


TABLE = {   # test name: its check, and its cases, fixed (a list) or drawn, by id if it has ids
    "test_deterministic_learners_replay_matches_loop": (same_game, drawn(40, lambda s: [
        game(make, s, error=ANY) for make in (
            KINDS["constant"], soa("finite"), soa("finite-always"), soa("support"),
            expert("thresholds", key=(1, 3, 4, 9, 20)), soa("finite-error"),
            soa("support-error"))], scripts)),
    "test_soa_batch_does_not_fall_back": (replays_alone, {
        kind: [game(make, cycle(60))] for kind, make in SOA_KINDS.items()}),
    "test_soa_emptied_mid_batch_matches_loop": (same_game, faults(
        # the labels of thr-3, then 1 at point 2, which no threshold
        # consistent with the mistakes so far gives; in a support of one,
        # the second 1-labelled point is one too many
        ("finite", soa("finite-error"), ([1, 4, 3, 2, 1, 2], [0, 1, 1, 0, 0, 1]), emptied(6, 2)),
        ("support", soa("support-error"), ([1, 2, 3, 4], [0, 1, 0, 1]), emptied(4, 4)),
        ("expert", expert("thresholds", key=range(1, 7), on_empty="error"),
         ([1, 4, 3, 2, 1, 2], [0, 1, 1, 0, 0, 1]), emptied(6, 2)))),
    "test_soa_point_outside_domain_mid_batch": (same_game, faults(*[
        # round 5 shows a point the class does not know
        (kind, make, ([1, 3, 2, 3, "x", 1], [0, 1, 1, 1, 1, 0]), ("DomainError", message))
        for kind, make, message in (("finite", soa("small"), UNKNOWN),
                                    ("support", soa("small-support"), UNKNOWN),
                                    ("follow", soa("follow", c=2), NOT_NUMERIC))],
        pin=lambda learner: learner.t == 5)),
    "test_empty_class_takes_the_loop": (loop_alone, [game(
        soa("empty"), ([1, 2], [0, 1]), pin=lambda learner: learner.mistakes == 0,
        error=("ProtocolError", "round 1: version space is empty (non-realizable feed)"))]),
    "test_expert_replay_matches_loop": (same_game, {
        # `before` rounds by hand, then the rest in one batch, whether the
        # last key round lies before the batch, inside it or nowhere
        name: drawn(20, lambda s, key=key, before=before: [game(
            expert("thresholds", key=key), *split(s, before), hand_first=True)], any_scripts)
        for name, key, before in (
            ("empty", (), 0), ("empty-after-rounds", (), 7), ("last-key-before-batch", (1, 3), 10),
            ("last-key-in-batch", (2, 15), 0), ("last-key-in-batch-after-rounds", (2, 15), 5))}),
    "test_expert_point_outside_domain": (same_game, faults(*[
        # a point the class does not know, before, at or after the last key round
        (f"{at}-key{i}", expert("small", key=key), (xs[:at] + ["x"] + xs[at + 1:],
                                                    [0, 1, 1, 1, 1, 0, 0, 1]),
         ("DomainError", UNKNOWN))
        for xs in [[1, 3, 2, 3, 1, 2, 1, 3]] for at in (1, 4, 7)
        for i, key in enumerate([(), (2,), (2, 9)])], state_at_error=False)),
    # AggregatorLearner
    "test_aggregator_replay_matches_loop": (same_game, {
        name: drawn(40, lambda s, name=name: [game(
            aggregator(name), s, error=ANY if name == "shrinking-domains" else None,
            state_at_error=False)], any_scripts) for name in FAMILIES}),
    "test_aggregator_error_from_inside_matches_loop": (same_game, faults(
        # sub-learner 2 (points 1-3) fails on point 4 at round 3; the loop
        # never creates sub-learner 3 (points 1-2), which a fallback from
        # sub-learners that kept the batch's rounds would create at once
        ("late-sub-learner-never-created", aggregator("shrinking-domains"),
         ([1, 3, 4], [1, 1, 0]), ("DomainError", "point 4 not in class domain")),
        # the loop creates sub-learner 3 at round 4, whose replay fails on
        # point 3 before sub-learner 2 sees point 4, the batch's first error
        ("late-sub-learner-fails-first", aggregator("shrinking-domains"),
         ([1, 1, 3, 4], [0, 1, 0, 0]), ("DomainError", "point 3 not in class domain")),
        state_at_error=False)),
    "test_aggregator_batch_does_not_fall_back": (replays_alone, [game(
        aggregator("support"), cycle(60), pin=lambda agg: len(agg.sub) > 3)]),
    # CoverLearner
    "test_cover_replay_matches_loop": (same_game, drawn(
        40, lambda s: [game(cover(), s, error=ANY)], any_scripts)),
    "test_cover_batch_does_not_fall_back": (replays_alone, [game(
        # six hypotheses stepped through to the last target
        cover(), (cycle(60)[0], [TARGETS[-1](x) for x in cycle(60)[0]]),
        pin=lambda learner: learner.index == len(TARGETS))]),
    "test_cover_exhausted_mid_batch_matches_loop": (same_game, [game(
        # point 1 labelled 0 at round 1 and 1 at round 4: no hypothesis fits both
        cover(), ([1, 2, 3, 1, 4, 2], [0, 1, 1, 1, 0, 0]),
        error=("ProtocolError", "round 4: every enumerated cover hypothesis eliminated"))]),
    "test_cover_hypothesis_raises_mid_batch": (same_game, {
        name: [game(cover(cover=hypotheses), script, error=("DomainError", NOT_NUMERIC),
                    pin=lambda learner, at=at: (learner.t, learner.index) == at)]
        for name, hypotheses, script, at in (
            # thr-3 cannot label "x" at round 3, before any mistake
            ("before-a-mistake", TARGETS[2:3], ([1, 3, "x", 2], [0, 1, 1, 0]), (3, 1)),
            # supp-{2} errs at round 2; thr-3, which cannot label "x", leads from then
            ("after-a-mistake", TARGETS[5:6] + TARGETS[2:3], ([1, 2, 3, "x"], [0, 0, 1, 1]),
             (4, 2)),
            # supp-{2} labels "x" 0 and errs at round 2; thr-3 then fails the
            # consistency check on the history's "x"
            ("in-the-step", TARGETS[5:6] + TARGETS[2:3], (["x", 2, 3], [0, 0, 1]), (2, 2)))}),
    "test_cover_bad_label_mid_script": (same_game, faults(*[
        # labels of thr-2, so that no cover hypothesis runs out first
        (str(bad), cover(), (EIGHT, [0, 1, 1, 1, 0, bad, 1, 1]), label_error(6, bad))
        for bad in (True, 1.0, 2, -1, None)])),
    # FplLearner, over perturbed leaders or plain learners
    "test_agnostic_replay_matches_loop": (same_game, {
        str(c): drawn(25, lambda s, seed, cap, c=c: [game(
            agnostic(components=c, seed=seed, cap=cap), s,
            error=cap_error(cap) if cap is not None and cap < len(s[0]) else None)],
            scripts, seeds, st.one_of(st.none(), st.integers(0, 130)), shrink=False)
        for c in (1, 2)}),
    "test_five_expert_replay_matches_loop": (same_game, drawn(
        40, lambda s, seed: [game(five(seed=seed), s)], scripts, seeds)),
    "test_coin_flip_replay_matches_loop": (same_game, drawn(30, lambda seed, T: [Case(
        agnostic(components=1, seed=seed, classes=(FiniteClass((0,), [[0], [1]]),)),
        [(partial(nature.CoinFlip, seed), T)])], seeds, st.integers(0, 150))),
    "test_cap_hit_and_not_hit": (same_game, [game(
        agnostic(components=1, classes=(CONSTANTS,), seed=3, cap=cap),
        ([1] * 30, [t % 2 for t in range(30)]), error=cap_error(29) if cap == 29 else None)
        for cap in (29, 30)]),
    "test_cap_hit_and_not_hit_past_the_ranges": (same_game, [game(
        # with both components, rounds 9 to 40 thin the pools' cohorts 8 to
        # 31 in two ranges; the cap stops every way at the same round
        agnostic(seed=6, cap=cap), check_script(DOMAIN, "coin", 60),
        error=cap_error(40) if cap == 40 else None) for cap in (40, 60)]),
    # ExpertPoolFpl
    "test_pool_replay_matches_loop": (same_game, {
        name: drawn(25, lambda s, seed, name=name: [game(pool(name, seed), s)], scripts, seeds,
                    shrink=False) for name in COMPONENTS}),
    "test_pool_batch_does_not_fall_back": (replays_alone, {
        # a fresh pool of dimension at most 2 replays every round
        name: [game(pool(name, 3), cycle(60),
                    pin=lambda p, dim=comp.dim: p.pool_size == pool_size(dim, 60))]
        for name, comp in COMPONENTS.items()}),
    "test_dim3_pool_takes_the_loop": (loop_alone, [game(
        pool("dim3-full3", 3), ([1, 2, 3, 1, 2, 3, 1, 2], [0, 1, 1, 0, 1, 0, 0, 1]),
        pin=lambda p: p.pool_size == pool_size(3, 8))]),
    "test_dim2_replay_at_check_scale": (same_game, {
        # T=200 as in the hierarchical check, then five more rounds, which
        # the pool plays by the round loop. Every labeling of three points
        # has more states than the thresholds, so a replay that interned
        # them in another order than the loop shows
        case: [game(pool(name, 31), check_script(points, labels),
                    ([points[t % len(points)] for t in range(3, 8)], [1, 1, 0, 1, 0]),
                    pin=lambda p: p.pool_size == pool_size(2, 200) and p.engine.n_states > 4)]
        for case, name, points, labels in (
            ("thresholds-alternating", "dim2-thresholds", DOMAIN, "alternating"),
            ("thresholds-coin", "dim2-thresholds", DOMAIN, "coin"),
            ("full3-coin", "dim2-full3", (1, 2, 3), "coin"),
            ("support2-coin", "dim2-support", DOMAIN, "coin"))}),
    "test_replay_charges_mass_as_the_loop": (same_game, {
        # the replay charges its cohorts in one pass, with the loop's float
        # operations in the loop's order: the snapshots hold the mass
        str(dim): [game(pool(name, 34), COIN, pin=lambda p, d=dim: p._size == pool_size(d, 200))]
        for dim, name in POOL_DIMS.items()}),
    "test_replay_mass_overflow_names_the_loop_round": (same_game, [game(
        # with complexity 1 for every key, the root and the cohorts of rounds
        # 1 and 2 bring a dimension-1 pool's mass to 3/e, over the budget at round 2
        pool("dim1-constants", 35), ([1, 2, 3, 4], [0, 1, 1, 0]), state_at_error=False,
        patches=((fpl, "pool_complexity", lambda dim, last_round: 1.0),),
        error=("ConfigurationError", "complexity mass 1.103638 exceeds 1 at round 2"))]),
    "test_replay_mass_overflow_past_the_ranges": (same_game, [game(
        # complexity 4 for every key after the root brings a dimension-1 pool
        # over the budget at round 35, after the ranges went live at round 9
        pool("dim1-support", 7), check_script(DOMAIN, "coin", 60), state_at_error=False,
        patches=((fpl, "pool_complexity", lambda dim, last: 1.0 if last < 1 else 4.0),),
        error=("ConfigurationError", "complexity mass 1.008927 exceeds 1 at round 35"))]),
    "test_replay_matches_loop_at_every_block_size": (same_game, {
        # the cohort ranges double from the first block [E, 2E): E = 1 thins
        # every cohort but the root, and E = 2**22 none of these scripts'
        # cohorts, so that every perturbation is drawn
        f"{name}-{T}": [game(pool(name, 39), check_script(DOMAIN, "coin", T), scored=True,
                             patches=((ExpertPoolFpl, "_EXACT", exact),), pin=laid_out)
                        for exact in (1, 3, 8, 2 ** 22)]
        for name in COMPONENTS for T in (1, 2, 50, 200)}),
    "test_dim2_bad_label_after_round_100": (same_game, [game(
        # the first 100 rounds replay, round 101 is predicted and raises, and
        # the rounds after it take the loop
        pool("dim2-thresholds", 32), (COIN[0], COIN[1][:100] + [2] + COIN[1][101:]),
        (COIN[0][100:105], [1, 0, 0, 1, 1]), error=label_error(101, 2),
        pin=lambda p: p.t == 101 and p.chosen_index is not None)]),
    "test_one_round_draws_every_perturbation": (same_game, {
        # T = 1: no range is live, so one perturbation per expert is drawn
        name: [game(pool(name, 8), ([2], [1]), pin=own_draws(8, lambda p: p.pool_size))]
        for name in COMPONENTS}),
    "test_ranges_with_no_member_draw_nothing": (same_game, {
        # the cohorts of a dimension-0 pool are empty, so none of its ranges
        # holds a live member: one perturbation a round, for the root
        name: [game(pool(name, 9), check_script(DOMAIN, "coin", 60),
                    pin=own_draws(9, lambda p: 60))]
        for name in ("dim0-singleton", "dim0-finite")}),
    # the check experts
    "test_check_experts_replay_matches_loop": (same_game, {
        # `before` rounds by hand, then the rest in one batch; the fixed
        # cases replay two batches, so a label or round carried from one
        # batch to the next shows whatever hypothesis draws
        **{f"{before}-{kind}": drawn(20, lambda s, make=make, before=before: [game(
            make, *split(s, before), hand_first=True)], scripts)
           for before in (0, 3) for kind, make in CHECK_EXPERTS.items()},
        **{f"two-batches-{kind}": [game(make, *split(cycle(40), at)) for at in (3, 4)]
           for kind, make in CHECK_EXPERTS.items()}}),
    # the oblivious natures, a prefix of each drawn by hand and the rest of it
    # played against a perturbed leader over the constants, which takes any
    # point and draws on `predict`, so that a round whose label failed and
    # that the learner did not predict shows
    "test_draw_script_matches_round_loop": (same_game, {
        **{name: drawn(40, lambda seed, prefix, T, name=name: [Case(
            learner(FplLearner, "constants", seed=seed),
            [(partial(prefixed, name, seed, prefix), T)], error=ANY, nature_at_error=True)],
            seeds, st.integers(0, 10), st.integers(0, 30), ways=WAYS) for name in OBLIVIOUS},
        # 10,000 points at T = 400: the script labels each distinct drawn
        # point once, and where a label raises, at round 290 of seed 5, it
        # leaves the generator as it found it to the loop
        "iid-wide-400": [Case(learner(FplLearner, "constants", seed=seed),
                              [(partial(OBLIVIOUS[name], seed), 400)], error=error,
                              nature_at_error=True)
                         for name, seed, error in (
                             ("iid-wide", 0, None),
                             ("iid-wide-raises", 5, ("DomainError", "no label at 9971")))]}),
    # every row
    "test_exhaustion_mid_script": (same_game, faults(*[
        (kind, make, ([1, 2, 3, 4, 1, 2, 3], [0, 1, 1, 0, 1, 1, 0]),
         ("ExhaustionError", "round 8: scripted stream exhausted after 7 points"))
        for kind, make in (("agnostic-2", agnostic(seed=4)), ("fpl-five", five(seed=4)),
                           ("pool-dim1", pool("dim1-constants", 4)), ("soa", soa("finite")))],
        horizon=12)),
    "test_bad_label_mid_script": (same_game, faults(*[
        (f"{kind}-{bad}", {**SEEDED, "pool-dim1": partial(pool, "dim1-support")}[kind](5),
         (EIGHT, [0, 1, 1, 0, 1, bad, 0, 1]), label_error(6, bad))
        for kind in ("agnostic-2", "fpl-five", "pool-dim1", "constant", "aggregator-support",
                     "aggregator-list") for bad in (True, 1.0, 2, -1, None)])),
    "test_play_after_rounds_matches_loop": (same_game, {
        # ten rounds by hand, and with `pending` a prediction of the next
        # round (a pending choice), then the rest in one call
        f"{pending}-{kind}": [game(SEEDED[kind](9), *split(cycle(40), 10), hand_first=True,
                                   pending=pending)]
        for pending in (False, True) for kind in ("pool-dim1", "pool-dim0", "fpl-five",
                                                  "agnostic-2", "aggregator-support",
                                                  "aggregator-list")}),
    "test_run_game_matches_hand_loop": (same_game, {
        # both of `run_game`'s paths against predict-then-`update` by hand
        kind: drawn(15, lambda s, make=make: [game(make, s, error=ANY)], any_scripts, ways=WAYS)
        for kind, make in KINDS.items()}),
    "test_base_play_matches_checked_loop": (same_game, {
        # labels checked once up front, then predict and step: the same
        # predictions, state and bad-label error as a check in every round
        kind: drawn(15, lambda s, bad, make=make: [game(make, with_bad_label(s, bad), error=ANY)],
                    any_scripts, st.one_of(st.none(), st.tuples(st.integers(0, 120),
                                                                st.sampled_from(BAD_LABELS))))
        for kind, make in KINDS.items()}),
}


def table_test(check, cases):
    """The table's one test: `check` on an entry's cases, or on those of
    each of its ids."""
    if isinstance(cases, dict):
        @pytest.mark.parametrize("case", list(cases))
        def test(case, request):
            run(cases[case], check, request.node.nodeid)
    else:
        def test(request):
            run(cases, check, request.node.nodeid)
    return test


# collected under each entry's name, so that a case keeps its pytest id and
# its hypothesis database key
globals().update((name, table_test(*entry)) for name, entry in TABLE.items())


def checked_loop(learner, xs, ys):
    """`run_game`'s round loop, which checks each label as its round comes."""
    strategy = nature.AgnosticScripted(xs, ys)
    strategy.oblivious = False
    return runner.run_game(learner, strategy, len(ys)).predicted


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
def test_aggregator_walk_matches_loop(xs, ys, moved):
    # the walk jumps between changes of choice: pinned on a script where a
    # tie at the minimum moves the choice without growing the pool, and on
    # one where the pool grows twice in one batch
    choices, sizes, tied = zip(*walk(AggregatorLearner(FAMILIES["support"]), xs, ys))
    if moved is None:
        assert set(choices) == {1}
        assert [t for t in range(2, len(xs) + 1) if sizes[t - 1] > sizes[t - 2]] == [2, 4]
    else:
        assert choices[moved - 2:moved] == (1, 2) and set(choices[:moved - 1]) == {1}
        assert sizes[moved - 2] == sizes[moved - 1] and tied[moved - 1] == 2
    one_path(game(aggregator("support"), (xs, ys)), replays=True)


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


# the plan of a replay: made once per (dimension, horizon, exact cohorts),
# shared read-only by every replay of that shape

def plan_parts(value):
    """Every value inside a plan, tuples opened."""
    if isinstance(value, tuple):
        for part in value:
            yield from plan_parts(part)
    else:
        yield value


def pool_game(name, xs, ys, seed):
    """A fresh pool's replay of a script: its rounds, state and scorer log."""
    return played("play", game(pool(name, seed), (xs, ys), scored=True))


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_warm_plan_replays_as_a_cold_one(name):
    # the plan holds nothing of a game: a replay that makes it, and one that
    # finds it made by a pool of another class of the same dimension, play
    # the same game
    xs, ys = check_script(DOMAIN, "coin", horizon=120)
    dim = COMPONENTS[name].dim
    fpl._replay_plan.cache_clear()
    cold = pool_game(name, xs, ys, 40)
    sibling = next(n for n, c in COMPONENTS.items() if n != name and c.dim == dim)
    pool_game(sibling, xs, ys, 41)
    assert pool_game(name, xs, ys, 40) == cold
    info = fpl._replay_plan.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("dim", sorted(POOL_DIMS))
def test_plan_is_read_only(dim):
    plan = fpl._replay_plan(dim, 60, ExpertPoolFpl._EXACT, fpl.pool_complexity)
    parts = list(plan_parts(plan._replace(kept=None)))     # the one part a replay writes
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
    pool = ExpertPoolFpl(COMPONENTS[POOL_DIMS[dim]], seed=0)
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
        assert plan.ks.tolist() == ks[:T + 1].tolist()     # by cohort, the root's first
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


def reference_walk(engine, xs, ys, dim):
    """The state walk as `ExpertPoolFpl._replay`'s docstring states it, round
    by round over every present state: at round b each distinct state of the
    growable experts, in order of first appearance, that (x_b, y_b) has not
    moved yet restricts if it errs there. Returns the moves (state, point,
    label) -> state, in the order made, and the present states."""
    after, present = {}, [0] if dim else []
    for x, y in zip(xs, ys):
        for s in present:
            if (s, x, y) not in after:
                nxt = engine.restrict(s, x, y) if engine.predict(s, x) != y else None
                after[s, x, y] = s if nxt is None else nxt
        if dim == 2 and after[0, x, y] not in present:
            present.append(after[0, x, y])
    return after, present


@pytest.mark.parametrize("name", ["dim1-constants", "dim1-support", "dim2-thresholds",
                                  "dim2-support", "dim2-full3"])
@settings(max_examples=15, deadline=None)
@given(script=scripts)
def test_state_walk_matches_the_docstring_rule(name, script):
    # the replay moves by each (x, y) only the states that appeared since its
    # last round: checked against a walk over every present state each round,
    # on scripts that repeat pairs, through the engine's interned states and
    # each expert's state and loss, which follow from the moves by its key
    xs, ys = script
    if name == "dim2-full3":
        xs = [min(x, 3) for x in xs]
    fpl._replay_plan.cache_clear()      # so that the replay walks
    replayed, fed = (ROWS[ExpertPoolFpl][name](seed=0) for _ in range(2))
    replayed.play(xs, ys)
    after, _ = reference_walk(fed.engine, xs, ys, fed.dim)
    # mistakes[s][t]: the mistakes of state s over rounds 1..t
    mistakes = [list(itertools.accumulate((fed.engine.predict(s, x) != y for x, y in zip(xs, ys)),
                                          initial=0)) for s in range(fed.engine.n_states)]
    states, losses = [], []
    for key in replayed.keys:
        s, t0, loss = 0, 0, 0
        for t in key:   # predicting from s up to its key round t, then moved
            loss += mistakes[s][t] - mistakes[s][t0]
            s, t0 = after[s, xs[t - 1], ys[t - 1]], t
        states.append(s)
        losses.append(loss + mistakes[s][len(ys)] - mistakes[s][t0])
    assert replayed.engine.states == fed.engine.states
    assert (replayed.state.tolist(), replayed.losses.tolist()) == (states, losses)


# the walk's edge cases: a script whose last new (point, label) comes at its
# last round, scripts of one pair, an empty script, and the check's scripts
WALK_SCRIPTS = {
    "empty": ([], []),
    "one-round": ([3], [0]),
    "one-pair": ([2] * 9, [1] * 9),
    "new-point-last": ([1, 2, 1, 2, 1, 2, 4], [0, 1, 1, 0, 0, 1, 1]),
    "new-label-last": ([1, 2, 3, 1, 2, 3, 3], [0, 0, 1, 1, 1, 1, 0]),
    "coin": check_script(DOMAIN, "coin", 60),
    "alternating": check_script(DOMAIN, "alternating", 60),
}


@pytest.mark.parametrize("script", WALK_SCRIPTS)
@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_stopped_walk_matches_the_reference(name, script):
    # the replay's walk stops once every distinct (x, y) has moved every
    # present state, where the reference walks every round: both make the
    # same moves in the same order, keep the same present states and intern
    # the same engine states, and the pool replays the loop's game
    xs, ys = WALK_SCRIPTS[script]
    comp = COMPONENTS[name]
    stopped, full = engine_for(comp.cls), engine_for(comp.cls)
    after, present = fpl._walk(stopped, comp.dim, xs, bytes(ys), len(set(zip(xs, ys))))
    reference, in_order = reference_walk(full, xs, ys, comp.dim)
    assert (list(after.items()), present) == (list(reference.items()), in_order)
    assert getattr(stopped, "states", None) == getattr(full, "states", None)
    fpl._replay_plan.cache_clear()      # so that the replay walks
    same_game(game(pool(name, 56), (xs, ys), scored=True))


@pytest.mark.parametrize("horizon", [0, 1, 31, 32, 33, 400])
@pytest.mark.parametrize("seed", [0, 5, 2 ** 32 + 3])
def test_coin_script_is_the_label_loop(seed, horizon):
    # one wide draw gives the labels of `horizon` calls of `reveal_label`,
    # as ints, and leaves the generator where those calls leave it
    drawn, looped = nature.CoinFlip(seed, point="p"), nature.CoinFlip(seed, point="p")
    xs, ys, failure = drawn.draw_script(horizon)
    labels = [looped.reveal_label(looped.next_point(), 0) for _ in range(horizon)]
    assert (xs, ys, failure) == (["p"] * horizon, labels, None)
    assert all(type(y) is int for y in ys)
    assert drawn.rng.getstate() == looped.rng.getstate()


@pytest.mark.parametrize("exact", [1, 2])
@pytest.mark.parametrize("name", ["dim1-constants", "dim2-thresholds"])
def test_one_pass_scoring_where_ranges_share_a_round(name, exact):
    # with E of 1 or 2, some round of a coin-label game resolves members of
    # two or more cohort ranges: the replay scores them in one pass with every
    # other round's, the loop round by round, and both choose the same leaders
    resolved = set()    # (round, first member of the range) of each member scored
    lazy = ExpertPoolFpl._lazy_leaders

    def spy(self, ts, exact_set, ranges, loss_of):
        at, first, count = ranges[:3]

        def logged(rows, members):
            for i, m in zip(np.broadcast_to(rows, np.shape(members)).tolist(),
                            np.asarray(members).tolist()):
                r = np.flatnonzero((at == i) & (first <= m) & (m < first + count))
                resolved.add((int(ts[i]), int(first[r[0]])))
            return loss_of(rows, members)
        return lazy(self, ts, exact_set, ranges, logged)

    same_game(game(pool(name, 47), check_script(DOMAIN, "coin", 60), patches=(
        (ExpertPoolFpl, "_EXACT", exact), (ExpertPoolFpl, "_lazy_leaders", spy))))
    assert max(Counter(t for t, _ in resolved).values()) >= 2


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
    # the plan reads the root's complexity too, for a fresh pool's masses
    assert calls == list(range(51))
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
        results[name, T] = pool_game(name, xs[:T], ys[:T], 44)
        assert fpl._replay_plan.cache_info().currsize <= maxsize
    assert fpl._replay_plan.cache_info().currsize == maxsize
    name, T = shapes[0]
    assert pool_game(name, xs[:T], ys[:T], 44) == results[name, T]
    assert fpl._replay_plan.cache_info().misses == len(shapes) + 1


# the tables of a replay: built on each replay of a script, kept in its
# plan from the second replay in a row, and read from the third on

def tables_built(monkeypatch):
    """The horizon of each script whose tables `fpl._tables` builds."""
    built, build = [], fpl._tables

    def counted(engine, dim, plan, exact, xs, ys):
        built.append(len(ys))
        return build(engine, dim, plan, exact, xs, ys)

    monkeypatch.setattr(fpl, "_tables", counted)
    return built


def kept(dim, T, exact=ExpertPoolFpl._EXACT):
    """The kept slot of a shape's plan: [the last script, the last script
    replayed twice in a row, its tables]."""
    return fpl._replay_plan(dim, T, exact, fpl.pool_complexity).kept


def sighted(*cases, order=None):
    """Play the cases by `play` in `order`, indices into the cases (by
    default each three times in a row), after emptying the plan cache and
    so every kept slot: each game, and its scorer log, is what `play`
    promises of the round loop's. Returns the loop's games."""
    fpl._replay_plan.cache_clear()
    loops = [played("run_game", case) for case in cases]
    for i in order or [i for i in range(len(cases)) for _ in range(3)]:
        out, got = played("play", cases[i])
        assert (promised(cases[i], out), got) == (promised(cases[i], loops[i][0]), loops[i][1]), i
    return [loop for loop, _ in loops]


@pytest.mark.parametrize("dim", sorted(POOL_DIMS))
def test_warm_tables_replay_as_cold_ones(dim, monkeypatch):
    # each of a script's three replays in a row plays the loop's game: two
    # classes of one dimension, each at three counts of exact cohorts, build
    # their tables on the first two replays and read them on the third, and
    # each count's plan keeps the script of the class played last
    built = tables_built(monkeypatch)
    names = [name for name, comp in COMPONENTS.items() if comp.dim == dim]
    xs, ys = check_script(DOMAIN, "coin", 60)
    sighted(*(game(pool(name, 48), (xs, ys), scored=True,
                   patches=((ExpertPoolFpl, "_EXACT", exact),))
              for exact in (1, 2, 8) for name in names))
    assert len(names) == 2 and built == [60] * 12
    held = [kept(dim, 60, exact)[1] for exact in (1, 2, 8)]
    assert held == [(COMPONENTS[names[-1]].cls, ys, xs)] * 3


@pytest.mark.parametrize("name", sorted(POOL_DIMS.values()))
def test_the_plan_keeps_a_script_replayed_twice_in_a_row(name, monkeypatch):
    # A, A, A builds the tables twice and reads them on the third replay;
    # A, B, A, B alternates two scripts on one plan and keeps nothing
    built = tables_built(monkeypatch)
    a, b = (game(pool(name, 53), check_script(DOMAIN, labels, 40), scored=True)
            for labels in ("coin", "alternating"))
    sighted(a, order=[0, 0, 0])
    assert built == [40, 40]
    built.clear()
    sighted(a, b, order=[0, 1, 0, 1])
    assert built == [40] * 4 and kept(COMPONENTS[name].dim, 40)[1:] == [None, None]


@pytest.mark.parametrize("name", sorted(POOL_DIMS.values()))
def test_points_in_any_sequence_are_one_script(name, monkeypatch):
    # a script is compared by value: its points as a list, a tuple and a
    # numpy array replay as the loop, cold, cold and kept, and the numpy
    # array's replay reads the tables the tuple's kept
    built = tables_built(monkeypatch)
    xs, ys = check_script(DOMAIN, "coin", 40)
    (loop, log), = [played("run_game", game(pool(name, 54), (xs, ys), scored=True))]
    fpl._replay_plan.cache_clear()
    for points in (xs, tuple(xs), np.array(xs)):
        learner = pool(name, 54)()
        got = score_log(learner)
        rounds = list(zip(xs, ys, learner.play(points, ys)))
        assert (("rounds", rounds), snapshot(learner), got) == (*loop[0][:2], log)
    assert built == [40, 40]


@pytest.mark.parametrize("name", sorted(POOL_DIMS.values()))
@pytest.mark.parametrize("point", [np.array([1, 2]), np.array([1])], ids=["array", "one-entry"])
def test_an_unhashable_point_is_not_the_kept_script(name, point):
    # after a script is kept, one equal to it but for a numpy array in
    # place of its first point, whose == gives an array, raises the loop's
    # error: the array is not the kept point, though one of one entry is
    # truthy when compared with it
    xs, ys = [1, 2, 3, 4], [0, 1, 0, 1]
    fpl._replay_plan.cache_clear()
    for _ in range(2):
        pool(name, 55)().play(xs, ys)
    loop = pool(name, 55)()
    with pytest.raises(TypeError) as by_loop:
        loop.update(point, ys[0])
    with pytest.raises(TypeError) as by_play:
        pool(name, 55)().play([point, *xs[1:]], ys)
    assert str(by_play.value) == str(by_loop.value) == "unhashable type: 'numpy.ndarray'"


@pytest.mark.parametrize("name", ["dim0-finite", "dim1-constants", "dim2-thresholds"])
def test_a_point_outside_the_class_raises_before_a_later_unhashable_one(name):
    # the replay's point index hashes every point before the walk; when one
    # does not hash, each point is predicted from state 0 in order, as the
    # loop predicts first in each round, so the loop's error is raised at
    # the first bad round, here the DomainError of round 2, not the
    # TypeError of round 3; a dimension-0 pool, which walks nothing, too
    xs, ys = [1, "x", np.array([1, 2]), 3], [0, 1, 1, 0]
    fpl._replay_plan.cache_clear()
    loop = pool(name, 57)()
    loop.update(xs[0], ys[0])
    with pytest.raises(DomainError) as by_loop:
        loop.update(xs[1], ys[1])
    with pytest.raises(DomainError) as by_play:
        pool(name, 57)().play(xs, ys)
    assert str(by_play.value) == str(by_loop.value) == UNKNOWN


@pytest.mark.parametrize("name", ["dim1-support", "dim2-thresholds", "dim2-full3"])
def test_pool_goes_on_after_a_warm_replay(name, monkeypatch):
    # the third replay's engine takes the states the walk interned; the
    # rounds after it take the loop, and show new points, whose restricts
    # intern new states after those, as the loop's do
    built = tables_built(monkeypatch)
    first, more = ([1, 2] * 10, [t % 2 for t in range(20)]), ([3, 1, 3, 2, 3], [1, 1, 0, 0, 0])
    loop, = sighted(game(pool(name, 49), first, more))
    states = [len(learner["engine_states"]) for _, learner, _ in loop]
    assert built == [20, 20] and states[0] < states[1]


@pytest.mark.parametrize("name", sorted(POOL_DIMS.values()))
def test_a_script_that_raises_keeps_no_tables(name, monkeypatch):
    # round 3 shows a point outside the class: every replay builds its
    # tables and raises the loop's error, and none is kept
    built = tables_built(monkeypatch)
    sighted(game(pool(name, 50), ([1, 2, "x", 3], [0, 1, 1, 0]), state_at_error=False))
    assert built == [4, 4, 4] and kept(COMPONENTS[name].dim, 4) == [None] * 3


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
    assert pool.pool_size == pool_size(COMPONENTS[name].dim, 200)
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 1), st.sampled_from(BAD_LABELS)), max_size=12))
def test_labelled_prefix_matches_label_scan(ys):
    # the set-based fast path against the scan it short-cuts; [1] is unhashable
    assert labelled_prefix(ys) == next(
        (i for i, y in enumerate(ys) if not is_label(y)), len(ys))
    assert labelled_prefix(tuple(ys)) == labelled_prefix(ys)


@pytest.mark.parametrize("key, head", [((), 0), ((2, 15), 15), ((70,), 60)])
def test_frozen_expert_reads_a_table(key, head, monkeypatch):
    # only the rounds up to the last key round take the version-space
    # replay; past it every round reads one prediction per distinct point
    given_rounds, replay = [], SoaLearner._replay

    def counted(self, xs, ys):
        given_rounds.append(len(ys))
        return replay(self, xs, ys)

    monkeypatch.setattr(SoaLearner, "_replay", counted)
    same_game(game(expert("thresholds", key=key), cycle(60)))
    assert given_rounds == [head]


@pytest.mark.parametrize("make", [
    lambda: FplLearner(five_experts(), FIVE_KS, seed=3),
    lambda: AgnosticFpl(ExplicitListFamily([CONSTANTS, THRESHOLDS]), 2, seed=3),
    lambda: AggregatorLearner(FAMILIES["constants-thresholds"]),
], ids=["fpl-five", "agnostic-2", "aggregator-list"])
@pytest.mark.parametrize("bad", [None, 2])
def test_one_label_check_per_play(make, bad, monkeypatch):
    # `play` checks the batch's labels once; the experts and sub-learners it
    # plays on that batch do not check them again, and a bad label still
    # raises at its round with the loop's message
    xs, ys = cycle(40)
    if bad is not None:
        ys[25] = bad
    calls = []
    monkeypatch.setattr(learners_module, "labelled_prefix",
                        lambda ys: calls.append(len(ys)) or labelled_prefix(ys))
    if bad is None:
        make().play(xs, ys)
    else:
        with pytest.raises(ProtocolError, match="round 26: label must be 0 or 1, got 2") as exc:
            make().play(xs, ys)
        assert exc.value.round_index == 26
    assert calls == [40]


class Emits(OnlineLearner):
    """Predicts one fixed value, which need not be a label."""

    def __init__(self, value):
        super().__init__()
        self.value = value

    def predict(self, x):
        return self.value


@pytest.mark.parametrize("value, error", [(2, None), (255, None), (0.5, TypeError),
                                          (np.bool_(True), TypeError), (-1, ValueError),
                                          (256, ValueError)])
def test_fpl_replay_reads_expert_predictions_as_bytes(value, error):
    # an expert prediction that is an int in 0..255 plays as in the loop;
    # any other is refused with a typed error
    make = lambda: FplLearner([ConstantLearner(0), Emits(value)], [1.0, 2.0], seed=8)
    if error is None:
        same_game(game(make, ([1, 2, 3, 4] * 5, [0, 1, 1, 0, 1] * 4)))
    else:
        with pytest.raises(error):
            make().play([1, 2, 3, 4] * 5, [0, 1, 1, 0, 1] * 4)
