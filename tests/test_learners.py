import math
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from nuolab.fpl import AgnosticFpl, ExpertPoolFpl, FplLearner
from nuolab.hypotheses import (DomainError, ExplicitListFamily, FamilyComponent,
                               FiniteClass, FiniteSupportClass, FiniteSupportFamily,
                               constant_hypothesis, support_hypothesis,
                               threshold_hypothesis)
from nuolab.learners import (AggregatorLearner, ConstantLearner, CoverLearner,
                             CoverSpec, ExpertLearner, FollowHypothesisLearner,
                             NaturalThresholdLearner, ProtocolError, SoaLearner,
                             TruncatedThresholdSoa)
from nuolab.littlestone import CapacityError, ldim
from nuolab.nature import TreeAdversary


def surviving_labels(learner):
    """The labels of the rows in a finite-class learner's version space."""
    mask = learner.engine.states[learner.sid]
    return [label for i, label in enumerate(learner.engine.root.labels) if mask >> i & 1]


def run_stream(learner, pairs):
    preds = []
    for x, y in pairs:
        preds.append(learner.predict(x))
        learner.update(x, y)
    return preds


class TestSoa:
    def test_unknown_empty_policy_rejected(self):
        with pytest.raises(DomainError, match="on_empty must be 'error' or 'freeze', got 'skip'"):
            SoaLearner(FiniteClass(("a",), [[0]]), on_empty="skip")

    def test_tie_breaks_to_zero(self):
        cls = FiniteClass(("a", "b"), [[0, 0], [1, 1]])
        assert SoaLearner(cls).predict("a") == 0

    def test_forced_label(self):
        # both rows say 0 at "a": restricting to 1 would be empty
        cls = FiniteClass(("a", "b"), [[0, 0], [0, 1]])
        assert SoaLearner(cls).predict("a") == 0
        cls1 = FiniteClass(("a", "b"), [[1, 0], [1, 1]])
        assert SoaLearner(cls1).predict("a") == 1

    def test_mistake_bound_against_forcing_adversary(self):
        cls = FiniteClass.full_class(("a", "b", "c"))
        learner = SoaLearner(cls)
        adversary = TreeAdversary(cls)
        for _ in range(10):
            x = adversary.next_point()
            p = learner.predict(x)
            learner.update(x, adversary.reveal_label(x, p))
        assert learner.mistakes <= 3

    def test_dimension_drops_on_every_mistake(self):
        cls = FiniteClass.full_class(("a", "b", "c"))
        learner = SoaLearner(cls)
        adversary = TreeAdversary(cls)
        for _ in range(10):
            x = adversary.next_point()
            p = learner.predict(x)
            before = learner.engine.ldim(learner.sid)
            y = adversary.reveal_label(x, p)
            learner.update(x, y)
            if p != y:
                assert learner.engine.ldim(learner.sid) < before

    def test_empty_class_raises_at_round_one(self):
        learner = SoaLearner(FiniteClass(("a",), []))
        with pytest.raises(ProtocolError) as err:
            learner.predict("a")
        assert err.value.round_index == 1

    def test_non_realizable_feed_raises_with_round(self):
        cls = FiniteClass(("a",), [[0], [1]])
        learner = SoaLearner(cls)
        learner.update("a", 1)            # mistake: space -> {1}
        learner.update("a", 1)            # consistent
        with pytest.raises(ProtocolError) as err:
            learner.update("a", 0)        # mistake, restriction empty
        assert err.value.round_index == 3

    def test_freeze_mode_stays_total(self):
        cls = FiniteClass(("a",), [[0], [1]])
        learner = SoaLearner(cls, on_empty="freeze")
        for y in (1, 0, 1, 0):
            learner.update("a", y)
        assert learner.mistakes >= 2

    def test_always_restrict_variant(self):
        cls = FiniteClass.thresholds((1, 2, 3), (1, 2, 3, 4))
        eager = SoaLearner(cls, always_restrict=True)
        run_stream(eager, [(3, 1), (1, 0)])
        # correct rounds restricted too: only thr-2 and thr-3 survive
        assert surviving_labels(eager) == ["thr-2", "thr-3"]
        lazy = SoaLearner(cls)
        run_stream(lazy, [(3, 1), (1, 0)])
        assert len(surviving_labels(lazy)) > len(surviving_labels(eager))

    def test_class_beyond_the_caps_is_refused(self):
        # a deep recursion would otherwise fail at the first prediction
        cls = FiniteClass.thresholds(tuple(range(1, 1501)), range(1, 1502))
        with pytest.raises(CapacityError, match="exceeds caps"):
            SoaLearner(cls)


@st.composite
def realizable_streams(st_draw):
    m = st_draw(st.integers(1, 3))
    all_rows = list(product((0, 1), repeat=m))
    rows = st_draw(st.lists(st.sampled_from(all_rows), min_size=1,
                            max_size=2 ** m, unique=True))
    cls = FiniteClass(("a", "b", "c")[:m], rows)
    target = st_draw(st.integers(0, len(rows) - 1))
    xs = st_draw(st.lists(st.sampled_from(cls.domain), min_size=1, max_size=10))
    return cls, [(x, rows[target][cls.point_index(x)]) for x in xs]


class TestExpert:
    def test_empty_key_never_updates(self):
        cls = FiniteClass.full_class(("a", "b"))
        expert = ExpertLearner(cls, ())
        root = SoaLearner(cls)
        root_preds = [root.predict(x) for x in ("a", "b")]
        preds = run_stream(expert, [("a", 1), ("b", 1), ("a", 0), ("b", 0)])
        assert preds == [root_preds[0], root_preds[1], root_preds[0], root_preds[1]]
        assert surviving_labels(expert) == list(cls.labels)

    def test_key_validation(self):
        cls = FiniteClass.full_class(("a",))
        for bad in [(2, 2), (3, 1), (0,)]:
            with pytest.raises(ValueError):
                ExpertLearner(cls, bad)

    @settings(max_examples=60, deadline=None)
    @given(realizable_streams())
    def test_mistake_round_key_replays_soa(self, case):
        cls, pairs = case
        soa = SoaLearner(cls)
        mistaken = []
        soa_preds = []
        for t, (x, y) in enumerate(pairs, start=1):
            p = soa.predict(x)
            soa_preds.append(p)
            soa.update(x, y)
            if p != y:
                mistaken.append(t)
        expert = ExpertLearner(cls, tuple(mistaken))
        assert run_stream(expert, pairs) == soa_preds

    @settings(max_examples=60, deadline=None)
    @given(realizable_streams())
    def test_some_short_key_matches_dimension(self, case):
        cls, pairs = case
        d = ldim(cls)
        soa = SoaLearner(cls)
        mistaken = [t for t, (x, y) in enumerate(pairs, start=1)
                    if (lambda p: (soa.update(x, y), p != y)[1])(soa.predict(x))]
        assert len(mistaken) <= d


class TestFiniteSupportSoa:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.lists(st.tuples(st.integers(1, 5),
                                                 st.integers(0, 1)),
                                       min_size=1, max_size=12))
    def test_matches_generic_learner(self, budget, pairs):
        domain = tuple(range(1, 6))
        structured = FiniteSupportClass(domain, budget)
        fast = SoaLearner(structured, on_empty="freeze")
        slow = SoaLearner(structured.materialize(), on_empty="freeze")
        for x, y in pairs:
            assert fast.predict(x) == slow.predict(x)
            fast.update(x, y)
            slow.update(x, y)
        assert fast.mistakes == slow.mistakes

    def test_realizable_mistakes_at_most_support(self):
        domain = tuple(range(1, 13))
        cls = FiniteSupportClass(domain, 3)
        learner = SoaLearner(cls)
        target = support_hypothesis((2, 5, 9))
        xs = [((t * 5) % 12) + 1 for t in range(60)]
        for x in xs:
            learner.update(x, target(x))
        assert learner.mistakes <= 3

    def test_off_domain_point(self):
        with pytest.raises(DomainError):
            SoaLearner(FiniteSupportClass((1, 2), 1)).predict(9)


class TestAggregator:
    def test_first_selector_is_one(self):
        fam = FiniteSupportFamily((1, 2, 3))
        assert AggregatorLearner(fam).selector() == 1

    def test_selector_arithmetic(self):
        # counters (2, 0): argmin of {2+1, 0+2} = index 2
        fam = ExplicitListFamily([FiniteClass((1, 2), [[1, 1]]),
                                  FiniteClass((1, 2), [[0, 0]])])
        agg = AggregatorLearner(fam)
        assert agg.selector() == 1
        agg.update(1, 0)     # component 1 (always-one) errs
        assert agg.selector() == 1   # {1+1, 0+2}: tie -> smallest index
        agg.update(2, 0)     # errs again
        assert agg.counters()[1] == 2
        assert agg.selector() == 2   # {2+1, 0+2} -> 2

    def test_counters_equal_standalone_replay(self):
        fam = FiniteSupportFamily(tuple(range(1, 13)))
        target = support_hypothesis((1, 2))
        rng = random.Random(0)
        pairs = [(rng.randint(1, 12),) for _ in range(80)]
        pairs = [(x, target(x)) for (x,) in pairs]
        agg = AggregatorLearner(fam)
        for x, y in pairs:
            agg.update(x, y)
        for n, counted in agg.counters().items():
            standalone = SoaLearner(fam.component(n).cls, on_empty="freeze")
            for x, y in pairs:
                standalone.update(x, y)
            assert counted == standalone.mistakes

    def test_selector_stays_within_target_bound(self):
        fam = FiniteSupportFamily(tuple(range(1, 13)))
        k = 2
        target = support_hypothesis((3, 7))
        d_k = fam.component(k).dim
        agg = AggregatorLearner(fam)
        rng = random.Random(4)
        for _ in range(150):
            x = rng.randint(1, 12)
            agg.predict(x)
            assert agg.selected <= d_k + k
            agg.update(x, target(x))
        assert agg.mistakes <= (d_k + k) ** 2

    def test_lazy_instantiation_is_bounded(self):
        fam = FiniteSupportFamily(tuple(range(1, 13)))
        agg = AggregatorLearner(fam)
        target = support_hypothesis((1,))
        for t in range(50):
            agg.update((t % 12) + 1, target((t % 12) + 1))
        # truth in component 1 with one mistake possible: bound stays tiny
        assert max(agg.sub) <= 2


class TestCover:
    def test_first_index_target_never_errs(self):
        cover = CoverSpec([constant_hypothesis(0), constant_hypothesis(1)])
        learner = CoverLearner(cover)
        for x in range(1, 30):
            learner.update(x, 0)
        assert learner.mistakes == 0 and learner.index == 1

    def test_two_entry_cover_single_mistake(self):
        cover = CoverSpec([constant_hypothesis(1), constant_hypothesis(0)])
        learner = CoverLearner(cover)
        for x in range(1, 10):   # truth: all zeros, distinct points
            learner.update(x, 0)
        assert learner.mistakes == 1 and learner.index == 2

    def test_index_never_decreases(self):
        cover = CoverSpec([support_hypothesis([j]) for j in range(1, 12)])
        learner = CoverLearner(cover)
        target = support_hypothesis([6])
        rng = random.Random(1)
        last = learner.index
        for _ in range(60):
            x = rng.randint(1, 11)
            learner.update(x, target(x))
            assert learner.index >= last
            last = learner.index
        assert learner.index <= 6

    def test_lazy_enumeration(self):
        def gen():
            j = 0
            while True:
                j += 1
                yield support_hypothesis([j])
        learner = CoverLearner(CoverSpec(gen()))
        target = support_hypothesis([4])
        for x in (1, 2, 3, 4, 5, 4):
            learner.update(x, target(x))
        assert learner.index == 4 and learner.mistakes <= 4

    def test_exhausted_cover_raises(self):
        learner = CoverLearner(CoverSpec([constant_hypothesis(0)]))
        with pytest.raises(ProtocolError):
            learner.update(1, 1)

    def test_empty_cover_raises_from_the_constructor(self):
        with pytest.raises(ProtocolError) as raised:
            CoverLearner(CoverSpec([]))
        assert str(raised.value) == "round 1: every enumerated cover hypothesis eliminated"
        # exhaustion leaves the index one beyond the last hypothesis
        learner = CoverLearner(CoverSpec([constant_hypothesis(0), constant_hypothesis(1)]))
        learner.update(1, 0)
        with pytest.raises(ProtocolError, match="round 2: every enumerated"):
            learner.update(1, 1)
        assert learner.index == 3


class TestNaturalThreshold:
    def test_zero_mistakes_below_target(self):
        learner = NaturalThresholdLearner()
        target = threshold_hypothesis(40)
        for x in (3, 17, 22, 9, 39):
            learner.update(x, target(x))
        assert learner.mistakes == 0

    def test_hand_simulation(self):
        # truth 1_{x>=3}: first point 5 errs, then halving over {0..5}
        learner = NaturalThresholdLearner()
        target = threshold_hypothesis(3)
        stream = [5, 1, 2, 3, 4, 8, 2, 3]
        for x in stream:
            learner.update(x, target(x))
        assert learner.mistakes <= 1 + math.ceil(math.log2(5))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 30), st.lists(st.integers(1, 60), min_size=1,
                                        max_size=50))
    def test_mistake_bound(self, cut, xs):
        learner = NaturalThresholdLearner()
        target = threshold_hypothesis(cut)
        first_mistake_point = None
        for x in xs:
            p = learner.predict(x)
            y = target(x)
            if first_mistake_point is None and p != y:
                first_mistake_point = x
            learner.update(x, y)
        if first_mistake_point is None:
            assert learner.mistakes == 0
        else:
            assert learner.mistakes <= 1 + math.ceil(math.log2(max(first_mistake_point, 1)))

    def test_inconsistent_labels_raise(self):
        learner = NaturalThresholdLearner()
        learner.update(3, 1)   # threshold <= 3
        with pytest.raises(ProtocolError):
            learner.update(5, 0)  # threshold > 5: contradiction

    def test_rejects_bad_points(self):
        with pytest.raises(DomainError):
            NaturalThresholdLearner().predict(0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.integers(1, 40), st.sampled_from([0, -2, True])),
                              st.integers(0, 1)), max_size=30))
    def test_interval_matches_list_reference(self, pairs):
        # predictions, errors with their rounds, and counters after every
        # round, on arbitrary feeds that go on past an inconsistent label
        def steps(learner):
            out = []
            for x, y in pairs:
                for call in (lambda: learner.predict(x), lambda: learner.update(x, y)):
                    try:
                        out.append(call())
                    except (DomainError, ProtocolError) as exc:
                        out.append((type(exc).__name__, str(exc),
                                    getattr(exc, "round_index", None)))
                out.append((learner.t, learner.mistakes))
            return out

        assert steps(NaturalThresholdLearner()) == steps(_ListNaturalThreshold())

    def test_huge_first_point_plays_fast(self):
        # the first 1-label at x0 = 10**18 keeps two ints, not x0 thresholds
        cut = 3 * 10 ** 17 + 12345
        lo, hi, xs = 1, 10 ** 18, [10 ** 18]
        for _ in range(70):
            xs.append((lo + hi) // 2)
            lo, hi = (lo, xs[-1]) if xs[-1] >= cut else (xs[-1], hi)
        learner = NaturalThresholdLearner()
        start = time.perf_counter()
        learner.play(xs, [int(x >= cut) for x in xs])
        assert time.perf_counter() - start < 0.5
        assert 1 <= learner.mistakes <= 1 + math.ceil(math.log2(10 ** 18))


class _ListNaturalThreshold(NaturalThresholdLearner):
    """Reference for `NaturalThresholdLearner`: halving over the list of
    every consistent threshold."""

    def predict(self, x):
        x = self._check_point(x)
        if self.alive is None:
            return 0
        votes_one = sum(1 for n in self.alive if x >= n)
        return 1 if 2 * votes_one > len(self.alive) else 0

    def _absorb(self, x, y, predicted):
        x = self._check_point(x)
        if self.alive is None:
            if y == 0:
                self.max_zero = max(self.max_zero, x)
                return
            alive = list(range(self.max_zero + 1, x + 1))
            if self.max_zero == 0:
                alive = [0] + alive
            if not alive:
                raise ProtocolError(f"no threshold is consistent with 1 at {x}", self.t)
            self.alive = alive
            return
        self.alive = [n for n in self.alive if int(x >= n) == y]
        if not self.alive:
            raise ProtocolError("label sequence inconsistent with every threshold", self.t)


def _linear_scan_threshold_predictions(stream):
    """Reference for `TruncatedThresholdSoa`: its predictions by a linear
    scan over every point seen, up to the first label no threshold fits."""
    seen, lo, hi, out = [], None, None, []
    for x, y in stream:
        if lo is not None and x <= lo:
            p = 0
        elif hi is not None and x >= hi:
            p = 1
        else:
            zero = sum(1 for q in seen if x < q and (hi is None or q < hi))
            one = sum(1 for q in seen if (lo is None or q > lo) and q < x)
            p = 1 if (one + 1).bit_length() > (zero + 1).bit_length() else 0
        out.append(p)
        if (y == 0 and hi is not None and x >= hi) or (y == 1 and lo is not None and x <= lo):
            break
        if y == 0:
            lo = x if lo is None else max(lo, x)
        else:
            hi = x if hi is None else min(hi, x)
        seen.append(x)
    return out


_mixed_numbers = st.one_of(st.integers(-4, 4),
                           st.fractions(-4, 4, max_denominator=10),
                           st.floats(-4, 4, allow_nan=False))


@st.composite
def threshold_streams(draw):
    pool = draw(st.lists(_mixed_numbers, min_size=1, max_size=8))
    xs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    if draw(st.booleans()):
        cut = draw(_mixed_numbers)
        return [(x, int(x >= cut)) for x in xs]
    return [(x, draw(st.integers(0, 1))) for x in xs]


class TestTruncatedThresholdSoa:
    @settings(max_examples=300, deadline=None)
    @given(threshold_streams())
    def test_matches_linear_scan_reference(self, stream):
        learner = TruncatedThresholdSoa()
        preds = []
        for x, y in stream:
            preds.append(learner.predict(x))
            try:
                learner.update(x, y)
            except ProtocolError:
                break
        assert preds == _linear_scan_threshold_predictions(stream)

    def test_realizable_stream_is_learned(self):
        from fractions import Fraction
        learner = TruncatedThresholdSoa()
        target = threshold_hypothesis(Fraction(3, 8))
        pts = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 8), Fraction(5, 16),
               Fraction(7, 16), Fraction(3, 8), Fraction(1, 3)]
        for x in pts:
            learner.update(x, target(x))
        assert learner.mistakes <= len(pts)
        # window has closed onto the target
        assert learner.predict(Fraction(3, 8)) == 1
        assert learner.predict(Fraction(5, 16)) == 0

    def test_rejects_non_numeric_points(self):
        # NaN compares false both ways, so no sorted order could hold it
        for bad in ("a", float("nan")):
            with pytest.raises(DomainError):
                TruncatedThresholdSoa().predict(bad)

    def test_contradiction_raises(self):
        from fractions import Fraction
        learner = TruncatedThresholdSoa()
        learner.update(Fraction(1, 2), 1)
        with pytest.raises(ProtocolError):
            learner.update(Fraction(3, 4), 0)


def test_constant_learner():
    learner = ConstantLearner(1)
    run_stream(learner, [("a", 0), ("a", 1)])
    assert learner.mistakes == 1


def test_follow_hypothesis_learner():
    learner = FollowHypothesisLearner(threshold_hypothesis(2))
    assert run_stream(learner, [(1, 0), (2, 1), (3, 0)]) == [0, 1, 1]
    assert learner.mistakes == 1


@pytest.mark.parametrize("label", [True, 1.0, 0.0, False, 2, None])
def test_update_accepts_only_int_labels(label):
    learner = ConstantLearner(1)
    learner.update("a", 1)
    with pytest.raises(ProtocolError, match=f"round 2: label must be 0 or 1, got {label!r}"):
        learner.update("a", label)
    assert (learner.t, learner.mistakes) == (2, 0)


@pytest.mark.parametrize("label", [True, 1.0])
@pytest.mark.parametrize("make", [lambda: ConstantLearner(0),
                                  lambda: AgnosticFpl(ExplicitListFamily(
                                      [FiniteClass(("a",), [[0], [1]])]), 1, seed=0)],
                         ids=["constant", "agnostic-fpl"])
def test_play_accepts_only_int_labels(make, label):
    learner = make()
    with pytest.raises(ProtocolError, match=f"round 3: label must be 0 or 1, got {label!r}"):
        learner.play(["a"] * 4, [1, 0, label, 1])
    assert learner.t == 3


@pytest.mark.parametrize("xs, ys", [([1, 2], [0, 1, 1, 0]), ([1, 2, 1, 2], [0, 1])],
                         ids=["fewer-points", "fewer-labels"])
@pytest.mark.parametrize("make", [
    lambda: ConstantLearner(0),
    lambda: FplLearner([ConstantLearner(0), ConstantLearner(1)], [1.0, 1.0], seed=0),
    lambda: ExpertPoolFpl(FamilyComponent(1, FiniteClass((1, 2), [[0, 0], [1, 1]]), 1),
                          seed=0),
    lambda: AggregatorLearner(ExplicitListFamily([FiniteClass((1, 2), [[0, 1], [1, 1]])])),
], ids=["constant", "fpl", "pool", "aggregator"])
def test_play_rejects_unequal_lengths(make, xs, ys):
    # on every path, before any round is played or any expert registered
    learner = make()

    def state():
        return [getattr(learner, name, None) for name in ("t", "mistakes", "pool_size", "_mass")]

    before = state()
    with pytest.raises(ValueError, match="^xs and ys differ in length$"):
        learner.play(xs, ys)
    assert state() == before


@st.composite
def classes_and_streams(draw):
    """A small explicit class and an arbitrary (rarely realizable) stream of
    its points with 0/1 labels."""
    m = draw(st.integers(1, 4))
    codes = draw(st.lists(st.integers(0, 2 ** m - 1), min_size=1, max_size=2 ** m,
                          unique=True))
    cls = FiniteClass(tuple(range(1, m + 1)), [[(c >> j) & 1 for j in range(m)]
                                               for c in codes])
    pairs = draw(st.lists(st.tuples(st.sampled_from(cls.domain), st.integers(0, 1)),
                          max_size=30))
    return cls, pairs


FROZEN_LEARNERS = {
    "soa": lambda cls, key: SoaLearner(cls, on_empty="freeze"),
    "soa-always-restrict": lambda cls, key: SoaLearner(cls, always_restrict=True,
                                                       on_empty="freeze"),
    "expert": lambda cls, key: ExpertLearner(cls, key, on_empty="freeze"),
}


@pytest.mark.parametrize("kind", list(FROZEN_LEARNERS))
@settings(max_examples=60, deadline=None)
@given(classes_and_streams(), st.lists(st.integers(1, 30), unique=True).map(sorted),
       st.integers(0, 30))
def test_frozen_learners_are_total(kind, case, key, cut):
    # with on_empty="freeze" no stream empties the version space, so play
    # never raises, and two plays split anywhere equal the round loop
    cls, pairs = case
    make = FROZEN_LEARNERS[kind]
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    played = make(cls, key)
    preds = played.play(xs[:cut], ys[:cut]) + played.play(xs[cut:], ys[cut:])
    looped = make(cls, key)
    assert preds == run_stream(looped, pairs)
    assert (played.t, played.mistakes, played.sid) == (looped.t, looped.mistakes, looped.sid)
    assert played.t == len(pairs) + 1
