import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nuolab.hypotheses import (DiscreteMeasure, DomainError, FiniteClass, Hypothesis,
                               constant_hypothesis, is_label, threshold_hypothesis)
from nuolab.learners import ConstantLearner, OnlineLearner, ProtocolError, SoaLearner
from nuolab.littlestone import ldim
from nuolab.nature import (AgnosticScripted, CoinFlip, ExhaustionError,
                           RealizableScripted, StochasticIid, TreeAdversary,
                           WindowHalving, commit_adversary)

from chi_square import chi_square_sf
from doubles import MEASURE, TARGET


class TestScripted:
    def test_order_and_labels(self):
        strategy = RealizableScripted(constant_hypothesis(1), ["a", "b", "a"])
        xs = [strategy.next_point() for _ in range(3)]
        assert xs == ["a", "b", "a"]
        assert strategy.reveal_label("a", 0) == 1

    def test_exhaustion(self):
        strategy = RealizableScripted(constant_hypothesis(0), ["a"])
        strategy.next_point()
        with pytest.raises(ExhaustionError):
            strategy.next_point()

    def test_cycle(self):
        strategy = RealizableScripted(constant_hypothesis(0), ["a", "b"], cycle=True)
        assert [strategy.next_point() for _ in range(5)] == ["a", "b", "a", "b", "a"]

    def test_agnostic_length_mismatch(self):
        with pytest.raises(ValueError):
            AgnosticScripted(["a"], [0, 1])


class TestStochasticIid:
    def test_reproducible_and_consistent(self):
        measure = DiscreteMeasure.geometric(tuple(range(1, 21)))
        target = threshold_hypothesis(7)

        def stream(seed):
            strategy = StochasticIid(target, measure, seed)
            out = []
            for _ in range(40):
                x = strategy.next_point()
                y = strategy.reveal_label(x, 0)
                assert y == target(x)
                out.append((x, y))
            return out

        assert stream(3) == stream(3)
        assert stream(3) != stream(4)


@pytest.mark.parametrize("horizon, calls", [(0, 0), (5, 3), (7, 4), (8, 8), (9, 8), (30, 8)])
def test_iid_script_label_calls(horizon, calls):
    # a support no larger than the horizon is labelled once a point before
    # the draws; of a larger one, each distinct drawn point is labelled once:
    # seed 3 draws 3 distinct points in 5 rounds and 4 in 7
    labelled = []
    counted = Hypothesis("counted", lambda x: labelled.append(x) or TARGET(x))
    xs, ys = StochasticIid(counted, MEASURE, 3)._drawn(horizon)
    assert len(labelled) == calls and len(xs) == len(ys) == horizon


@pytest.mark.parametrize("horizon", [0, 400])
def test_coin_flip_script(horizon):
    xs, ys = CoinFlip(9, point="p")._drawn(horizon)
    assert xs == ["p"] * horizon and len(ys) == horizon


class Words:
    """A stand-in generator whose `getrandbits(b)` returns chosen words in
    turn, each below 2**b."""

    def __init__(self, words):
        self.words = list(words)

    def getrandbits(self, b):
        word = self.words.pop(0)
        assert 0 <= word < 2 ** b
        return word


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.integers(1, 1000), min_size=1, max_size=12), data=st.data())
def test_sample_matches_linear_scan(weights, data):
    masses = [Fraction(w, sum(weights)) for w in weights]
    measure = DiscreteMeasure(range(len(weights)), masses)
    den = math.lcm(*(m.denominator for m in masses))
    bits = (den - 1).bit_length()
    # words at or above D, which are dropped, then one below D: anywhere, or
    # exactly on a cumulative count
    dropped = data.draw(st.lists(st.integers(den, 2 ** bits - 1), max_size=3)
                        if den < 2 ** bits else st.just([]))
    counts = [int(den * sum(masses[:i])) for i in range(len(masses))]
    word = data.draw(st.one_of(st.integers(0, den - 1), st.sampled_from(counts)))
    source = Words(dropped + [word])
    # the first point whose exact cumulative mass exceeds word / D
    acc = Fraction(0)
    for point, m in zip(measure.support, masses):
        acc += m
        if Fraction(word, den) < acc:
            break
    assert measure.sample(source) == point and source.words == []


def test_tiny_mass_is_reachable():
    # a mass of 2^-80 is far below a double's spacing at 1, but it is the
    # last of the 2^80 words, so a source that yields that word draws it
    tiny = Fraction(1, 2 ** 80)
    measure = DiscreteMeasure(["common", "rare"], [1 - tiny, tiny])
    assert measure.sample(Words([2 ** 80 - 1])) == "rare"
    assert measure.sample(Words([2 ** 80 - 2])) == "common"


def test_draws_fit_the_exact_masses():
    # Pearson's chi-square test of 2^16 draws against the exact masses, down
    # to 2^-10 (64 draws expected), on a measure whose D = 3 * 2^10 is not a
    # power of two, so a quarter of the words is dropped
    masses = ([Fraction(1, 3), Fraction(1, 6)] + [Fraction(1, 2 ** i) for i in range(2, 11)]
              + [Fraction(1, 2 ** 10)])
    measure = DiscreteMeasure(range(len(masses)), masses)
    n = 2 ** 16
    counts = Counter(measure.draw(random.Random(1), n))
    stat = sum((counts[i] - n * m) ** 2 / (n * m) for i, m in enumerate(masses))
    assert chi_square_sf(float(stat), len(masses) - 1) > 1e-3


def test_coin_flip_mean():
    strategy = CoinFlip(seed=2)
    draws = [strategy.reveal_label(0, 0) for _ in range(10_000)]
    assert 0.48 <= sum(draws) / len(draws) <= 0.52
    assert strategy.next_point() == 0


class TestWindowHalving:
    def test_forced_point_sequence_all_ones_path(self):
        # constant-0 learner: every answer is 1, following the lower window
        strategy = WindowHalving()
        learner = ConstantLearner(0)
        seen = []
        for _ in range(4):
            x = strategy.next_point()
            seen.append(x)
            strategy.reveal_label(x, learner.predict(x))
        assert seen == [Fraction(1, 2), Fraction(1, 4), Fraction(3, 16),
                        Fraction(11, 64)]

    def test_forced_point_sequence_all_zeros_path(self):
        strategy = WindowHalving()
        learner = ConstantLearner(1)
        seen = []
        for _ in range(4):
            x = strategy.next_point()
            seen.append(x)
            strategy.reveal_label(x, learner.predict(x))
        # mirror image of the all-ones path: 1 - 11/64 = 53/64
        assert seen == [Fraction(1, 2), Fraction(3, 4), Fraction(13, 16),
                        Fraction(53, 64)]

    def test_mixed_path_level_two(self):
        # answer sequence (1, 0): second point 1/4, third 5/16
        strategy = WindowHalving()
        x1 = strategy.next_point()
        strategy.reveal_label(x1, 0)          # y = 1
        x2 = strategy.next_point()
        assert x2 == Fraction(1, 4)
        strategy.reveal_label(x2, 1)          # y = 0
        assert strategy.next_point() == Fraction(5, 16)

    def test_every_prefix_realizable(self):
        strategy = WindowHalving()
        rng = random.Random(0)
        for t in range(40):
            x = strategy.next_point()
            y = strategy.reveal_label(x, rng.getrandbits(1))
            c = strategy.realizing_threshold()
            assert all(int(p >= c) == yy for p, yy in strategy.emitted)

    def test_depth_cap(self):
        strategy = WindowHalving(depth=3)
        for _ in range(3):
            x = strategy.next_point()
            strategy.reveal_label(x, 0)
        with pytest.raises(ExhaustionError):
            strategy.next_point()

    @pytest.mark.parametrize("predicted", [-1, 2])
    def test_rejects_prediction_outside_binary(self, predicted):
        strategy = WindowHalving()
        strategy.reveal_label(strategy.next_point(), 0)
        x = strategy.next_point()
        with pytest.raises(ProtocolError, match="round 2"):
            strategy.reveal_label(x, predicted)
        assert len(strategy.emitted) == 1

    @pytest.mark.parametrize("predicted", [1.0, True])
    def test_rejects_prediction_that_is_not_an_int(self, predicted):
        strategy = WindowHalving()
        x = strategy.next_point()
        with pytest.raises(ProtocolError, match="round 1: prediction must be 0 or 1"):
            strategy.reveal_label(x, predicted)
        assert strategy.emitted == []

    @pytest.mark.parametrize("point", [0.5, "1/2", None])
    def test_rejects_a_point_that_is_not_exact(self, point):
        # the realizability check compares points as integer ratios
        strategy = WindowHalving()
        with pytest.raises(DomainError, match="window point must be an int or a Fraction"):
            strategy.reveal_label(point, 0)
        assert strategy.emitted == [] and strategy.next_point() == Fraction(1, 2)
        strategy.reveal_label(1, 0)
        assert strategy.realizing_threshold() == Fraction(1, 4)

    def test_points_are_dyadic(self):
        strategy = WindowHalving()
        for _ in range(20):
            x = strategy.next_point()
            assert x.denominator & (x.denominator - 1) == 0
            strategy.reveal_label(x, 0)


class FractionWindowHalving:
    """The window adversary as it was first written, in `Fraction`
    arithmetic: the reference for the integer window."""

    def __init__(self, depth: int = 64):
        self.depth = depth
        self.lo = Fraction(0)
        self.hi = Fraction(1)
        self.emitted = []

    def next_point(self, trace=None):
        if len(self.emitted) >= self.depth:
            raise ExhaustionError(f"window-halving depth cap {self.depth} reached")
        return (self.lo + self.hi) / 2

    def reveal_label(self, x, predicted, trace=None):
        if not is_label(predicted):
            raise ProtocolError(f"prediction must be 0 or 1, got {predicted!r}",
                                len(self.emitted) + 1)
        y = 1 - predicted
        mid = (self.lo + self.hi) / 2
        if y == 1:
            lo, hi = self.lo, mid
        else:
            lo, hi = mid, self.hi
        quarter = (hi - lo) / 4
        self.lo, self.hi = lo + quarter, hi - quarter
        if not self.lo < self.hi:
            raise AssertionError(f"window collapsed to [{self.lo}, {self.hi}]")
        self.emitted.append((x, y))
        return y

    def realizing_threshold(self):
        c = (self.lo + self.hi) / 2
        for p, y in self.emitted:
            if int(p >= c) != y:
                raise AssertionError(f"window lost realizability at ({p}, {y})")
        return c


def window_run(strategy, predictions):
    """Every observable of the window, round by round, until an error."""
    seen = []
    try:
        for predicted in predictions:
            x = strategy.next_point()
            y = strategy.reveal_label(x, predicted)
            c = strategy.realizing_threshold()
            seen.append((x, type(x), y, strategy.lo, strategy.hi, c, type(c)))
    except (ExhaustionError, ProtocolError) as exc:
        seen.append((type(exc).__name__, str(exc)))
    return seen, list(strategy.emitted)


@settings(max_examples=100, deadline=None)
@given(depth=st.integers(1, 64),
       predictions=st.lists(st.integers(0, 1), max_size=66),
       bad=st.one_of(st.none(), st.tuples(st.integers(0, 66),
                                          st.sampled_from([2, -1, 1.0, True]))))
def test_window_matches_fraction_reference(depth, predictions, bad):
    if bad is not None:
        predictions.insert(*bad)
    assert (window_run(WindowHalving(depth), predictions)
            == window_run(FractionWindowHalving(depth), predictions))


class TestTreeAdversary:
    def test_forces_dimension_mistakes_on_soa(self):
        cls = FiniteClass.full_class(("a", "b", "c"))
        learner = SoaLearner(cls)
        adversary = TreeAdversary(cls)
        forced = 0
        for t in range(3):
            x = adversary.next_point()
            p = learner.predict(x)
            y = adversary.reveal_label(x, p)
            forced += p != y
            learner.update(x, y)
        assert forced == 3

    def test_commits_to_consistent_hypothesis(self):
        cls = FiniteClass.full_class(("a", "b"))
        adversary = TreeAdversary(cls)
        history = []
        for _ in range(5):
            x = adversary.next_point()
            y = adversary.reveal_label(x, 0)
            history.append((x, y))
        h = adversary.committed
        assert h is not None
        assert all(h(x) == y for x, y in history)

    def test_singleton_class_rejected(self):
        with pytest.raises(ValueError):
            TreeAdversary(FiniteClass(("a",), [[1]]))


class TestCommitAdversary:
    def test_soa_two_point_script(self):
        cls = FiniteClass.full_class(("a", "b"))
        script = commit_adversary(cls, lambda: SoaLearner(cls))
        assert len(script.points) == 2
        learner = SoaLearner(cls)
        mistakes = 0
        replay = RealizableScripted(script.hypothesis, script.points, cycle=True)
        for _ in range(2):
            x = replay.next_point()
            p = learner.predict(x)
            y = replay.reveal_label(x, p)
            mistakes += p != y
            learner.update(x, y)
        assert mistakes == 2

    def test_constant_learner_forced_to_dimension(self):
        cls = FiniteClass.thresholds(tuple(range(1, 8)), tuple(range(1, 9)))
        d = ldim(cls)
        assert d == 3
        script = commit_adversary(cls, lambda: ConstantLearner(0))
        learner = ConstantLearner(0)
        mistakes = 0
        for x in script.points:
            p = learner.predict(x)
            y = script.hypothesis(x)
            mistakes += p != y
            learner.update(x, y)
        assert mistakes >= d

    def test_randomized_learner_rejected(self):
        class Randomish(OnlineLearner):
            deterministic = False

            def predict(self, x):
                return 0

        cls = FiniteClass.full_class(("a", "b"))
        with pytest.raises(ValueError):
            commit_adversary(cls, Randomish)

    def test_dimension_zero_rejected(self):
        with pytest.raises(ValueError):
            commit_adversary(FiniteClass(("a",), [[0]]),
                             lambda: ConstantLearner(0))
