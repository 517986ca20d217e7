"""Nature's side of the observe/predict/reveal protocol: realizable
streams (scripted and iid), the shattered-tree forcing adversary, the
window-halving real-threshold adversary, and the fair-coin label source.

Strategies are single-owner per game. Realizable variants satisfy
y = h*(x) on every round; agnostic variants see the public transcript
(including past predictions) but never the learner's random bits.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .hypotheses import DiscreteMeasure, DomainError, FiniteClass, Hypothesis, Point, is_label
from .learners import ProtocolError
from .littlestone import ldim, shattered_tree_witness


class ExhaustionError(DomainError):
    """A finite strategy ran out of points (normal end of an experiment)."""


class NatureStrategy:
    """One side of a game: `next_point` serves the round's point, and
    `reveal_label` the label once the learner has predicted.

    `oblivious` states a fact about the nature: its `next_point` and
    `reveal_label` read neither the prediction nor the trace, so the whole
    script of points and labels is fixed before the game starts. For such
    a nature `runner.run_game` draws the script in one `draw_script` call
    and hands it to `learner.play` in one call, which gives the same game
    as the round loop: the nature's draws come in the same order, and the
    learner's replay makes the same random draws in the same order and
    scores them with the same float operations.
    """

    oblivious = False

    def next_point(self, trace=None) -> Point:
        raise NotImplementedError

    def reveal_label(self, x: Point, predicted: int, trace=None) -> int:
        raise NotImplementedError

    def draw_script(self, horizon: int) -> tuple[list, list, Optional[Exception]]:
        """(points, labels, failure) of the next `horizon` >= 0 rounds, drawn round
        by round; a draw that raises ends the lists. Overrides build the lists at
        once, to the same result and state, and leave any failure to this loop."""
        xs, ys = [], []
        try:
            for _ in range(horizon):
                xs.append(self.next_point(None))
                ys.append(self.reveal_label(xs[-1], None, None))
        except Exception as exc:
            return xs, ys, exc
        return xs, ys, None


class RealizableScripted(NatureStrategy):
    """A fixed ground-truth hypothesis and a fixed point sequence; labels
    are always h*(x). With cycle=True the point sequence repeats forever."""

    oblivious = True

    def __init__(self, hypothesis: Hypothesis, points: Sequence[Point], *,
                 cycle: bool = False):
        self.hypothesis = hypothesis
        self.points = list(points)
        self.cycle = cycle
        self.served = 0

    def next_point(self, trace=None) -> Point:
        i = self.served
        if i >= len(self.points):
            if not self.cycle or not self.points:
                raise ExhaustionError(f"scripted stream exhausted after {i} points")
            i %= len(self.points)
        self.served += 1
        return self.points[i]

    def reveal_label(self, x: Point, predicted: int, trace=None) -> int:
        return self.hypothesis(x)


class AgnosticScripted(NatureStrategy):
    """Fixed point and label sequences with no realizability promise. The
    labels are served as given, so a bad one is the learner's to reject."""

    oblivious = True

    def __init__(self, points: Sequence[Point], labels: Sequence[int]):
        if len(points) != len(labels):
            raise DomainError("points and labels differ in length")
        self.points = list(points)
        self.labels = list(labels)
        self.served = 0

    def next_point(self, trace=None) -> Point:
        if self.served >= len(self.points):
            raise ExhaustionError(f"scripted stream exhausted after {self.served} points")
        x = self.points[self.served]
        self.served += 1
        return x

    def reveal_label(self, x: Point, predicted: int, trace=None) -> int:
        return self.labels[self.served - 1]

    def draw_script(self, horizon: int):
        start = self.served
        self.served = min(start + horizon, len(self.points))
        return (self.points[start:self.served], self.labels[start:self.served],
                super().draw_script(start + horizon - self.served)[2])


class StochasticIid(NatureStrategy):
    """Points drawn iid from a discrete measure; labels from a fixed
    ground-truth hypothesis."""

    oblivious = True

    def __init__(self, hypothesis: Hypothesis, measure: DiscreteMeasure,
                 seed: Optional[int] = None):
        self.hypothesis = hypothesis
        self.measure = measure
        self.rng = random.Random(seed)

    def next_point(self, trace=None) -> Point:
        return self.measure.sample(self.rng)

    def reveal_label(self, x: Point, predicted: int, trace=None) -> int:
        return self.hypothesis(x)

    def draw_script(self, horizon: int):
        """The script by the measure's one draw rule, labelling every support
        point once before the draws or, for a support larger than the horizon,
        each distinct drawn point once after them. A label that raises leaves
        the script to the loop, with the generator as the script found it."""
        support, state = self.measure.support, None
        if len(support) > horizon:
            state, drawn = self.rng.getstate(), self.measure.draw(self.rng, horizon)
        try:
            labels = ({i: self.hypothesis(support[i]) for i in dict.fromkeys(drawn)} if state
                      else list(map(self.hypothesis, support)))
        except Exception:
            if state:
                self.rng.setstate(state)
            return super().draw_script(horizon)
        if not state:
            drawn = self.measure.draw(self.rng, horizon)
        return [support[i] for i in drawn], [labels[i] for i in drawn], None


class CoinFlip(NatureStrategy):
    """A single fixed point; labels are independent fair bits from a
    dedicated stream, oblivious to the learner."""

    oblivious = True
    _TOP_BIT = bytes(b >> 7 for b in range(256))     # each byte's top bit, by `translate`

    def __init__(self, seed: Optional[int] = None, point: Point = 0):
        self.point = point
        self.rng = random.Random(seed)

    def next_point(self, trace=None) -> Point:
        return self.point

    def reveal_label(self, x: Point, predicted: int, trace=None) -> int:
        return self.rng.getrandbits(1)

    def draw_script(self, horizon: int):
        # one wide draw's 32-bit words, lowest first, are `reveal_label`'s outputs
        words = self.rng.getrandbits(32 * horizon).to_bytes(4 * horizon, "little")
        return [self.point] * horizon, list(words[3::4].translate(self._TOP_BIT)), None


class WindowHalving(NatureStrategy):
    """Real-threshold forcing adversary on [0, 1].

    Keeps a feasible window for the threshold, emits its midpoint, answers
    the opposite of the prediction, then keeps the consistent half and
    shrinks it to its centered half before the next midpoint. The quarter
    gaps left on both sides keep every emitted point strictly outside all
    later windows, so no branch can converge onto a point already shown.

    All arithmetic is exact, on integers: the window is [a, b] / 2**e,
    starting at [0, 1] / 1. Its midpoint is (a + b) / 2**(e + 1), so on the
    scale 2**(e + 1) the kept half is (l, h) = (2a, a + b) or (a + b, 2b),
    and its centered half is [3l + h, l + 3h] / 2**(e + 3). Points and the
    readable bounds `lo` and `hi` are built as `Fraction`s only when read.
    """

    def __init__(self, depth: int = 64):
        if depth < 1:
            raise DomainError("depth cap must be >= 1")
        self.depth = depth
        self._a, self._b, self._e = 0, 1, 0
        self.emitted: list[tuple[Fraction, int]] = []

    @property
    def lo(self) -> Fraction:
        return Fraction(self._a, 1 << self._e)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._b, 1 << self._e)

    def _mid(self) -> Fraction:
        return Fraction(self._a + self._b, 2 << self._e)

    def next_point(self, trace=None) -> Fraction:
        if len(self.emitted) >= self.depth:
            raise ExhaustionError(f"window-halving depth cap {self.depth} reached")
        return self._mid()

    def reveal_label(self, x: Point, predicted: int, trace=None) -> int:
        if not is_label(predicted):
            raise ProtocolError(f"prediction must be 0 or 1, got {predicted!r}",
                                len(self.emitted) + 1)
        if not isinstance(x, (int, Fraction)):     # `realizing_threshold` compares exactly
            raise DomainError(f"window point must be an int or a Fraction, got {x!r}")
        y = 1 - predicted
        a, b = self._a, self._b
        if y == 1:
            l, h = 2 * a, a + b        # threshold <= mid
        else:
            l, h = a + b, 2 * b        # threshold > mid
        self._a, self._b, self._e = 3 * l + h, l + 3 * h, self._e + 3
        if not self._a < self._b:
            raise AssertionError(f"window collapsed to [{self.lo}, {self.hi}]")
        self.emitted.append((x, y))
        return y

    def realizing_threshold(self) -> Fraction:
        """A rational threshold consistent with every emitted pair; raises
        if the history is not realizable (it always is, by construction)."""
        c = self._mid()
        for p, y in self.emitted:       # p >= c, in integers
            if int(p.numerator * c.denominator >= c.numerator * p.denominator) != y:
                raise AssertionError(f"window lost realizability at ({p}, {y})")
        return c


class TreeAdversary(NatureStrategy):
    """Forcing adversary descending a maximal shattered tree: it answers
    the opposite of every prediction for ldim rounds (always consistent,
    by the shattering), then fixes the realizing hypothesis of the forced
    branch and plays it on the domain points forever."""

    def __init__(self, cls: FiniteClass):
        d = ldim(cls)
        if d < 1:
            raise DomainError("class shatters nothing; there is no branch to force")
        self.cls = cls
        self.depth = d
        self.witness = shattered_tree_witness(cls, d)
        self.node = 1
        self.path: list[int] = []
        self.forced: list[Point] = []
        self.committed: Optional[Hypothesis] = None
        self._served_after = 0

    def next_point(self, trace=None) -> Point:
        if self.committed is None:
            return self.witness.points[self.node - 1]
        x = self.cls.domain[self._served_after % len(self.cls.domain)]
        self._served_after += 1
        return x

    def reveal_label(self, x: Point, predicted: int, trace=None) -> int:
        if self.committed is not None:
            return self.committed(x)
        y = 1 - predicted
        self.path.append(y)
        self.forced.append(x)
        self.node = 2 * self.node + y
        if len(self.path) == self.depth:
            label = self.witness.realizers[tuple(self.path)]
            h = self.cls.hypothesis(label)
            for p, yy in zip(self.forced, self.path):
                if h(p) != yy:
                    raise AssertionError("realizer inconsistent with the forced branch")
            self.committed = h
        return y


def commit_adversary(cls: FiniteClass, learner_factory: Callable[[], "object"]
                     ) -> RealizableScripted:
    """Turn the forcing adversary into a fixed-in-advance realizable script
    for one deterministic learner.

    Plays a private copy of the learner against the forcing adversary,
    which records the branch on which every prediction is wrong and checks
    that its realizer labels it, and returns the branch with that realizer
    as a scripted strategy. Replaying the script against the same learner
    reproduces the same transcript, hence at least ldim mistakes.
    """
    from .runner import run_game  # deferred: runner depends on this module
    learner = learner_factory()
    if not getattr(learner, "deterministic", False):
        raise DomainError("committed adversary requires a deterministic learner")
    adversary = TreeAdversary(cls)
    trace = run_game(learner, adversary, adversary.depth)
    return RealizableScripted(adversary.committed, trace.xs, cycle=True)
