"""Realizable-setting learners behind one protocol: observe a point,
predict a label, absorb the revealed truth.

`predict` is a pure function of the interaction history (plus recorded
random draws for the randomized learners in `fpl`), so calling it twice
within a round is safe. `update` advances the round and counts mistakes
against the learner's own prediction; `play` and `runner.run_game`
predict each round once and take the same round step.

Each learner instance is a single-owner state machine; distinct instances
may run in parallel games without any shared state.

A version-space learner is an engine (`engine_for`: version spaces of one
component class interned to state ids), its current state id and a
restrict policy; the expert pools in `fpl` run the same engines.
"""
from __future__ import annotations

import copy
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from .hypotheses import (DomainError, FiniteClass, FiniteSupportClass,
                         Hypothesis, Point, SingletonClass, ClassFamily, is_label)
from .littlestone import VersionSpace, _workspace, soa_prediction, split


class ProtocolError(RuntimeError):
    """A feed the learner's contract rules out (e.g. a non-realizable label
    sequence emptied the version space). Carries the violating round."""

    def __init__(self, message: str, round_index: int | None = None):
        if round_index is not None:
            message = f"round {round_index}: {message}"
        super().__init__(message)
        self.round_index = round_index


def labelled_prefix(ys: Sequence) -> int:
    """The number of leading rounds whose label is the int 0 or 1.

    When every label is valid, two set builds say so at C speed; only a
    sequence holding a bad label is scanned for the first one."""
    if set(map(type, ys)) <= {int} and set(ys) <= {0, 1}:
        return len(ys)
    return next((i for i, y in enumerate(ys) if not is_label(y)), len(ys))


class OnlineLearner:
    """Base of the observe/predict/reveal protocol.

    A round ends in one step, `_record(x, y, predicted)`: count the
    mistake, `_absorb` the revealed pair, advance `t`. `update` checks the
    label, predicts and takes the step; `play` and `runner.run_game` take
    it with the round's prediction, once the label is checked (`play`
    checks a batch's labels up front). So `predict` runs once per round
    on every path, except that a caller who predicts and then calls
    `update` predicts twice.
    """

    deterministic = True

    def __init__(self):
        self.t = 1              # next round, 1-based
        self.mistakes = 0

    def predict(self, x: Point) -> int:
        raise NotImplementedError

    def play(self, xs: Sequence[Point], ys: Sequence[int]) -> list[int]:
        """Play the rounds (xs[i], ys[i]) in order, as `predict` then
        `update` each (with the one prediction), and return the predictions.

        Unequal lengths raise ValueError before any round is played. The
        labels are checked once, up front. The first `_batchable` of
        the well-labelled rounds are replayed in one batch (`_replay`), the
        rest take `predict` then `_record` each, and the first bad label's
        round is predicted and then raises, as `update` would there.

        A batch must give the loop's predictions, state and random draws.
        An error the loop would raise from inside the learner (say, a point
        outside a class's domain) is raised by a batch too, but the
        learner's state after it may differ from the loop's."""
        if len(xs) != len(ys):
            raise ValueError("xs and ys differ in length")
        n = labelled_prefix(ys)
        b = self._batchable(n)
        if not b:
            return self._loop(xs, ys, n)
        return self._replay(xs[:b], ys[:b]) + self._loop(xs[b:], ys[b:], n - b)

    def _batchable(self, n: int) -> int:
        """How many of the n well-labelled leading rounds `_replay` may
        take; a subclass that allows any defines `_replay`."""
        return 0

    def _loop(self, xs: Sequence[Point], ys: Sequence[int], n: int) -> list[int]:
        """Play the first n rounds one by one, then predict round n + 1, if
        there is one, and raise its bad label."""
        preds = []
        for x, y in zip(xs, ys[:n]):
            p = self.predict(x)
            self._record(x, y, p)
            preds.append(p)
        if n < len(ys):
            self.predict(xs[n])
            self._check_label(ys[n])
        return preds

    def update(self, x: Point, y: int) -> None:
        self._check_label(y)
        self._record(x, y, self.predict(x))

    def _check_label(self, y) -> None:
        if not is_label(y):
            raise ProtocolError(f"label must be 0 or 1, got {y!r}", self.t)

    def _record(self, x: Point, y: int, predicted: int) -> None:
        """The round step, with the round's own prediction."""
        if predicted != y:
            self.mistakes += 1
        self._absorb(x, y, predicted)
        self.t += 1

    def _absorb(self, x: Point, y: int, predicted: int) -> None:
        pass


class ConstantLearner(OnlineLearner):
    def __init__(self, value: int):
        super().__init__()
        self.value = int(value)

    def predict(self, x: Point) -> int:
        return self.value


class _InternedStates:
    """Version spaces interned to ids in order of first appearance."""

    def __init__(self, root):
        self.states = [root]
        self.index = {root: 0}

    @property
    def n_states(self) -> int:
        return len(self.states)

    def _intern(self, state) -> int:
        sid = self.index.get(state)
        if sid is None:
            sid = self.index[state] = len(self.states)
            self.states.append(state)
        return sid


class _FiniteClassEngine(_InternedStates):
    """States are row masks, split by the class's cached column masks."""

    def __init__(self, cls: FiniteClass):
        super().__init__((1 << len(cls)) - 1)
        self.root = cls
        self._colmasks = _workspace(cls).colmasks
        self._pred: dict[tuple[int, Point], int] = {}

    def predict(self, sid: int, x: Point) -> int:
        key = (sid, x)
        p = self._pred.get(key)
        if p is None:
            p = soa_prediction(VersionSpace(self.root, self.states[sid]), x)
            self._pred[key] = p
        return p

    def restrict(self, sid: int, x: Point, y: int) -> Optional[int]:
        keep = split(self.states[sid], self._colmasks[self.root.point_index(x)])[y]
        return self._intern(keep) if keep else None


class _SupportEngine(_InternedStates):
    """States are (forced-one set, forced-zero set) pairs, the only shape a
    bounded-support version space takes. Its dimension is min(remaining
    budget, free points) in closed form, so no matrix is materialized."""

    def __init__(self, cls: FiniteSupportClass):
        super().__init__((frozenset(), frozenset()))
        self.cls = cls

    def predict(self, sid: int, x: Point) -> int:
        """Larger-dimension label, with the tie rules of `soa_prediction`."""
        if x not in self.cls.domain:
            raise DomainError(f"point {x!r} not in class domain")
        ones, zeros = self.states[sid]
        if x in ones:
            return 1
        if x in zeros:
            return 0
        budget = self.cls.budget - len(ones)
        if budget <= 0:
            return 0
        free = len(self.cls.domain) - len(ones) - len(zeros)
        dim_one = min(budget - 1, free - 1)
        dim_zero = min(budget, free - 1)
        return 1 if dim_one > dim_zero else 0

    def restrict(self, sid: int, x: Point, y: int) -> Optional[int]:
        ones, zeros = self.states[sid]
        if x in ones:
            return sid if y == 1 else None
        if x in zeros:
            return sid if y == 0 else None
        if y == 1:
            if len(ones) >= self.cls.budget:
                return None
            return self._intern((ones | {x}, zeros))
        return self._intern((ones, zeros | {x}))


class _SingletonEngine:
    n_states = 1

    def __init__(self, cls: SingletonClass):
        self.h = cls.hypothesis

    def predict(self, sid: int, x: Point) -> int:
        return self.h(x)

    def restrict(self, sid: int, x: Point, y: int) -> Optional[int]:
        return sid if self.h(x) == y else None


def engine_for(cls: FiniteClass | FiniteSupportClass | SingletonClass):
    """A fresh version-space engine for a component class, whose state 0 is
    the full class."""
    if isinstance(cls, FiniteClass):
        return _FiniteClassEngine(cls)
    if isinstance(cls, FiniteSupportClass):
        return _SupportEngine(cls)
    if isinstance(cls, SingletonClass):
        return _SingletonEngine(cls)
    raise TypeError(f"no version-space engine for class type {type(cls).__name__}")


class SoaLearner(OnlineLearner):
    """Version-space learner predicting the label whose restriction keeps
    the larger dimension (ties to 0), on any component class kind.

    By default the space is restricted only on mistaken rounds;
    `always_restrict` switches to restricting on every round. `on_empty`
    decides what an update that would empty the space does: "error" raises
    (the realizable contract), "freeze" keeps the space unchanged, which
    keeps the learner total on arbitrary feeds.
    """

    def __init__(self, cls: FiniteClass | FiniteSupportClass | SingletonClass, *,
                 always_restrict: bool = False, on_empty: str = "error"):
        super().__init__()
        if on_empty not in ("error", "freeze"):
            raise ValueError(f"on_empty must be 'error' or 'freeze', got {on_empty!r}")
        self.engine = engine_for(cls)
        # the current state id; None only for an empty explicit class
        self.sid: Optional[int] = None if isinstance(cls, FiniteClass) and cls.is_empty else 0
        self.always_restrict = always_restrict
        self.on_empty = on_empty

    @property
    def space(self) -> VersionSpace:
        """The current version space of a `FiniteClass` learner (an empty
        class's state 0 is the empty mask)."""
        return VersionSpace(self.engine.root, self.engine.states[self.sid or 0])

    def predict(self, x: Point) -> int:
        if self.sid is None:
            raise ProtocolError("version space is empty (non-realizable feed)", self.t)
        return self.engine.predict(self.sid, x)

    def _should_restrict(self, mistake: bool) -> bool:
        return mistake or self.always_restrict

    def _absorb(self, x: Point, y: int, predicted: int) -> None:
        if not self._should_restrict(predicted != y):
            return
        nxt = self.engine.restrict(self.sid, x, y)
        if nxt is None:
            if self.on_empty == "error":
                raise ProtocolError(
                    f"restriction by ({x!r}, {y}) empties the version space", self.t)
            return
        self.sid = nxt


class ExpertLearner(SoaLearner):
    """Version-space learner that restricts only on mistaken rounds whose
    index lies in a fixed, strictly increasing key. The empty key never
    updates and plays the root predictions forever."""

    def __init__(self, cls: FiniteClass | FiniteSupportClass | SingletonClass,
                 key: Sequence[int], *, on_empty: str = "error"):
        super().__init__(cls, on_empty=on_empty)
        key = tuple(key)
        if any(b <= a for a, b in zip(key, key[1:])) or any(i < 1 for i in key):
            raise ValueError(f"key must be strictly increasing positive rounds: {key}")
        self.key = key
        self._keyset = frozenset(key)

    def _should_restrict(self, mistake: bool) -> bool:
        return mistake and self.t in self._keyset


class FollowHypothesisLearner(SoaLearner):
    """Always predicts a fixed hypothesis: the version-space learner on its
    singleton class, frozen so that a contradicting label is only a mistake."""

    def __init__(self, hypothesis: Hypothesis):
        super().__init__(SingletonClass(hypothesis), on_empty="freeze")


class AggregatorLearner(OnlineLearner):
    """Index-penalized selector over the per-component learners of a
    countable union.

    Every instantiated sub-learner is fed every revealed pair, so its
    counter equals the mistakes it would have made running standalone.
    The round's selector is argmin of (counter + index), ties to the
    smallest index. Indices above min(counter + index) can never win the
    argmin, so sub-learners are instantiated lazily up to that bound; a
    late instantiation replays the full history to keep its counter honest.

    A sub-learner's counters do not depend on which sub-learner the
    aggregator selects: it sees every pair either way. So `play` replays a
    batch of rounds by letting each sub-learner play them all on its own,
    then walks the rounds over the counters those plays give, growing the
    pool by the same rule as the loop and taking the same argmin. Each
    round's pool, selection and prediction, and every counter, are the
    loop's.
    """

    def __init__(self, family: ClassFamily):
        super().__init__()
        self.family = family
        self.history: list[tuple[Point, int]] = []
        self.sub: dict[int, SoaLearner] = {1: self._spawn(1)}
        self.selected: Optional[int] = None

    def _spawn(self, n: int) -> SoaLearner:
        """Sub-learner n, having replayed the history."""
        learner = SoaLearner(self.family.component(n).cls, on_empty="freeze")
        if self.history:
            learner.play(*zip(*self.history))
        return learner

    def _extend_pool(self) -> None:
        while True:
            bound = min(l.mistakes + n for n, l in self.sub.items())
            top = max(self.sub)
            if top >= bound:
                return
            self.sub[top + 1] = self._spawn(top + 1)

    def counters(self) -> dict[int, int]:
        return {n: l.mistakes for n, l in self.sub.items()}

    def selector(self) -> int:
        self._extend_pool()
        return min(self.sub, key=lambda n: (self.sub[n].mistakes + n, n))

    def predict(self, x: Point) -> int:
        j = self.selector()
        self.selected = j
        return self.sub[j].predict(x)

    def _absorb(self, x: Point, y: int, predicted: int) -> None:
        for learner in self.sub.values():
            learner.update(x, y)
        self.history.append((x, y))

    def _batchable(self, n: int) -> int:
        return n

    def _replay(self, xs: Sequence[Point], ys: Sequence[int]) -> list[int]:
        """Every sub-learner plays all the rounds with its own `play`, and
        its counter before each round comes from its predictions. The walk
        over the rounds grows the pool by `_extend_pool`'s rule on that
        round's counters: a sub-learner created at round i replays the
        history before the batch and then plays the whole batch too, of
        which only rounds i on are read. An error from inside a
        sub-learner drops the batch, which plays copies of the
        sub-learners, and the round loop plays the rounds instead, so the
        error is the loop's."""
        saved = self.sub
        try:
            self.sub = {n: copy.copy(l) for n, l in saved.items()}
            runs = [self._scored(n, l, xs, ys) for n, l in self.sub.items()]
            top = max(self.sub)
            preds = []
            for i in range(len(ys)):
                scores = [s[i] for s, _ in runs]
                bound = min(scores)
                while top < bound:
                    top += 1
                    learner = self.sub[top] = self._spawn(top)
                    runs.append(self._scored(top, learner, xs, ys))
                    scores.append(runs[-1][0][i])
                    bound = min(bound, scores[-1])
                k = scores.index(bound)
                preds.append(runs[k][1][i])
        except Exception:
            # an error from inside a sub-learner: the loop raises it too, in
            # the loop's order
            self.sub = saved
            return self._loop(xs, ys, len(ys))
        self.selected = k + 1       # the indices are 1..top, in order
        self.mistakes += sum(p != y for p, y in zip(preds, ys))
        self.history += zip(xs, ys)
        self.t += len(ys)
        return preds

    @staticmethod
    def _scored(n: int, learner: SoaLearner, xs, ys) -> tuple[list[int], list[int]]:
        """(counter + n before each round, prediction) over the rounds, as
        `learner` plays them."""
        start = learner.mistakes + n
        preds = learner.play(xs, ys)
        return list(accumulate((p != y for p, y in zip(preds, ys)), initial=start)), preds


class CoverSpec:
    """An ordered list of cover hypotheses, read lazily from any iterable
    (a list, or a generator that never ends)."""

    def __init__(self, hypotheses: Iterable[Hypothesis]):
        self._iter = iter(hypotheses)
        self._items: list[Hypothesis] = []

    def hypothesis(self, n: int) -> Hypothesis:
        """The n-th cover hypothesis (1-based); IndexError when exhausted."""
        while len(self._items) < n and self._iter is not None:
            try:
                self._items.append(next(self._iter))
            except StopIteration:
                self._iter = None
        if n < 1 or n > len(self._items):
            raise IndexError(f"cover has no hypothesis at index {n}")
        return self._items[n - 1]


class CoverLearner(OnlineLearner):
    """Predicts with the smallest-index cover hypothesis consistent with
    everything seen; hypotheses are eliminated permanently, so the index
    never decreases."""

    def __init__(self, cover: CoverSpec):
        super().__init__()
        self.cover = cover
        self.index = 1
        self.history: list[tuple[Point, int]] = []
        self._advance()

    def _consistent(self, h: Hypothesis) -> bool:
        return all(h(px) == py for px, py in self.history)

    def _advance(self) -> None:
        while True:
            try:
                h = self.cover.hypothesis(self.index)
            except IndexError:
                raise ProtocolError(
                    "every enumerated cover hypothesis eliminated", self.t) from None
            if self._consistent(h):
                self.current = h
                return
            self.index += 1

    def predict(self, x: Point) -> int:
        return self.current(x)

    def _absorb(self, x: Point, y: int, predicted: int) -> None:
        self.history.append((x, y))
        if predicted != y:
            self.index += 1
            self._advance()


class NaturalThresholdLearner(OnlineLearner):
    """Learns integer thresholds 1_{x >= n} over the positive integers.

    Predicts 0 until the first mistake at some point x0; the consistent
    thresholds then form a finite set, over which it runs halving
    (majority vote, eliminate the wrong voters). Total mistakes are at
    most 1 + ceil(log2 x0).
    """

    def __init__(self):
        super().__init__()
        self.max_zero = 0          # largest point seen with label 0 before the first 1
        self.alive: Optional[list[int]] = None

    @staticmethod
    def _check_point(x: Point) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise DomainError(f"expected a positive integer point, got {x!r}")
        return x

    def predict(self, x: Point) -> int:
        x = self._check_point(x)
        if self.alive is None:
            return 0
        votes_one = sum(1 for n in self.alive if x >= n)
        return 1 if 2 * votes_one > len(self.alive) else 0

    def _absorb(self, x: Point, y: int, predicted: int) -> None:
        x = self._check_point(x)
        if self.alive is None:
            if y == 0:
                self.max_zero = max(self.max_zero, x)
                return
            # first 1-label: thresholds n <= x survive, n <= max_zero are ruled out
            lo = self.max_zero + 1
            alive = list(range(lo, x + 1))
            if self.max_zero == 0:
                alive = [0] + alive    # the all-ones threshold is still possible
            if not alive:
                raise ProtocolError(
                    f"no threshold is consistent with 1 at {x}", self.t)
            self.alive = alive
            return
        self.alive = [n for n in self.alive if int(x >= n) == y]
        if not self.alive:
            raise ProtocolError("label sequence inconsistent with every threshold", self.t)


class TruncatedThresholdSoa(OnlineLearner):
    """Version-space learner for real thresholds, truncated to the points
    observed so far.

    The consistent thresholds form a window (lo, hi]; at a new point the
    dimension of each side's restriction is floor(log2 of the number of
    behaviors distinguishable on the observed points), so the prediction
    compares observed-point counts in the two sub-windows (ties to 0).
    Every observed point lies at or below lo (label 0) or at or above hi
    (label 1), so both counts are always 0: the learner predicts 1 at or
    above hi and 0 below it.
    """

    def __init__(self):
        super().__init__()
        self.lo = None   # max point labeled 0 (threshold must exceed it)
        self.hi = None   # min point labeled 1 (threshold must not exceed it)

    def predict(self, x: Point) -> int:
        if isinstance(x, str) or x != x:
            raise DomainError(f"threshold learner needs numeric points, got {x!r}")
        if self.hi is not None and x >= self.hi:
            return 1
        return 0

    def _absorb(self, x: Point, y: int, predicted: int) -> None:
        if y == 0:
            if self.hi is not None and x >= self.hi:
                raise ProtocolError("no real threshold fits the labels", self.t)
            self.lo = x if self.lo is None else max(self.lo, x)
        else:
            if self.lo is not None and x <= self.lo:
                raise ProtocolError("no real threshold fits the labels", self.t)
            self.hi = x if self.hi is None else min(self.hi, x)
