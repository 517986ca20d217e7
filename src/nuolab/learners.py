"""Realizable-setting learners behind one protocol: observe a point,
predict a label, absorb the revealed truth.

`predict` is a pure function of the interaction history (plus recorded
random draws for the randomized learners in `fpl`), so calling it twice
within a round is safe. `update` advances the round and counts mistakes
against the learner's own prediction; `play` and `runner.run_game`
predict each round once and take the same round step.

Each learner instance is a single-owner state machine; distinct instances
may run in parallel games without any shared state.

A version-space learner is a `littlestone.engine_for` engine (version
spaces of one component class interned to state ids), its current state
id and a restrict policy; the expert pools in `fpl` run the same engines.
"""
from __future__ import annotations

import copy
from bisect import bisect_left
from itertools import compress, count
from operator import ne
from typing import Callable, Iterable, Optional, Sequence

from .hypotheses import (DomainError, FiniteClass, FiniteSupportClass,
                         Hypothesis, Point, SingletonClass, ClassFamily, is_label)
from .littlestone import engine_for


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
        take: all, if the class defines `_replay`; a subclass may narrow it."""
        return n if hasattr(self, "_replay") else 0

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

    def _replay(self, xs: Sequence[Point], ys: Sequence[int]) -> list[int]:
        self.mistakes += len(ys) - ys.count(self.value)
        self.t += len(ys)
        return [self.value] * len(ys)


class SoaLearner(OnlineLearner):
    """Version-space learner predicting the label whose restriction keeps
    the larger dimension (ties to 0), on any component class kind.

    By default the space is restricted only on mistaken rounds;
    `always_restrict` switches to restricting on every round. `on_empty`
    decides what an update that would empty the space does: "error" raises
    (the realizable contract), "freeze" keeps the space unchanged, which
    keeps the learner total on arbitrary feeds. `play` replays a batch in
    one loop (`_replay`) under every policy, unless the class is empty. A
    finite class beyond the caps of `littlestone.ldim` raises
    `CapacityError` here.
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

    def predict(self, x: Point) -> int:
        if self.sid is None:
            raise ProtocolError("version space is empty (non-realizable feed)", self.t)
        return self.engine.predict(self.sid, x)

    def _should_restrict(self, mistake: bool, t: int) -> bool:
        return mistake or self.always_restrict

    def _step(self, sid: int, x: Point, y: int, t: int) -> int:
        """The state that restricting state sid by (x, y) at round t leaves."""
        nxt = self.engine.restrict(sid, x, y)
        if nxt is None and self.on_empty == "error":
            raise ProtocolError(f"restriction by ({x!r}, {y}) empties the version space", t)
        return sid if nxt is None else nxt

    def _absorb(self, x: Point, y: int, predicted: int) -> None:
        if self._should_restrict(predicted != y, self.t):
            self.sid = self._step(self.sid, x, y, self.t)

    def _batchable(self, n: int) -> int:
        return 0 if self.sid is None else super()._batchable(n)

    def _replay(self, xs: Sequence[Point], ys: Sequence[int]) -> list[int]:
        """The round loop on locals; predictions are memoized by (state, point)
        and steps by (state, point, label), each first taken at the loop's
        round, so the engine interns the loop's states. An error leaves the loop's state."""
        predict, should, step = self.engine.predict, self._should_restrict, self._step
        predicted, stepped, preds = {}, {}, []
        sid, t, mistakes, always = self.sid, self.t, self.mistakes, self.always_restrict
        try:
            for x, y in zip(xs, ys):
                p = predicted.get((sid, x))
                if p is None:
                    p = predicted[sid, x] = predict(sid, x)
                preds.append(p)
                mistakes += p != y
                # every policy restricts only mistaken rounds, unless always_restrict
                if (p != y or always) and should(p != y, t):
                    nxt = stepped.get((sid, x, y))
                    if nxt is None:
                        nxt = stepped[sid, x, y] = step(sid, x, y, t)
                    sid = nxt
                t += 1
        finally:
            self.sid, self.t, self.mistakes = sid, t, mistakes
        return preds


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

    def _should_restrict(self, mistake: bool, t: int) -> bool:
        return mistake and t in self._keyset


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
    argmin, so `_choose` instantiates sub-learners lazily up to that bound;
    a late one replays the full history to keep its counter honest.

    A sub-learner's counters do not depend on which sub-learner the
    aggregator selects: it sees every pair either way. So `play` replays a
    batch of rounds by letting each sub-learner play them all on its own,
    then walks over the counters those plays give from one change of
    choice to the next, calling `_choose` as the loop does. Each round's
    pool, selection and prediction, and every counter, are the loop's.
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

    def _choose(self, scores: list[int], joined: Callable[[int], int]) -> int:
        """The round's selection, from scores[n - 1] = sub-learner n's
        counter + n. While the top index is below the least score, the
        next sub-learner n joins (`_spawn`) and `joined(n)` gives its
        score; then the argmin, ties to the smallest index."""
        least = min(scores)
        while len(scores) < least:
            n = len(scores) + 1
            self.sub[n] = self._spawn(n)
            scores.append(joined(n))
            least = min(least, scores[-1])
        return scores.index(least) + 1

    def counters(self) -> dict[int, int]:
        return {n: l.mistakes for n, l in self.sub.items()}

    def selector(self) -> int:
        return self._choose([l.mistakes + n for n, l in self.sub.items()],
                            lambda n: self.sub[n].mistakes + n)

    def predict(self, x: Point) -> int:
        j = self.selector()
        self.selected = j
        return self.sub[j].predict(x)

    def _absorb(self, x: Point, y: int, predicted: int) -> None:
        for learner in self.sub.values():
            learner.update(x, y)
        self.history.append((x, y))

    def _replay(self, xs: Sequence[Point], ys: Sequence[int]) -> list[int]:
        """Every sub-learner plays all the rounds with its own `play`. At
        round i the walk calls `_choose` on the counters (a sub-learner that
        joins replays the history, then the batch); counters never fall, so
        the pool and the choice stand until the round after the chosen one's
        next error, and its predictions are copied up to there. An error
        from inside a sub-learner drops the batch, which plays copies of the
        sub-learners, and the round loop plays the rounds instead, so the
        error is the loop's."""
        saved = self.sub
        try:
            self.sub = {n: copy.copy(l) for n, l in saved.items()}
            runs = [self._scored(n, l, xs, ys) for n, l in self.sub.items()]

            def joined(n: int) -> int:
                runs.append(self._scored(n, self.sub[n], xs, ys))
                return runs[-1][0] + bisect_left(runs[-1][1], i)

            i, preds = 0, []
            while i < len(ys):
                k = self._choose([start + bisect_left(errs, i) for start, errs, _ in runs],
                                 joined)
                _, errs, chosen = runs[k - 1]
                j = bisect_left(errs, i)
                end = errs[j] + 1 if j < len(errs) else len(ys)
                preds += chosen[i:end]
                i = end
        except Exception:
            # an error from inside a sub-learner: the loop raises it too, in
            # the loop's order
            self.sub = saved
            return self._loop(xs, ys, len(ys))
        self.selected = k
        self.mistakes += sum(map(ne, preds, ys))
        self.history += zip(xs, ys)
        self.t += len(ys)
        return preds

    @staticmethod
    def _scored(n: int, learner: SoaLearner, xs, ys) -> tuple[int, list[int], list[int]]:
        """(counter + n before the rounds, the rounds it errs at, its
        predictions), as `learner` plays the rounds."""
        start = learner.mistakes + n
        preds = learner.play(xs, ys)
        return start, list(compress(count(), map(ne, preds, ys))), preds


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
    never decreases. The hypothesis changes only at a mistake, so `play`
    reads the rounds up to the next one off its labels of the batch's
    distinct points, and there runs the loop's `_advance`."""

    def __init__(self, cover: CoverSpec):
        super().__init__()
        self.cover = cover
        self.index = 0
        # the distinct (x, y) pairs seen, in order of first occurrence: each
        # is checked once, and a raising hypothesis raises at the same pair
        self.history: dict[tuple[Point, int], None] = {}
        self._advance()

    def _consistent(self, h: Hypothesis) -> bool:
        return all(h(px) == py for px, py in self.history)

    def _advance(self) -> None:
        """Move `index` on to the next hypothesis consistent with the history."""
        while True:
            self.index += 1
            try:
                h = self.cover.hypothesis(self.index)
            except IndexError:
                raise ProtocolError(
                    "every enumerated cover hypothesis eliminated", self.t) from None
            if self._consistent(h):
                self.current = h
                return

    def predict(self, x: Point) -> int:
        return self.current(x)

    def _absorb(self, x: Point, y: int, predicted: int) -> None:
        self.history[x, y] = None
        if predicted != y:
            self._advance()

    def _replay(self, xs: Sequence[Point], ys: Sequence[int]) -> list[int]:
        """An error in labelling the points, which the loop may never show
        this hypothesis, restores the state and plays the batch through the
        round loop; one from `_advance` is raised from the loop's state."""
        saved = self.index, self.current, len(self.history), self.t, self.mistakes
        preds, i, n = [], 0, len(ys)
        while i < n:
            try:
                points = points if i else list(dict.fromkeys(xs))
                label = dict(zip(points, map(self.current, points))).__getitem__
                j = next(compress(count(i), map(ne, map(label, xs[i:]), ys[i:])), n)
            except Exception:
                self.index, self.current, seen, self.t, self.mistakes = saved
                for pair in list(self.history)[seen:]:
                    del self.history[pair]
                return self._loop(xs, ys, n)
            preds += map(label, xs[i:j + 1])
            self.history.update(dict.fromkeys(zip(xs[i:j + 1], ys[i:j + 1])))
            if j < n:
                self.t, self.mistakes = saved[3] + j, self.mistakes + 1
                self._advance()
            i = j + 1
        self.t = saved[3] + n
        return preds


class NaturalThresholdLearner(OnlineLearner):
    """Learns integer thresholds 1_{x >= n} over the positive integers.

    Predicts 0 until the first mistake at some point x0; the consistent
    thresholds then form a finite set, over which it runs halving
    (majority vote, eliminate the wrong voters). Total mistakes are at
    most 1 + ceil(log2 x0). The consistent set is always an interval, kept
    as its ends, so a round costs O(1) whatever x0 is.
    """

    def __init__(self):
        super().__init__()
        self.max_zero = 0          # largest point seen with label 0 before the first 1
        self.alive: Optional[tuple[int, int]] = None   # consistent thresholds lo..hi

    @staticmethod
    def _check_point(x: Point) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise DomainError(f"expected a positive integer point, got {x!r}")
        return x

    def predict(self, x: Point) -> int:
        x = self._check_point(x)
        if self.alive is None:
            return 0
        lo, hi = self.alive
        votes_one = max(0, min(hi, x) - lo + 1)
        return 1 if 2 * votes_one > max(0, hi - lo + 1) else 0

    def _absorb(self, x: Point, y: int, predicted: int) -> None:
        x = self._check_point(x)
        if self.alive is None:
            if y == 0:
                self.max_zero = max(self.max_zero, x)
                return
            # first 1-label: thresholds n <= x survive, n <= max_zero are ruled
            # out; before any 0-label, the all-ones threshold 0 is possible
            lo = self.max_zero + 1 if self.max_zero else 0
            if lo > x:
                raise ProtocolError(
                    f"no threshold is consistent with 1 at {x}", self.t)
            self.alive = (lo, x)
            return
        lo, hi = self.alive
        self.alive = (lo, min(hi, x)) if y else (max(lo, x + 1), hi)
        if self.alive[0] > self.alive[1]:
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
