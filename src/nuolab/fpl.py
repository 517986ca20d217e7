"""Follow-the-perturbed-leader over countably many experts, and the
hierarchical agnostic learner built from growing pools of keyed
version-space experts.

Scoring rule, every round t: each registered expert i carries an exact
integer loss (its counterfactual mistakes so far), a complexity k_i with
sum(exp(-k_i)) <= 1, and a fresh Exponential(1) perturbation q_i; the
leader minimizes loss_i + (k_i - q_i) * sqrt(t). Ties break to the
smallest index. The learning rate 1/sqrt(t) is fixed. Drawing q afresh each
round keeps the regret bound against natures that adapt to past choices.
One scorer applies the rule, `_PerturbedLeader._leader` for a round and
`_leaders` for a block of rounds; every leader here scores through it.

A fresh expert pool replays a batch of rounds from a plan of what its
dimension and the horizon alone fix (`_replay_plan`); the plan holds
nothing of a game, so every replay of one shape shares it, read-only. The
scorer draws each round's perturbations as it scores, except in a large
replay, where a worker thread draws them ahead on a second CPU
(`_PerturbedLeader._drawn_ahead`). Either way they come from the learner's
one generator in round order, and n values drawn in pieces equal, value
for value, n values drawn at once and leave the generator in the same
state, so the stream is that of one Exponential(1) vector a round.
"""
from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
import operator
import os
import queue
import threading
from collections import namedtuple
from typing import Optional, Sequence

import numpy as np

from .hypotheses import FamilyComponent, ClassFamily, Point
from .learners import OnlineLearner, ProtocolError
from .littlestone import engine_for

_MASS_SLACK = 1e-9


class ConfigurationError(ValueError):
    """An expert registration that breaks the complexity-mass budget."""


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity on this platform
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# complexity schemes
# ---------------------------------------------------------------------------

def meta_complexity(n: int) -> float:
    """Complexity 2(ln n + 1) for the n-th component learner."""
    return 2.0 * (math.log(n) + 1.0)


def pool_complexity(dim: int, last_round: int) -> float:
    """Complexity 1 + (dim + 2) ln j for a keyed expert whose last update
    round is j; the empty key gets 1 (the j = 1 value)."""
    if last_round <= 1:
        return 1.0
    return 1.0 + (dim + 2.0) * math.log(last_round)


# ---------------------------------------------------------------------------
# the perturbed leader: one base and its scorer, two expert containers
# ---------------------------------------------------------------------------

class _PerturbedLeader(OnlineLearner):
    """What every perturbed leader here shares: the RNG, the complexity-mass
    budget, the scoring rule and the round's choice.

    `seed` is an int, a `SeedSequence`, None, or a `Generator`, which is
    drawn from as it is. A subclass holds the experts' losses and
    `complexities` (a float array), picks the round's leader in `_lead` by
    scoring the losses with `_leader`, or a batch of rounds with `_leaders`,
    and feeds the experts in `_feed`. The choice is made once per round,
    keyed on the round index, so every `predict` of a round and its
    `update` see the same choice.

    The scorer draws its perturbations from `rng`, unless a replay passes
    in the ones `_drawn_ahead` drew for it on a worker thread: a replay
    knows its draw schedule before it scores, and one stream filled chunk
    by chunk in order holds the values, and leaves `rng` in the state, of
    the round-by-round draws.
    """

    deterministic = False
    _AHEAD = 2 ** 18    # draws a replay needs before a worker draws them ahead
    _CHUNK = 2 ** 15    # values in each of the worker's buffers

    def __init__(self, seed: int | np.random.SeedSequence | np.random.Generator | None):
        super().__init__()
        self.rng = np.random.default_rng(seed)
        self._mass = 0.0
        self._size = 0                  # experts registered
        self._pending = None    # (round, chosen index, prediction, subclass data)

    def _register(self, count: int, complexity: float) -> None:
        """Charge `count` new experts of one complexity to the mass budget."""
        self._mass += count * math.exp(-complexity)
        self._check_mass(self.t)
        self._size += count

    def _check_mass(self, t: int) -> None:
        if not self._mass <= 1.0 + _MASS_SLACK:     # a NaN mass fails too
            raise ConfigurationError(
                f"complexity mass {self._mass:.6f} exceeds 1 at round {t}")

    def _leader(self, loss, t: int, q: Optional[np.ndarray] = None) -> int:
        """The leader of round t among the first len(loss) experts: the
        argmin of loss + (k - q) * sqrt(t), ties to the smallest index.

        This and `_leaders` draw the perturbations q, unless a replay had
        them drawn ahead (`_drawn_ahead`) and passes them in, to be
        overwritten. `standard_exponential(n)` gives the values
        `exponential(size=n)` gives, so the stream is that of one
        Exponential(1) vector a round.
        """
        score = self.rng.standard_exponential(len(loss)) if q is None else q
        np.subtract(self.complexities[:len(score)], score, out=score)
        score *= math.sqrt(t)
        score += loss
        return int(score.argmin())

    def _leaders(self, losses: np.ndarray, t: int, born: Optional[tuple] = None,
                 q: Optional[np.ndarray] = None) -> np.ndarray:
        """The leaders of rounds t, t + 1, ... for a (rounds x experts)
        block of losses, scored row by row as `_leader` scores a round.

        The block's draws are the values of one draw per round, in order;
        where `born`, a mask and its count of True entries, is given, an
        expert not yet born draws -inf, so it scores +inf and takes no draw,
        and the born experts' draws may be passed in as q.
        """
        if born is None:
            score = self.rng.standard_exponential(losses.shape)
        else:
            score = np.full(losses.shape, -np.inf)
            score[born[0]] = self.rng.standard_exponential(born[1]) if q is None else q
        np.subtract(self.complexities[:losses.shape[1]], score, out=score)
        score *= np.sqrt(np.arange(t, t + len(losses), dtype=float))[:, None]
        score += losses
        return score.argmin(axis=1)

    @contextlib.contextmanager
    def _drawn_ahead(self, total: int):
        """Yield `take`: take(n) gives the next n of the `total`
        perturbations the scorer is about to use, or None where the scorer
        draws them itself.

        Past `_AHEAD` draws, on a process allowed more than one CPU, a
        worker thread draws them ahead into a ring of three buffers of
        `_CHUNK` values while the caller scores, since NumPy releases the
        GIL while it fills a buffer. A taken array stays valid until the
        next take: a buffer goes back to the worker only once all its
        values are taken. The worker is joined before this returns or
        raises.
        """
        if total <= self._AHEAD or _cpus() < 2:
            yield lambda n: None
            return
        rng, size = self.rng, self._CHUNK
        free, full = queue.SimpleQueue(), queue.SimpleQueue()
        for _ in range(3):
            free.put(np.empty(size))

        def fill():
            try:
                for start in range(0, total, size):
                    buf = free.get()
                    if buf is None:         # the caller stopped early
                        return
                    buf = buf[:total - start]
                    rng.standard_exponential(out=buf)
                    full.put(buf)
            except BaseException as exc:
                # raised again by take, which would otherwise wait forever
                full.put(exc)

        chunk, pos = np.empty(0), 0     # the buffer being taken from

        def take(n: int) -> np.ndarray:
            nonlocal chunk, pos
            if pos + n <= len(chunk):
                pos += n
                return chunk[pos - n:pos]
            out = np.empty(n)
            got = 0
            while got < n:
                if pos == len(chunk):
                    if len(chunk):
                        free.put(chunk)
                    chunk, pos = full.get(), 0
                    if isinstance(chunk, BaseException):
                        raise chunk
                step = min(n - got, len(chunk) - pos)
                out[got:got + step] = chunk[pos:pos + step]
                got += step
                pos += step
            return out

        worker = threading.Thread(target=fill, name="perturbations")
        worker.start()
        try:
            yield take
        finally:
            free.put(None)
            worker.join()

    @property
    def chosen_index(self) -> Optional[int]:
        return self._pending[1] if self._pending is not None else None

    def predict(self, x: Point) -> int:
        pending = self._pending
        if pending is None or pending[0] != self.t:
            pending = self._pending = (self.t, *self._lead(x))
        return pending[2]

    def _lead(self, x: Point) -> tuple:
        """(chosen index, its prediction, data kept for `_feed`)."""
        raise NotImplementedError

    def _batchable(self, n: int) -> int:
        # none while a round's choice is pending
        return 0 if self._pending is not None else n

    def _generators(self) -> list:
        """The random generators this learner and the learners inside it
        draw from."""
        return [self.rng]

    def _absorb(self, x: Point, y: int, predicted: int) -> None:
        self._feed(x, y, self._pending[3])
        self._pending = None

    def _feed(self, x: Point, y: int, data) -> None:
        raise NotImplementedError


class FplLearner(_PerturbedLeader):
    """Perturbed-leader selection over a fixed list of online learners.

    Every expert is fed every revealed pair, so each expert's own mistake
    counter is its exact counterfactual loss; `losses` reads them. The
    experts must therefore be fresh (no rounds played) when passed in.
    """

    def __init__(self, experts: Sequence[OnlineLearner] = (),
                 complexities: Sequence[float] = (), *,
                 seed: int | np.random.SeedSequence | np.random.Generator | None = None):
        super().__init__(seed)
        if len(experts) != len(complexities):
            raise ConfigurationError("experts and complexities differ in length")
        for k in complexities:
            self._register(1, k)
        self.experts: list[OnlineLearner] = list(experts)
        self.complexities = np.array(complexities, dtype=float)

    @property
    def losses(self) -> list[int]:
        return [expert.mistakes for expert in self.experts]

    def _lead(self, x: Point) -> tuple:
        if not self.experts:
            raise ProtocolError("no experts registered", self.t)
        j = self._leader(self.losses, self.t)
        return j, self.experts[j].predict(x), None

    def _feed(self, x: Point, y: int, data) -> None:
        for expert in self.experts:
            expert.update(x, y)

    def _generators(self) -> list:
        return [g for expert in self.experts if isinstance(expert, _PerturbedLeader)
                for g in expert._generators()] + [self.rng]

    def _batchable(self, n: int) -> int:
        # the batch plays each expert's rounds before the leader's, which
        # only keeps the draws if no two of them share a generator; with no
        # experts the loop raises
        generators = self._generators()
        if not self.experts or len(set(map(id, generators))) < len(generators):
            return 0
        return super()._batchable(n)

    def _replay(self, xs: Sequence[Point], ys: Sequence[int]) -> list[int]:
        """Each expert plays the rounds with its own `play`; the leader then
        scores the (rounds x experts) matrix of losses at once."""
        T = len(ys)
        before = np.array(self.losses)
        played = [expert.play(xs, ys) for expert in self.experts]
        # losses[i, j]: expert j's mistakes before round t + i
        wrong = np.array(played).T != np.array(ys)[:, None]
        losses = before + np.cumsum(wrong, axis=0) - wrong
        chosen = self._leaders(losses, self.t).tolist()
        preds = [played[j][i] for i, j in enumerate(chosen)]
        self.mistakes += sum(p != y for p, y in zip(preds, ys))
        self.t += T
        return preds


_ReplayPlan = namedtuple("_ReplayPlan", "charges complexities live tri growable parent schedule")


@functools.lru_cache(maxsize=16)
def _replay_plan(dim: int, T: int, block: int, complexity) -> _ReplayPlan:
    """`ExpertPoolFpl._replay`'s plan for T rounds of a fresh dimension-`dim`
    pool under the scheme `complexity`, scoring at most `block` entries at
    once. A schedule entry (t, u, s, w, newborn) scores rounds t..u over the
    first w experts, s born before round t; for a block, newborn holds the
    born mask and count, and each newborn's flat index and its parent's."""
    counts = np.arange(T) * (dim == 2) + (dim > 0)     # the cohort sizes
    ks = [complexity(dim, t) for t in range(1, T + 1)]
    charges = tuple(map(operator.mul, counts.tolist(), map(math.exp, map(operator.neg, ks))))
    live = np.cumsum(np.concatenate(([1], counts)))    # live[t]: experts scored at round t
    sizes = live.tolist()
    tri = np.tri(T, int(counts[-1]), dtype=bool)
    growable = np.concatenate(([0], live[:-1]))     # the growable experts after round T
    parent = growable[:tri.shape[1]]
    arrays = [np.repeat(ks, counts), live, tri, growable, parent]
    schedule, t = [], 1
    while t <= T:
        u = t
        while u < T and (u + 2 - t) * sizes[u + 1] <= block:
            u += 1
        s, w = sizes[t - 1], sizes[u]
        if u > t:   # the newborns of rounds t..u are experts s..w - 1
            r, a = np.nonzero(tri[t - 1:u])
            arrays += [np.arange(w) < live[t:u + 1, None], r * w + np.arange(s, w),
                       r * w + parent[a]]
        newborn = ((arrays[-3], sum(sizes[t:u + 1])), *arrays[-2:]) if u > t else None
        schedule.append((t, u, s, w, newborn))
        t = u + 1
    for array in arrays:
        array.flags.writeable = False
    return _ReplayPlan(charges, arrays[0], live, tri, growable, parent, tuple(schedule))


class ExpertPoolFpl(_PerturbedLeader):
    """Perturbed leader over every keyed version-space expert with at most
    `dim` update rounds, the pool growing by the keys ending at the current
    round.

    A keyed expert restricts its version space only at rounds in its key,
    so before round t the expert keyed (prefix + (t,)) behaves exactly like
    the expert keyed (prefix): at registration it inherits the prefix
    expert's state and loss, which keeps every stored loss an exact
    standalone-replay count without replaying anything. After its last key
    round an expert's state is frozen, so per-round work is array-wide.

    Layout: per expert, in registration order, `state`, `losses` and
    `complexities` hold its engine state id, loss and complexity, and
    `_growable` holds the index and key length of each expert whose key is
    shorter than `dim`. Each is an array of exactly its size; `pool_extend`
    appends a round's cohort to them. Keys are not stored: the growth rule
    fixes them, and `keys` rebuilds them. The cohort's restricts intern new
    states to the ids that restricting expert by expert would give (see
    `_feed`).

    A fresh pool of dimension at most 2 replays a batch of rounds against
    an oblivious nature in closed form (`_replay`); larger pools, and pools
    that have played, take the round loop.
    """

    _BLOCK = 2 ** 13    # entries a replay scores at once

    def __init__(self, component: FamilyComponent, *,
                 seed: int | np.random.SeedSequence | np.random.Generator | None = None):
        super().__init__(seed)
        self.engine = engine_for(component.cls)
        self.dim = component.dim
        k_root = pool_complexity(self.dim, 0)
        self._register(1, k_root)
        self.state = np.zeros(1, dtype=np.int64)
        self.losses = np.zeros(1, dtype=np.int64)
        self.complexities = np.full(1, k_root)
        # rows (expert index, key length) of the experts that can grow
        self._growable = np.zeros((1 if self.dim > 0 else 0, 2), dtype=np.int64)
        self._extended_for = 0
        self._cohort = (1, 1)   # index range of experts registered this round

    @property
    def pool_size(self) -> int:
        return self._size

    @property
    def keys(self) -> list[tuple[int, ...]]:
        """Each expert's key, the rounds at which it restricts, rebuilt by
        the growth rule of `pool_extend`."""
        keys: list[tuple[int, ...]] = [()]
        growable = [0] if self.dim > 0 else []
        for t in range(1, self._extended_for + 1):
            start = len(keys)
            keys += [keys[p] + (t,) for p in growable]
            growable += [i for i in range(start, len(keys)) if len(keys[i]) < self.dim]
        return keys

    def pool_extend(self) -> int:
        """Register every key ending at the current round; returns the count
        added. Runs once per round, implicitly before prediction."""
        t = self.t
        if self._extended_for == t:
            return self._cohort[1] - self._cohort[0]
        start = self._size
        count = len(self._growable)
        if count:
            k_new = pool_complexity(self.dim, t)
            self._register(count, k_new)
            parents, lengths = self._growable.T
            self.state = np.concatenate((self.state, self.state[parents]))
            self.losses = np.concatenate((self.losses, self.losses[parents]))
            self.complexities = np.concatenate((self.complexities, np.full(count, k_new)))
            # only a parent with a key shorter than dim - 1 has a child that
            # can still grow
            if self.dim > 1:
                grows = np.flatnonzero(lengths < self.dim - 1)
                self._growable = np.concatenate(
                    (self._growable, np.column_stack((grows + start, lengths[grows] + 1))))
        self._extended_for = t
        self._cohort = (start, start + count)
        return count

    def _predictions(self, x: Point) -> np.ndarray:
        # distinct version spaces stay few, so a per-state lookup table
        # beats touching each expert individually
        lut = np.fromiter((self.engine.predict(s, x) for s in range(self.engine.n_states)),
                          dtype=np.int64, count=self.engine.n_states)
        return lut[self.state]

    def _lead(self, x: Point) -> tuple:
        self.pool_extend()
        preds = self._predictions(x)
        j = self._leader(self.losses, self.t)
        return j, int(preds[j]), preds

    def _feed(self, x: Point, y: int, preds: np.ndarray) -> None:
        wrong = preds != y
        self.losses += wrong
        # only this round's cohort has the current round in its key. Its
        # mistaken experts share few states: restrict each distinct one
        # once, in order of first appearance, which interns new states to
        # the ids that restricting expert by expert would give.
        start, end = self._cohort
        cohort = self.state[start:end]
        mistaken = wrong[start:end]
        sources = cohort[mistaken]
        if sources.size:
            engine = self.engine
            step = np.arange(engine.n_states)
            for s in dict.fromkeys(sources.tolist()):
                nxt = engine.restrict(s, x, y)
                if nxt is not None:
                    step[s] = nxt
            cohort[mistaken] = step[sources]

    def _batchable(self, n: int) -> int:
        # `_replay` covers a fresh pool whose keys have at most two rounds
        if self.dim > 2 or self._extended_for:
            return 0
        return super()._batchable(n)

    def _replay(self, xs: Sequence[Point], ys: Sequence[int]) -> list[int]:
        """Dense replay of a fresh pool of dimension 0, 1 or 2.

        Round b's cohort copies the growable experts in `_growable` order:
        none, the root, or the root, (1), ..., (b - 1). A newborn keeps its
        parent's state and loss through round b, so there it predicts from
        its parent's state; it restricts if it errs, and is frozen after
        round b. With M[s, t] the mistakes of a frozen state s over rounds
        1..t, and sigma_a, sigma_ab the states of (a) and (a, b) after
        their birth rounds (sigma_0 = 0, the root's), the loss of (a, b)
        before round t > b is M[0, a] - M[sigma_a, a] + M[sigma_a, b] -
        M[sigma_ab, b] + M[sigma_ab, t - 1]: a fixed base plus M[., t - 1]
        at a fixed state; (b) is the case a = 0.

        At round b the distinct mistaken states among [0, sigma_1, ...,
        sigma_(b-1)] restrict in order of first appearance (`_feed`'s rule),
        so the engine interns the loop's ids, and births register cohort by
        cohort, so the mass budget is the loop's. Each round is scored by
        `_leader` over the experts born by then; while the pool is small,
        rounds are scored by `_leaders` as one block of at most `_BLOCK`
        entries, in which the unborn experts take no draw. `_replay_plan`
        makes the cohorts, their complexities and charges, and this schedule
        once per (dim, T, `_BLOCK`); the state walk, the M, step and drop
        tables, the bases, the mass and the draws are this game's.
        """
        engine, T, dim = self.engine, len(ys), self.dim
        plan = _replay_plan(dim, T, self._BLOCK, pool_complexity)
        # the cohorts' charges as `_register` makes them round by round, in
        # one pass; the masses never fall, so the rounds before the first
        # over the budget are the ones that pass
        masses = list(itertools.accumulate(plan.charges, initial=self._mass))
        passed = bisect.bisect_right(masses, 1.0 + _MASS_SLACK) - 1
        self._size += int(plan.live[passed]) - 1
        self._mass = masses[min(passed + 1, T)]
        self._check_mass(self.t + passed)
        n = int(plan.live[T])
        self.complexities = np.concatenate((self.complexities, plan.complexities))

        # a worker may draw the perturbations from here on, the state walk's
        # time included
        with self._drawn_ahead(int(plan.live[1:].sum())) as take:
            after = {}      # (state, x, y) -> the state that round leaves it in
            grown = [0] if dim else []      # the growable experts' states, in order
            present = dict.fromkeys(grown)
            for x, y in zip(xs, ys):
                for s in present:
                    if (s, x, y) not in after:
                        nxt = engine.restrict(s, x, y) if engine.predict(s, x) != y else None
                        after[s, x, y] = s if nxt is None else nxt
                if dim == 2:
                    grown.append(after[0, x, y])
                    present.setdefault(grown[-1])
            points = {p: i for i, p in enumerate(dict.fromkeys(xs))}
            ix, y = np.array([points[x] for x in xs]), np.array(ys)
            ns = engine.n_states
            pred = np.array([[engine.predict(s, p) for p in points] for s in range(ns)])
            # mistakes[t, s]: M[s, t], as floats, which add to the scores as
            # the loop's int losses do; step[t - 1, s]: the state round t
            # leaves s in; drop[t - 1, s]: M[s, t] - M[step[t - 1, s], t], a
            # base's term
            mistakes = np.zeros((T + 1, ns))
            np.cumsum(pred[:, ix].T != y[:, None], axis=0, out=mistakes[1:])
            step = np.tile(np.arange(ns)[:, None, None], (1, len(points), 2))
            for (s, x, y_t), nxt in after.items():
                step[s, points[x], y_t] = nxt
            step = step[:, ix, y].T
            drop = mistakes[1:] - np.take_along_axis(mistakes[1:], step, axis=1)

            # the experts after the root, cohort by cohort, are the lower
            # triangle of a (birth round x growable parent) table, row by row
            W, tri = len(plan.parent), plan.tri
            parent_state = np.array(grown[:W], dtype=np.int64)
            self.state = state = np.concatenate((self.state, step[:, parent_state][tri]))
            base = np.zeros(n)
            # the base of (a, b): the base of (a), then the drop at round b
            base[1:] = drop[:, parent_state][tri]
            base[1:] += np.broadcast_to(np.concatenate(([0], drop[:, 0]))[:W], tri.shape)[tri]

            loss = np.empty(n)
            chosen = np.empty(T, dtype=np.int64)
            for t, u, s, w, newborn in plan.schedule:
                if newborn is None:
                    # the indices are in range: mode="clip" only makes take
                    # write into `out` unbuffered
                    mistakes[t - 1].take(state[:s], out=loss[:s], mode="clip")
                    loss[:s] += base[:s]
                    # a newborn has its parent's loss
                    loss.take(plan.parent[:w - s], out=loss[s:w], mode="clip")
                    chosen[t - 1] = self._leader(loss[:w], t, take(w))
                else:
                    born, newborns, parents = newborn
                    block = mistakes[t - 1:u].take(state[:w], axis=1)
                    block += base[:w]
                    # in its birth round, a newborn has its parent's loss
                    block.put(newborns, block.take(parents))
                    chosen[t - 1:u] = self._leaders(block, t, born, take(born[1]))
        nth = chosen - plan.live[:-1]       # a newborn's place in its cohort
        then = state[chosen]
        new = nth >= 0
        then[new] = parent_state[nth[new]]
        preds = pred[then, ix]

        self.losses = (mistakes[T][state] + base).astype(np.int64)
        if dim == 2:
            self._growable = np.column_stack((plan.growable, np.arange(T + 1) > 0))
        self._extended_for = T
        self._cohort = (int(plan.live[T - 1]), n)
        self.mistakes += int((preds != y).sum())
        self.t += T
        return preds.tolist()


# ---------------------------------------------------------------------------
# hierarchical agnostic learner
# ---------------------------------------------------------------------------

class AgnosticFpl(FplLearner):
    """The perturbed leader over per-component pooled-expert learners.

    Component n carries complexity 2(ln n + 1) at this level; inside, its
    pool of keyed experts uses complexities 1 + (dim + 2) ln j. All levels
    update counterfactually every round.
    """

    def __init__(self, family: ClassFamily, components: int, *,
                 seed: Optional[int] = None, cap_dim: Optional[int] = 2,
                 cap_rounds: Optional[int] = None):
        if components < 1:
            raise ConfigurationError("need at least one component")
        seeds = np.random.SeedSequence(seed).spawn(components + 1)
        pools = []
        for n in range(1, components + 1):
            comp = family.component(n)
            if cap_dim is not None and comp.dim > cap_dim:
                raise ConfigurationError(
                    f"component {n} has dimension {comp.dim} > cap {cap_dim}; "
                    "its expert pool would grow as t^dim")
            pools.append(ExpertPoolFpl(comp, seed=seeds[n]))
        super().__init__(pools, [meta_complexity(n) for n in range(1, components + 1)],
                         seed=seeds[0])
        self.cap_rounds = cap_rounds

    def predict(self, x: Point) -> int:
        if self.cap_rounds is not None and self.t > self.cap_rounds:
            raise ConfigurationError(
                f"round {self.t} beyond the configured cap of {self.cap_rounds}; "
                "the expert pools grow polynomially per round")
        return super().predict(x)

    def _batchable(self, n: int) -> int:
        n = super()._batchable(n)
        if self.cap_rounds is not None:
            n = min(n, max(0, self.cap_rounds + 1 - self.t))
        return n
