"""Follow-the-perturbed-leader over countably many experts, and the
hierarchical agnostic learner built from growing pools of keyed
version-space experts.

Scoring rule, every round t: each registered expert i carries an exact
integer loss (its counterfactual mistakes so far), a complexity k_i with
sum(exp(-k_i)) <= 1, and a fresh Exponential(1) perturbation q_i; the
leader minimizes loss_i + (k_i - q_i) * sqrt(t), that is, maximizes
q_i - c_i with c_i = loss_i / sqrt(t) + k_i. Ties break to the smallest
index. The learning rate 1/sqrt(t) is fixed. Drawing q afresh each round
keeps the regret bound against natures that adapt to past choices.
`_PerturbedLeader._leaders` applies the rule to a (round x slot) block,
drawing q only for the cells of its mask: a fixed list of experts draws
every cell, and `ExpertPoolFpl._lazy_leaders` scores a pool's exact set
with it and draws for the rest only the perturbations that can still lead.

The lazy sampler returns the leader with the distribution of the
per-expert rule, round by round. Pool experts come in cohorts, one per
birth round (the root is cohort 0). Each round:

- Exact set: the live experts of the cohorts below `ExpertPoolFpl._EXACT`
  (E), and the round's newborns while they are fewer than E, draw q
  exactly. V0 is their best q - c.
- Ranges: every other live expert falls in one of the cohort ranges
  [E, 2E), [2E, 4E), ..., or, in its birth round, in the range of that
  round's newborns, scored after the older ranges. A range's members all
  have c >= c_min, its smallest loss over sqrt(t) plus its smallest k.
  Every newborn of round t has k = k_t and its parent's loss, so the
  newborns' c_min is their parents' smallest loss over sqrt(t) plus k_t.
  A member with q <= tau = V0 + c_min has q - c <= V0, so it cannot lead,
  and its q is never needed (thinning).
- Counts: the M members' q are iid, each past tau with chance
  p = exp(-max(tau, 0)). The index of the first member past it is
  geometric: with one uniform U, the first G - 1 members stay below,
  G = 1 + floor(log(1 - U) / log(1 - p)), so the range is active, with
  chance 1 - (1 - p)^M, exactly when G <= M. Since that chance is at
  most M p, only a range whose U is below M times a power of two at
  least p needs G. The members after the first are independent of it, so
  how many of them pass is Binomial(M - G, p), placed uniformly among
  them.
- Values: by memorylessness, a member known to be past tau >= 0 has
  q = tau + Exponential(1), independent of the rest; for tau < 0 every
  member passes and keeps a plain Exponential(1).

So the round's leader is the best of the exact set and of the members
resolved past tau, with the distribution of drawing every q. The draws
come from three streams, each consumed in round order: the exact set's on
`rng`, one uniform per range on `_range_rng`, and the rare resolutions on
`_resolve_rng`, both generators spawned from `rng`'s seed. The round loop
and the batch replay (`ExpertPoolFpl._replay`) call the one scorer, on one
round or on all of a game's rounds, so they draw the same values and
choose the same leaders. With no range live the rule draws every q, in
index order, as for a fixed list: a dimension-0 pool, the first E - 1
rounds of any pool, and round E of a pool with fewer than E newborns then
keep that stream. A dimension-1 pool's newborn is one expert, so it is a
range only when E is 1; round t of a dimension-2 pool has t newborns.

Each fact of a pool has one rule, shared by the round loop, the replay
plan and a replayed pool's first read: `_grow` (how the pool grows),
`_layout` (a round's exact set and thinned ranges) and `_placed` (where a
replayed expert stands: its state and loss base).
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections import namedtuple
from typing import Optional, Sequence

import numpy as np

from .hypotheses import FamilyComponent, ClassFamily, Point
from .learners import OnlineLearner, ProtocolError
from .littlestone import engine_for

_MASS_SLACK = 1e-9


class ConfigurationError(ValueError):
    """An expert registration that breaks the complexity-mass budget."""


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

def _own_copy(seed):
    """`seed`, a `SeedSequence` copied, so that spawning from the copy
    leaves the caller's spawn counter as it was."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size,
                                      n_children_spawned=seed.n_children_spawned)
    return seed


class _PerturbedLeader(OnlineLearner):
    """What every perturbed leader here shares: the RNG, the complexity-mass
    budget, the scoring rule and the round's choice.

    `seed` is an int, a `SeedSequence`, None, or a `Generator`. A
    `SeedSequence` is copied, so that spawning from `rng` leaves the
    caller's spawn counter as it was; a `Generator` is drawn and spawned
    from as it is. A subclass holds the experts' losses and complexities
    (`FplLearner` in `complexities`, a pool by cohort), picks the round's
    leader in `_lead` by scoring a one-row block with `_leaders`, or a
    batch of rounds at once (a pool through `ExpertPoolFpl._lazy_leaders`),
    and feeds the experts in `_feed`. The choice is made once per round,
    keyed on the round index, so every `predict` of a round and its
    `update` see the same choice.
    """

    deterministic = False

    def __init__(self, seed: int | np.random.SeedSequence | np.random.Generator | None):
        super().__init__()
        self.rng = np.random.default_rng(_own_copy(seed))
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

    def _leaders(self, ts: np.ndarray, loss, k, mask: Optional[np.ndarray] = None) -> tuple:
        """The leaders of the rounds `ts` over a (round x slot) block: row i
        scores loss + (k - q) * sqrt(ts[i]) and returns (each row's first
        argmin column, that column's score). q is Exponential(1), drawn for
        the cells of `mask` (every cell if it is None) in row-major order
        by one `standard_exponential` call; a cell outside the mask scores
        as if it held k = +inf, so it never leads."""
        if mask is None:
            score = self.rng.standard_exponential(np.shape(loss))
        else:
            score = np.full(mask.shape, -np.inf)
            score[mask] = self.rng.standard_exponential(np.count_nonzero(mask))
        np.subtract(k, score, out=score)
        score *= np.sqrt(ts)[:, None]
        score += loss
        cols = score.argmin(axis=1)
        return cols, score[np.arange(len(cols)), cols]

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
        return 0 if self._pending is not None else super()._batchable(n)

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
        j = int(self._leaders(np.array([self.t]), np.array(self.losses)[None],
                              self.complexities)[0][0])
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
        # played[i, j]: expert j's prediction in round t + i; losses[i, j]:
        # its mistakes before that round
        played = np.array([expert.play(xs, ys) for expert in self.experts]).T
        wrong = played != np.array(ys)[:, None]
        losses = before + np.cumsum(wrong, axis=0) - wrong
        rows = np.arange(T)
        chosen = self._leaders(self.t + rows, losses, self.complexities)[0]
        self.mistakes += int(wrong[rows, chosen].sum())
        self.t += T
        return played[rows, chosen].tolist()


def _ranges(exact: int, t: int):
    """The cohort ranges of round t: (lo, hi) for each range [lo, hi) of
    the cohorts born before t, lo = exact, 2 * exact, 4 * exact, ..."""
    lo = exact
    while lo < t:
        yield lo, min(2 * lo, t)
        lo *= 2


def _grow(growable: np.ndarray, dim: int, start: int) -> np.ndarray:
    """The growth rule: the growable experts, rows (expert index, key
    length), after a round whose cohort copies `growable` in order from
    expert `start` on; a copy's key is one round longer, and it grows
    again while that key is shorter than dim."""
    copies = growable + (0, 1)
    copies[:, 0] = np.arange(start, start + len(copies))
    return np.concatenate((growable, copies[copies[:, 1] < dim]))


def _layout(ends: np.ndarray, ks, t: int, exact: int) -> tuple:
    """Round t's (exact set, ranges) for cohorts b ending at ends[b] with
    complexities ks[b]. The exact set is the head, the cohorts before t
    below `exact`, then the newborns (cohort t) while fewer than `exact`.
    The ranges are the cohort spans [lo, hi) of `_ranges`, then the
    newborns' span (t, t + 1) once not fewer: each span that holds an
    expert, as arrays (first member, member count, smallest k, hi - 1)."""
    spans = list(_ranges(exact, t))
    slot = np.arange(ends[min(exact, t) - 1])
    if ends[t] - ends[t - 1] < exact:
        slot = np.concatenate((slot, np.arange(ends[t - 1], ends[t])))
    else:
        spans.append((t, t + 1))
    spans = [(lo, hi) for lo, hi in spans if ends[hi - 1] > ends[lo - 1]]
    lo, hi = np.array(spans, dtype=np.int64).reshape(-1, 2).T
    first = ends[lo - 1]
    low_k = np.array([ks[a:b].min() for a, b in spans], dtype=float)
    return slot, (first, ends[hi - 1] - first, low_k, hi - 1)


_ReplayPlan = namedtuple("_ReplayPlan",
                         "charges ks live width growable cohort place slot mask ranges")


@functools.lru_cache(maxsize=16)
def _replay_plan(dim: int, T: int, exact: int, complexity) -> _ReplayPlan:
    """`ExpertPoolFpl._replay`'s plan for T rounds of a fresh dimension-`dim`
    pool under the scheme `complexity`, with `exact` as `_EXACT`. The pool
    grows by `_grow`: cohort b holds experts live[b - 1]..live[b] - 1 of
    complexity ks[b - 1] (the root is cohort 0), expert i copies growable
    parent place[i] in cohort cohort[i], `growable` is the pool's after
    round T, and `width` the largest cohort's size. Row t - 1 of the
    (round x slot) blocks `slot` and `mask` holds and marks round t's exact
    set by `_layout` (the root outside the mask); `ranges` stacks its
    ranges as (round position, first member, member count, row of
    `_replay`'s table of smallest bases, smallest k), the row being an
    older range's last cohort, or T + a newborn range's count."""
    growable, live = np.zeros((int(dim > 0), 2), dtype=np.int64), [1]
    for _ in range(T):
        live.append(live[-1] + len(growable))
        growable = _grow(growable, dim, live[-2])
    live = np.array(live, dtype=np.int64)
    sizes = np.diff(live, prepend=0)    # the cohort sizes, the root's first
    ks = np.array([complexity(dim, t) for t in range(1, T + 1)])
    charges = tuple(map(operator.mul, sizes[1:].tolist(), map(math.exp, (-ks).tolist())))
    cohort = np.repeat(np.arange(T + 1), sizes)
    place = np.arange(live[T]) - np.repeat(live - sizes, sizes)

    by_cohort = np.concatenate(([np.inf], ks))     # no span reads the root's
    layouts = [_layout(live, by_cohort, t, exact) for t in range(1, T + 1)]
    runs = np.array([len(slot) for slot, _ in layouts])
    mask = np.arange(runs.max()) < runs[:, None]
    slot = np.zeros(mask.shape, dtype=np.int64)
    slot[mask] = np.concatenate([slot for slot, _ in layouts])
    first, count, low_k, last = map(np.concatenate, zip(*(spans for _, spans in layouts)))
    at = np.repeat(np.arange(T), [len(spans[0]) for _, spans in layouts])
    ranges = (at, first, count, np.where(last > at, T + count, last), low_k)
    arrays = [ks, live, growable, cohort, place, slot, mask, *ranges]
    for array in arrays:
        array.flags.writeable = False
    return _ReplayPlan(charges, ks, live, int(sizes.max()), *arrays[2:7], ranges)


def _placed(plan: _ReplayPlan, step: np.ndarray, drop: np.ndarray, rows, members) -> tuple:
    """(state, base) of each of `members` in round rows + 1 of a pool that
    `ExpertPoolFpl._replay` plays by `plan`: the child of growable parent j
    (the root, or the root's child of round j) in cohort b is at cell
    (b, step[j, 0]) of step and drop, plus the parent's base drop[j, 0]. A
    newborn holds its parent's state and loss: it reads row 0, a no-op."""
    j = plan.place[members]
    cell = plan.cohort[members] * (members < plan.live[rows]) * step.shape[1]
    cell += step[:, 0].take(j)
    base = drop.take(cell)
    base += drop[:, 0].take(j)
    return step.take(cell), base


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

    Layout: per expert, in registration order, `state` and `losses` hold
    its engine state id and loss, and `_growable` holds the index and key
    length of each expert whose key is shorter than `dim`. Once read, each
    is an array of exactly its size. The cohorts are recorded once:
    `_ends[b]` is where cohort b ends and `_ks[b]` is its experts'
    complexity, so the pool has extended for round len(_ends) - 1, and an
    expert's complexity is its cohort's. `pool_extend` appends a round's
    cohort and grows `_growable` by `_grow`. Keys are not stored: the
    growth rule fixes them, and `keys` rebuilds them. The cohort's
    restricts intern new states to the ids that restricting expert by
    expert would give (see `_feed`).

    Each round's leader comes from `_lazy_leaders`, which draws exactly for
    the cohorts below `_EXACT` and for newborns fewer than `_EXACT`, and
    thins the older cohorts, and the larger newborn cohorts, range by
    range, as `_layout` lays them out (see the module docstring). A fresh
    pool of dimension at most 2 replays a batch of rounds against an
    oblivious nature in closed form (`_replay`), taking its range bounds
    from (round x parent-state) tables; it builds `state` and `losses`
    only when they are first read (`_read`). Larger pools, and pools that
    have played, take the round loop.
    """

    _EXACT = 8      # the cohorts below this draw every perturbation

    def __init__(self, component: FamilyComponent, *,
                 seed: int | np.random.SeedSequence | np.random.Generator | None = None):
        super().__init__(seed)
        self._range_rng, self._resolve_rng = self.rng.spawn(2)
        self.engine = engine_for(component.cls)
        self.dim = component.dim
        k_root = pool_complexity(self.dim, 0)
        self._register(1, k_root)
        self.state = np.zeros(1, dtype=np.int64)
        self.losses = np.zeros(1, dtype=np.int64)
        # rows (expert index, key length) of the experts that can grow
        self._growable = np.zeros((int(self.dim > 0), 2), dtype=np.int64)
        self._ends = np.ones(1, dtype=np.int64)     # _ends[b]: one past cohort b's last expert
        self._ks = np.full(1, k_root)   # _ks[b]: the complexity of cohort b's experts

    @property
    def pool_size(self) -> int:
        return self._size

    @property
    def keys(self) -> list[tuple[int, ...]]:
        """Each expert's key, the rounds at which it restricts, rebuilt by
        the growth rule `_grow`."""
        keys: list[tuple[int, ...]] = [()]
        growable = np.zeros((int(self.dim > 0), 2), dtype=np.int64)
        for t in range(1, len(self._ends)):
            start = len(keys)
            keys += [keys[p] + (t,) for p in growable[:, 0].tolist()]
            growable = _grow(growable, self.dim, start)
        return keys

    def pool_extend(self) -> int:
        """Register every key ending at the current round; returns the count
        added. Runs once per round, implicitly before prediction."""
        t, ends = self.t, self._ends
        if len(ends) > t:
            return int(ends[t] - ends[t - 1])
        start = self._size
        count = len(self._growable)
        k_new = pool_complexity(self.dim, t)
        if count:
            self._register(count, k_new)
            parents = self._growable[:, 0]
            self.state = np.concatenate((self.state, self.state[parents]))
            self.losses = np.concatenate((self.losses, self.losses[parents]))
            self._growable = _grow(self._growable, self.dim, start)
        self._ends = np.append(ends, start + count)
        self._ks = np.append(self._ks, k_new)
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
        t, ends, losses, ks = self.t, self._ends, self.losses, self._ks
        slot, (first, count, low_k, _) = _layout(ends, ks, t, self._EXACT)
        # the newborns hold their parents' losses, so every range's smallest
        # loss is read off `losses`
        low_loss = np.array([losses[a:a + n].min()
                             for a, n in zip(first.tolist(), count.tolist())])
        exact = (slot[None], losses[slot][None],
                 ks[np.searchsorted(ends, slot, side="right")][None], None)
        ranges = (np.zeros(len(first), dtype=np.int64), first, count, low_loss, low_k)
        j = int(self._lazy_leaders(np.array([t]), exact, ranges,
                                   lambda i, members: losses[members])[0])
        return j, int(preds[j]), preds

    def _lazy_leaders(self, ts: np.ndarray, exact: tuple, ranges: tuple, loss_of) -> np.ndarray:
        """The leaders of the rounds `ts`, each distributed as the argmin
        of loss + (k - q) * sqrt(t) over every live expert (see the module
        docstring); the same calls made round by round or at once draw the
        same values and give the same leaders.

        exact = (slot, loss, k, mask): the exact sets as `_leaders`'s
        block, row i holding the experts `slot[i]` that draw q in round
        ts[i], in index order. ranges = (i, first, count, low_loss, low_k),
        one entry per cohort range in order of round, a round's newborn
        range after its older ones: the range of round ts[i] holds the
        experts first..first + count - 1, whose smallest loss and
        complexity are low_loss and low_k. loss_of(i, members) gives the
        members' losses in round ts[i], a newborn's being its parent's.
        """
        slot, loss, k, mask = exact
        cols, best = self._leaders(ts, loss, k, mask)
        chosen = slot[np.arange(len(ts)), cols]
        at, first, count, low_loss, low_k = ranges
        if not len(at):
            return chosen
        root = np.sqrt(ts)
        # a member whose q is at most tau cannot beat the exact set's best
        tau = np.maximum((low_loss - best[at]) / root[at] + low_k, 0.0)
        u = self._range_rng.random(len(at))
        # a range is active with chance 1 - (1 - p) ** count <= count * p,
        # and p = exp(-tau) < 2 ** (1 - floor(tau log2 e)), so only a range
        # whose u falls below count times that bound can be
        near = u < count * np.ldexp(1.0, 1 - np.floor(tau * math.log2(math.e)).astype(np.int64))
        draw = self._resolve_rng
        for r in np.flatnonzero(near).tolist():
            i, past = at[r], math.exp(-tau[r])     # one member's chance of a q past tau
            # the members before the first past tau, inverse geometric
            below = math.floor(math.log1p(-u[r]) / math.log1p(-past)) if past < 1 else 0
            if below >= count[r]:
                continue
            rest = int(count[r]) - below - 1
            members = np.array([first[r] + below])     # the first past tau
            passed = draw.binomial(rest, past)
            if passed:      # and those after it, placed uniformly
                after = draw.choice(rest, passed, replace=False)
                members = np.concatenate((members, np.sort(after) + members[0] + 1))
            ks = self._ks[np.searchsorted(self._ends, members, side="right")]
            score = ks - (tau[r] + draw.standard_exponential(len(members)))
            score *= root[i]
            score += loss_of(i, members)
            w = int(score.argmin())
            if (score[w], members[w]) < (best[i], chosen[i]):
                best[i], chosen[i] = score[w], members[w]
        return chosen

    def _feed(self, x: Point, y: int, preds: np.ndarray) -> None:
        wrong = preds != y
        self.losses += wrong
        # only this round's cohort has the current round in its key. Its
        # mistaken experts share few states: restrict each distinct one
        # once, in order of first appearance, which interns new states to
        # the ids that restricting expert by expert would give.
        start, end = self._ends[-2:]
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
        if self.dim > 2 or len(self._ends) > 1:
            return 0
        return super()._batchable(n)

    def __getattr__(self, name):
        # a replayed pool builds its per-expert arrays on their first read
        unread = self.__dict__.get("_unread")
        if unread is None or name not in ("state", "losses"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        del self._unread
        self._read(*unread)
        return self.__dict__[name]

    def _read(self, plan: _ReplayPlan, step, drop, final) -> None:
        """Build a replayed pool's `state` and `losses` from `_replay`'s
        tables: every expert where `_placed` puts it after the last round."""
        self.state, base = _placed(plan, step, drop, len(plan.ks), np.arange(plan.live[-1]))
        self.losses = (final[self.state] + base).astype(np.int64)

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
        at a fixed state; (b) is the case a = 0. `_placed` reads that state
        and base off (round x state) tables, step and drop, of the states
        round b leaves each state in and of the mistakes it drops.

        At round b the distinct mistaken states among [0, sigma_1, ...,
        sigma_(b-1)] restrict in order of first appearance (`_feed`'s rule),
        so the engine interns the loop's ids, and births register cohort by
        cohort, so the mass budget is the loop's. Every round is scored at
        once by `_lazy_leaders`, as the loop scores it round by round: the
        exact sets' losses are the plan's `slot` block read through M, and
        a range's smallest loss is the smallest M[s, t - 1] plus the
        smallest base in state s among its live cohorts. Both that and a
        newborn range's bound come from a (growable parent x state) table
        of the parents' smallest bases, a running minimum over the parents:
        the smallest base in state s of cohort b is the smallest
        drop[b, sigma] plus that table's entry, over the parent states
        sigma that round b moves to s, so the range bounds cost
        O(T x states), not O(experts). `_replay_plan` makes the cohorts,
        their complexities and charges, the exact sets' blocks and the
        ranges once per (dim, T, `_EXACT`); the state walk, the M, step and
        drop tables, the mass and the draws are this game's. The per-expert
        `state` and `losses` are built from the tables on their first read
        (`_read`), by the round loop or anyone else.
        """
        engine, T, dim = self.engine, len(ys), self.dim
        plan = _replay_plan(dim, T, self._EXACT, pool_complexity)
        # the cohorts' charges as `_register` makes them round by round, in
        # one pass; the masses never fall, so the rounds before the first
        # over the budget are the ones that pass
        masses = list(itertools.accumulate(plan.charges, initial=self._mass))
        passed = bisect.bisect_right(masses, 1.0 + _MASS_SLACK) - 1
        self._size += int(plan.live[passed]) - 1
        self._mass = masses[min(passed + 1, T)]
        self._check_mass(self.t + passed)
        ks = np.concatenate((self._ks, plan.ks))      # by cohort, the root's first

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
        # the loop's int losses do; step[b, s]: the state round b leaves s
        # in, row 0 moving none; drop[b, s]: M[s, b] - M[step[b, s], b], a
        # base's term, 0 in row 0
        mistakes = np.zeros((T + 1, ns))
        np.cumsum(pred[:, ix].T != y[:, None], axis=0, out=mistakes[1:])
        moves = np.tile(np.arange(ns)[:, None, None], (1, len(points), 2))
        for (s, x, y_t), nxt in after.items():
            moves[s, points[x], y_t] = nxt
        step = np.concatenate((np.arange(ns)[None], moves[:, ix, y].T))
        drop = mistakes - np.take_along_axis(mistakes, step, axis=1)
        def loss_of(rows, members):
            state, base = _placed(plan, step, drop, rows, members)
            base += mistakes.take(rows * ns + state)
            return base

        at, first, count, row, low_k = plan.ranges
        # low[b, s]: the smallest base in state s among cohort b, then
        # among the cohorts of b's range up to b; low[T + 1 + j, s]: the
        # smallest base in state s among the growable experts 0..j, the
        # parents of a newborn range. Cohort b copies the parents 0..b - 1
        # (row b - 1 of that table; in a dimension-1 pool, the root, its
        # one row), and only the growable experts' states hold a base: (j)
        # is the root's child of round j, and the root is parent 0
        W = plan.width
        low = np.full((T + 1 + W, ns), np.inf)
        parents = low[T + 1:]
        parents[np.arange(W), step[:W, 0]] = drop[:W, 0]
        np.minimum.accumulate(parents, axis=0, out=parents)
        sigmas = list(present)
        copied = drop[1:, sigmas] + parents[:, sigmas]
        np.minimum.at(low.reshape(-1), (np.arange(ns, (T + 1) * ns, ns)[:, None]
                                        + step[1:, sigmas]).ravel(), copied.ravel())
        for lo, hi in _ranges(self._EXACT, T):
            np.minimum.accumulate(low[lo:hi], axis=0, out=low[lo:hi])
        # a row minimum over so few states costs more than an elementwise
        # minimum across the state columns, which is as exact
        both = mistakes.take(at, axis=0)
        both += low.take(row, axis=0)
        low_loss = functools.reduce(np.minimum, both.T)

        # the per-expert arrays wait for their first read; the scorer reads
        # the cohorts' ends and complexities
        del self.state, self.losses
        self._unread = (plan, step, drop, mistakes[T])
        self._ends, self._ks, self._growable = plan.live, ks, plan.growable
        rows, slot = np.arange(T), plan.slot
        exact = (slot, loss_of(rows[:, None], slot), ks[plan.cohort[slot]], plan.mask)
        chosen = self._lazy_leaders(rows + 1, exact, (at, first, count, low_loss, low_k), loss_of)
        # a round's newborn leader predicts from its parent's state
        preds = pred[_placed(plan, step, drop, rows, chosen)[0], ix]
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
    update counterfactually every round. `seed` is an int, a `SeedSequence`
    (copied, as `_PerturbedLeader` copies it) or None; the components and
    the top level draw from its children.
    """

    def __init__(self, family: ClassFamily, components: int, *,
                 seed: int | np.random.SeedSequence | None = None,
                 cap_dim: Optional[int] = 2, cap_rounds: Optional[int] = None):
        if components < 1:
            raise ConfigurationError("need at least one component")
        if isinstance(seed, np.random.SeedSequence):
            seeds = _own_copy(seed).spawn(components + 1)
        elif seed is None or isinstance(seed, (int, np.integer)):
            seeds = np.random.SeedSequence(seed).spawn(components + 1)
        else:
            raise TypeError(f"seed must be an int, a SeedSequence or None, got {seed!r}")
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
