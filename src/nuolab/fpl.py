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
`_layout` (a round's exact set and thinned ranges) and `_where` then
`_placed` (where a replayed expert stands: its state and loss base).

A replay has three layers (`ExpertPoolFpl._replay`): the plan, masses
included, once per shape; the tables, their walk stopped once caught up, once
per script, kept for one replayed twice in a row; the draws, once per game.
"""
from __future__ import annotations

import bisect
import copy
import functools
import itertools
import math
import operator
from collections import namedtuple
from typing import Optional, Sequence

import numpy as np

from .hypotheses import ClassFamily, DomainError, FamilyComponent, Point
from .learners import OnlineLearner
from .littlestone import engine_for

_MASS_SLACK = 1e-9


class ConfigurationError(DomainError):
    """An expert list or registration that a perturbed leader refuses."""


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

def _seed_sequence(seed) -> np.random.SeedSequence:
    """The one seed rule of the perturbed leaders: an int or None gives
    `SeedSequence(seed)`, and a `SeedSequence` is copied, so that spawning
    from the copy leaves the caller's spawn counter as it was. The copy is
    shallow: it shares the entropy pool, which a `SeedSequence` only reads,
    instead of mixing it again. Anything else, say a `Generator` or a
    `BitGenerator` that two learners could share, is refused."""
    if isinstance(seed, np.random.SeedSequence):
        return copy.copy(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(seed)
    raise TypeError(f"seed must be an int, a SeedSequence or None, got {seed!r}")


class _PerturbedLeader(OnlineLearner):
    """What every perturbed leader here shares: the RNG, the complexity-mass
    budget, the scoring rule and the round's choice.

    `seed` is read by `_seed_sequence`, so `rng` is this learner's own, and
    a batch that plays each expert's rounds before the leader's draws what
    the round loop draws. A subclass holds the experts' losses and
    complexities (`FplLearner` in `complexities`, a pool by cohort), picks
    the round's leader in `_lead` by scoring a one-row block with
    `_leaders`, or a batch of rounds at once (a pool through
    `ExpertPoolFpl._lazy_leaders`), and feeds the experts in `_feed`. The
    choice is made once per round, keyed on the round index, so every
    `predict` of a round and its `update` see the same choice.
    """

    deterministic = False

    def __init__(self, seed: int | np.random.SeedSequence | None):
        super().__init__()
        self.rng = np.random.default_rng(_seed_sequence(seed))
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
        return cols, score.take(cols + np.arange(0, score.size, score.shape[1]))

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

    def _absorb(self, x: Point, y: int, predicted: int) -> None:
        self._feed(x, y, self._pending[3])
        self._pending = None

    def _feed(self, x: Point, y: int, data) -> None:
        raise NotImplementedError


def _members(experts: Sequence[OnlineLearner]):
    """The experts, each followed by the members of its experts if it is an
    `FplLearner`: every learner that a round feeds through this list."""
    for expert in experts:
        yield expert
        if isinstance(expert, FplLearner):
            yield from _members(expert.experts)


class FplLearner(_PerturbedLeader):
    """Perturbed-leader selection over a list of online learners fixed when
    the learner is built: non-empty, and with no learner in it twice, also
    inside a nested `FplLearner`, which the round loop would feed twice a
    round and a batch in another order.

    Every expert is fed every revealed pair, so each expert's own mistake
    counter is its exact counterfactual loss; `losses` reads them. The
    experts must therefore be fresh (no rounds played) when passed in.
    """

    def __init__(self, experts: Sequence[OnlineLearner], complexities: Sequence[float], *,
                 seed: int | np.random.SeedSequence | None = None):
        if not experts:
            raise ConfigurationError("need at least one expert")
        members = list(map(id, _members(experts)))
        if len(set(members)) < len(members):
            raise ConfigurationError("an expert is listed twice, here or in a nested FplLearner")
        super().__init__(seed)
        if len(experts) != len(complexities):
            raise ConfigurationError("experts and complexities differ in length")
        for k in complexities:
            try:
                self._register(1, k)
            except OverflowError:   # k below about -709.8, or an int no float holds
                raise ConfigurationError(f"complexity {k!r} is out of range: exp(-k) "
                                         "overflows a float") from None
        self.experts: list[OnlineLearner] = list(experts)
        self.complexities = np.array(complexities, dtype=float)

    @property
    def losses(self) -> list[int]:
        return [expert.mistakes for expert in self.experts]

    def _lead(self, x: Point) -> tuple:
        j = int(self._leaders(np.array([self.t]), np.array(self.losses)[None],
                              self.complexities)[0][0])
        return j, self.experts[j].predict(x), None

    def _feed(self, x: Point, y: int, data) -> None:
        for expert in self.experts:
            expert.update(x, y)

    def _replay(self, xs: Sequence[Point], ys: Sequence[int]) -> list[int]:
        """Each expert plays the checked rounds with its own `_played`; the
        leader then scores the (rounds x experts) matrix of losses at once.
        The predictions are read in as bytes: one that is not an int in
        0..255 (say 0.5 or -1) raises TypeError or ValueError."""
        T = len(ys)
        before = np.array(self.losses)[:, None]
        # played[j * T + i]: expert j's prediction in round t + i;
        # losses[j, i]: its mistakes before that round
        played = np.frombuffer(b"".join(bytes(expert._played(xs, ys, T))
                                        for expert in self.experts), np.uint8)
        y = np.frombuffer(bytes(ys), np.uint8)
        wrong = played.reshape(-1, T) != y
        losses = np.add.accumulate(wrong, axis=1, dtype=int)
        losses -= wrong
        losses += before
        rows = np.arange(T)
        chosen = self._leaders(self.t + rows, losses.T, self.complexities)[0]
        preds = played.take(chosen * T + rows)
        self.mistakes += int(np.count_nonzero(preds != y))
        self.t += T
        return preds.tolist()


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


_ReplayPlan = namedtuple("_ReplayPlan", "passed mass ks live width growable cohort place slot "
                                        "mask ranges cells rows kept")


@functools.lru_cache(maxsize=16)
def _replay_plan(dim: int, T: int, exact: int, complexity) -> _ReplayPlan:
    """`ExpertPoolFpl._replay`'s plan for T rounds of a fresh dimension-`dim`
    pool under the scheme `complexity`, with `exact` as `_EXACT`. The pool
    grows by `_grow`: cohort b holds experts live[b - 1]..live[b] - 1 of
    complexity ks[b] (the root is cohort 0), expert i copies growable
    parent place[i] in cohort cohort[i], `growable` is the pool's after
    round T, and `width` the largest cohort's size; its mass, summed as
    `_register` sums it, passes `passed` rounds and is `mass` after round
    min(passed + 1, T). `rows` is 0..T - 1. Row t - 1 of the (round x slot)
    blocks `slot` and `mask` holds and marks round t's exact set by
    `_layout` (the root outside the mask); `ranges` stacks its ranges as
    (round position, first member, member count, row of `_replay`'s table
    of smallest bases, smallest k), the row being an older range's last
    cohort, or T + a newborn range's count. `cells` holds the exact cells'
    distinct (j, b) by `_where`, each cell's flat index `spot` into a
    (those x round) table of T + 1 columns, and its complexity. `kept`,
    the one part `_replay` writes, holds [the last script, the last script
    replayed twice in a row, that script's `_Tables`]."""
    growable, live = np.zeros((int(dim > 0), 2), dtype=np.int64), [1]
    for _ in range(T):
        live.append(live[-1] + len(growable))
        growable = _grow(growable, dim, live[-2])
    live = np.array(live, dtype=np.int64)
    sizes = np.diff(live, prepend=0)    # the cohort sizes, the root's first
    ks = np.array([complexity(dim, t) for t in range(T + 1)])
    masses = list(itertools.accumulate(map(operator.mul, sizes.tolist(),
                                           map(math.exp, (-ks).tolist()))))
    passed = bisect.bisect_right(masses, 1.0 + _MASS_SLACK) - 1   # the masses never fall
    cohort = np.repeat(np.arange(T + 1), sizes)
    place = np.arange(live[T]) - np.repeat(live - sizes, sizes)

    by_cohort = np.concatenate(([np.inf], ks[1:]))     # no span reads the root's
    layouts = [_layout(live, by_cohort, t, exact) for t in range(1, T + 1)]
    runs = np.array([len(slot) for slot, _ in layouts])
    mask = np.arange(runs.max()) < runs[:, None]
    slot = np.zeros(mask.shape, dtype=np.int64)
    slot[mask] = np.concatenate([slot for slot, _ in layouts])
    first, count, low_k, last = map(np.concatenate, zip(*(spans for _, spans in layouts)))
    rows = np.arange(T)
    at = np.repeat(rows, [len(spans[0]) for _, spans in layouts])
    ranges = (at, first, count, np.where(last > at, T + count, last), low_k)
    arrays = [ks, live, growable, cohort, place, slot, mask, *ranges, rows]
    plan = _ReplayPlan(passed, masses[min(passed + 1, T)], ks, live, int(sizes.max()),
                       *arrays[2:7], ranges, None, rows, None)
    j, b = _where(plan, rows[:, None], slot)
    seen = np.zeros((j.max() + 1, T + 1), dtype=bool)
    seen[j, b] = True
    spot = (seen.cumsum() - 1).reshape(seen.shape)[j, b] * (T + 1) + rows[:, None]
    cells = (*np.nonzero(seen), spot, ks[cohort[slot]])
    for array in (*arrays, *cells):
        array.flags.writeable = False
    return plan._replace(cells=cells, kept=[None] * 3)


def _where(plan: _ReplayPlan, rows, members) -> tuple:
    """(j, b) of `members` in round rows + 1 of `plan`'s pool: the growable
    parent j (the root, or its child of round j) and the cohort b, or 0 for
    a newborn."""
    return plan.place.take(members), plan.cohort.take(members) * (members < plan.live.take(rows))


def _placed(step: np.ndarray, drop: np.ndarray, j, b) -> tuple:
    """(state, base) of the experts at (j, b) of `_where`: their cell of step
    and drop is (b, step[j, 0]), plus the parent's base drop[j, 0]."""
    cell = b * step.shape[1]
    cell += step[:, 0].take(j)
    base = drop.take(cell)
    base += drop[:, 0].take(j)
    return step.take(cell), base


_Tables = namedtuple("_Tables", "states ix y pred mistakes step drop low_loss loss")


def _walk(engine, dim: int, xs, labels, pairs) -> tuple:
    """`ExpertPoolFpl._replay`'s state walk, stopped once the `pairs` distinct
    (x, y) have each moved all of `present`, which grows only on a first visit."""
    # after[s, x, y]: the state (x, y) leaves s in; moved[x, y]: how much of `present` it moved
    after, moved, present = {}, {}, [0] if dim else []
    for x, y in zip(xs, labels) if dim else ():
        k = moved.get((x, y), 0)
        if k == len(present):
            continue
        for s in present[k:]:
            nxt = engine.restrict(s, x, y) if engine.predict(s, x) != y else None
            after[s, x, y] = s if nxt is None else nxt
        moved[x, y] = len(present)
        if dim == 2 and after[0, x, y] not in present:
            present.append(after[0, x, y])
        if len(moved) == pairs and min(moved.values()) == len(present):
            break
    return after, present


def _tables(engine, dim: int, plan: _ReplayPlan, exact: int, xs, ys) -> _Tables:
    """The tables of `ExpertPoolFpl._replay` that the fresh `engine`'s
    class, `dim`, `exact` and the script fix, `plan` being that shape's:
    `states`, copied from `engine` after the walk; pred[s, i], state s's
    prediction at point ix[t] = i; mistakes, step, drop, `low_loss` and the
    exact cells' `loss`."""
    T, labels = len(ys), bytes(ys)
    first = {}      # each distinct point's first round, in order
    try:
        rounds = np.fromiter(map(first.setdefault, xs, range(T)), np.int64, T)
    except TypeError:
        # a point that does not hash: each round of the loop predicts from
        # state 0 first, so doing that in order raises the loop's error
        for x in xs:
            engine.predict(0, x)
        raise
    # ix[t]: the index i of round t's point among the distinct points
    rank = np.zeros(T, dtype=np.int64)
    rank[list(first.values())] = np.arange(len(first))
    ix, y = rank.take(rounds), np.frombuffer(labels, np.uint8)
    pair = 2 * ix + y
    after, present = _walk(engine, dim, xs, labels, np.count_nonzero(np.bincount(pair)))
    ns = engine.n_states
    pred = np.array([[engine.predict(s, p) for p in first] for s in range(ns)], np.uint8)
    # mistakes[t, s]: M[s, t], as floats, which add to the scores as
    # the loop's int losses do; step[b, s]: the state round b leaves s
    # in, row 0 moving none; drop[b, s]: M[s, b] - M[step[b, s], b], a
    # base's term, 0 in row 0. Gathers take whole rows, or go through .T
    mistakes = np.zeros((T + 1, ns))
    np.add.accumulate(pred.take(ix, axis=1) != y, axis=1, dtype=float, out=mistakes.T[:, 1:])
    moves = np.zeros((2 * len(first), ns), dtype=np.int64) + np.arange(ns)     # by 2 * i + y
    for (s, x, y_t), nxt in after.items():
        moves[2 * rank[first[x]] + y_t, s] = nxt
    step = np.concatenate((np.arange(ns)[None], moves.take(pair, axis=0)))
    drop = mistakes - mistakes.take(step + np.arange(0, (T + 1) * ns, ns)[:, None])

    at, _, _, row, _ = plan.ranges
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
    # (present x cohort) columns of the states present in the walk
    copied = drop.T.take(present, axis=0)[:, 1:] + parents.T.take(present, axis=0)
    np.minimum.at(low.reshape(-1), (np.arange(ns, (T + 1) * ns, ns)
                                    + step.T.take(present, axis=0)[:, 1:]).ravel(), copied.ravel())
    for lo, hi in _ranges(exact, T):
        np.minimum.accumulate(low[lo:hi], axis=0, out=low[lo:hi])
    # a row minimum over so few states costs more than an elementwise
    # minimum across the state columns, which is as exact
    both = mistakes.take(at, axis=0)
    both += low.take(row, axis=0)
    low_loss = functools.reduce(np.minimum, both.T)
    j, b, spot, _ = plan.cells     # the exact cells, read per placement
    state, base = _placed(step, drop, j, b)
    loss = (mistakes.T.take(state, axis=0) + base[:, None]).take(spot)
    return _Tables(list(getattr(engine, "states", ())), ix, y, pred, mistakes, step, drop,
                   low_loss, loss)


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
                 seed: int | np.random.SeedSequence | None = None):
        super().__init__(seed)
        self._range_rng, self._resolve_rng = self.rng.spawn(2)
        self.engine = engine_for(component.cls)
        self._cls = component.cls
        self.dim = component.dim
        k_root = pool_complexity(self.dim, 0)
        self._register(1, k_root)
        self.state = np.zeros(1, dtype=np.int64)
        self.losses = np.zeros(1, dtype=np.int64)
        # rows (expert index, key length) of the experts that can grow
        self._growable = np.zeros((int(self.dim > 0), 2), dtype=np.int64)
        self._ends = np.ones(1, dtype=np.int64)     # _ends[b]: one past cohort b's last expert
        self._ks = np.array([k_root])   # _ks[b]: the complexity of cohort b's experts

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
        # loss is read off `losses`, in one pass: the ranges are adjacent
        low_loss = (np.minimum.reduceat(losses[first[0]:first[-1] + count[-1]], first - first[0])
                    if len(first) else first)
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
        complexity are low_loss and low_k. loss_of(rows, members) gives each
        member's loss in round ts[rows], a newborn's being its parent's. The
        ranges draw in turn, then their resolved members score at once: a
        round's leader is its smallest (score, index), exact set included.
        """
        slot, loss, k, mask = exact
        cols, best = self._leaders(ts, loss, k, mask)
        chosen = slot.take(cols + np.arange(0, slot.size, slot.shape[1]))
        at, first, count, low_loss, low_k = ranges
        if not len(at):
            return chosen
        root = np.sqrt(ts)
        # a member whose q is at most tau cannot beat the exact set's best
        tau = np.maximum((low_loss - best.take(at)) / root.take(at) + low_k, 0.0)
        u = self._range_rng.random(len(at))
        # a range is active with chance 1 - (1 - p) ** count <= count * p,
        # and p = exp(-tau) < 2 ** (1 - floor(tau log2 e)), so only a range
        # whose u falls below count times that bound can be
        near = np.flatnonzero(u < count * np.exp2(1.0 - np.floor(tau * math.log2(math.e))))
        if not len(near):
            return chosen
        draw, rows, members, q = self._resolve_rng, [], [], []
        for i, lo, n, tau_r, u_r in zip(*(c[near].tolist() for c in (at, first, count, tau, u))):
            past = math.exp(-tau_r)     # one member's chance of a q past tau
            # the members before the first past tau, inverse geometric
            below = math.floor(math.log1p(-u_r) / math.log1p(-past)) if past < 1 else 0
            if below >= n:
                continue
            rest = n - below - 1
            held = [lo + below]     # the first past tau
            passed = draw.binomial(rest, past)
            if passed:      # and those after it, placed uniformly
                held += sorted((draw.choice(rest, passed, replace=False) + held[0] + 1).tolist())
            rows += [i] * len(held)
            members += held
            q += [tau_r + e for e in draw.standard_exponential(len(held)).tolist()]
        if not members:
            return chosen
        index, rounds = np.array(members), np.array(rows)
        score = (self._ks.take(np.searchsorted(self._ends, index, side="right")) - q) * root[rounds]
        score += loss_of(rounds, index)
        for i, s, m in zip(rows, score.tolist(), members):
            if (s, m) < (best[i], chosen[i]):
                best[i], chosen[i] = s, m
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
        self.state, base = _placed(step, drop, plan.place, plan.cohort)   # none newborn
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
        so the engine interns the loop's ids; the walk moves by each (x, y)
        only the states that appeared since its last round, in order, and
        stops once every distinct (x, y) has moved them all (`_walk`); the
        plan sums the masses as `_register` does. Every round is scored at
        once by `_lazy_leaders`, as the loop scores it round by round: the
        exact cells' losses are read per distinct placement, and a range's
        smallest loss is the smallest M[s, t - 1] plus the smallest base in
        state s among its live cohorts. Both that and a newborn range's bound
        come from a (growable parent x state) table of the parents' smallest
        bases, a running minimum over the parents: the smallest base in state
        s of cohort b is the smallest drop[b, sigma] plus that table's entry,
        over the parent states sigma that round b moves to s, so the range
        bounds cost O(T x states), not O(experts). Three layers make a replay:
        `_replay_plan`, once per (dim, T, `_EXACT`), the cohorts, masses,
        complexities, exact sets and ranges; `_tables`, once per script
        (class, ys, xs), the walk and the tables, which the plan's `kept` slot
        holds for the last script replayed twice in a row, a later fresh
        engine taking copies of the walk's states; and this game's draws and
        leaders. The per-expert `state` and `losses` are built from the tables
        on their first read.
        """
        engine, T, dim = self.engine, len(ys), self.dim
        plan = _replay_plan(dim, T, self._EXACT, pool_complexity)
        self._size, self._mass = int(plan.live[plan.passed]), plan.mass
        self._check_mass(self.t + plan.passed)
        # compared by value, labels first, so a coin script differs early
        script = (self._cls, list(ys), list(xs))
        last, held, tables = plan.kept
        try:    # a point that does not hash (a numpy array) misses: the walk raises
            hit = script == held and hash(tuple(xs)) is not None
        except (TypeError, ValueError):
            hit = False
        if not hit:
            tables = _tables(engine, dim, plan, self._EXACT, xs, ys)
            if script == last:      # twice in a row: kept, and shared read-only
                for array in tables[1:]:
                    array.flags.writeable = False
                plan.kept[1:] = script, tables
        elif tables.states:     # a fresh engine takes the states the walk interned
            engine.states = list(tables.states)
            engine.index = dict(zip(engine.states, itertools.count()))
        plan.kept[0] = script
        _, ix, y, pred, mistakes, step, drop, low_loss, loss = tables
        def loss_of(rows, members):
            state, base = _placed(step, drop, *_where(plan, rows, members))
            base += mistakes.take(rows * mistakes.shape[1] + state)
            return base

        # the per-expert arrays wait for their first read; the scorer reads
        # the cohorts' ends and complexities
        del self.state, self.losses
        self._unread = (plan, step, drop, mistakes[T])
        self._ends, self._ks, self._growable = plan.live, plan.ks, plan.growable
        at, first, count, _, low_k = plan.ranges
        rows, exact = plan.rows, (plan.slot, loss, plan.cells[3], plan.mask)
        chosen = self._lazy_leaders(rows + 1, exact, (at, first, count, low_loss, low_k), loss_of)
        # a round's newborn leader predicts from its parent's state
        preds = pred.take(_placed(step, drop, *_where(plan, rows, chosen))[0] * pred.shape[1] + ix)
        self.mistakes += int(np.count_nonzero(preds != y))
        self.t += T
        return preds.tolist()


# ---------------------------------------------------------------------------
# hierarchical agnostic learner
# ---------------------------------------------------------------------------

class AgnosticFpl(FplLearner):
    """The perturbed leader over per-component pooled-expert learners.

    Component n carries complexity 2(ln n + 1) at this level; inside, its
    pool of keyed experts uses complexities 1 + (dim + 2) ln j. All levels
    update counterfactually every round. `seed` is read by `_seed_sequence`;
    the components and the top level draw from its children, one each.
    """

    def __init__(self, family: ClassFamily, components: int, *,
                 seed: int | np.random.SeedSequence | None = None,
                 cap_dim: Optional[int] = 2, cap_rounds: Optional[int] = None):
        if components < 1:
            raise ConfigurationError("need at least one component")
        seeds = _seed_sequence(seed).spawn(components + 1)
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
