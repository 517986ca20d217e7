"""Follow-the-perturbed-leader over countably many experts, and the
hierarchical agnostic learner built from growing pools of keyed
version-space experts.

Scoring rule, every round t: each registered expert i carries an exact
integer loss (its counterfactual mistakes so far), a complexity k_i with
sum(exp(-k_i)) <= 1, and a fresh Exponential(1) perturbation q_i; the
leader minimizes loss_i + (k_i - q_i) * sqrt(t). Ties break to the
smallest index. The learning rate 1/sqrt(t) is fixed.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .hypotheses import FamilyComponent, ClassFamily, Point
from .learners import OnlineLearner, ProtocolError, engine_for

_MASS_SLACK = 1e-9


class ConfigurationError(ValueError):
    """An expert registration that breaks the complexity-mass budget."""


# ---------------------------------------------------------------------------
# complexity schemes and the regret bounds they give
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


def meta_mass_partial(terms: int) -> float:
    """Partial sum of exp(-meta_complexity(n)); stays below 1/e."""
    n = np.arange(1, terms + 1, dtype=float)
    return float(np.exp(-2.0 * (np.log(n) + 1.0)).sum())


def pool_mass_bound_partial(dim: int, terms: int) -> float:
    """Partial sum of t^dim * exp(-pool_complexity(dim, t)), the per-round
    pool-size overcount of the keyed experts' mass; stays below 0.83."""
    t = np.arange(1, terms + 1, dtype=float)
    return float((t ** dim * np.exp(-1.0 - (dim + 2.0) * np.log(t))).sum())


def fpl_regret_bound(k: float, horizon: int) -> float:
    """Expected regret bound (k + 2) sqrt(T) of the perturbed leader against
    an expert of complexity k."""
    return (k + 2.0) * math.sqrt(horizon)


def hierarchical_regret_bound(dim: int, n: int, horizon: int) -> float:
    """Expected regret bound of the hierarchical learner against every
    hypothesis of component n, whose dimension is `dim`."""
    return (dim + (dim + 3.0) * math.log(horizon) * math.sqrt(horizon)
            + (2.0 * math.log(n) + 4.0) * math.sqrt(horizon))


# ---------------------------------------------------------------------------
# the perturbed leader: one base, two expert containers
# ---------------------------------------------------------------------------

def _with_room(buf: np.ndarray, n: int) -> np.ndarray:
    """`buf` if it holds n rows, else a copy of it whose capacity is
    doubled (or n, if that is more)."""
    if n <= len(buf):
        return buf
    grown = np.empty((max(n, 2 * len(buf)), *buf.shape[1:]), dtype=buf.dtype)
    grown[:len(buf)] = buf
    return grown


class _PerturbedLeader(OnlineLearner):
    """What every perturbed leader here shares: the RNG, the complexity-mass
    budget, the perturbations and the round's choice.

    `redraw="per-round"` samples a fresh perturbation vector each round;
    `redraw="once"` samples one perturbation per expert at registration and
    reuses it forever (the oblivious-adversary variant, expectation-
    equivalent to per-round redraws). A subclass holds the experts' losses
    and complexities, scores them in `_lead` and feeds them in `_feed`.
    The choice is made once per round, keyed on the round index, so every
    `predict` of a round and its `update` see the same choice.
    """

    deterministic = False

    def __init__(self, *, seed: Optional[int], rng: Optional[np.random.Generator],
                 redraw: str):
        super().__init__()
        if redraw not in ("per-round", "once"):
            raise ConfigurationError(f"redraw must be 'per-round' or 'once', got {redraw!r}")
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.redraw = redraw
        self._mass = 0.0
        self._size = 0                  # experts registered
        self._q_once = np.empty(0)      # once-mode draws; the first `_size` are live
        self._pending = None    # (round, chosen index, prediction, subclass data)

    def _register(self, count: int, complexity: float) -> None:
        """Charge `count` new experts of one complexity to the mass budget
        and, in once mode, draw their perturbations."""
        self._mass += count * math.exp(-complexity)
        if self._mass > 1.0 + _MASS_SLACK:
            raise ConfigurationError(
                f"complexity mass {self._mass:.6f} exceeds 1 at round {self.t}")
        start = self._size
        self._size += count
        if self.redraw == "once":
            self._q_once = _with_room(self._q_once, self._size)
            # the values rng.exponential(size=count) would give
            self.rng.standard_exponential(out=self._q_once[start:self._size])

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
                 seed: Optional[int] = None, rng: Optional[np.random.Generator] = None,
                 redraw: str = "per-round"):
        super().__init__(seed=seed, rng=rng, redraw=redraw)
        if len(experts) != len(complexities):
            raise ConfigurationError("experts and complexities differ in length")
        for k in complexities:
            self._register(1, k)
        self.experts: list[OnlineLearner] = list(experts)
        self.complexities: list[float] = [float(k) for k in complexities]

    @property
    def losses(self) -> list[int]:
        return [expert.mistakes for expert in self.experts]

    def _lead(self, x: Point) -> tuple:
        n = len(self.experts)
        if n == 0:
            raise ProtocolError("no experts registered", self.t)
        sqrt_t = math.sqrt(self.t)
        draws = self._q_once[:n] if self.redraw == "once" else self.rng.exponential(size=n)
        scores = [expert.mistakes + (k - q) * sqrt_t for expert, k, q in
                  zip(self.experts, self.complexities, draws.tolist())]
        j = scores.index(min(scores))
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
        scores the (rounds x experts) matrix of losses at once. A block of
        `exponential(size=(T, n))` holds the values of T per-round
        `exponential(size=n)` draws, the scores take the loop's float
        operations, and the row-wise argmin ties to the smallest index."""
        n = len(self.experts)
        T = len(ys)
        before = np.array([expert.mistakes for expert in self.experts])
        played = [expert.play(xs, ys) for expert in self.experts]
        # losses[i, j]: expert j's mistakes before round t + i
        wrong = np.array(played).T != np.array(ys)[:, None]
        losses = before + np.cumsum(wrong, axis=0) - wrong
        draws = self._q_once[:n] if self.redraw == "once" else self.rng.exponential(size=(T, n))
        scores = np.subtract(self.complexities, draws)
        scores = scores * np.sqrt(np.arange(self.t, self.t + T, dtype=float))[:, None]
        scores += losses
        chosen = scores.argmin(axis=1).tolist()
        preds = [played[j][i] for i, j in enumerate(chosen)]
        self.mistakes += sum(p != y for p, y in zip(preds, ys))
        self.t += T
        return preds


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

    Layout: per expert, in registration order, three arrays hold its
    engine state id, loss and complexity; one more holds the round's
    scores, the base holds the once-mode draws, and `_growable` holds the
    index and key length of each expert whose key is shorter than `dim`.
    Each array has a capacity that doubles when the pool outgrows it, so
    growth costs O(added) a round; the first `pool_size` entries are live,
    and `state`, `losses` and `complexities` are views of them. Keys are
    not stored: the growth rule fixes them, and `keys` rebuilds them.

    The RNG stream and every output equal those of a pool that stores lists
    and concatenates arrays each round: experts register in the same
    order, the perturbations are the same draws (`standard_exponential`
    into a buffer gives the values of `exponential(size=n)`), the scores
    take the same float operations in the same order with ties to the
    smallest index, and the cohort's restricts intern new states to the
    same ids (see `_feed`).
    """

    _BLOCK = 64     # rounds a dense replay scores at once

    def __init__(self, component: FamilyComponent, *,
                 seed: Optional[int] = None, rng: Optional[np.random.Generator] = None,
                 redraw: str = "per-round"):
        super().__init__(seed=seed, rng=rng, redraw=redraw)
        self.engine = engine_for(component.cls)
        self.dim = component.dim
        k_root = pool_complexity(self.dim, 0)
        self._register(1, k_root)
        self._state = np.zeros(1, dtype=np.int64)
        self._loss = np.zeros(1, dtype=np.int64)
        self._k = np.full(1, k_root)
        self._score = np.empty(1)
        # rows (expert index, key length) of the experts that can grow
        self._growable = np.zeros((1 if self.dim > 0 else 0, 2), dtype=np.int64)
        self._n_growable = len(self._growable)
        self._extended_for = 0
        self._cohort = (1, 1)   # index range of experts registered this round

    @property
    def pool_size(self) -> int:
        return self._size

    @property
    def state(self) -> np.ndarray:
        return self._state[:self._size]

    @property
    def losses(self) -> np.ndarray:
        return self._loss[:self._size]

    @property
    def complexities(self) -> np.ndarray:
        return self._k[:self._size]

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

    def _reserve(self, n: int) -> None:
        """Room for n experts in the per-expert arrays."""
        if n > len(self._loss):
            self._state, self._loss, self._k, self._score = (
                _with_room(a, n) for a in (self._state, self._loss, self._k, self._score))

    def pool_extend(self) -> int:
        """Register every key ending at the current round; returns the count
        added. Runs once per round, implicitly before prediction."""
        t = self.t
        if self._extended_for == t:
            return self._cohort[1] - self._cohort[0]
        start = self._size
        count = self._n_growable
        if count:
            k_new = pool_complexity(self.dim, t)
            self._register(count, k_new)
            end = self._size
            self._reserve(end)
            parents, lengths = self._growable[:count].T
            self._state[start:end] = self._state[parents]
            self._loss[start:end] = self._loss[parents]
            self._k[start:end] = k_new
            # only a parent with a key shorter than dim - 1 has a child that
            # can still grow
            if self.dim > 1:
                grows = np.flatnonzero(lengths < self.dim - 1)
                m = count + len(grows)
                self._growable = _with_room(self._growable, m)
                self._growable[count:m] = np.column_stack((grows + start, lengths[grows] + 1))
                self._n_growable = m
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
        n = self._size
        # loss + (k - q) * sqrt(t), computed in place in the score buffer
        score = self._score[:n]
        if self.redraw == "once":
            np.subtract(self._k[:n], self._q_once[:n], out=score)
        else:
            self.rng.standard_exponential(out=score)
            np.subtract(self._k[:n], score, out=score)
        score *= math.sqrt(self.t)
        score += self._loss[:n]
        j = int(score.argmin())
        return j, int(preds[j]), preds

    def _feed(self, x: Point, y: int, preds: np.ndarray) -> None:
        wrong = preds != y
        self._loss[:self._size] += wrong
        # only this round's cohort has the current round in its key. Its
        # mistaken experts share few states: restrict each distinct one
        # once, in order of first appearance, which interns new states to
        # the ids that restricting expert by expert would give.
        start, end = self._cohort
        cohort = self._state[start:end]
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
        # a pool of dimension 2 or more would need a triangle of O(T^(d+1))
        # entries, and a pool that has played keeps the loop too
        if self.dim > 1 or self._extended_for:
            return 0
        return super()._batchable(n)

    def _replay(self, xs: Sequence[Point], ys: Sequence[int]) -> list[int]:
        """Dense replay of a fresh pool of dimension 0 or 1.

        At dimension 1 the expert born at round s (index s; the root is 0)
        has the root's state and loss at its birth round, restricts to a
        state sigma_s if it errs there, and is frozen after it. So with
        M[sigma, t] the mistakes of a frozen state sigma over rounds 1..t,
        its loss before round t > s is M[0, s] - M[sigma_s, s] +
        M[sigma_s, t - 1]. Births register one per round and restrict in
        round order, so the mass budget, the once-mode draws and the engine
        ids are the loop's. The per-round draws of rounds t = 1..T fill
        the lower triangle of a T x (T + 1) score matrix row by row from
        one block of `standard_exponential`, which the loop's per-round
        calls read in the same order; the triangle is scored `_BLOCK`
        rounds at a time to bound its memory.
        """
        engine, T = self.engine, len(ys)
        births = int(self.dim == 1)
        size = 1 + births * T
        self._reserve(size)
        for t in range(1, size):
            k_new = pool_complexity(self.dim, t)
            self._register(1, k_new)
            self._k[t] = k_new
        root = [engine.predict(0, x) for x in xs]
        sigma = self._state[:size]
        sigma[0] = 0
        if births:
            # a mistaken birth restricts the root's state. Each distinct
            # (x, y) is restricted once, in round order, which interns the
            # ids that restricting birth by birth would give; an empty
            # restriction (None) leaves the state at 0.
            restricted = {}
            for x, y_t, p in zip(xs, ys, root):
                if p != y_t and (x, y_t) not in restricted:
                    restricted[x, y_t] = engine.restrict(0, x, y_t)
            sigma[1:] = [restricted[x, y_t] or 0 if p != y_t else 0
                         for x, y_t, p in zip(xs, ys, root)]
        states = np.array([root] + [[engine.predict(s, x) for x in xs]
                                    for s in range(1, engine.n_states)])
        y = np.array(ys)
        mistakes = np.zeros((len(states), T + 1), dtype=np.int64)
        np.cumsum(states != y, axis=1, out=mistakes[:, 1:])
        born = np.arange(size)
        base = mistakes[0, born] - mistakes[sigma, born]
        # the same small integers as floats, which `score += loss` adds
        # exactly as the loop's int-to-float addition does
        fmistakes, fbase = mistakes.astype(float), base.astype(float)

        chosen = np.empty(T, dtype=np.int64)
        for a in range(1, T + 1, self._BLOCK):
            rounds = np.arange(a, min(a + self._BLOCK, T + 1))
            n = 1 + births * int(rounds[-1])
            live = np.arange(n) <= births * rounds[:, None]
            loss = fmistakes[:, rounds - 1].T[:, sigma[:n]]
            loss += fbase[:n]
            if births:
                # a newborn still has the root's state and loss
                loss[np.arange(len(rounds)), rounds] = fmistakes[0, rounds - 1]
            # a draw of -inf scores an expert not yet born at +inf
            draws = np.full(live.shape, -np.inf)
            if self.redraw == "once":
                np.copyto(draws, self._q_once[:n], where=live)
            else:
                # round t scores 1 + births * t experts
                count = len(rounds) + births * int(rounds.sum())
                draws[live] = self.rng.standard_exponential(count)
            score = np.subtract(self._k[:n], draws)
            score *= np.sqrt(rounds.astype(float))[:, None]
            score += loss
            chosen[a - 1:a - 1 + len(rounds)] = score.argmin(axis=1)
        played = np.arange(1, T + 1)
        state_then = np.where(chosen == births * played, 0, sigma[chosen])
        preds = states[state_then, played - 1]

        self._loss[:size] = base + mistakes[sigma, T]
        self._score[:size] = score[-1]
        self._extended_for = T
        self._cohort = (size - births, size)
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
                 seed: Optional[int] = None, redraw: str = "per-round",
                 cap_dim: Optional[int] = 2, cap_rounds: Optional[int] = None):
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
            pools.append(ExpertPoolFpl(
                comp, rng=np.random.default_rng(seeds[n]), redraw=redraw))
        super().__init__(pools, [meta_complexity(n) for n in range(1, components + 1)],
                         rng=np.random.default_rng(seeds[0]), redraw=redraw)
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
