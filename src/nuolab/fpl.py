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
# generic FPL over explicit expert objects
# ---------------------------------------------------------------------------

class FplLearner(OnlineLearner):
    """Perturbed-leader selection over a registry of online learners.

    Every registered expert is fed every revealed pair, so stored losses
    are exact counterfactual mistake counts. `redraw="per-round"` samples a
    fresh perturbation vector each round; `redraw="once"` samples one
    perturbation per expert at registration and reuses it forever (the
    oblivious-adversary variant, expectation-equivalent to per-round
    redraws).
    """

    deterministic = False

    def __init__(self, experts: Sequence[OnlineLearner] = (),
                 complexities: Sequence[float] = (), *,
                 seed: Optional[int] = None, rng: Optional[np.random.Generator] = None,
                 redraw: str = "per-round"):
        super().__init__()
        if redraw not in ("per-round", "once"):
            raise ConfigurationError(f"redraw must be 'per-round' or 'once', got {redraw!r}")
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.redraw = redraw
        self.experts: list[OnlineLearner] = []
        self.complexities: list[float] = []
        self.losses: list[int] = []
        self._q_once: list[float] = []
        self._mass = 0.0
        self._pending = None    # (x, chosen index, prediction)
        if len(experts) != len(complexities):
            raise ConfigurationError("experts and complexities differ in length")
        for e, k in zip(experts, complexities):
            self.register(e, k)

    def register(self, expert: OnlineLearner, complexity: float) -> None:
        self._mass += math.exp(-complexity)
        if self._mass > 1.0 + _MASS_SLACK:
            raise ConfigurationError(
                f"complexity mass {self._mass:.6f} exceeds 1 after registration")
        self.experts.append(expert)
        self.complexities.append(float(complexity))
        self.losses.append(0)
        if self.redraw == "once":
            self._q_once.append(float(self.rng.exponential()))

    @property
    def chosen_index(self) -> Optional[int]:
        return self._pending[1] if self._pending is not None else None

    def predict(self, x: Point) -> int:
        if self._pending is not None and self._pending[0] == x:
            return self._pending[2]
        n = len(self.experts)
        if n == 0:
            raise ProtocolError("no experts registered", self.t)
        if self.redraw == "once":
            q = self._q_once
        else:
            q = self.rng.exponential(size=n)
        sqrt_t = math.sqrt(self.t)
        scores = [self.losses[i] + (self.complexities[i] - q[i]) * sqrt_t
                  for i in range(n)]
        j = min(range(n), key=lambda i: scores[i])
        self._pending = (x, j, self.experts[j].predict(x))
        return self._pending[2]

    def _absorb(self, x: Point, y: int, predicted: int) -> None:
        for i, expert in enumerate(self.experts):
            if expert.predict(x) != y:
                self.losses[i] += 1
            expert.update(x, y)
        self._pending = None


# ---------------------------------------------------------------------------
# FPL over a growing pool of keyed experts for one component class
# ---------------------------------------------------------------------------

class ExpertPoolFpl(OnlineLearner):
    """Perturbed leader over every keyed version-space expert with at most
    `dim` update rounds, the pool growing by the keys ending at the current
    round.

    A keyed expert restricts its version space only at rounds in its key,
    so before round t the expert keyed (prefix + (t,)) behaves exactly like
    the expert keyed (prefix): at registration it inherits the prefix
    expert's state and loss, which keeps every stored loss an exact
    standalone-replay count without replaying anything. After its last key
    round an expert's state is frozen, so per-round work is array-wide.
    """

    deterministic = False

    def __init__(self, component: FamilyComponent, *,
                 seed: Optional[int] = None, rng: Optional[np.random.Generator] = None,
                 redraw: str = "per-round"):
        super().__init__()
        if redraw not in ("per-round", "once"):
            raise ConfigurationError(f"redraw must be 'per-round' or 'once', got {redraw!r}")
        self.engine = engine_for(component.cls)
        self.dim = component.dim
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.redraw = redraw
        self.keys: list[tuple[int, ...]] = [()]
        self.state = np.zeros(1, dtype=np.int64)
        self.losses = np.zeros(1, dtype=np.int64)
        self.complexities = np.array([pool_complexity(self.dim, 0)])
        self._q_once = (np.array([float(self.rng.exponential())])
                        if redraw == "once" else None)
        self._mass = math.exp(-self.complexities[0])
        self._growable = [0] if self.dim > 0 else []
        self._extended_for = 0
        self._cohort = (1, 1)   # index range of experts registered this round
        self._pending = None    # (x, predictions, chosen index)

    @property
    def pool_size(self) -> int:
        return len(self.keys)

    def pool_extend(self) -> int:
        """Register every key ending at the current round; returns the count
        added. Runs once per round, implicitly before prediction."""
        t = self.t
        if self._extended_for == t:
            return self._cohort[1] - self._cohort[0]
        parents = self._growable
        start = len(self.keys)
        count = len(parents)
        if count:
            k_new = pool_complexity(self.dim, t)
            self._mass += count * math.exp(-k_new)
            if self._mass > 1.0 + _MASS_SLACK:
                raise ConfigurationError(
                    f"complexity mass {self._mass:.6f} exceeds 1 at round {t}")
            idx = np.asarray(parents, dtype=np.int64)
            self.state = np.concatenate([self.state, self.state[idx]])
            self.losses = np.concatenate([self.losses, self.losses[idx]])
            self.complexities = np.concatenate(
                [self.complexities, np.full(count, k_new)])
            if self._q_once is not None:
                self._q_once = np.concatenate(
                    [self._q_once, self.rng.exponential(size=count)])
            for p in parents:
                self.keys.append(self.keys[p] + (t,))
            self._growable = parents + [i for i in range(start, start + count)
                                        if len(self.keys[i]) < self.dim]
        self._extended_for = t
        self._cohort = (start, start + count)
        return count

    def _predictions(self, x: Point) -> np.ndarray:
        # distinct version spaces stay few, so a per-state lookup table
        # beats touching each expert individually
        lut = np.fromiter((self.engine.predict(s, x) for s in range(self.engine.n_states)),
                          dtype=np.int64, count=self.engine.n_states)
        return lut[self.state]

    def predict(self, x: Point) -> int:
        if self._pending is not None and self._pending[0] == x:
            return int(self._pending[1][self._pending[2]])
        self.pool_extend()
        preds = self._predictions(x)
        if self.redraw == "once":
            q = self._q_once
        else:
            q = self.rng.exponential(size=len(self.keys))
        scores = self.losses + (self.complexities - q) * math.sqrt(self.t)
        j = int(np.argmin(scores))
        self._pending = (x, preds, j)
        return int(preds[j])

    @property
    def chosen_index(self) -> Optional[int]:
        return self._pending[2] if self._pending is not None else None

    def _absorb(self, x: Point, y: int, predicted: int) -> None:
        self.predict(x)
        _, preds, _ = self._pending
        self.losses += preds != y
        # only this round's cohort has the current round in its key
        for i in range(*self._cohort):
            if preds[i] != y:
                nxt = self.engine.restrict(int(self.state[i]), x, y)
                if nxt is not None:
                    self.state[i] = nxt
        self._pending = None


# ---------------------------------------------------------------------------
# hierarchical agnostic learner
# ---------------------------------------------------------------------------

class AgnosticFpl(OnlineLearner):
    """Meta perturbed-leader over per-component pooled-expert learners.

    Component n carries complexity 2(ln n + 1) at the meta level; inside,
    its pool of keyed experts uses complexities 1 + (dim + 2) ln j. All
    levels update counterfactually every round.
    """

    deterministic = False

    def __init__(self, family: ClassFamily, components: int, *,
                 seed: Optional[int] = None, redraw: str = "per-round",
                 cap_dim: Optional[int] = 2, cap_rounds: Optional[int] = None):
        super().__init__()
        if components < 1:
            raise ConfigurationError("need at least one component")
        self.cap_rounds = cap_rounds
        seeds = np.random.SeedSequence(seed).spawn(components + 1)
        self.inner: list[ExpertPoolFpl] = []
        for n in range(1, components + 1):
            comp = family.component(n)
            if cap_dim is not None and comp.dim > cap_dim:
                raise ConfigurationError(
                    f"component {n} has dimension {comp.dim} > cap {cap_dim}; "
                    "its expert pool would grow as t^dim")
            self.inner.append(ExpertPoolFpl(
                comp, rng=np.random.default_rng(seeds[n]), redraw=redraw))
        self.meta = FplLearner(
            self.inner, [meta_complexity(n) for n in range(1, components + 1)],
            rng=np.random.default_rng(seeds[0]), redraw=redraw)

    def predict(self, x: Point) -> int:
        if self.cap_rounds is not None and self.t > self.cap_rounds:
            raise ConfigurationError(
                f"round {self.t} beyond the configured cap of {self.cap_rounds}; "
                "the expert pools grow polynomially per round")
        return self.meta.predict(x)

    def update(self, x: Point, y: int) -> None:
        self.predict(x)
        self.meta.update(x, y)
        self.mistakes = self.meta.mistakes
        self.t = self.meta.t
