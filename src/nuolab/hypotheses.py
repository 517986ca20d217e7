"""Hypothesis classes over countable domains.

Explicit classes are dense 0/1 matrices over a finite ordered domain.
Parametric families (thresholds, bounded-support indicators) are evaluated
lazily by formula and never materialized unless asked. Countable unions
expose indexed components, each with a declared complexity. Probability
measures over countable supports use exact rational masses. Their JSON
form is read in `specs`.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import lcm
from typing import Callable, Sequence

Point = str | int | Fraction


class DomainError(ValueError):
    """Bad input: a point outside the declared domain, a malformed spec or
    definition, or a game its learner's contract rules out. The base of
    every input error of the package; the CLI prints one as a single line
    on stderr and exits 2."""


def format_point(p: Point) -> str:
    if isinstance(p, Fraction):
        return f"{p.numerator}/{p.denominator}"
    return str(p)


# ---------------------------------------------------------------------------
# hypotheses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hypothesis:
    """A single labeling rule: a total 0/1 function on the domain."""

    id: int | str
    fn: Callable[[Point], int]

    def __call__(self, x: Point) -> int:
        return self.fn(x)


def is_label(y) -> bool:
    """Whether `y` is the int 0 or 1; `True`, `1.0` and numpy integers are
    not labels."""
    return type(y) is int and 0 <= y <= 1


def all_labels(ys) -> bool:
    """Whether `is_label` holds of every one of `ys`, said at C speed: each
    type is int, and the values are within {0, 1}."""
    return list(map(type, ys)).count(int) == len(ys) and set(ys) <= {0, 1}


QUOTE_LIMIT = 120       # the most of a value's repr that a refusal quotes


def quoted(value) -> str:
    """`repr(value)`, cut after `QUOTE_LIMIT` characters with an ellipsis."""
    text = repr(value)
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "..."


def constant_hypothesis(value: int, hid: int | str | None = None) -> Hypothesis:
    if not is_label(value):
        raise DomainError(f"constant must be 0 or 1, got {value!r}")
    return Hypothesis(hid if hid is not None else f"const-{value}", lambda x: value)


def threshold_hypothesis(cut: int | Fraction, hid: int | str | None = None) -> Hypothesis:
    """Indicator of x >= cut over a numerically ordered domain."""
    def fn(x: Point) -> int:
        if isinstance(x, str):
            raise DomainError(f"threshold needs a numeric point, got {x!r}")
        return int(x >= cut)
    return Hypothesis(hid if hid is not None else f"thr-{format_point(cut)}", fn)


def support_hypothesis(points: Sequence[Point], hid: int | str | None = None) -> Hypothesis:
    """Indicator of a finite support set."""
    supp = frozenset(points)
    name = hid if hid is not None else "supp-{" + ",".join(sorted(map(format_point, supp))) + "}"
    return Hypothesis(name, lambda x: int(x in supp))


def row_hypothesis(domain: Sequence[Point], values: Sequence[int],
                   hid: int | str | None = None) -> Hypothesis:
    table = dict(zip(domain, values))
    if len(table) != len(domain):
        raise DomainError("duplicate points in row hypothesis domain")

    def fn(x: Point) -> int:
        try:
            return table[x]
        except KeyError:
            raise DomainError(f"point {x!r} outside hypothesis domain") from None
    return Hypothesis(hid if hid is not None else tuple(values), fn)


# ---------------------------------------------------------------------------
# explicit finite classes
# ---------------------------------------------------------------------------

class FiniteClass:
    """An explicit hypothesis class: a |H| x |domain| table of 0/1 values.

    Rows are distinct by construction; duplicate hypotheses are rejected so
    that |H| is an honest count for the oracles.
    """

    def __init__(self, domain: Sequence[Point], rows: Sequence[Sequence[int]],
                 labels: Sequence[int | str] | None = None):
        self.domain: tuple[Point, ...] = tuple(domain)
        if len(set(self.domain)) != len(self.domain):
            raise DomainError("duplicate points in domain")
        if not self.domain:
            raise DomainError("domain must contain at least one point")
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != len(self.domain):
                raise DomainError(f"row width {len(r)} != domain size {len(self.domain)}")
            # checked before int(), which would read 1.7 as 1
            if any(v not in (0, 1) for v in r):
                raise DomainError(f"row values must be 0/1: {r}")
        self.rows: tuple[tuple[int, ...], ...] = tuple(tuple(int(v) for v in r) for r in rows)
        if len(set(self.rows)) != len(self.rows):
            raise DomainError("duplicate hypothesis rows rejected")
        if labels is None:
            labels = tuple(range(len(self.rows)))
        self.labels: tuple[int | str, ...] = tuple(labels)
        if len(self.labels) != len(self.rows):
            raise DomainError("label count does not match row count")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError("duplicate hypothesis labels")
        self._pindex = {p: j for j, p in enumerate(self.domain)}

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def __repr__(self) -> str:
        rows = ",".join("".join(map(str, r)) for r in self.rows)
        return f"FiniteClass(domain={list(self.domain)!r}, rows=[{rows}])"

    def point_index(self, x: Point) -> int:
        try:
            return self._pindex[x]
        except KeyError:
            raise DomainError(f"point {x!r} not in class domain") from None

    def hypothesis(self, label: int | str) -> Hypothesis:
        if label not in self.labels:
            raise DomainError(f"no hypothesis labelled {quoted(label)}")
        return row_hypothesis(self.domain, self.rows[self.labels.index(label)], hid=label)

    # -- constructors --------------------------------------------------------

    @classmethod
    def full_class(cls, domain: Sequence[Point]) -> "FiniteClass":
        """All 2^m labelings of an m-point domain, in binary-counter order."""
        rows = list(product((0, 1), repeat=len(domain)))
        return cls(domain, rows)

    @classmethod
    def thresholds(cls, domain: Sequence[int | Fraction],
                   cuts: Sequence[int | Fraction]) -> "FiniteClass":
        """Rows 1_{x >= cut} for each cut, over a numeric domain."""
        rows = [[int(x >= c) for x in domain] for c in cuts]
        return cls(domain, rows, labels=[f"thr-{format_point(c)}" for c in cuts])


# ---------------------------------------------------------------------------
# structured (non-materialized) classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingletonClass:
    """A one-hypothesis class; shatters nothing, so its dimension is 0."""

    hypothesis: Hypothesis
    dim: int = 0


# the most rows `FiniteSupportClass.materialize` builds
MATERIALIZE_MAX_ROWS = 20000


@dataclass(frozen=True)
class FiniteSupportClass:
    """All indicators of at most `budget` points from a finite domain.

    Kept symbolic: version spaces of this class stay of the form
    (forced-one set, forced-zero set), so learners never need the dense
    matrix. `materialize` builds the matrix for small instances.
    """

    domain: tuple[Point, ...]
    budget: int

    def __post_init__(self):
        if self.budget < 0:
            raise DomainError("support budget must be >= 0")
        if len(set(self.domain)) != len(self.domain):
            raise DomainError("duplicate points in domain")

    @property
    def dim(self) -> int:
        # a shattered tree uses distinct points along any root-to-leaf path,
        # so depth <= budget (ones on the all-ones path) and depth <= |domain|
        return min(self.budget, len(self.domain))

    def size(self) -> int:
        from math import comb
        return sum(comb(len(self.domain), j) for j in range(self.budget + 1))

    def materialize(self) -> FiniteClass:
        if self.size() > MATERIALIZE_MAX_ROWS:
            raise DomainError(f"refusing to materialize {self.size()} rows "
                              f"(cap {MATERIALIZE_MAX_ROWS})")
        rows, labels = [], []
        for sz in range(self.budget + 1):
            for supp in combinations(range(len(self.domain)), sz):
                rows.append([int(j in supp) for j in range(len(self.domain))])
                labels.append("supp-" + ",".join(str(j) for j in supp))
        return FiniteClass(self.domain, rows, labels=labels)


# ---------------------------------------------------------------------------
# countable unions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyComponent:
    """One indexed component of a countable union, plus its declared dimension."""

    index: int
    cls: FiniteClass | SingletonClass | FiniteSupportClass
    dim: int


def rationals_unit_interval():
    """Enumerate Q in [0,1] without repeats: endpoints, then breadth-first
    mediants of the Stern-Brocot tree restricted to the unit interval."""
    yield Fraction(0)
    yield Fraction(1)
    level = [(Fraction(0), Fraction(1))]
    while True:
        nxt = []
        for lo, hi in level:
            mid = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
            yield mid
            nxt.append((lo, mid))
            nxt.append((mid, hi))
        level = nxt


class ClassFamily:
    """A countable union of component classes, enumerable in index order."""

    def component(self, n: int) -> FamilyComponent:
        if n < 1:
            raise DomainError(f"component index must be >= 1, got {n}")
        return self._component(n)

    def _component(self, n: int) -> FamilyComponent:
        raise NotImplementedError


class ExplicitListFamily(ClassFamily):
    """A finite list of explicit classes; indices past the end repeat the
    last class so the family stays total over all positive indices."""

    def __init__(self, classes: Sequence[FiniteClass]):
        if not classes:
            raise DomainError("explicit-list family needs at least one class")
        self.classes = list(classes)
        from .littlestone import ldim  # deferred: littlestone depends on this module
        self.dims = [ldim(c) for c in self.classes]

    def _component(self, n: int) -> FamilyComponent:
        i = min(n, len(self.classes)) - 1
        return FamilyComponent(n, self.classes[i], self.dims[i])


class RationalThresholdFamily(ClassFamily):
    """Singleton components {1_{x >= q_n}} with q_n the Stern-Brocot
    enumeration of Q in [0,1]."""

    def __init__(self):
        self._gen = rationals_unit_interval()
        self._cuts: list[Fraction] = []

    def cut(self, n: int) -> Fraction:
        while len(self._cuts) < n:
            self._cuts.append(next(self._gen))
        return self._cuts[n - 1]

    def _component(self, n: int) -> FamilyComponent:
        return FamilyComponent(n, SingletonClass(threshold_hypothesis(self.cut(n))), 0)


class NaturalThresholdFamily(ClassFamily):
    """Singleton components {1_{x >= n-1}} over the positive integers."""

    def _component(self, n: int) -> FamilyComponent:
        return FamilyComponent(n, SingletonClass(threshold_hypothesis(n - 1)), 0)


class FiniteSupportFamily(ClassFamily):
    """Components H_n = indicators of at most n points from a fixed finite
    domain. The declared dimension min(n, |domain|) is exact; tests validate
    it against the generic recursion on small truncations."""

    def __init__(self, domain: Sequence[Point]):
        self.domain = tuple(domain)
        if not self.domain:
            raise DomainError("finite-support family needs a non-empty domain")

    def _component(self, n: int) -> FamilyComponent:
        budget = min(n, len(self.domain))
        comp = FiniteSupportClass(self.domain, budget)
        return FamilyComponent(n, comp, comp.dim)


# ---------------------------------------------------------------------------
# discrete measures
# ---------------------------------------------------------------------------

class DiscreteMeasure:
    """A probability measure on a finite support with exact rational masses."""

    def __init__(self, support: Sequence[Point], masses: Sequence[Fraction | str | int]):
        self.support: tuple[Point, ...] = tuple(support)
        self.masses: tuple[Fraction, ...] = tuple(Fraction(m) for m in masses)
        if len(self.support) != len(self.masses):
            raise DomainError("support and mass lengths differ")
        if len(set(self.support)) != len(self.support):
            raise DomainError("duplicate support points")
        if not self.support:
            raise DomainError("empty support")
        if any(m <= 0 for m in self.masses):
            raise DomainError("masses must be positive")
        if sum(self.masses) != 1:   # not printed: str() of a long sum may raise
            raise DomainError(f"masses sum to {'more' if sum(self.masses) > 1 else 'less'} than 1")
        # the masses as counts over their common denominator D, cumulated
        den = lcm(*(m.denominator for m in self.masses))
        self._cum = list(accumulate(m.numerator * (den // m.denominator) for m in self.masses))
        self._bits = (den - 1).bit_length()

    def mass(self, i: int) -> Fraction:
        """Mass of the i-th support point (1-based)."""
        return self.masses[i - 1]

    def sample(self, rng: random.Random) -> Point:
        """One point, by the draw rule of `draw`."""
        return self.support[self.draw(rng, 1)[0]]

    def draw(self, rng: random.Random, n: int) -> list[int]:
        """The support indices of n points drawn exactly: each is the first point whose
        cumulative count over D exceeds a word `rng.getrandbits((D - 1).bit_length())`,
        and a word >= D (never, when D is a power of two) is dropped for the next one.
        So n one-point draws take the same words and give the same points."""
        cum, bits, drawn = self._cum, self._bits, []
        while len(drawn) < n:
            word = rng.getrandbits(bits)
            if word < cum[-1]:
                drawn.append(bisect_right(cum, word))
        return drawn

    @classmethod
    def point_mass(cls, p: Point) -> "DiscreteMeasure":
        return cls([p], [Fraction(1)])

    @classmethod
    def uniform(cls, points: Sequence[Point]) -> "DiscreteMeasure":
        n = len(points)
        return cls(points, [Fraction(1, n)] * n)

    @classmethod
    def geometric(cls, points: Sequence[Point]) -> "DiscreteMeasure":
        """Masses 2^-i with the truncation residual folded into the last point:
        the i-th point gets 2^-i, the last gets 2^-(m-1)."""
        m = len(points)
        if m < 1:
            raise DomainError("geometric measure needs at least one point")
        masses = [Fraction(1, 2 ** i) for i in range(1, m)]
        masses.append(1 - sum(masses, Fraction(0)))
        return cls(points, masses)
