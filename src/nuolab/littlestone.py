"""Exact Littlestone dimension, shattered-tree witnesses, and the minimax
mistake-game oracle for finite explicit classes.

A version space is an int bitmask over row ids: bit i is set iff row i
(by position in `rows`) survives, so the lowest set bit is the smallest
surviving id. Every restriction is one `split` by a column mask.

The dimension recursion and the game-tree oracle are two independent code
paths with separate memo tables; their agreement on finite classes is one
of the verification suite's core checks, so neither may delegate to the
other. They share only `column_masks` and `split`.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

from .hypotheses import DomainError, FiniteClass, Point


class StructureError(ValueError):
    """A witness whose shape does not match its declared depth."""


class CapacityError(RuntimeError):
    """An oracle call beyond its configured exact-computation caps."""


# ---------------------------------------------------------------------------
# the bitmask kernel, and a per-class workspace memoizing the dimension
# ---------------------------------------------------------------------------

def column_masks(cls: FiniteClass) -> tuple[int, ...]:
    """One mask per domain point, in domain order: bit i is set iff row i
    labels that point 1."""
    return tuple(sum(1 << i for i, row in enumerate(cls.rows) if row[col])
                 for col in range(len(cls.domain)))


def split(ids: int, colmask: int) -> tuple[int, int]:
    """(zeros, ones): the rows of `ids` labeling the column 0, and 1.
    Indexing the pair by a label y gives the restriction to y."""
    ones = ids & colmask
    return ids ^ ones, ones


class _Workspace:
    """Column masks and dimension memo of one root class, keyed by the mask
    of surviving rows (bit i set iff row i survives; the lowest set bit is
    the smallest id). Different constraint orders reach the same version
    space, so constraint lists are never part of the key. Entries are
    write-once values of a pure function, so concurrent use under the GIL
    returns identical results regardless of interleaving. Holds no
    reference to its class, so the weak-keyed registry frees it."""

    def __init__(self, colmasks: tuple[int, ...]):
        self.colmasks = colmasks
        self.memo: dict[int, int] = {}

    def ldim(self, ids: int) -> int:
        if not ids:
            raise DomainError("Ldim undefined for the empty class")
        cached = self.memo.get(ids)
        if cached is not None:
            return cached
        best = 0
        if ids & (ids - 1):
            for colmask in self.colmasks:
                zeros, ones = split(ids, colmask)
                if zeros and ones:
                    # Ldim(S) <= floor(log2 |S|), so a split whose smaller
                    # side has fewer than 2^best rows cannot beat best
                    if min(zeros.bit_count(), ones.bit_count()).bit_length() <= best:
                        continue
                    cand = 1 + min(self.ldim(zeros), self.ldim(ones))
                    if cand > best:
                        best = cand
        self.memo[ids] = best
        return best


_workspaces: "weakref.WeakKeyDictionary[FiniteClass, _Workspace]" = weakref.WeakKeyDictionary()


def _workspace(root: FiniteClass) -> _Workspace:
    ws = _workspaces.get(root)
    if ws is None:
        ws = _Workspace(column_masks(root))
        _workspaces[root] = ws
    return ws


# ---------------------------------------------------------------------------
# version spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VersionSpace:
    """The surviving rows of a root class under (point, label) constraints.
    `mask` has bit i set iff row i of `root.rows` survives, so its lowest
    set bit is the smallest surviving id; `ids` is the same set as a
    frozenset. Cheap to fork; dimension queries share the root's memo."""

    root: FiniteClass
    mask: int

    @classmethod
    def full(cls, root: FiniteClass) -> "VersionSpace":
        return cls(root, (1 << len(root)) - 1)

    @property
    def ids(self) -> frozenset[int]:
        return frozenset(i for i, b in enumerate(format(self.mask, "b")[::-1]) if b == "1")

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return not self.mask

    def labels(self) -> list:
        return [self.root.labels[i] for i in sorted(self.ids)]

    def restrict(self, x: Point, y: int) -> "VersionSpace":
        if y not in (0, 1):
            raise DomainError(f"label must be 0 or 1, got {y!r}")
        colmask = _workspace(self.root).colmasks[self.root.point_index(x)]
        keep = split(self.mask, colmask)[y]
        return VersionSpace(self.root, keep)

    def ldim(self) -> int:
        return _workspace(self.root).ldim(self.mask)


def soa_prediction(vs: VersionSpace, x: Point) -> int:
    """The label whose restriction has the larger dimension.

    Ties go to 0; a label with an empty restriction is never chosen while
    the other is non-empty. Empty version spaces have no prediction.
    """
    if vs.is_empty:
        raise DomainError("no prediction from an empty version space")
    ws = _workspace(vs.root)
    zeros, ones = split(vs.mask, ws.colmasks[vs.root.point_index(x)])
    if not ones:
        return 0
    if not zeros:
        return 1
    return 1 if ws.ldim(ones) > ws.ldim(zeros) else 0


# ---------------------------------------------------------------------------
# dimension and witnesses
# ---------------------------------------------------------------------------

def ldim(cls: FiniteClass) -> int:
    """Exact dimension: the largest d with a depth-d shattered tree."""
    if cls.is_empty:
        raise DomainError("Ldim undefined for the empty class")
    return VersionSpace.full(cls).ldim()


def path_node_indices(labeling: Sequence[int]) -> list[int]:
    """Level-order node indices visited by a labeling: starting at the root
    (index 1), the label y moves from node i to node 2i + y."""
    out, node = [], 1
    for y in labeling:
        out.append(node)
        node = 2 * node + y
    return out


@dataclass(frozen=True)
class ShatteredTreeWitness:
    """A depth-d point array in level order, every labeling of which is
    realized by some hypothesis. `realizers` maps each labeling to the id
    of one consistent hypothesis."""

    depth: int
    points: tuple[Point, ...]
    realizers: Optional[dict] = None

    def __post_init__(self):
        if self.depth < 1:
            raise StructureError("witness depth must be >= 1")
        if len(self.points) != 2 ** self.depth - 1:
            raise StructureError(
                f"witness of depth {self.depth} needs {2 ** self.depth - 1} points, "
                f"got {len(self.points)}")


def shattered_tree_witness(cls: FiniteClass, d: int) -> Optional[ShatteredTreeWitness]:
    """A depth-d witness if one exists, else None.

    Points are chosen level by level, pruning by the dimension of each
    node's version space; ties break to the first point in domain order.
    Points may repeat across nodes (never along a path with conflicting
    labels, which the shattering requirement itself rules out).
    """
    if d < 1:
        raise ValueError("witness depth must be >= 1 (use ldim for depth 0)")
    if cls.is_empty:
        raise DomainError("no witness for an empty class")
    ws = _workspace(cls)
    full = (1 << len(cls)) - 1
    if ws.ldim(full) < d:
        return None

    points: list[Optional[Point]] = [None] * (2 ** d - 1)

    def build(ids: int, remaining: int, node: int) -> None:
        if remaining == 0:
            return
        for x, colmask in zip(cls.domain, ws.colmasks):
            zeros, ones = split(ids, colmask)
            if not zeros or not ones:
                continue
            if ws.ldim(zeros) >= remaining - 1 and ws.ldim(ones) >= remaining - 1:
                points[node - 1] = x
                build(zeros, remaining - 1, 2 * node)
                build(ones, remaining - 1, 2 * node + 1)
                return
        raise AssertionError("dimension guarantee violated during witness search")

    build(full, d, 1)

    realizers: dict[tuple[int, ...], int | str] = {}
    from itertools import product
    for labeling in product((0, 1), repeat=d):
        ids = full
        for node, y in zip(path_node_indices(labeling), labeling):
            ids = split(ids, ws.colmasks[cls.point_index(points[node - 1])])[y]
        # the lowest set bit is the smallest surviving id
        realizers[labeling] = cls.labels[(ids & -ids).bit_length() - 1]

    return ShatteredTreeWitness(d, tuple(points), realizers)


def verify_witness(witness: ShatteredTreeWitness, cls: FiniteClass) -> bool:
    """Check every labeling is realized, using the level-order index walk."""
    d = witness.depth
    if len(witness.points) != 2 ** d - 1:
        raise StructureError("point array does not match witness depth")
    cols = [cls.point_index(p) for p in witness.points]
    from itertools import product
    for labeling in product((0, 1), repeat=d):
        nodes = path_node_indices(labeling)
        if not any(all(row[cols[n - 1]] == y for n, y in zip(nodes, labeling))
                   for row in cls.rows):
            return False
    return True


# ---------------------------------------------------------------------------
# minimax game oracle
# ---------------------------------------------------------------------------

def minimax_mistakes(cls: FiniteClass, max_points: int = 8, max_rows: int = 96) -> int:
    """Exact value of the adaptive mistake game on a finite class.

    Each turn the adversary picks a point and, after seeing the prediction,
    any label that keeps the surviving set non-empty; the learner predicts
    to minimize total mistakes. Play effectively ends once no point splits
    the surviving set. Intended for small instances only; beyond the caps
    this raises instead of approximating.
    """
    if cls.is_empty:
        raise DomainError("mistake game undefined for the empty class")
    if len(cls.domain) > max_points or len(cls) > max_rows:
        raise CapacityError(
            f"instance {len(cls)} rows x {len(cls.domain)} points exceeds caps "
            f"({max_rows} rows, {max_points} points)")

    colmasks = column_masks(cls)
    memo: dict[int, int] = {}

    def value(ids: int) -> int:
        cached = memo.get(ids)
        if cached is not None:
            return cached
        best = 0
        if ids & (ids - 1):
            for colmask in colmasks:
                zeros, ones = split(ids, colmask)
                if not zeros or not ones:
                    continue
                v0, v1 = value(zeros), value(ones)
                predict_zero = max(v0, 1 + v1)
                predict_one = max(1 + v0, v1)
                outcome = min(predict_zero, predict_one)
                if outcome > best:
                    best = outcome
        memo[ids] = best
        return best

    return value((1 << len(cls)) - 1)
