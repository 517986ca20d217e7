"""Exact Littlestone dimension, shattered-tree witnesses, the minimax
mistake-game oracle, and the version-space kernel, for finite explicit
classes.

A version space is an int bitmask over row ids: bit i is set iff row i
(by position in `rows`) survives, so the lowest set bit is the smallest
surviving id. A restriction is `split`'s AND and XOR by a column mask,
inline in the dimension search; no other module reads the masks.
`VersionSpace(cls)`, the kernel that learners and expert pools run,
interns them to state ids and gives `predict` (the SOA rule of
`soa_prediction`), `restrict` and `ldim` of a state.

The dimension search and the game-tree oracle are two independent code
paths with separate tables; their agreement on finite classes is one of
the verification suite's core checks, so neither may delegate to the
other. They share only `column_masks`, which the game reads from the
class's workspace, and `split`'s AND and XOR. Each answers the decision
query "is the value of the rows S at least k?", finds the exact value by
asking it down from floor(log2 |S|), and keeps per mask the largest k
known to hold and the smallest known to fail. Each argues its prunes from
its own definition:

- Ldim(S) >= k iff some column splits S into two sides of Ldim >= k - 1
  each. A depth-k shattered tree needs 2^k distinct rows, one per leaf,
  so a set of fewer fails at once, and a column whose smaller side holds
  fewer than 2^(k-1) rows is skipped before either side is asked; the
  smaller side, the likelier to fail, is asked first, and the larger only
  if it holds. A query that holds records the column that settled it, the
  first in domain order, which the witness reads back.
- In the game the learner predicts the side of larger value, so a split
  is worth max(v0, v1), plus one when they tie: the game on S is worth at
  least k iff some split has both sides worth k - 1, or one side worth k.
  The halving learner (predict the majority) loses at least half of the
  surviving rows with every mistake, so a set of fewer than 2^k rows is
  worth less than k. Every split is asked the first question, smaller
  side first, before any is asked the second. The second never holds
  where the first failed, since a superset's game is worth at least a
  subset's; it stays because that lemma is what the ldim-minimax-equality
  check tests, and without it the game's recursion would be Ldim's,
  checked against itself.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

from .hypotheses import (DomainError, FiniteClass, FiniteSupportClass, Point,
                         SingletonClass, is_label, quoted)


class CapacityError(DomainError):
    """An oracle call beyond its configured exact-computation caps."""


# ---------------------------------------------------------------------------
# the bitmask kernel, and a per-class workspace bounding the dimension
# ---------------------------------------------------------------------------

def column_masks(cls: FiniteClass) -> tuple[int, ...]:
    """One mask per domain point, in domain order: bit i is set iff row i
    labels that point 1. A mask is its column, last row first, read as one
    binary numeral."""
    if not cls.rows:        # zip(*rows) would give no columns at all
        return (0,) * len(cls.domain)
    digits = bytes.maketrans(b"\x00\x01", b"01")
    return tuple(int(bytes(column[::-1]).translate(digits), 2) for column in zip(*cls.rows))


def split(ids: int, colmask: int) -> tuple[int, int]:
    """(zeros, ones): the rows of `ids` labeling the column 0, and 1.
    Indexing the pair by a label y gives the restriction to y."""
    ones = ids & colmask
    return ids ^ ones, ones


class _Workspace:
    """Column masks and dimension bounds of one root class, keyed by the mask
    of surviving rows (bit i set iff row i survives; the lowest set bit is
    the smallest id). Different constraint orders reach the same version
    space, so constraint lists are never part of the key. `lo[S]` is a
    record (k, col): k is the largest depth known to have Ldim(S) >= k, and
    col the first column whose split of S settled it. `hi[S]` is the
    smallest k known not to hold. A query on S recurses only into strict
    subsets of S, then writes its record to `lo` once it holds or k to `hi`
    once it fails, so in one thread the bounds only tighten toward the
    exact value, never crossing it. Every write, a record's k and column
    in one assignment, is true of a pure function, so under the GIL a race
    can at worst lose a tightening, and concurrent use returns identical
    results regardless of interleaving. Holds no reference to its class,
    so the weak-keyed registry frees it."""

    def __init__(self, colmasks: tuple[int, ...]):
        self.colmasks = colmasks
        self.lo: dict[int, tuple[int, int]] = {}
        self.hi: dict[int, int] = {}

    def at_least(self, ids: int, k: int) -> bool:
        """Whether Ldim(ids) >= k, for non-empty `ids`."""
        if k <= self.lo.get(ids, (0,))[0]:
            return True
        # a depth-k shattered tree has 2^k leaves, each realized by a
        # distinct row, so a set of fewer than 2^k rows fails at once
        if k >= self.hi.get(ids, ids.bit_count().bit_length()):
            return False
        col = self.splitting_column(ids, k)
        if col is None:
            self.hi[ids] = k
            return False
        self.lo[ids] = k, col
        return True

    def splitting_column(self, ids: int, k: int) -> Optional[int]:
        """The first column splitting `ids` into two sides of Ldim >= k - 1
        each, or None, for k >= 1; a side of fewer than 2^(k-1) rows fails
        `at_least`'s ceiling, so its column is skipped before the call."""
        n, need = ids.bit_count(), 1 << k - 1
        for col, colmask in enumerate(self.colmasks):
            ones = ids & colmask        # `split`, inline
            n1 = ones.bit_count()
            if need <= n1 <= n - need:
                # the smaller side fails more often, so ask it first
                small, large = (ones, ids ^ ones) if 2 * n1 <= n else (ids ^ ones, ones)
                if self.at_least(small, k - 1) and self.at_least(large, k - 1):
                    return col
        return None

    def ldim(self, ids: int) -> int:
        if not ids:
            raise DomainError("Ldim undefined for the empty class")
        k = self.hi.get(ids, ids.bit_count().bit_length()) - 1
        while not self.at_least(ids, k):
            k -= 1
        return k


_workspaces: "weakref.WeakKeyDictionary[FiniteClass, _Workspace]" = weakref.WeakKeyDictionary()


def _workspace(root: FiniteClass) -> _Workspace:
    ws = _workspaces.get(root)
    if ws is None:
        ws = _Workspace(column_masks(root))
        _workspaces[root] = ws
    return ws


# ---------------------------------------------------------------------------
# the version-space kernel: version spaces of one component class interned
# to state ids, state 0 the full class
# ---------------------------------------------------------------------------

def soa_prediction(ws: _Workspace, ids: int, col: int) -> int:
    """The label whose restriction of the rows `ids` at column `col` has
    the larger dimension.

    Ties go to 0; a label with an empty restriction is never chosen while
    the other is non-empty. Empty version spaces have no prediction.
    """
    if not ids:
        raise DomainError("no prediction from an empty version space")
    zeros, ones = split(ids, ws.colmasks[col])
    if not ones:
        return 0
    if not zeros:
        return 1
    return int(ws.at_least(ones, ws.ldim(zeros) + 1))


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


def _check_label(y) -> None:
    """Refuse a restriction label that is not the int 0 or 1."""
    if not is_label(y):
        raise DomainError(f"label must be 0 or 1, got {quoted(y)}")


class VersionSpace(_InternedStates):
    """The version spaces of a finite class. States are row masks, split by
    the class's cached column masks; `restrict` gives None for an empty
    restriction. Beyond the caps of `ldim` this raises `CapacityError`
    before any state exists."""

    def __init__(self, cls: FiniteClass):
        check_dimension_caps(len(cls), len(cls.domain))
        super().__init__((1 << len(cls)) - 1)
        self.root = cls
        self._ws = _workspace(cls)
        self._pred: dict[tuple[int, Point], int] = {}

    def predict(self, sid: int, x: Point) -> int:
        key = (sid, x)
        p = self._pred.get(key)
        if p is None:
            p = self._pred[key] = soa_prediction(self._ws, self.states[sid],
                                                 self.root.point_index(x))
        return p

    def restrict(self, sid: int, x: Point, y: int) -> Optional[int]:
        _check_label(y)
        keep = split(self.states[sid], self._ws.colmasks[self.root.point_index(x)])[y]
        return self._intern(keep) if keep else None

    def ldim(self, sid: int) -> int:
        return self._ws.ldim(self.states[sid])


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
        # a forced point keeps its label; a free point's 1-restriction has dimension
        # min(b - 1, f - 1) (b the budget left, f the free points), never more than
        # its 0-restriction's min(b, f - 1), and a tie goes to 0
        return int(x in self.states[sid][0])

    def restrict(self, sid: int, x: Point, y: int) -> Optional[int]:
        _check_label(y)
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
        _check_label(y)
        return sid if self.h(x) == y else None


def engine_for(cls: FiniteClass | FiniteSupportClass | SingletonClass):
    """A fresh version-space engine for a component class, whose state 0 is
    the full class: `VersionSpace`, or a closed form for the other kinds.
    Every engine's `restrict` refuses a label that is not the int 0 or 1
    with `DomainError`."""
    if isinstance(cls, FiniteClass):
        return VersionSpace(cls)
    if isinstance(cls, FiniteSupportClass):
        return _SupportEngine(cls)
    if isinstance(cls, SingletonClass):
        return _SingletonEngine(cls)
    raise TypeError(f"no version-space engine for class type {type(cls).__name__}")


# ---------------------------------------------------------------------------
# dimension and witnesses
# ---------------------------------------------------------------------------

# Caps of `ldim` and `shattered_tree_witness`. MAX_ROWS bounds the row
# masks, and with them the search's depth: a query at k asks its sides at
# k - 1, and k starts at most floor(log2 rows). MAX_DEPTH bounds the
# "recursion depth" of the error, min(points, rows - 1): the longest chain
# of splits, each on a column that cannot split again below it and each
# strictly shrinking the surviving rows.
MAX_ROWS = 1024
MAX_DEPTH = 512


def check_dimension_caps(rows: int, points: int) -> None:
    """Raise `CapacityError` for a class of `rows` rows over `points` points
    beyond the dimension oracles' caps: its shape decides, not its values."""
    depth = min(points, rows - 1)
    if rows > MAX_ROWS or depth > MAX_DEPTH:
        raise CapacityError(
            f"instance {rows} rows x {points} points exceeds caps "
            f"({MAX_ROWS} rows, recursion depth {MAX_DEPTH})")


def ldim(cls: FiniteClass) -> int:
    """Exact dimension: the largest d with a depth-d shattered tree.

    A depth-d shattered tree has 2^d leaves, and the rows realizing two
    different leaves differ at the node where their paths part, so the
    dimension is at most floor(log2 |H|); the search asks "at least k?"
    down from that ceiling. Beyond the caps this raises before any search.
    """
    if cls.is_empty:
        raise DomainError("Ldim undefined for the empty class")
    check_dimension_caps(len(cls), len(cls.domain))
    return _workspace(cls).ldim((1 << len(cls)) - 1)


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
            raise DomainError("witness depth must be >= 1")
        if len(self.points) != 2 ** self.depth - 1:
            raise DomainError(
                f"witness of depth {self.depth} needs {2 ** self.depth - 1} points, "
                f"got {len(self.points)}")


def shattered_tree_witness(cls: FiniteClass, d: int) -> Optional[ShatteredTreeWitness]:
    """A depth-d witness if one exists, else None.

    Each node takes the first point in domain order that splits its
    version space into two sides of dimension at least the depth left
    below it: the column the dimension search recorded when it settled
    that (rows, depth), else `_Workspace.splitting_column`'s scan. Points
    may repeat across nodes (never along a path with conflicting labels,
    which the shattering requirement itself rules out). Beyond the caps
    (those of `ldim`) this raises before any search.
    """
    if d < 1:
        raise DomainError("witness depth must be >= 1 (use ldim for depth 0)")
    if cls.is_empty:
        raise DomainError("no witness for an empty class")
    check_dimension_caps(len(cls), len(cls.domain))
    ws = _workspace(cls)
    full = (1 << len(cls)) - 1
    if not ws.at_least(full, d):
        return None

    points: list[Optional[Point]] = [None] * (2 ** d - 1)
    realizers: dict[tuple[int, ...], int | str] = {}

    # zeros before ones: leaves are reached in lexicographic labeling order
    def build(ids: int, remaining: int, node: int, labeling: tuple[int, ...]) -> None:
        if remaining == 0:
            # the lowest set bit is the smallest surviving id
            realizers[labeling] = cls.labels[(ids & -ids).bit_length() - 1]
            return
        k, col = ws.lo.get(ids, (0, None))
        if k != remaining:      # the search settled this node at no depth, or another
            col = ws.splitting_column(ids, remaining)
        if col is None:
            raise AssertionError("dimension guarantee violated during witness search")
        points[node - 1] = cls.domain[col]
        zeros, ones = split(ids, ws.colmasks[col])
        build(zeros, remaining - 1, 2 * node, labeling + (0,))
        build(ones, remaining - 1, 2 * node + 1, labeling + (1,))

    build(full, d, 1, ())

    return ShatteredTreeWitness(d, tuple(points), realizers)


def verify_witness(witness: ShatteredTreeWitness, cls: FiniteClass) -> bool:
    """Check every labeling is realized, using the level-order index walk.

    A row follows exactly one root-to-leaf path (from node i to node
    2i + its label at node i's point), and it realizes a labeling iff that
    path is the labeling's. So the witness holds iff the rows reach all
    2^d leaves: one walk per row, not one scan of the rows per labeling.
    """
    d = witness.depth
    cols = [cls.point_index(p) for p in witness.points]
    leaves = 1 << d
    reached = set()
    for row in cls.rows:
        node = 1
        while node < leaves:
            node = 2 * node + row[cols[node - 1]]
        reached.add(node)
    return len(reached) == leaves


# ---------------------------------------------------------------------------
# minimax game oracle
# ---------------------------------------------------------------------------

# Caps of `minimax_mistakes`, which keeps bounds on every surviving row set it meets
MINIMAX_MAX_POINTS = 8
MINIMAX_MAX_ROWS = 96


def minimax_mistakes(cls: FiniteClass) -> int:
    """Exact value of the adaptive mistake game on a finite class.

    Each turn the adversary picks a point and, after seeing the prediction,
    any label that keeps the surviving set non-empty; the learner predicts
    to minimize total mistakes. Play effectively ends once no point splits
    the surviving set. Intended for small instances only; beyond the caps
    this raises instead of approximating.

    `worth(S, k)` says whether the game on the rows S is worth at least k,
    by the two questions and the halving ceiling of the module docstring;
    the value is the largest k it allows, asked down from the ceiling.
    """
    if cls.is_empty:
        raise DomainError("mistake game undefined for the empty class")
    if len(cls.domain) > MINIMAX_MAX_POINTS or len(cls) > MINIMAX_MAX_ROWS:
        raise CapacityError(
            f"instance {len(cls)} rows x {len(cls.domain)} points exceeds caps "
            f"({MINIMAX_MAX_ROWS} rows, {MINIMAX_MAX_POINTS} points)")

    colmasks = _workspace(cls).colmasks
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}

    def worth(ids: int, k: int) -> bool:
        if k <= lo.get(ids, 0):
            return True
        # the halving learner errs at most floor(log2 |S|) times
        if k >= hi.get(ids, ids.bit_count().bit_length()):
            return False
        sides = []
        for colmask in colmasks:
            zeros, ones = split(ids, colmask)
            if zeros and ones:
                small, large = ((ones, zeros) if ones.bit_count() <= zeros.bit_count()
                                else (zeros, ones))
                if worth(small, k - 1) and worth(large, k - 1):
                    lo[ids] = k
                    return True
                sides += small, large
        if any(worth(side, k) for side in sides):
            lo[ids] = k
            return True
        hi[ids] = k
        return False

    full = (1 << len(cls)) - 1
    k = len(cls).bit_length() - 1
    while not worth(full, k):
        k -= 1
    return k
