"""Differential tests: the bitmask version-space kernel against frozenset
reference copies of the oracles, SOA and the pool engine, and the expert
pool's capacity arrays against a pool that keeps lists and concatenates.

The references below keep version spaces as frozensets of row ids and
split them row by row, as the oracles did before the bitmask kernel, and
grow the expert pool by concatenation, restricting expert by expert, as
the pool did before its capacity arrays; `ref_verify_witness` scans the
rows once per labeling, as `verify_witness` did before it walked each row
to its leaf. They live here only, as the yardstick the kernel and the pool
must match exactly.
"""
import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nuolab.fpl import ExpertPoolFpl, pool_complexity
from nuolab.hypotheses import (FamilyComponent, FiniteClass, FiniteSupportClass,
                               SingletonClass, threshold_hypothesis)
from nuolab.learners import OnlineLearner, engine_for
from nuolab import littlestone
from nuolab.littlestone import (ShatteredTreeWitness, VersionSpace, ldim,
                                minimax_mistakes, path_node_indices,
                                shattered_tree_witness, soa_prediction,
                                verify_witness)
from nuolab.verification import max_adaptive_soa_mistakes


# ---------------------------------------------------------------------------
# frozenset references
# ---------------------------------------------------------------------------

class RefWorkspace:
    def __init__(self, cls):
        self.cls = cls
        self.memo = {}

    def split(self, ids, col):
        rows = self.cls.rows
        zeros = frozenset(i for i in ids if rows[i][col] == 0)
        return zeros, ids - zeros

    def ldim(self, ids):
        cached = self.memo.get(ids)
        if cached is not None:
            return cached
        best = 0
        if len(ids) > 1:
            for col in range(len(self.cls.domain)):
                zeros, ones = self.split(ids, col)
                if zeros and ones:
                    best = max(best, 1 + min(self.ldim(zeros), self.ldim(ones)))
        self.memo[ids] = best
        return best

    def soa_prediction(self, ids, col):
        zeros, ones = self.split(ids, col)
        if not ones:
            return 0
        if not zeros:
            return 1
        return 1 if self.ldim(ones) > self.ldim(zeros) else 0


def full_ids(cls):
    return frozenset(range(len(cls)))


def ref_ldim(cls):
    return RefWorkspace(cls).ldim(full_ids(cls))


def ref_minimax(cls):
    rows, memo = cls.rows, {}

    def value(ids):
        if ids in memo:
            return memo[ids]
        best = 0
        if len(ids) > 1:
            for col in range(len(cls.domain)):
                zeros = frozenset(i for i in ids if rows[i][col] == 0)
                ones = ids - zeros
                if zeros and ones:
                    v0, v1 = value(zeros), value(ones)
                    best = max(best, min(max(v0, 1 + v1), max(1 + v0, v1)))
        memo[ids] = best
        return best

    return value(full_ids(cls))


def ref_witness(cls, d):
    """(points, realizers) of the depth-d witness, or None."""
    ws = RefWorkspace(cls)
    full = full_ids(cls)
    if ws.ldim(full) < d:
        return None
    points = [None] * (2 ** d - 1)

    def build(ids, remaining, node):
        if remaining == 0:
            return
        for col, x in enumerate(cls.domain):
            zeros, ones = ws.split(ids, col)
            if zeros and ones and min(ws.ldim(zeros), ws.ldim(ones)) >= remaining - 1:
                points[node - 1] = x
                build(zeros, remaining - 1, 2 * node)
                build(ones, remaining - 1, 2 * node + 1)
                return
        raise AssertionError("no splitting point")

    build(full, d, 1)
    realizers = {}
    for labeling in product((0, 1), repeat=d):
        ids = full
        for node, y in zip(path_node_indices(labeling), labeling):
            col = cls.point_index(points[node - 1])
            ids = frozenset(i for i in ids if cls.rows[i][col] == y)
        realizers[labeling] = cls.labels[min(ids)]
    return tuple(points), realizers


def ref_verify_witness(points, cls):
    """Whether every labeling of the depth-d point array has a realizer,
    scanning the rows once per labeling."""
    d = (len(points) + 1).bit_length() - 1
    cols = [cls.point_index(p) for p in points]
    for labeling in product((0, 1), repeat=d):
        nodes = path_node_indices(labeling)
        if not any(all(row[cols[n - 1]] == y for n, y in zip(nodes, labeling))
                   for row in cls.rows):
            return False
    return True


def ref_max_adaptive_soa_mistakes(cls):
    rows, ws, memo = cls.rows, RefWorkspace(cls), {}

    def rec(full, soa):
        key = (full, soa)
        if key in memo:
            return memo[key]
        best = 0
        for col in range(len(cls.domain)):
            for y in (0, 1):
                nf = frozenset(i for i in full if rows[i][col] == y)
                if not nf:
                    continue
                mistake = ws.soa_prediction(soa, col) != y
                if mistake:
                    ns = frozenset(i for i in soa if rows[i][col] == y)
                elif nf == full:
                    continue
                else:
                    ns = soa
                best = max(best, int(mistake) + rec(nf, ns))
        memo[key] = best
        return best

    return rec(full_ids(cls), full_ids(cls))


class RefFiniteClassEngine:
    """The pool engine over frozenset states."""

    def __init__(self, cls):
        self.root = cls
        self.ws = RefWorkspace(cls)
        self.states = [full_ids(cls)]
        self.index = {self.states[0]: 0}

    @property
    def n_states(self):
        return len(self.states)

    def predict(self, sid, x):
        return self.ws.soa_prediction(self.states[sid], self.root.point_index(x))

    def restrict(self, sid, x, y):
        col = self.root.point_index(x)
        keep = frozenset(i for i in self.states[sid] if self.root.rows[i][col] == y)
        if not keep:
            return None
        if keep not in self.index:
            self.index[keep] = len(self.states)
            self.states.append(keep)
        return self.index[keep]


class RefExpertPool(OnlineLearner):
    """The expert pool over lists and per-round concatenation: keys as a
    list of tuples, every array concatenated as the pool grows, one
    restrict per mistaken cohort expert. Mass accounting is left out."""

    def __init__(self, component, *, seed):
        super().__init__()
        self.rng = np.random.default_rng(seed)
        self.engine = engine_for(component.cls)
        self.dim = component.dim
        self.keys = [()]
        self.state = np.zeros(1, dtype=np.int64)
        self.losses = np.zeros(1, dtype=np.int64)
        self.complexities = np.array([pool_complexity(self.dim, 0)])
        self._growable = [0] if self.dim > 0 else []
        self._extended_for = 0
        self._cohort = (1, 1)
        self._pending = None

    @property
    def chosen_index(self):
        return self._pending[1] if self._pending is not None else None

    def pool_extend(self):
        t = self.t
        if self._extended_for == t:
            return
        parents = self._growable
        start = len(self.keys)
        count = len(parents)
        if count:
            k_new = pool_complexity(self.dim, t)
            idx = np.asarray(parents, dtype=np.int64)
            self.state = np.concatenate([self.state, self.state[idx]])
            self.losses = np.concatenate([self.losses, self.losses[idx]])
            self.complexities = np.concatenate([self.complexities, np.full(count, k_new)])
            for p in parents:
                self.keys.append(self.keys[p] + (t,))
            self._growable = parents + [i for i in range(start, start + count)
                                        if len(self.keys[i]) < self.dim]
        self._extended_for = t
        self._cohort = (start, start + count)

    def predict(self, x):
        if self._pending is None or self._pending[0] != self.t:
            self.pool_extend()
            lut = np.array([self.engine.predict(s, x) for s in range(self.engine.n_states)])
            preds = lut[self.state]
            q = self.rng.exponential(size=len(self.keys))
            scores = self.losses + (self.complexities - q) * math.sqrt(self.t)
            j = int(np.argmin(scores))
            self._pending = (self.t, j, int(preds[j]), preds)
        return self._pending[2]

    def _absorb(self, x, y, predicted):
        preds = self._pending[3]
        self._pending = None
        self.losses += preds != y
        for i in range(*self._cohort):
            if preds[i] != y:
                nxt = self.engine.restrict(int(self.state[i]), x, y)
                if nxt is not None:
                    self.state[i] = nxt


# ---------------------------------------------------------------------------
# classes
# ---------------------------------------------------------------------------

@st.composite
def finite_classes(draw, max_points=8, max_rows=96):
    m = draw(st.integers(1, max_points))
    codes = draw(st.lists(st.integers(0, 2 ** m - 1), min_size=1,
                          max_size=min(max_rows, 2 ** m), unique=True))
    rows = [[(c >> j) & 1 for j in range(m)] for c in codes]
    return FiniteClass(tuple(f"p{j}" for j in range(m)), rows)


def random_class(rng, m, n):
    return FiniteClass(tuple(range(m)), rng.sample(list(product((0, 1), repeat=m)), n))


# single rows, full classes, thresholds, and random classes at the
# minimax cap of 8 points x 96 rows
FIXED_CLASSES = [
    FiniteClass(("a",), [[1]]),
    FiniteClass(("a", "b", "c"), [[0, 1, 1]]),
    FiniteClass.full_class(("a", "b", "c", "d", "e", "f")),
    FiniteClass.thresholds((1, 2, 3, 4, 5, 6, 7, 8), range(1, 10)),
] + [random_class(random.Random(seed), 8, 96) for seed in range(3)]


def corrupted_witnesses(w, cls):
    """(points, class) pairs near a witness: one node's point swapped for
    the next domain point, the class without one realizer row, and each
    level's points repeated from its first node."""
    m = len(cls.domain)
    for node in range(len(w.points)):
        swapped = cls.domain[(cls.point_index(w.points[node]) + 1) % m]
        yield w.points[:node] + (swapped,) + w.points[node + 1:], cls
    for label in list(dict.fromkeys(w.realizers.values()))[:3]:
        keep = [i for i, l in enumerate(cls.labels) if l != label]
        yield w.points, FiniteClass(cls.domain, [cls.rows[i] for i in keep],
                                    [cls.labels[i] for i in keep])
    # node i (1-based) sits on the level whose first node is 2^floor(log2 i)
    yield tuple(w.points[2 ** (i.bit_length() - 1) - 1]
                for i in range(1, len(w.points) + 1)), cls


def assert_oracles_match(cls):
    """Match every oracle against its reference; returns the verdicts of
    `verify_witness` on the corrupted witnesses."""
    d = ldim(cls)
    assert d == ref_ldim(cls)
    assert minimax_mistakes(cls) == ref_minimax(cls)
    verdicts = set()
    for depth in range(1, d + 2):
        w = shattered_tree_witness(cls, depth)
        ref = ref_witness(cls, depth)
        if ref is None:
            assert w is None
        else:
            assert (w.points, w.realizers) == ref
            assert verify_witness(w, cls) is ref_verify_witness(w.points, cls) is True
            for points, sub in corrupted_witnesses(w, cls):
                verdict = verify_witness(ShatteredTreeWitness(depth, points), sub)
                assert verdict is ref_verify_witness(points, sub)
                verdicts.add(verdict)
    return verdicts


def test_oracles_match_reference_on_fixed_classes():
    verdicts = set()
    for cls in FIXED_CLASSES:
        verdicts |= assert_oracles_match(cls)
    # the corruptions both keep and break a witness
    assert verdicts == {True, False}


def test_minimax_runs_without_the_dimension_recursion(monkeypatch):
    def forbidden(*args):
        raise AssertionError("minimax_mistakes called the dimension recursion")

    monkeypatch.setattr(littlestone._Workspace, "ldim", forbidden)
    monkeypatch.setattr(littlestone, "ldim", forbidden)
    for cls in FIXED_CLASSES:
        assert minimax_mistakes(cls) == ref_minimax(cls)


@settings(max_examples=25, deadline=None)
@given(finite_classes())
def test_oracles_match_reference_up_to_minimax_cap(cls):
    assert_oracles_match(cls)


@settings(max_examples=40, deadline=None)
@given(finite_classes(), st.randoms(use_true_random=False))
def test_restricts_down_to_one_row_match_reference(cls, rnd):
    ws = RefWorkspace(cls)
    vs, ids = VersionSpace.full(cls), full_ids(cls)
    target = cls.rows[rnd.randrange(len(cls))]
    cols = list(range(len(cls.domain)))
    rnd.shuffle(cols)
    for col in cols + cols[:1]:
        assert vs.ids == ids and vs.size == len(ids)
        assert vs.labels() == [cls.labels[i] for i in sorted(ids)]
        assert vs.ldim() == ws.ldim(ids)
        for c, x in enumerate(cls.domain):
            assert soa_prediction(vs, x) == ws.soa_prediction(ids, c)
        y = target[col]
        vs = vs.restrict(cls.domain[col], y)
        ids = frozenset(i for i in ids if cls.rows[i][col] == y)
    assert vs.ids == ids and len(ids) == 1


@settings(max_examples=30, deadline=None)
@given(finite_classes(max_points=5, max_rows=14))
def test_max_adaptive_soa_mistakes_matches_reference(cls):
    # its state is a pair of version spaces, so classes stay at the size
    # of the verification corpus
    assert max_adaptive_soa_mistakes(cls) == ref_max_adaptive_soa_mistakes(cls)


def test_pool_game_matches_reference_engine():
    cls = random_class(random.Random(3), 6, 24)
    comp = FamilyComponent(1, cls, 2)

    def play(reference):
        pool = ExpertPoolFpl(comp, seed=11)
        if reference:
            pool.engine = RefFiniteClassEngine(cls)
        rng = random.Random(5)
        out = []
        for _ in range(60):
            x = rng.randrange(6)
            yhat = pool.predict(x)
            pool.update(x, rng.getrandbits(1))
            states = [pool.engine.states[s] for s in pool.state]
            if not reference:
                states = [VersionSpace(cls, s).ids for s in states]
            out.append((yhat, states, pool.losses.copy()))
        return out, pool.engine.n_states

    (kernel, n_kernel), (ref, n_ref) = play(False), play(True)
    assert n_kernel == n_ref > 1
    for (yhat_k, states_k, losses_k), (yhat_r, states_r, losses_r) in zip(kernel, ref):
        assert yhat_k == yhat_r and states_k == states_r
        assert np.array_equal(losses_k, losses_r)


# (component, rounds, largest point)
POOL_CASES = {
    "dim0": (FamilyComponent(1, SingletonClass(threshold_hypothesis(3)), 0), 120, 5),
    "dim1": (FamilyComponent(1, FiniteClass((1, 2, 3, 4, 5), [[0] * 5, [1] * 5]), 1),
             120, 5),
    "dim2": (FamilyComponent(2, FiniteClass.thresholds((1, 2, 3, 4, 5), range(1, 7)), 2),
             120, 5),
    "support": (FamilyComponent(3, FiniteSupportClass((1, 2, 3, 4, 5), 2), 2), 120, 5),
    # the one dimension where a growable expert has a key of length 2
    "dim3": (FamilyComponent(4, FiniteClass.full_class((1, 2, 3)), 3), 40, 3),
}


def version_spaces(pool):
    states = getattr(pool.engine, "states", None)
    return [states[s] for s in pool.state] if states is not None else pool.state.tolist()


# the ids keep naming the per-round rule, the one the pool draws by
@pytest.mark.parametrize("case", list(POOL_CASES), ids=[f"{c}-per-round" for c in POOL_CASES])
def test_pool_matches_list_reference(case):
    # 120 rounds at dim 2 grow the pool to 7,261 experts, through thirteen
    # capacity doublings; 40 rounds at dim 3 to 10,701
    comp, rounds, top = POOL_CASES[case]
    pool = ExpertPoolFpl(comp, seed=21)
    ref = RefExpertPool(comp, seed=21)
    script = random.Random(case)
    for _ in range(rounds):
        x = script.randint(1, top)
        y = int(x >= 3) ^ (script.random() < 0.3)
        assert pool.predict(x) == ref.predict(x)
        assert pool.chosen_index == ref.chosen_index
        pool.update(x, y)
        ref.update(x, y)
        assert pool.pool_size == len(ref.keys)
        assert np.array_equal(pool.losses, ref.losses)
        assert np.array_equal(pool.complexities, ref.complexities)
        assert np.array_equal(pool.state, ref.state)     # interned in the same order
        assert version_spaces(pool) == version_spaces(ref)
    assert pool.keys == ref.keys
    assert pool.mistakes == ref.mistakes
    assert pool.engine.n_states == ref.engine.n_states
    assert pool.pool_size == sum(math.comb(rounds, j) for j in range(comp.dim + 1))
