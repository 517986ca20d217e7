"""Differential tests: the bitmask version-space kernel against frozenset
reference copies of the oracles, SOA and the pool engine, and the expert
pool against a pool that restricts expert by expert.

The references below keep version spaces as frozensets of row ids and
split them row by row, as the oracles did before the bitmask kernel, and
grow the expert pool by concatenation, restricting expert by expert and
scoring with `exponential(size=n)`, as the pool did before it restricted
each distinct cohort state once; `ref_verify_witness` scans the
rows once per labeling, as `verify_witness` did before it walked each row
to its leaf. They live here only, as the yardstick the kernel and the pool
must match exactly.
"""
import math
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nuolab.fpl import ExpertPoolFpl, pool_complexity
from nuolab.hypotheses import (FamilyComponent, FiniteClass, FiniteSupportClass,
                               SingletonClass, threshold_hypothesis)
from nuolab.learners import OnlineLearner
from nuolab import fpl, littlestone
from nuolab.littlestone import (ShatteredTreeWitness, VersionSpace, engine_for,
                                ldim, minimax_mistakes, path_node_indices,
                                shattered_tree_witness, soa_prediction, split,
                                verify_witness)
from nuolab.verification import max_adaptive_soa_mistakes

from chi_square import chi_square_sf


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


def mask_ids(mask):
    """The row ids of a kernel state, bit i set iff row i survives."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


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

    def leaders(self, n):
        """n independent draws of the current round's leader, each from a
        fresh Exponential(1) vector over every expert."""
        self.pool_extend()
        out = []
        for size in [1000] * (n // 1000) + [n % 1000]:
            q = self.rng.exponential(size=(size, len(self.keys)))
            scores = self.losses + (self.complexities - q) * math.sqrt(self.t)
            out += scores.argmin(axis=1).tolist()
        return out

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


# the benchmark's shapes: the 8-point x 80-row classes of perfbench's
# oracle-exact workload, and the minimax cap of 96 rows
BENCHMARK_SCALE = [random_class(random.Random(seed), 8, rows)
                   for seed, rows in [(3, 80), (4, 80), (5, 80), (6, 96), (7, 96)]]


def test_oracles_match_reference_at_benchmark_scale():
    for cls in BENCHMARK_SCALE:
        d = ldim(cls)
        assert (d, minimax_mistakes(cls)) == (ref_ldim(cls), ref_minimax(cls))
        w = shattered_tree_witness(cls, d)
        assert (w.points, w.realizers) == ref_witness(cls, d)
        assert verify_witness(w, cls) is ref_verify_witness(w.points, cls) is True
        # d is the reference dimension, so no depth-(d + 1) witness exists
        assert shattered_tree_witness(cls, d + 1) is None


def test_minimax_runs_without_the_dimension_recursion(monkeypatch):
    def forbidden(*args):
        raise AssertionError("minimax_mistakes called the dimension search")

    for name in ("ldim", "at_least", "splitting_column"):
        monkeypatch.setattr(littlestone._Workspace, name, forbidden)
    monkeypatch.setattr(littlestone, "ldim", forbidden)
    for cls in FIXED_CLASSES:
        assert minimax_mistakes(cls) == ref_minimax(cls)


def ref_column_masks(cls):
    return tuple(sum(1 << i for i, row in enumerate(cls.rows) if row[col])
                 for col in range(len(cls.domain)))


@settings(max_examples=40, deadline=None)
@given(finite_classes())
def test_column_masks_match_the_bitwise_definition(cls):
    assert littlestone.column_masks(cls) == ref_column_masks(cls)


def test_column_masks_of_one_row_and_of_none():
    one = FiniteClass(("a", "b", "c"), [[1, 0, 1]])
    assert littlestone.column_masks(one) == ref_column_masks(one) == (1, 0, 1)
    # one 0 mask per point, so an empty class restricts to no state
    empty = FiniteClass(("a", "b"), [])
    assert littlestone.column_masks(empty) == (0, 0)
    assert VersionSpace(empty).restrict(0, "a", 1) is None


# per class: the `_Workspace.at_least` calls and `splitting_column` scans
# of `ldim` and the witnesses at depths d and d + 1, and the `split` calls
# of `minimax_mistakes`. The 96-row random classes have dimension 6, their
# ceiling; the singletons (the all-zero row and one row per point) have
# Ldim 1 below a ceiling of 3, and the count-down class (6 points x 20
# rows) Ldim 3 below a ceiling of 4, so each search counts down. Deleting
# any one prune of either search raises some count above its pin: the
# 2^k-row ceiling, the per-side ceiling (a column whose smaller side holds
# fewer than 2^(k-1) rows is never asked), the bounds tables, the record
# of the column that settled a query (which the witness reads), the
# smaller side asked first, or (in the game) every split asked "both sides
# worth k - 1?" before any is asked "one side worth k?"
SINGLETONS = FiniteClass(tuple(range(8)), [[0] * 8] + [[int(i == j) for j in range(8)]
                                                       for i in range(8)])
COUNTDOWN = random_class(random.Random(36), 6, 20)
PRUNE_PINS = [(SINGLETONS, 7, 3, 1825), (COUNTDOWN, 43, 22, 98),
              *zip(FIXED_CLASSES[-3:], [129] * 3, [63] * 3, [331, 332, 325])]


def test_oracles_skip_the_second_side_of_a_split(monkeypatch):
    at_least, scan = littlestone._Workspace.at_least, littlestone._Workspace.splitting_column
    counts = Counter()

    def counting_at_least(ws, ids, k):
        counts["queries"] += 1
        return at_least(ws, ids, k)

    def counting_scan(ws, ids, k):
        counts["scans"] += 1
        return scan(ws, ids, k)

    def counting_split(ids, colmask):
        counts["splits"] += 1
        return split(ids, colmask)

    monkeypatch.setattr(littlestone._Workspace, "at_least", counting_at_least)
    monkeypatch.setattr(littlestone._Workspace, "splitting_column", counting_scan)
    for cls, queries, scans, splits in PRUNE_PINS:
        counts.clear()
        fresh = FiniteClass(cls.domain, cls.rows)   # a workspace with empty tables
        d = ldim(fresh)
        assert shattered_tree_witness(fresh, d) and shattered_tree_witness(fresh, d + 1) is None
        with monkeypatch.context() as patch:
            patch.setattr(littlestone, "split", counting_split)
            assert minimax_mistakes(fresh) == d
        assert (counts["queries"] <= queries and counts["scans"] <= scans
                and counts["splits"] <= splits), counts


class Forgetful(dict):
    """A bounds table that takes every write and answers no read."""

    def get(self, key, default=None):
        return default


# per class: the `splitting_column` scans of a witness at depth ldim(cls),
# built right after `ldim`. The search settles nearly every node of that
# tree at its depth and records the column, so the witness reads it; the
# count-down class has three nodes that the search settled only at a
# larger depth, which the witness scans for
WITNESS_SCANS = [(cls, 0) for cls in (*FIXED_CLASSES, SINGLETONS, *BENCHMARK_SCALE)] + [(COUNTDOWN, 3)]


def test_witness_reads_the_search_record(monkeypatch):
    scan, counts = littlestone._Workspace.splitting_column, Counter()

    def counting_scan(ws, ids, k):
        counts["scans"] += 1
        return scan(ws, ids, k)

    monkeypatch.setattr(littlestone._Workspace, "splitting_column", counting_scan)
    for cls, scans in WITNESS_SCANS:
        fresh, cleared = FiniteClass(cls.domain, cls.rows), FiniteClass(cls.domain, cls.rows)
        d = ldim(fresh)
        if d == 0:
            continue
        counts.clear()
        w = shattered_tree_witness(fresh, d)
        assert counts["scans"] == scans, (cls.rows, counts)
        # with no record to read, every node scans: the same points and realizers
        littlestone._workspace(cleared).lo = Forgetful()
        counts.clear()
        v = shattered_tree_witness(cleared, d)
        assert counts["scans"] >= 2 ** d - 1
        assert (v.points, v.realizers) == (w.points, w.realizers)


@settings(max_examples=25, deadline=None)
@given(finite_classes())
def test_oracles_match_reference_up_to_minimax_cap(cls):
    assert_oracles_match(cls)


@settings(max_examples=40, deadline=None)
@given(finite_classes(), st.randoms(use_true_random=False))
def test_restricts_down_to_one_row_match_reference(cls, rnd):
    ws = RefWorkspace(cls)
    vs, sid, ids = VersionSpace(cls), 0, full_ids(cls)
    target = cls.rows[rnd.randrange(len(cls))]
    cols = list(range(len(cls.domain)))
    rnd.shuffle(cols)
    for col in cols + cols[:1]:
        assert mask_ids(vs.states[sid]) == ids
        assert vs.ldim(sid) == ws.ldim(ids)
        for c, x in enumerate(cls.domain):
            assert vs.predict(sid, x) == ws.soa_prediction(ids, c)
            assert soa_prediction(littlestone._workspace(cls), vs.states[sid], c) == ws.soa_prediction(ids, c)
        y = target[col]
        sid = vs.restrict(sid, cls.domain[col], y)
        ids = frozenset(i for i in ids if cls.rows[i][col] == y)
    assert mask_ids(vs.states[sid]) == ids and len(ids) == 1


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
                states = [mask_ids(s) for s in states]
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


def shared_script(case, rounds, top):
    script = random.Random(case)
    xs = [script.randint(1, top) for _ in range(rounds)]
    return xs, [int(x >= 3) ^ (script.random() < 0.3) for x in xs]


# the ids keep naming the per-round rule, the one the pool draws by
@pytest.mark.parametrize("case", list(POOL_CASES), ids=[f"{c}-per-round" for c in POOL_CASES])
def test_pool_matches_list_reference(case):
    # 120 rounds at dim 2 grow the pool to 7,261 experts, and 40 rounds at
    # dim 3 to 10,701. The labels are shared and the losses are
    # counterfactual, so losses, states and keys match exactly whichever
    # expert leads; the leaders match in distribution (below)
    comp, rounds, top = POOL_CASES[case]
    pool = ExpertPoolFpl(comp, seed=21)
    ref = RefExpertPool(comp, seed=21)
    for x, y in zip(*shared_script(case, rounds, top)):
        pool.update(x, y)
        ref.update(x, y)
        assert pool.pool_size == len(ref.keys)
        assert np.array_equal(pool.losses, ref.losses)
        birth = np.searchsorted(pool._ends, np.arange(pool.pool_size), side="right")
        assert np.array_equal(pool._ks[birth], ref.complexities)
        assert np.array_equal(pool.state, ref.state)     # interned in the same order
        assert version_spaces(pool) == version_spaces(ref)
    assert pool.keys == ref.keys
    assert pool.engine.n_states == ref.engine.n_states
    assert pool.pool_size == sum(math.comb(rounds, j) for j in range(comp.dim + 1))


def two_sample_p(a, b):
    """The p-value of Pearson's chi-square test that two equal-size
    samples (Counters) come from one distribution; categories with fewer
    than 10 draws between them are pooled into one."""
    table, rare = [], [0, 0]
    for c in set(a) | set(b):
        if a[c] + b[c] < 10:
            rare[0] += a[c]
            rare[1] += b[c]
        else:
            table.append((a[c], b[c]))
    if sum(rare):
        table.append(tuple(rare))
    stat = sum((u - v) ** 2 / (u + v) for u, v in table)
    return chi_square_sf(stat, len(table) - 1) if len(table) > 1 else 1.0


LEADER_DRAWS = 2000


class Recorded:
    """A generator that records the name and arguments of each draw."""

    def __init__(self, generator, calls):
        self.generator, self.calls = generator, calls

    def __getattr__(self, name):
        draw = getattr(self.generator, name)

        def recorded(*args, **kwargs):
            self.calls.append((name, args))
            return draw(*args, **kwargs)
        return recorded


def leader_samples(comp, xs, ys, seed, resolutions=None):
    """LEADER_DRAWS draws of the leader's (birth round, state) in the last
    round of xs, from the lazy pool and from the reference's explicit
    scoring, after both played the rounds before it. The lazy draws score
    LEADER_DRAWS copies of the round's scorer inputs in one call, as a
    replay scores its rounds; its resolution draws are recorded in
    `resolutions`."""
    pool = ExpertPoolFpl(comp, seed=seed)
    ref = RefExpertPool(comp, seed=seed + 1)
    pool.play(xs[:-1], ys[:-1])
    for x, y in zip(xs[:-1], ys[:-1]):
        ref.update(x, y)
    inputs = []
    score = pool._lazy_leaders
    pool._lazy_leaders = lambda *args: inputs.append(args) or score(*args)
    pool.predict(xs[-1])
    del pool._lazy_leaders
    if resolutions is not None:
        pool._resolve_rng = Recorded(pool._resolve_rng, resolutions)
    ts, (slot, loss, k, mask), ranges, loss_of = inputs[0]
    n = LEADER_DRAWS
    copies = [np.tile(column, n) for column in ranges]
    copies[0] = np.repeat(np.arange(n), len(ranges[0]))
    block = (*(np.repeat(c, n, axis=0) for c in (slot, loss, k)), mask)
    leaders = pool._lazy_leaders(np.repeat(ts, n), block, copies,
                                 lambda i, members: loss_of(0, members))
    birth = np.searchsorted(pool._ends, np.arange(pool.pool_size), side="right")
    lazy = Counter(zip(birth[leaders].tolist(), pool.state[leaders].tolist()))
    explicit = Counter((ref.keys[j][-1] if ref.keys[j] else 0, int(ref.state[j]))
                       for j in ref.leaders(n))
    return lazy, explicit


# (component, rounds at which the leader is drawn, largest point)
DISTRIBUTION_CASES = {
    "dim1": (POOL_CASES["dim1"][0], (12, 40, 90), 5),
    "dim2": (POOL_CASES["dim2"][0], (12, 40, 90), 5),
    "dim3": (POOL_CASES["dim3"][0], (12, 24), 3),
    "support": (POOL_CASES["support"][0], (12, 40, 90), 5),
}


@pytest.mark.parametrize("exact", [8, 1], ids=["exact-8", "exact-1"])
@pytest.mark.parametrize("case", sorted(DISTRIBUTION_CASES))
def test_lazy_leader_matches_explicit_scoring(case, exact, monkeypatch):
    # the lazy pool's leader against every expert's draw, under shared
    # labels, at fixed seeds; with the exact set cut to the root and the
    # newborns, the thinned ranges carry most of the leaders
    monkeypatch.setattr(ExpertPoolFpl, "_EXACT", exact)
    comp, rounds, top = DISTRIBUTION_CASES[case]
    xs, ys = shared_script(case, max(rounds), top)
    for t in rounds:
        lazy, explicit = leader_samples(comp, xs[:t], ys[:t], seed=t)
        assert two_sample_p(lazy, explicit) > 1e-4, (t, lazy, explicit)
        thinned = sum(n for (birth, _), n in lazy.items() if exact <= birth < t)
        assert thinned > LEADER_DRAWS // 4 if exact == 1 else thinned < LEADER_DRAWS // 4


# a scheme whose complexity falls with the last key round, k_j = K - 6 ln j
# (the root keeps 1), with K setting the mass of 12 rounds of a
# dimension-2 pool to 0.6 + 1/e: the latest keys are the cheapest
LATE_KEYS = math.log(sum(j ** 7 for j in range(1, 13)) / 0.6)


def late_keys_complexity(dim, last_round):
    return 1.0 if last_round < 1 else LATE_KEYS - 6 * math.log(last_round)


@pytest.mark.parametrize("exact", [8, 1], ids=["exact-8", "exact-1"])
def test_lazy_leader_when_newborns_lead(exact, monkeypatch):
    # the two constants in a dimension-2 pool, labels 0 for 3 rounds, then
    # 1: the experts that first restricted at round a >= 4 hold the constant
    # 1 with loss a - 3, and the others the full class with loss 8, before
    # round 12. Round 12's 12 newborns hold their parents' losses, 1 to 8,
    # and the cheapest complexity, so their range, thinned at either E,
    # carries more than a quarter of the leaders
    monkeypatch.setattr(ExpertPoolFpl, "_EXACT", exact)
    monkeypatch.setattr(fpl, "pool_complexity", late_keys_complexity)
    monkeypatch.setitem(globals(), "pool_complexity", late_keys_complexity)
    comp = FamilyComponent(1, FiniteClass((1, 2, 3), [[0] * 3, [1] * 3]), 2)
    xs, ys = [1 + t % 3 for t in range(12)], [int(t >= 3) for t in range(12)]
    lazy, explicit = leader_samples(comp, xs, ys, seed=12)
    assert two_sample_p(lazy, explicit) > 1e-4, (lazy, explicit)
    assert sum(n for (birth, _), n in lazy.items() if birth == 12) > LEADER_DRAWS // 4


def test_lazy_leader_when_every_member_passes():
    # labels 0 for 7 rounds, then 1: the root, which predicts 0 from the
    # full class, errs from round 8 on, and so do cohorts 1-7, which never
    # restricted, and each round's newborns. Every expert born from round 8
    # on restricted to the constant 1 at birth. So at round 120 the range
    # [8, 16) has a smaller c than every exact expert by about 4, tau is
    # mostly at most 0, and every member of the range counts as past it
    comp = POOL_CASES["dim1"][0]
    xs = [1 + t % 5 for t in range(120)]
    ys = [int(t >= 7) for t in range(120)]
    resolutions = []
    lazy, explicit = leader_samples(comp, xs, ys, seed=8, resolutions=resolutions)
    assert two_sample_p(lazy, explicit) > 1e-4, (lazy, explicit)
    # past the first member, a range whose every member passes draws the
    # rest's count from Binomial(size - 1, 1)
    counts = [args for name, args in resolutions if name == "binomial"]
    everyone = [n + 1 for n, p in counts if p == 1.0]
    assert set(everyone) <= {8, 16, 32, 64} and everyone.count(8) > LEADER_DRAWS // 2
    assert sum(n for (birth, _), n in lazy.items() if 8 <= birth < 120) > LEADER_DRAWS // 2
