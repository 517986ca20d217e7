import gc
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from nuolab import littlestone
from nuolab.hypotheses import (DomainError, FiniteClass, FiniteSupportClass,
                               SingletonClass, threshold_hypothesis)
from nuolab.littlestone import (CapacityError, ShatteredTreeWitness,
                                VersionSpace, engine_for, ldim,
                                minimax_mistakes, path_node_indices,
                                shattered_tree_witness, verify_witness)


@st.composite
def finite_classes(st_draw, max_points=4, max_rows=10):
    m = st_draw(st.integers(1, max_points))
    all_rows = list(product((0, 1), repeat=m))
    rows = st_draw(st.lists(st.sampled_from(all_rows), min_size=1,
                            max_size=min(max_rows, len(all_rows)), unique=True))
    return FiniteClass(("a", "b", "c", "d")[:m], rows)


def test_node_index_formula():
    # independent oracle: i_t = 2^(t-1) + sum_{j<t} y_j 2^(t-1-j)
    for d in (1, 2, 3, 4):
        for labeling in product((0, 1), repeat=d):
            expected = [2 ** (t - 1) + sum(labeling[j] * 2 ** (t - 2 - j)
                                           for j in range(t - 1))
                        for t in range(1, d + 1)]
            assert path_node_indices(labeling) == expected


class TestLdim:
    def test_singleton_is_zero(self):
        assert ldim(FiniteClass(("a", "b"), [[0, 1]])) == 0

    def test_full_class_on_three_points(self):
        assert ldim(FiniteClass.full_class(("a", "b", "c"))) == 3

    def test_thresholds(self):
        assert ldim(FiniteClass.thresholds((1, 2, 3), (1, 2, 3, 4))) == 2

    def test_empty_class_is_error(self):
        with pytest.raises(DomainError):
            ldim(FiniteClass(("a",), []))

    @settings(max_examples=80, deadline=None)
    @given(finite_classes())
    def test_log2_size_ceiling(self, cls):
        assert ldim(cls) <= len(cls).bit_length() - 1

    @settings(max_examples=80, deadline=None)
    @given(finite_classes())
    def test_minimax_log2_size_ceiling(self, cls):
        # the halving learner's bound, which the game recursion prunes by
        assert minimax_mistakes(cls) <= len(cls).bit_length() - 1

    @settings(max_examples=80, deadline=None)
    @given(finite_classes(), st.integers(0, 3))
    def test_restriction_monotone_and_progresses(self, cls, pi):
        x = cls.domain[pi % len(cls.domain)]
        d = ldim(cls)
        vs = VersionSpace(cls)
        assert vs.ldim(0) == d
        subs = [vs.restrict(0, x, 0), vs.restrict(0, x, 1)]
        dims = [vs.ldim(sid) for sid in subs if sid is not None]
        assert all(v <= d for v in dims)
        if d >= 1 and len(dims) == 2:
            assert min(dims) <= d - 1


class TestWitness:
    def test_full_class_depth_two(self):
        cls = FiniteClass.full_class(("a", "b"))
        w = shattered_tree_witness(cls, 2)
        assert w.points == ("a", "b", "b")
        assert verify_witness(w, cls)
        assert set(w.realizers) == set(product((0, 1), repeat=2))

    def test_singleton_has_no_witness(self):
        assert shattered_tree_witness(FiniteClass(("a",), [[0]]), 1) is None

    def test_thresholds_depth_three_none(self):
        cls = FiniteClass.thresholds((1, 2, 3), (1, 2, 3, 4))
        assert shattered_tree_witness(cls, 3) is None

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            shattered_tree_witness(FiniteClass.full_class(("a",)), 0)

    def test_verify_rejects_unshattered(self):
        # {00,01,10} on (a,b): labeling (1,1) has no realizer for points (a,b,b)
        cls = FiniteClass(("a", "b"), [[0, 0], [0, 1], [1, 0]])
        w = ShatteredTreeWitness(2, ("a", "b", "b"))
        assert not verify_witness(w, cls)

    def test_verify_depth_one(self):
        cls = FiniteClass.full_class(("a", "b"))
        assert verify_witness(ShatteredTreeWitness(1, ("a",)), cls)

    def test_structure_error(self):
        with pytest.raises(DomainError, match="needs 3 points, got 2"):
            ShatteredTreeWitness(2, ("a", "b"))

    def test_realizers_are_consistent(self):
        cls = FiniteClass.thresholds((1, 2, 3), (1, 2, 3, 4))
        w = shattered_tree_witness(cls, 2)
        for labeling, label in w.realizers.items():
            h = cls.hypothesis(label)
            for node, y in zip(path_node_indices(labeling), labeling):
                assert h(w.points[node - 1]) == y

    @settings(max_examples=50, deadline=None)
    @given(finite_classes())
    def test_witness_exists_exactly_up_to_dim(self, cls):
        d = ldim(cls)
        if d >= 1:
            w = shattered_tree_witness(cls, d)
            assert w is not None and verify_witness(w, cls)
        assert shattered_tree_witness(cls, d + 1) is None


class TestMinimax:
    def test_examples(self):
        assert minimax_mistakes(FiniteClass.full_class(("a", "b"))) == 2
        assert minimax_mistakes(FiniteClass(("a",), [[0]])) == 0
        thr = FiniteClass.thresholds((1, 2, 3), (1, 2, 3, 4))
        assert minimax_mistakes(thr) == 2 == ldim(thr)

    def test_capacity_error(self):
        # a class at both caps is answered; one over either cap raises
        points, rows = littlestone.MINIMAX_MAX_POINTS, littlestone.MINIMAX_MAX_ROWS
        assert (points, rows) == (8, 96)
        full = list(product((0, 1), repeat=points))
        at_caps = FiniteClass(tuple(range(points)), full[:rows])
        assert minimax_mistakes(at_caps) == ldim(at_caps)
        over_rows = FiniteClass(tuple(range(points)), full[:rows + 1])
        over_points = FiniteClass.thresholds(tuple(range(points + 1)), (0, 1))
        for cls in (over_rows, over_points, FiniteClass.full_class(tuple("abcdefghij"))):
            with pytest.raises(CapacityError):
                minimax_mistakes(cls)

    @settings(max_examples=60, deadline=None)
    @given(finite_classes())
    def test_equals_dimension(self, cls):
        assert minimax_mistakes(cls) == ldim(cls)


def _singletons(n):
    # the all-zero row and one row per point labelling it alone 1: Ldim 1,
    # but a chain of n splits, each peeling one row, so the caps count n
    return FiniteClass(tuple(range(n)),
                       [[0] * n] + [[int(i == j) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("oracle", [ldim, lambda cls: shattered_tree_witness(cls, 1),
                                    lambda cls: VersionSpace(cls).ldim(0) >= 0],
                         ids=["ldim", "witness", "kernel"])
def test_dimension_oracles_cap_rows_and_depth(oracle):
    # a class at the caps is answered; one just over them is refused before
    # any search, so it never gets a workspace (the version-space kernel
    # refuses it at construction)
    wide = littlestone.MAX_DEPTH + 1  # 2 rows: one level deep on any number of points
    at_caps = [_singletons(littlestone.MAX_DEPTH),
               FiniteClass.full_class(tuple(range(10))),
               FiniteClass(tuple(range(wide)), [[0] * wide, [1] * wide])]
    assert len(at_caps[1]) == littlestone.MAX_ROWS
    for cls in at_caps:
        assert oracle(cls)
    over_caps = [_singletons(littlestone.MAX_DEPTH + 1),
                 FiniteClass.full_class(tuple(range(11)))]
    for cls in over_caps:
        with pytest.raises(CapacityError, match="exceeds caps"):
            oracle(cls)
        assert cls not in littlestone._workspaces


class TestVersionSpace:
    def test_restrict_and_labels(self):
        cls = FiniteClass.full_class(("a", "b"))
        vs = VersionSpace(cls)
        sid = vs.restrict(0, "a", 1)
        assert vs.n_states == 2 and vs.states[sid] == 0b1100
        assert [cls.labels[i] for i in range(len(cls)) if vs.states[sid] >> i & 1] == [2, 3]
        # interned: the same restriction gives the same state
        assert vs.restrict(0, "a", 1) == sid and vs.n_states == 2

    @pytest.mark.parametrize("bad", [-1, True, 2, 1.0])
    @pytest.mark.parametrize("cls", [
        FiniteClass.full_class(("a", "b")),
        FiniteSupportClass(("a", "b"), 1),
        SingletonClass(threshold_hypothesis(2)),
    ], ids=["finite", "support", "singleton"])
    def test_restrict_refuses_non_labels(self, cls, bad):
        # -1 and True once indexed the (zeros, ones) split as label 1, and 2
        # raised a bare IndexError; the support engine read them all as 0
        engine = engine_for(cls)
        x = "a" if isinstance(cls, (FiniteClass, FiniteSupportClass)) else 1
        with pytest.raises(DomainError, match=rf"^label must be 0 or 1, got {bad!r}$"):
            engine.restrict(0, x, bad)
        assert engine.n_states == 1

    def test_support_engine_matches_its_materialized_class(self):
        # the closed form against the bitset kernel of the same class, for
        # every budget over 1-5 points: every point's prediction in every
        # state reached, and which restrictions, by either label, empty it
        for m in range(1, 6):
            for budget in range(m + 1):
                cls = FiniteSupportClass(tuple(range(1, m + 1)), budget)
                support, kernel = engine_for(cls), VersionSpace(cls.materialize())
                rng = random.Random(10 * m + budget)
                states = (0, 0)
                for _ in range(40):
                    assert ([support.predict(states[0], x) for x in cls.domain]
                            == [kernel.predict(states[1], x) for x in cls.domain])
                    x, y = rng.choice(cls.domain), rng.getrandbits(1)
                    moved = support.restrict(states[0], x, y), kernel.restrict(states[1], x, y)
                    assert (moved[0] is None) == (moved[1] is None)
                    states = states if moved[0] is None else moved

    def test_workspace_freed_with_its_class(self):
        gc.collect()
        before = len(littlestone._workspaces)
        cls = FiniteClass.full_class(("a", "b", "c"))
        assert ldim(cls) == 3
        assert len(littlestone._workspaces) == before + 1
        del cls
        gc.collect()
        assert len(littlestone._workspaces) == before

    def test_cached_dim_matches_recomputation(self):
        cls = FiniteClass.thresholds((1, 2, 3), (1, 2, 3, 4))
        vs = VersionSpace(cls)
        sid = vs.restrict(0, 2, 1)
        d = vs.ldim(sid)
        rebuilt = FiniteClass((1, 2, 3), [row for i, row in enumerate(cls.rows)
                                          if vs.states[sid] >> i & 1])
        assert d == ldim(rebuilt)


EMPTY = FiniteClass(("a", "b"), [])

# the refusals of an empty class or a depth below 1, each where it is raised:
# an empty class's version space (state 0 holds no row) has no dimension
# and no prediction
REFUSALS = {
    "state-dimension-of-empty": (lambda: VersionSpace(EMPTY).ldim(0), DomainError,
                                 "Ldim undefined for the empty class"),
    "prediction-of-empty": (lambda: VersionSpace(EMPTY).predict(0, "a"), DomainError,
                            "no prediction from an empty version space"),
    "engine-of-no-class": (lambda: engine_for([[0, 1]]), TypeError,
                           "no version-space engine for class type list"),
    "witness-of-depth-0": (lambda: ShatteredTreeWitness(0, ()), DomainError,
                           "witness depth must be >= 1"),
    "witness-of-empty": (lambda: shattered_tree_witness(EMPTY, 1), DomainError,
                         "no witness for an empty class"),
    "game-of-empty": (lambda: minimax_mistakes(EMPTY), DomainError,
                      "mistake game undefined for the empty class"),
}


@pytest.mark.parametrize("build, error, message", REFUSALS.values(), ids=REFUSALS)
def test_refusals(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message
