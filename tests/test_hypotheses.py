import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from nuolab.hypotheses import (MATERIALIZE_MAX_ROWS, DiscreteMeasure, DomainError,
                               ExplicitListFamily, FiniteClass,
                               FiniteSupportClass, FiniteSupportFamily,
                               NaturalThresholdFamily, RationalThresholdFamily,
                               constant_hypothesis, format_point, rationals_unit_interval,
                               row_hypothesis)
from nuolab.littlestone import CapacityError, VersionSpace, ldim
from nuolab.specs import (class_from_config, comparison_from_config, family_from_config,
                          hypothesis_from_config, measure_from_config, parse_point)


def mask_ids(mask):
    """The row ids a version-space state keeps, in increasing order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@st.composite
def finite_classes(st_draw, max_points=4, max_rows=10):
    m = st_draw(st.integers(1, max_points))
    all_rows = list(product((0, 1), repeat=m))
    rows = st_draw(st.lists(st.sampled_from(all_rows), min_size=1,
                            max_size=min(max_rows, len(all_rows)), unique=True))
    return FiniteClass(("a", "b", "c", "d")[:m], rows)


# JSON points, each with the point it reads as: a rational is written "n/d",
# and a string point never holds "/", which the reader takes for a rational
json_points = st.one_of(
    st.integers(-50, 50).map(lambda n: (n, n)),
    st.fractions(max_denominator=64).map(lambda q: (format_point(q), q)),
    st.text(st.characters(codec="utf-8", exclude_characters="/"), max_size=4)
    .map(lambda text: (text, text)))


def through_json(spec):
    """`spec` as the reader gets it from a file: written and parsed as JSON."""
    return json.loads(json.dumps(spec))


@st.composite
def class_specs(draw, min_rows=0):
    """A class spec and the class that it describes."""
    domain = draw(st.lists(json_points, min_size=1, max_size=5, unique_by=lambda p: p[1]))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 1)] * len(domain)),
                         min_size=min_rows, max_size=8, unique=True))
    labels = draw(st.none() | st.lists(st.integers(0, 99) | st.text(max_size=3),
                                       min_size=len(rows), max_size=len(rows),
                                       unique=True))
    spec = {"domain": [raw for raw, _ in domain], "hypotheses": [list(r) for r in rows]}
    if labels is not None:
        spec["labels"] = labels
    return through_json(spec), FiniteClass([p for _, p in domain], rows, labels=labels)


@st.composite
def family_specs(draw):
    """A family spec and the family that it describes."""
    kind = draw(st.sampled_from(["explicit-list", "finite-support",
                                 "rational-thresholds", "natural-thresholds"]))
    if kind == "explicit-list":
        classes = draw(st.lists(class_specs(min_rows=1), min_size=1, max_size=3))
        return ({"family": kind, "params": {"classes": [spec for spec, _ in classes]}},
                ExplicitListFamily([cls for _, cls in classes]))
    if kind == "finite-support":
        domain = draw(st.lists(json_points, min_size=1, max_size=6, unique_by=lambda p: p[1]))
        return ({"family": kind, "params": {"domain": [raw for raw, _ in domain]}},
                FiniteSupportFamily([p for _, p in domain]))
    family = RationalThresholdFamily() if kind == "rational-thresholds" \
        else NaturalThresholdFamily()
    return {"family": kind, **draw(st.sampled_from([{}, {"params": {}}]))}, family


def typed(values):
    return [(type(v), v) for v in values]


def same_class(one, two):
    return (typed(one.domain) == typed(two.domain) and one.rows == two.rows
            and one.labels == two.labels)


class TestConfigRoundTrips:
    """Specs written as JSON text read back as the objects they describe."""

    @settings(max_examples=80, deadline=None)
    @given(class_specs())
    def test_finite_class(self, spec_and_class):
        spec, cls = spec_and_class
        assert same_class(class_from_config(spec), cls)

    @settings(max_examples=40, deadline=None)
    @given(family_specs())
    def test_family(self, spec_and_family):
        spec, family = spec_and_family
        again = family_from_config(through_json(spec))
        assert type(again) is type(family)
        if isinstance(family, ExplicitListFamily):
            assert all(same_class(a, b) for a, b in zip(again.classes, family.classes))
            assert len(again.classes) == len(family.classes)
            assert again.dims == family.dims
        if isinstance(family, FiniteSupportFamily):
            assert typed(again.domain) == typed(family.domain)
        for n in (1, 2, 5):
            assert again.component(n).dim == family.component(n).dim

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(json_points, st.integers(1, 1000)), min_size=1, max_size=6,
                    unique_by=lambda pw: pw[0][1]))
    def test_discrete_measure(self, weighted):
        total = sum(w for _, w in weighted)
        spec = {"support": [raw for (raw, _), _ in weighted],
                "mass": [f"{w}/{total}" for _, w in weighted]}
        again = measure_from_config(through_json(spec))
        assert typed(again.support) == typed([p for (_, p), _ in weighted])
        assert again.masses == tuple(Fraction(w, total) for _, w in weighted)


class TestPoints:
    def test_parse_round_trip(self):
        for raw, expected in [(3, 3), ("a", "a"), ("3/16", Fraction(3, 16)),
                              ("7", "7")]:
            assert parse_point(raw) == expected
        assert parse_point(format_point(Fraction(1, 2))) == Fraction(1, 2)

    def test_rejects_bool_and_float(self):
        with pytest.raises(DomainError):
            parse_point(True)
        with pytest.raises(DomainError):
            parse_point(0.5)

    @pytest.mark.parametrize("point, read", [("1/2", Fraction(1, 2)), ("a/b", None),
                                             ("/", None)], ids=["1/2", "a/b", "/"])
    def test_string_holding_slash_has_no_json_form(self, point, read):
        # the reader takes every string holding "/" for a rational, so no
        # spec names such a string point: it reads as a number or is refused
        specs = [{"domain": [point, "a"], "hypotheses": [[0, 1]]},
                 {"family": "finite-support", "params": {"domain": [point, "a"]}},
                 {"support": [point, "a"], "mass": ["1/2", "1/2"]}]
        for reader, spec in zip((class_from_config, family_from_config,
                                 measure_from_config), specs):
            if read is None:
                with pytest.raises(DomainError, match=f"bad rational point {point!r}"):
                    reader(spec)
            else:
                obj = reader(spec)
                points = getattr(obj, "domain", None) or obj.support
                assert typed(points) == typed([read, "a"])


class TestFiniteClass:
    def test_duplicate_rows_rejected(self):
        with pytest.raises(DomainError):
            FiniteClass(("a", "b"), [[0, 1], [0, 1]])

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            FiniteClass(("a", "b"), [[0, 1, 1]])
        with pytest.raises(DomainError):
            FiniteClass(("a", "a"), [[0, 1]])
        with pytest.raises(DomainError):
            FiniteClass(("a",), [[2]])

    def test_rejects_fractional_value_before_converting(self):
        with pytest.raises(DomainError, match=r"row values must be 0/1: \(1.7,\)"):
            FiniteClass(("a",), [[1.7]])

    @pytest.mark.parametrize("value", [True, 1.0, "1"])
    def test_spec_rejects_values_that_are_not_int_labels(self, value):
        spec = {"domain": ["a", "b"], "hypotheses": [[0, 0], [value, 0]]}
        with pytest.raises(DomainError, match=f"row values must be 0 or 1, got {value!r}"):
            class_from_config(spec)

    def test_spec_beyond_the_caps_is_refused_by_its_shape(self):
        # a class read for a capped learner or oracle is refused by its row
        # count and domain size before its values, which here are no labels
        spec = {"domain": [1, 2], "hypotheses": [["a", "b"]] * 1025}
        with pytest.raises(CapacityError, match="instance 1025 rows x 2 points exceeds caps"):
            class_from_config(spec)
        # a row of another length leaves the refusal to the values
        with pytest.raises(DomainError, match="row values must be 0 or 1, got 'a'"):
            class_from_config({**spec, "hypotheses": [["a"]] * 1025})
        # a comparison class is read by its rows alone, and has no cap
        rows = [[i >> j & 1 for j in range(11)] for i in range(1025)]
        assert len(comparison_from_config({"domain": list(range(11)), "hypotheses": rows})) == 1025

    # restriction lives on the version-space kernel, whose states are row
    # masks of the root: bit i set iff row i survives
    def test_restrict_full_class(self):
        cls = FiniteClass.full_class(("a", "b"))
        vs = VersionSpace(cls)
        sub = vs.states[vs.restrict(0, "a", 0)]
        assert sorted(cls.rows[i] for i in mask_ids(sub)) == [(0, 0), (0, 1)]

    def test_restrict_contradiction_is_empty(self):
        cls = FiniteClass.full_class(("a", "b"))
        vs = VersionSpace(cls)
        assert vs.restrict(vs.restrict(0, "a", 0), "a", 1) is None

    def test_restrict_thresholds(self):
        # cuts 1..4 over {1,2,3}: h_k(2) = 1 iff k <= 2, so exactly thr-1, thr-2
        cls = FiniteClass.thresholds((1, 2, 3), (1, 2, 3, 4))
        vs = VersionSpace(cls)
        sub = vs.states[vs.restrict(0, 2, 1)]
        assert [cls.labels[i] for i in mask_ids(sub)] == ["thr-1", "thr-2"]

    def test_restrict_unknown_point(self):
        cls = FiniteClass.full_class(("a",))
        with pytest.raises(DomainError):
            VersionSpace(cls).restrict(0, "z", 0)

    @settings(max_examples=60, deadline=None)
    @given(finite_classes(), st.integers(0, 3))
    def test_restriction_partitions(self, cls, pi):
        x = cls.domain[pi % len(cls.domain)]
        vs = VersionSpace(cls)
        sizes = [len(mask_ids(vs.states[sid])) if sid is not None else 0
                 for sid in (vs.restrict(0, x, 0), vs.restrict(0, x, 1))]
        assert sum(sizes) == len(cls)

    @settings(max_examples=60, deadline=None)
    @given(finite_classes(), st.integers(0, 3), st.integers(0, 3),
           st.integers(0, 1), st.integers(0, 1))
    def test_restriction_commutes(self, cls, pi, pj, y1, y2):
        a = cls.domain[pi % len(cls.domain)]
        b = cls.domain[pj % len(cls.domain)]
        vs = VersionSpace(cls)

        def both(first, second):
            sid = vs.restrict(0, *first)
            return None if sid is None else vs.restrict(sid, *second)

        # interned states: the same surviving rows get the same id
        assert both((a, y1), (b, y2)) == both((b, y2), (a, y1))

    def test_config_round_trip(self):
        cls = FiniteClass.thresholds((1, 2, 3), (1, 2))
        spec = {"domain": [1, 2, 3], "hypotheses": [[1, 1, 1], [0, 1, 1]],
                "labels": ["thr-1", "thr-2"]}
        assert same_class(class_from_config(spec), cls)


class TestFamilies:
    def test_finite_support_component(self):
        fam = FiniteSupportFamily(tuple(range(1, 6)))
        comp = fam.component(1)
        assert comp.dim == 1
        # cross-check the declared dimension against the generic recursion
        assert ldim(comp.cls.materialize()) == 1

    def test_finite_support_dims_match_recursion(self):
        fam = FiniteSupportFamily(tuple(range(1, 6)))
        for n in range(1, 7):
            comp = fam.component(n)
            assert comp.dim == min(n, 5)
            assert ldim(comp.cls.materialize()) == comp.dim

    def test_materialize_cap(self):
        # 1 + 20 + 190 + 1140 + 4845 + 15504 rows; the cap is checked first
        big = FiniteSupportClass(tuple(range(20)), 5)
        assert big.size() == 21700 > MATERIALIZE_MAX_ROWS
        with pytest.raises(DomainError, match="refusing to materialize 21700 rows"):
            big.materialize()

    def test_rational_threshold_enumeration(self):
        fam = RationalThresholdFamily()
        cuts = [fam.cut(n) for n in range(1, 10)]
        assert cuts == [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3),
                        Fraction(2, 3), Fraction(1, 4), Fraction(2, 5),
                        Fraction(3, 5), Fraction(3, 4)]
        assert all(fam.component(n).dim == 0 for n in (1, 5, 9))

    def test_rational_enumeration_no_repeats(self):
        gen = rationals_unit_interval()
        seen = [next(gen) for _ in range(200)]
        assert len(set(seen)) == 200
        assert all(0 <= q <= 1 for q in seen)

    def test_explicit_list_family(self):
        fam = ExplicitListFamily([FiniteClass.full_class(("a",)),
                                  FiniteClass.full_class(("a", "b"))])
        comp = fam.component(2)
        assert len(comp.cls) == 4 and comp.dim == 2
        # total beyond the list: repeats the last class
        assert fam.component(9).cls is comp.cls

    def test_repeated_calls_identical(self):
        fam = FiniteSupportFamily(("a", "b", "c"))
        assert fam.component(2) == fam.component(2)

    def test_index_must_be_positive(self):
        with pytest.raises(DomainError):
            NaturalThresholdFamily().component(0)

    def test_natural_thresholds(self):
        fam = NaturalThresholdFamily()
        h = fam.component(1).cls.hypothesis  # threshold at 0: all ones
        assert h(1) == 1 and h(50) == 1
        h3 = fam.component(4).cls.hypothesis  # threshold at 3
        assert (h3(2), h3(3)) == (0, 1)

    def test_evaluation_determinism(self):
        fam = FiniteSupportFamily(tuple(range(1, 8)))
        comp = fam.component(2)
        learnable = comp.cls.materialize()
        probe = [1, 4, 7, 4, 1]
        for h in map(learnable.hypothesis, learnable.labels[:10]):
            assert [h(x) for x in probe] == [h(x) for x in probe]

    def test_family_config_round_trip(self):
        fam = family_from_config({"family": "finite-support",
                                  "params": {"domain": [1, 2, 3]}})
        assert isinstance(fam, FiniteSupportFamily)
        assert fam.domain == (1, 2, 3)
        fam = family_from_config({"family": "finite-support", "params": {"domain": ["1/2"]}})
        assert typed(fam.domain) == [(Fraction, Fraction(1, 2))]


class TestHypothesisSpecs:
    def test_forms(self):
        assert hypothesis_from_config({"kind": "constant", "value": 1})(0) == 1
        thr = hypothesis_from_config({"kind": "threshold", "value": "1/2"})
        assert (thr(Fraction(1, 4)), thr(Fraction(3, 4))) == (0, 1)
        supp = hypothesis_from_config({"kind": "support", "points": [2, 5]})
        assert (supp(2), supp(3)) == (1, 0)
        row = hypothesis_from_config({"kind": "row", "domain": ["a", "b"],
                                      "values": [1, 0]})
        assert (row("a"), row("b")) == (1, 0)
        with pytest.raises(DomainError):
            hypothesis_from_config({"kind": "nope"})


class TestDiscreteMeasure:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(DomainError):
            DiscreteMeasure(("a", "b"), [Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(DomainError):
            DiscreteMeasure(("a",), [Fraction(0)])

    def test_a_long_sum_is_refused_without_printing_it(self):
        # the sum's denominator has 6,001 digits, more than str() prints of an int
        q = 10 ** 3000
        with pytest.raises(DomainError, match="masses sum to less than 1"):
            DiscreteMeasure(("a", "b"), [Fraction(1, q + 1), Fraction(1, q + 3)])

    def test_point_mass(self):
        m = DiscreteMeasure.point_mass("a")
        rng = random.Random(0)
        assert all(m.sample(rng) == "a" for _ in range(100))

    def test_geometric_exact_masses(self):
        m = DiscreteMeasure.geometric(tuple(range(1, 21)))
        assert m.mass(1) == Fraction(1, 2)
        assert m.mass(19) == Fraction(1, 2 ** 19)
        assert m.mass(20) == Fraction(1, 2 ** 19)   # residual folded in
        assert sum(m.masses) == 1

    def test_uniform_frequency(self):
        m = DiscreteMeasure.uniform(("a", "b"))
        rng = random.Random(7)
        freq = sum(m.sample(rng) == "a" for _ in range(10_000)) / 10_000
        assert 0.45 <= freq <= 0.55

    def test_geometric_frequency(self):
        m = DiscreteMeasure.geometric(tuple(range(1, 21)))
        rng = random.Random(11)
        freq = sum(m.sample(rng) == 1 for _ in range(10_000)) / 10_000
        assert 0.46 <= freq <= 0.54

    def test_sampling_reproducible(self):
        m = DiscreteMeasure.geometric(tuple(range(1, 21)))
        draws = lambda: [m.sample(random.Random(42)) for _ in range(1)]
        one = [m.sample(random.Random(5)) for _ in range(50)]
        two = [m.sample(random.Random(5)) for _ in range(50)]
        assert one == two

    def test_config_round_trip(self):
        m = measure_from_config({"support": ["a", "b"], "mass": ["1/2", "1/2"]})
        assert m.support == ("a", "b") and m.masses == (Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize("mass, refused", [
        ("1e-999", False), ("1e-1000", True), ("1E+1_000", True),
        ("1e-\u0661\u0660\u0660\u0660", True),
        ("0." + "0" * 97 + "1", False), ("0." + "0" * 98 + "1", True),
    ], ids=["exponent-999", "exponent-1000", "underscored-exponent", "arabic-indic-exponent",
            "100-characters", "101-characters"])
    def test_mass_string_bounds(self, mass, refused):
        # Fraction("1e-30000000") builds 10**30000000: a mass string of more than
        # 100 characters, or with an exponent of 1000 or more, is refused unread
        message = "must be a number, or a string" if refused else "masses sum to less than 1"
        with pytest.raises(DomainError, match=message):
            measure_from_config({"support": ["a", "b"], "mass": [mass, "1/2"]})


# the constructors' own refusals, which the spec reader's checks reach first
REFUSALS = {
    "constant-not-a-label": (lambda: constant_hypothesis(2), "constant must be 0 or 1, got 2"),
    "row-duplicate-point": (lambda: row_hypothesis([1, 1], [0, 1]),
                            "duplicate points in row hypothesis domain"),
    "support-negative-budget": (lambda: FiniteSupportClass((1, 2), -1),
                                "support budget must be >= 0"),
    "support-duplicate-point": (lambda: FiniteSupportClass((1, 1), 1),
                                "duplicate points in domain"),
    "explicit-list-empty": (lambda: ExplicitListFamily([]),
                            "explicit-list family needs at least one class"),
    "finite-support-empty": (lambda: FiniteSupportFamily(()),
                             "finite-support family needs a non-empty domain"),
    "measure-lengths": (lambda: DiscreteMeasure(("a", "b"), [1]),
                        "support and mass lengths differ"),
    "measure-duplicate-point": (lambda: DiscreteMeasure(("a", "a"), ["1/2", "1/2"]),
                                "duplicate support points"),
    "measure-empty": (lambda: DiscreteMeasure((), []), "empty support"),
    "geometric-empty": (lambda: DiscreteMeasure.geometric(()),
                        "geometric measure needs at least one point"),
}


@pytest.mark.parametrize("build, message", REFUSALS.values(), ids=REFUSALS)
def test_constructors_refuse_bad_input(build, message):
    with pytest.raises(DomainError) as caught:
        build()
    assert str(caught.value) == message
