"""The JSON spec format, read in one place: explicit classes, hypotheses,
class families, measures, learners, natures and regret configs.

Each field of a spec is read through `Spec.field`, which names a missing
key and refuses a value of the wrong type or shape as the field is read,
with a `DomainError`. Nothing is converted: 20.5 is not read as 20, True
not as 1, and "20" does not fail mid-run.
"""
from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import bounds, fpl, learners, nature
from .hypotheses import (ClassFamily, DiscreteMeasure, DomainError,
                         ExplicitListFamily, FiniteClass, FiniteSupportFamily,
                         Hypothesis, NaturalThresholdFamily, Point,
                         RationalThresholdFamily, constant_hypothesis, is_label, quoted,
                         row_hypothesis, support_hypothesis,
                         threshold_hypothesis)
from .littlestone import check_dimension_caps
from .runner import REAL_THRESHOLDS, TrialStats, play_seeded, regret, regret_curve


def load_spec(value: str):
    """The JSON value of `value`: inline JSON if it starts with "{",
    otherwise the contents of the file it names. A refusal names the file,
    or says "the inline spec", whose text may be of any length."""
    inline = value.lstrip().startswith("{")
    source = "the inline spec" if inline else repr(value)

    def refuse(name: str):      # json reads NaN, Infinity and -Infinity unless told not to
        raise DomainError(f"bad JSON in {source}: {name} is not a JSON number")

    def finite(text: str) -> float:     # and reads 1e999 as inf
        number = float(text)
        if not math.isfinite(number):
            raise DomainError(f"bad JSON in {source}: {text} is not a finite number")
        return number
    try:
        text = value if inline else Path(value).read_text()
    except (OSError, UnicodeDecodeError) as exc:     # the second has no strerror
        reason = getattr(exc, "strerror", None) or exc
        raise DomainError(f"cannot read {value!r}: {reason}") from None
    try:
        return json.loads(text, parse_constant=refuse, parse_float=finite)
    except DomainError:     # a hook's refusal, a ValueError too
        raise
    except json.JSONDecodeError as exc:
        raise DomainError(f"bad JSON in {source}: {exc}") from None
    except ValueError:      # json leaves ints to int(), which refuses one over its digit limit
        raise DomainError(f"bad JSON in {source}: an int has more than "
                          f"{sys.get_int_max_str_digits()} digits") from None


def parse_point(raw) -> Point:
    """Decode a point from its JSON form.

    Integers stay integers, strings containing "/" become exact rationals,
    all other strings are opaque identifiers.
    """
    if isinstance(raw, bool):
        raise DomainError(f"boolean is not a valid point: {raw!r}")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        if "/" in raw:
            try:
                return Fraction(raw)
            except (ValueError, ZeroDivisionError) as exc:
                raise DomainError(f"bad rational point {quoted(raw)}") from exc
        return raw
    raise DomainError(f"unsupported point value: {quoted(raw)}")


class Shape(NamedTuple):
    """What a field's value must do: `what` says it in a message, `test`
    checks it, and each item of a list must have the shape `items`."""

    what: str
    test: Callable[[object], bool]
    items: Optional["Shape"] = None


def list_of(items: Shape) -> Shape:
    return Shape("be a list", lambda v: type(v) is list, items)


def small_rational(v) -> bool:
    """Whether `v` is a string that `Fraction` reads into a small rational,
    or into none: Fraction("1e-30000000") would build 10**30000000."""
    try:
        return type(v) is str and len(v) <= 100 and abs(
            int(v.upper().partition("E")[2] or 0)) < 1000
    except ValueError:      # no rational, which `measure_from_config` refuses
        return True


INT = Shape("be an int", lambda v: type(v) is int)
INT_OR_NULL = Shape("be an int or null", lambda v: v is None or type(v) is int)
NUMBER = Shape("be a number", lambda v: type(v) in (int, float))
BOOL = Shape("be true or false", lambda v: type(v) is bool)
LABEL = Shape("be 0 or 1", is_label)
OBJECT = Shape("be an object", lambda v: type(v) is dict)
LIST = Shape("be a list", lambda v: type(v) is list)
ROW = list_of(LABEL)
MASS = Shape("be a number, or a string of at most 100 characters with an exponent below 1000",
             lambda v: type(v) in (int, float) or small_rational(v))
HYPOTHESIS_LABELS = Shape("be a list of ints and strings, or null", lambda v: v is None
                          or type(v) is list and all(type(x) in (int, str) for x in v))
HORIZONS = Shape("hold ints", lambda v: type(v) is list and all(type(T) is int for T in v))
ON_EMPTY = Shape("be 'error' or 'freeze'", lambda v: v in ("error", "freeze"))
PER_ROUND = Shape("be 'per-round'", lambda v: v == "per-round")
# a bound's numbers must convert to floats: a 400-digit int does not
FLOAT_RANGE = Shape("be within float range", lambda v: abs(v) <= sys.float_info.max)
_MEMORY = 2 ** 30   # bytes for a run's trials, rounds or components
_WORDS = Shape(f"be at most {_MEMORY // 8}, the 8-byte words of {_MEMORY} bytes",
               lambda v: v <= _MEMORY // 8)     # a word per trial seed, per script point
# a component's seed sequence, class and pool take about 4 KiB (tracemalloc: 3,826 bytes)
_COMPONENTS = Shape(f"be at most {_MEMORY // 4096}, the 4096-byte components of {_MEMORY} bytes",
                    lambda v: v <= _MEMORY // 4096)


def checked(name: str, value, shape: Shape):
    """`value`, if it has `shape`; otherwise a `DomainError` that names it."""
    if not shape.test(value):
        raise DomainError(f"{name} must {shape.what}, got {quoted(value)}")
    items = shape.items
    # one pass tests flat items; the walk names the first bad one
    if items is not None and (items.items is not None or not all(map(items.test, value))):
        for item in value:
            checked(name, item, items)
    return value


_REQUIRED = object()


class Spec:
    """A JSON object that describes one `kind` of thing."""

    def __init__(self, kind: str, raw):
        if type(raw) is not dict:
            raise DomainError(f"{kind} spec must be an object, got {quoted(raw)}")
        self.kind, self.raw = kind, raw

    def field(self, key: str, shape: Optional[Shape] = None, default=_REQUIRED,
              name: Optional[str] = None):
        """The value at `key`, checked against `shape` under `name` (the key
        by default), or `default` if the key is absent and one is given. A
        field without a shape is dispatched on or parsed by the caller."""
        if key not in self.raw:
            if default is _REQUIRED:
                raise DomainError(f"{self.kind} spec is missing key {key!r}")
            return default
        value = self.raw[key]
        return value if shape is None else checked(name or key, value, shape)

    def points(self, key: str, name: str) -> list[Point]:
        return [parse_point(p) for p in self.field(key, LIST, name=name)]


def hypothesis_from_config(raw) -> Hypothesis:
    """Forms: {"kind":"constant","value":0|1}, {"kind":"threshold","value":"1/2"},
    {"kind":"support","points":[...]}, {"kind":"row","domain":[...],"values":[...]}."""
    spec = Spec("hypothesis", raw)
    kind = spec.field("kind", default=None)
    if kind == "constant":
        return constant_hypothesis(spec.field("value", LABEL, name="constant"))
    if kind == "threshold":
        value = spec.field("value")
        cut = parse_point(value)
        if isinstance(cut, str):
            raise DomainError(f"threshold cut must be numeric: {quoted(value)}")
        return threshold_hypothesis(cut)
    if kind == "support":
        return support_hypothesis(spec.points("points", "support points"))
    if kind == "row":
        values = spec.field("values", ROW, name="row values")
        return row_hypothesis(spec.points("domain", "row domain"), values)
    raise DomainError(f"unknown hypothesis kind: {quoted(kind)}")


def class_from_config(raw, capped: bool = True) -> FiniteClass:
    """{"domain": [...], "hypotheses": [[0, 1, ...], ...]}, "labels" optional.

    A `capped` class goes on to a learner or oracle that refuses a class
    beyond `littlestone.check_dimension_caps`, so a shape beyond the caps
    (row count and domain size, every row as long as the domain) is
    refused before any value is type-checked."""
    spec = Spec("class", raw)
    domain = spec.points("domain", "class domain")
    rows = spec.field("hypotheses", LIST, name="class hypotheses")
    if capped and all(type(row) is list and len(row) == len(domain) for row in rows):
        check_dimension_caps(len(rows), len(domain))
    rows = [checked("row values", row, ROW) for row in rows]
    labels = spec.field("labels", HYPOTHESIS_LABELS, None, name="class labels")
    return FiniteClass(domain, rows, labels=labels)


def family_from_config(raw) -> ClassFamily:
    spec = Spec("family", raw)
    kind = spec.field("family", default=None)
    params = Spec("family", spec.field("params", OBJECT, {}))
    if kind == "explicit-list":
        classes = params.field("classes", LIST, name="explicit-list classes")
        return ExplicitListFamily([class_from_config(c) for c in classes])
    if kind == "rational-thresholds":
        return RationalThresholdFamily()
    if kind == "natural-thresholds":
        return NaturalThresholdFamily()
    if kind == "finite-support":
        return FiniteSupportFamily(params.points("domain", "finite-support domain"))
    raise DomainError(f"unknown family kind: {quoted(kind)}")


def measure_from_config(raw) -> DiscreteMeasure:
    """{"support": [...], "mass": [...]}, with exact masses such as "1/4"."""
    spec = Spec("measure", raw)
    support = spec.points("support", "measure support")
    masses = spec.field("mass", list_of(MASS), name="measure mass")
    try:
        fractions = [Fraction(m) for m in masses]
    except ZeroDivisionError:
        raise DomainError(f"measure mass has a zero denominator: {quoted(masses)}") from None
    except ValueError:      # a string that is no rational, such as "abc" or ""
        raise DomainError(f"measure mass must hold rationals, got {quoted(masses)}") from None
    return DiscreteMeasure(support, fractions)


def make_learner(raw, seed: Optional[int] = None):
    """Build a learner from its spec (see the README table)."""
    spec = Spec("learner", raw)
    kind = spec.field("learner", default=None)
    if kind == "soa":
        always = spec.field("always_restrict", BOOL, False)
        return learners.SoaLearner(class_from_config(spec.field("class", OBJECT)),
                                   always_restrict=always,
                                   on_empty=spec.field("on_empty", ON_EMPTY, "error"))
    if kind == "expert":
        return learners.ExpertLearner(class_from_config(spec.field("class", OBJECT)),
                                      tuple(spec.field("key", list_of(INT), name="expert key")),
                                      on_empty=spec.field("on_empty", ON_EMPTY, "error"))
    if kind == "aggregator":
        return learners.AggregatorLearner(family_from_config(spec.field("family", OBJECT)))
    if kind == "cover":
        return learners.CoverLearner(learners.CoverSpec(
            [hypothesis_from_config(h) for h in spec.field("cover", LIST)]))
    if kind == "natural-threshold":
        return learners.NaturalThresholdLearner()
    if kind == "truncated-threshold-soa":
        return learners.TruncatedThresholdSoa()
    if kind == "constant":
        return learners.ConstantLearner(spec.field("value", LABEL, 0, name="constant value"))
    if kind in ("fpl", "agnostic-fpl"):
        # a spec asking for another perturbation rule must not run this one
        spec.field("redraw", PER_ROUND, "per-round")
    if kind == "fpl":
        experts = [learners.FollowHypothesisLearner(hypothesis_from_config(h))
                   for h in spec.field("experts", LIST, name="fpl experts")]
        ks = spec.field("k", list_of(NUMBER), name="fpl k")
        return fpl.FplLearner(experts, ks, seed=seed)
    if kind == "agnostic-fpl":
        cap_d = spec.field("cap_d", INT_OR_NULL, 2)
        cap_T = spec.field("cap_T", INT_OR_NULL, None)
        family = family_from_config(spec.field("family", OBJECT))
        components = checked("components", spec.field("components", INT, 1), _COMPONENTS)
        return fpl.AgnosticFpl(family, components,
                               seed=seed, cap_dim=cap_d, cap_rounds=cap_T)
    raise DomainError(f"unknown learner spec: {quoted(kind)}")


def make_nature(raw, seed: Optional[int] = None,
                learner_spec: Optional[dict] = None) -> nature.NatureStrategy:
    """Build a Nature strategy from its spec."""
    spec = Spec("nature", raw)
    kind = spec.field("nature", default=None)
    if kind == "scripted":
        xs = spec.points("x", "scripted x")
        target = spec.field("target", OBJECT, None)
        if target is not None:
            cycle = spec.field("cycle", BOOL, False, name="scripted cycle")
            return nature.RealizableScripted(hypothesis_from_config(target), xs, cycle=cycle)
        # the labels stay as given: the learner rejects a bad one at its round
        return nature.AgnosticScripted(xs, spec.field("y", LIST, name="scripted y"))
    if kind == "iid":
        return nature.StochasticIid(hypothesis_from_config(spec.field("target", OBJECT)),
                                    measure_from_config(spec.field("measure", OBJECT)),
                                    seed=seed)
    if kind == "coin-flip":
        return nature.CoinFlip(seed=seed, point=parse_point(spec.field("point", default=0)))
    if kind == "window-halving":
        return nature.WindowHalving(
            depth=spec.field("depth", INT, 64, name="window-halving depth"))
    if kind == "tree-adversary":
        cls = class_from_config(spec.field("class", OBJECT))
        mode = spec.field("mode", default="online")
        if mode == "online":
            return nature.TreeAdversary(cls)
        if mode == "committed":
            if learner_spec is None:
                raise DomainError("committed tree adversary needs the learner spec")
            return nature.commit_adversary(cls, lambda: make_learner(learner_spec))
        raise DomainError(f"unknown tree-adversary mode: {quoted(mode)}")
    raise DomainError(f"unknown nature spec: {quoted(kind)}")


def _spec_makers(learner_spec: dict, nature_spec: dict) -> tuple:
    """The learner and nature makers, each of a seed, that two specs give."""
    return (lambda s: make_learner(learner_spec, seed=s),
            lambda s: make_nature(nature_spec, seed=s, learner_spec=learner_spec))


def play_config(learner_spec: dict, nature_spec: dict, horizon: int,
                seed: int = 0):
    """Build both sides from specs with a split seed and run one game."""
    checked("horizon", horizon, _WORDS)
    return play_seeded(*_spec_makers(learner_spec, nature_spec), horizon, seed)


def comparison_from_config(raw):
    """"real-thresholds", an explicit class with a hypothesis, or a non-empty
    list of hypotheses."""
    if raw == REAL_THRESHOLDS:
        return REAL_THRESHOLDS
    if isinstance(raw, dict) and "domain" in raw:
        cls = class_from_config(raw, capped=False)     # read by its rows alone
        if not cls.rows:
            raise DomainError("comparison class has no hypotheses")
        return cls
    if isinstance(raw, list):
        if not raw:
            raise DomainError("comparison list is empty")
        return [hypothesis_from_config(h) for h in raw]
    raise DomainError(f"unknown comparison spec: {quoted(raw)}")


def regret_experiment_from_config(raw) -> tuple[list[int], list[TrialStats],
                                                 Optional[list[float]]]:
    """(horizons, regret stats, bounds or None) of a config: learner, nature,
    comparison, Ts (or T), trials, master_seed, optional bound {"kind":
    "fpl", "k": ...}."""
    config = Spec("regret config", raw)
    # T stands in for Ts only when Ts is absent or null
    horizons = config.field("Ts", default=None)
    horizons = checked("T and Ts", [config.field("T")] if horizons is None else horizons,
                       HORIZONS)
    if not horizons:
        raise DomainError("Ts list is empty")
    checked("T and Ts", horizons, Shape("be >= 0", lambda v: min(v) >= 0))
    trials = checked("trials", config.field("trials", INT, 100), _WORDS)
    master_seed = config.field("master_seed", INT, 0)
    learner_spec = config.field("learner", OBJECT)
    nature_spec = config.field("nature", OBJECT)
    comparison = comparison_from_config(config.field("comparison"))

    limits = None     # every bound is evaluated here, before any trial
    bound = config.field("bound", default=None)
    if bound is not None:
        bound = Spec("regret config", checked("bound", bound, OBJECT))
        checked("T and Ts", max(horizons), FLOAT_RANGE)
        kind = bound.field("kind")
        if kind == "fpl":
            k = checked("bound k", bound.field("k", NUMBER, name="bound k"), FLOAT_RANGE)
            limits = [bounds.fpl_regret(k, T) for T in horizons]
        elif kind == "hierarchical":
            d, n = (bound.field(key, INT, name=f"bound {key}") for key in ("dim", "n"))
            checked("bound dim", d, Shape("be >= 0", lambda v: v >= 0))
            checked("bound dim", d, FLOAT_RANGE)
            checked("bound n", n, Shape("be >= 1", lambda v: v >= 1))
            # ln T: the bound has no value at T = 0
            checked("T and Ts", horizons, Shape("be >= 1 under a hierarchical bound",
                                                lambda v: min(v) >= 1))
            limits = [bounds.hierarchical_regret(d, n, T) for T in horizons]
        else:
            raise DomainError(f"unknown bound kind: {quoted(kind)}")
    checked("T and Ts", max(horizons), _WORDS)
    learner_maker, nature_maker = _spec_makers(learner_spec, nature_spec)
    stats = regret_curve([learner_maker], nature_maker, horizons, trials, master_seed,
                         lambda traces, _: regret(traces[0], comparison))
    return horizons, stats, limits
