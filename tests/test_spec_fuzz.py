"""A fuzz of the command line: every spec either runs or fails fast.

Each example takes a valid spec of a kind in README's tables, replaces one
field of it, at any depth, with random JSON or a value near the field's,
and runs `nuolab ldim`, `play` or `regret` on it through `cli.main`, in
process. It must keep the contract of `test_cli.contract`: exit 0 with
nothing on stderr, or exit 2 with nothing on stdout and exactly one line on
stderr. An exception that leaves `cli.main` is a bug of the program, and
fails the example.
"""
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from test_cli import contract, outcome

CLASS = {"domain": [1, 2, 3], "hypotheses": [[0, 0, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1]],
         "labels": [0, 1, "two", 3]}
HYPOTHESES = [{"kind": "constant", "value": 1}, {"kind": "threshold", "value": "1/2"},
              {"kind": "support", "points": [2, 5]},
              {"kind": "row", "domain": [1, 2, 3], "values": [0, 1, 1]}]
FAMILIES = [{"family": "finite-support", "params": {"domain": [1, 2, 3]}},
            {"family": "rational-thresholds"}, {"family": "natural-thresholds"},
            {"family": "explicit-list", "params": {"classes": [CLASS]}}]
# dimension 1: the row either side of point 1
TREE = {"domain": [1, 2], "hypotheses": [[0, 1], [1, 1]]}
MEASURE = {"support": [1, 2, 3], "mass": ["1/2", "1/4", 0.25]}

# one of each row of README's learner and nature tables, with every
# optional field given
LEARNERS = [
    {"learner": "soa", "class": CLASS, "always_restrict": False, "on_empty": "freeze"},
    {"learner": "expert", "class": CLASS, "key": [2, 5], "on_empty": "error"},
    {"learner": "aggregator", "family": FAMILIES[0]},
    {"learner": "cover", "cover": HYPOTHESES},
    {"learner": "natural-threshold"},
    {"learner": "fpl", "experts": HYPOTHESES[:2], "k": [1.0, 1], "redraw": "per-round"},
    {"learner": "agnostic-fpl", "family": FAMILIES[1], "components": 2, "cap_d": 2,
     "cap_T": 500, "redraw": "per-round"},
    {"learner": "constant", "value": 0},
    {"learner": "truncated-threshold-soa"},
]
NATURES = [
    {"nature": "scripted", "x": [1, 3, 2], "target": HYPOTHESES[3], "cycle": True},
    {"nature": "scripted", "x": [1, 2, 3] * 10, "y": [0, 1, 1, 0, 1] * 6},
    {"nature": "iid", "measure": MEASURE, "target": HYPOTHESES[1]},
    {"nature": "coin-flip", "point": 1},
    {"nature": "window-halving", "depth": 64},
    {"nature": "tree-adversary", "class": TREE, "mode": "online"},
    {"nature": "tree-adversary", "class": TREE, "mode": "committed"},
]
REGRETS = [
    {"learner": LEARNERS[5], "nature": NATURES[3], "comparison": CLASS,
     "Ts": [5, 10], "trials": 2, "master_seed": 7, "bound": {"kind": "fpl", "k": 1.0}},
    {"learner": LEARNERS[6], "nature": NATURES[2], "comparison": "real-thresholds",
     "T": 8, "trials": 3, "bound": {"kind": "hierarchical", "dim": 1, "n": 2}},
    {"learner": LEARNERS[0], "nature": NATURES[1], "comparison": HYPOTHESES, "T": 4,
     "trials": 2},
]
SPECS = [CLASS, *LEARNERS, *NATURES, *REGRETS]


def paths(value, path=()):
    """Every place in a JSON value, the value itself first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from paths(item, path + (i,))


def field(rng, value, path=()):
    """A place in `value`: below the whole spec, a field is as likely as a
    place inside it, and its items are equally likely."""
    items = list(value.items() if isinstance(value, dict) else
                 enumerate(value) if isinstance(value, list) else [])
    if not items or path and rng.random() < 0.5:
        return path
    key, item = rng.choice(items)
    return field(rng, item, path + (key,))


def at(value, path):
    for key in path:
        value = value[key]
    return value


def replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


# an int of 5,000 digits, more than Python reads from a string: `json.dumps`
# cannot print it either, so it is drawn as this string, whose quotes `dumps` drops
BIG_INT = "9" * 5000


def dumps(value) -> str:
    return json.dumps(value).replace(f'"{BIG_INT}"', BIG_INT)


# random JSON, with the edge values bad input has hit before (an int no
# float holds, an exp(-k) overflow, a rational with a zero denominator, an
# exponent whose power of ten no int prints, an int too long to read), the
# spec keys, and whole pieces of the valid specs
PIECES = sorted({json.dumps(at(spec, path), sort_keys=True)
                 for spec in SPECS for path in paths(spec)})
KEYS = sorted({key for spec in SPECS for path in paths(spec) for key in path
               if isinstance(key, str)})
SCALARS = (st.none() | st.booleans() | st.integers(-3, 40)
           | st.floats(-1e3, 1e3) | st.text(max_size=4)
           | st.sampled_from([10 ** 400, -710, 2 ** 64, 1e308, -5e-324, "1/2", "1/0", "a/b",
                              "1e-5000", BIG_INT]))
JSON = st.sampled_from(PIECES).map(json.loads) | st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def nearby(value):
    """Values near `value`: the other truth value (true for null); a number
    one off, negated or zero; a list or string with its last item dropped or
    repeated, reversed or emptied; an object less one key."""
    if isinstance(value, bool) or value is None:
        return [not value]
    if isinstance(value, (int, float)):
        return [value - 1, value + 1, -value, 0]
    if isinstance(value, (list, str)):
        return [value[:-1], value + value[-1:], value[::-1], value[:0]]
    return [{k: v for k, v in value.items() if k != key} for key in value]


@st.composite
def mutated(draw, base):
    path = field(draw(st.randoms(use_true_random=True)), base)
    return replaced(base, path, draw(st.sampled_from(nearby(at(base, path))) | JSON))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["ldim", "play", "play", "regret"]))
    if command == "ldim":
        return ["ldim", "--", dumps(draw(mutated(CLASS)))]
    if command == "regret":
        config = draw(mutated(draw(st.sampled_from(REGRETS))))
        return ["regret", f"--config={dumps(config)}"]
    learner, nature = draw(st.sampled_from(LEARNERS)), draw(st.sampled_from(NATURES))
    if draw(st.booleans()):
        learner = draw(mutated(learner))
    else:
        nature = draw(mutated(nature))
    # a value that starts with "-" would be read as an option, so each spec
    # is given as --learner=...
    return ["play", f"--learner={dumps(learner)}", f"--nature={dumps(nature)}",
            "-T", str(draw(st.integers(0, 30)))]


@settings(derandomize=True, max_examples=500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_every_spec_runs_or_fails_fast(argv):
    contract(argv, *outcome(argv))
