"""The command line's contract, written once as two tables.

`REFUSED` holds every refusal: its argv and its message, the whole of the
one line `nuolab CMD: error: MESSAGE` on stderr after exit 2 with nothing on
stdout. `RUNS` holds the commands that must succeed: exit 0, their whole
stdout and nothing on stderr. `contract` states the rule, and the fuzz of
`test_spec_fuzz.py` holds mutated specs to it too.

Each table is keyed by test name, and an entry holds one row or rows by id,
so that every row keeps the pytest id it had as its own test. One test body
runs every row, in process, in a fresh working directory that holds
`list.json`, `kept.csv` and README's `examples`, and a run must leave the
directory's files as it found them but for those its row says it writes. A
row with a `fresh` id runs again under that id through `python -m
nuolab.cli` in a fresh process. A row with a `limit` runs only there, with
its address space capped at that many bytes.
"""
import contextlib
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from nuolab import cli, runner, verification

ROOT = Path(__file__).resolve().parent.parent


def outcome(argv):
    """`cli.main(argv)` in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_process(argv, cwd, limit=0):
    """`python -m nuolab.cli` on `argv` from the checkout, as a fresh process,
    and with a `limit`, its address space capped at that many bytes."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    def capped():   # in the child alone, before it runs nuolab
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = subprocess.run([sys.executable, "-m", "nuolab.cli", *argv], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          preexec_fn=capped if limit else None,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def contract(argv, code, out, err):
    """What a run of `nuolab` said, if it kept the CLI's contract: (0, its
    stdout) after exit 0 with nothing on stderr, or (2, its message) after
    exit 2 with nothing on stdout and one line `nuolab CMD: error: MESSAGE`."""
    if code == 0:
        assert err == ""
        return 0, out
    line = re.fullmatch(f"nuolab {re.escape(argv[0])}: error: (.*)\n", err)
    assert (code, out) == (2, "") and line
    return 2, line[1]


class Row(NamedTuple):
    argv: list
    said: str               # a refusal's message, or a run's whole stdout
    fresh: str = ""         # its id in a fresh process, if it runs there too
    files: dict = {}        # written to the working directory before the run
    leaves: dict = {}       # the files the run writes there, with their bytes
    limit: int = 0          # if set, it runs only in a fresh process of this address space


def spec(value):
    return value if isinstance(value, str) else json.dumps(value)


def play(learner, nature, horizon, *options):
    return ["play", "--learner", spec(learner), "--nature", spec(nature), "-T", horizon,
            *options]


def regret(config):
    return ["regret", "--config", spec(config)]


COIN = {"nature": "coin-flip"}
CONSTANT = {"learner": "constant"}
CONSTANTS = [{"kind": "constant", "value": 0}, {"kind": "constant", "value": 1}]


def fpl_k(k):
    return {"learner": "fpl", "experts": CONSTANTS, "k": [k, 1]}


def iid(measure=None, target=None):
    return {"nature": "iid", "measure": measure or {"support": [1], "mass": ["1/1"]},
            "target": target or {"kind": "constant", "value": 0}}


def iid_masses(*masses):
    return iid({"support": [1, 2], "mass": list(masses)})


# two masses "1/q" of 3,001 digits, whose sum's denominator has 6,001: more
# than Python prints of an int
LONG_MASSES = [f"1/{10 ** 3000 + 1}", f"1/{10 ** 3000 + 3}"]
# a class of dimension 2 on two points: every labeling of them
TREE_CLASS = {"domain": [1, 2], "hypotheses": [[0, 0], [0, 1], [1, 0], [1, 1]]}
# a threshold class beyond the dimension oracles' caps, 1,501 rows over
# 1,500 points: refused when the learner is built, before any search.
# Its rows are written as text, a tenth of the time json.dumps takes
DEEP = ('{"learner": "soa", "class": {"domain": %s, "hypotheses": [%s]}}' % (
    list(range(1, 1501)),
    ", ".join("[" + ("0, " * (cut - 1) + "1, " * (1501 - cut))[:-2] + "]"
              for cut in range(1, 1502)))).encode()
CLASS = {"domain": [1], "hypotheses": [[0]]}
FAMILY = {"family": "explicit-list",
          "params": {"classes": [{"domain": [0], "hypotheses": [[0], [1]]}]}}
AGNOSTIC = {"learner": "agnostic-fpl", "family": FAMILY}
SUPPORT = {"family": "finite-support", "params": {"domain": [1]}}
REGRET = {"learner": CONSTANT, "nature": COIN,
          "comparison": [{"kind": "constant", "value": 0}], "T": 5, "trials": 3}
# Python's json reads NaN, Infinity and -Infinity, which JSON does not
# allow, and a number too large for a float, such as 1e999, as inf
FPL_NAN = ('{"learner":"fpl","experts":[{"kind":"constant","value":0},'
           '{"kind":"constant","value":1}],"k":[NaN,1]}')
BOUND_INFINITY = ('{"learner":{"learner":"constant"},"nature":{"nature":"coin-flip"},'
                  '"comparison":[{"kind":"constant","value":0}],"T":5,"trials":3,'
                  '"bound":{"kind":"fpl","k":Infinity}}')
MASS_MINUS_INFINITY = ('{"nature":"iid","measure":{"support":[1,2],"mass":[-Infinity,1]},'
                       '"target":{"kind":"constant","value":0}}')
MASS_OVERFLOW = ('{"nature":"iid","measure":{"support":[1,2],"mass":[1e999,1]},'
                 '"target":{"kind":"constant","value":0}}')
BOUND_OVERFLOW = BOUND_INFINITY.replace("Infinity", "1e999")
MIXED_POINTS = {"learner": CONSTANT, "nature": {"nature": "scripted", "x": ["a", 1], "y": [0, 1]},
                "comparison": "real-thresholds", "T": 2, "trials": 2}
MASS = ("measure mass must be a number, or a string of at most 100 characters with an "
        "exponent below 1000, got ")
EXHAUSTED = "round 3: scripted stream exhausted after 2 points"
# a refusal quotes 120 characters of a value's repr, then an ellipsis
LONG_MASS = "'1/1" + "0" * 116 + "..."
HUGE = "1" + "0" * 119 + "..."
# a count whose 8-byte words, or 4096-byte components, no memory holds is
# refused before any allocation: a beyond-memory row's process has a
# gigabyte of address space, and a count of 2 ** 64 gets the same refusal
WORDS = f"must be at most {2 ** 27}, the 8-byte words of {2 ** 30} bytes, got "
BEYOND_MEMORY = f"{WORDS}{2 ** 40}"
GIGABYTE = 2 ** 30
COMPONENTS = f"must be at most {2 ** 18}, the 4096-byte components of {2 ** 30} bytes, got "
COMPONENTS_BEYOND_MEMORY = f"{COMPONENTS}{2 ** 40}"


REFUSED = {
    "test_play_input_errors": {
        "unknown-learner": Row(play({"learner": "nope"}, COIN, "5"),
                               "unknown learner spec: 'nope'"),
        "negative-horizon": Row(play(CONSTANT, COIN, "-3"), "horizon must be >= 0"),
        "malformed-nature": Row(
            play(CONSTANT, '{"nature": "coin-flip"', "3"),
            "bad JSON in the inline spec: Expecting ',' delimiter: line 1 column 23 (char 22)"),
        "missing-key": Row(play({"learner": "soa"}, COIN, "3"),
                           "learner spec is missing key 'class'"),
        "exhausted": Row(play(CONSTANT, {"nature": "scripted", "x": [0, 0], "y": [1, 0]}, "3"),
                         EXHAUSTED),
        "redraw-once": Row(play({"learner": "fpl", "experts": CONSTANTS[:1], "k": [1],
                                 "redraw": "once"}, COIN, "3"),
                           "redraw must be 'per-round', got 'once'"),
        "negative-seed": Row(play(CONSTANT, COIN, "3", "--seed", "-1"),
                             "seed must be non-negative, got -1"),
        "fpl-k-mass-overflows": Row(play(fpl_k(-710), COIN, "5"),
                                    "complexity -710 is out of range: exp(-k) overflows a float"),
        "fpl-k-beyond-float": Row(
            play(fpl_k(10 ** 400), COIN, "5"),
            f"complexity {10 ** 400} is out of range: exp(-k) overflows a float"),
        "expert-key-decreasing": Row(
            play({"learner": "expert", "class": TREE_CLASS, "key": [3, 1]}, COIN, "3"),
            "key must be strictly increasing positive rounds: (3, 1)"),
        "window-depth-zero": Row(play(CONSTANT, {"nature": "window-halving", "depth": 0}, "3"),
                                 "depth cap must be >= 1"),
        # the round loop feeds round 1 to both row experts, and the second
        # fails on point 2 there, before the first could meet point 3
        "fpl-expert-error-order": Row(
            play({"learner": "fpl", "k": [1, 1], "experts": [
                {"kind": "row", "domain": [1, 2], "values": [0, 1]},
                {"kind": "row", "domain": [1, 3], "values": [0, 1]}]},
                {"nature": "scripted", "x": [2, 3], "y": [0, 1]}, "2"),
            "point 2 outside hypothesis domain"),
        "script-lengths-differ": Row(
            play(CONSTANT, {"nature": "scripted", "x": [1, 2], "y": [0]}, "3"),
            "points and labels differ in length"),
        "committed-fpl": Row(
            play(fpl_k(1), {"nature": "tree-adversary", "class": TREE_CLASS, "mode": "committed"},
                 "3"),
            "committed adversary requires a deterministic learner"),
        "class-shatters-nothing": Row(
            play(CONSTANT, {"nature": "tree-adversary", "class": CLASS}, "3"),
            "class shatters nothing; there is no branch to force"),
        "measure-mass-not-rational": Row(
            play(CONSTANT, iid_masses("abc", "1/2"), "3"),
            "measure mass must hold rationals, got ['abc', '1/2']"),
        "measure-mass-zero-denominator": Row(
            play(CONSTANT, iid_masses("1/0", "1/2"), "3"),
            "measure mass has a zero denominator: ['1/0', '1/2']"),
        # an exponent that is no int passes the size rule and reads as no rational
        "mass-exponent-not-an-int": Row(
            play(CONSTANT, iid_masses("1ex", "1/2"), "3"),
            "measure mass must hold rationals, got ['1ex', '1/2']"),
        "horizon-beyond-count": Row(play(CONSTANT, COIN, str(2 ** 64)),
                                    f"horizon {WORDS}{2 ** 64}"),
        "horizon-beyond-memory": Row(play(CONSTANT, COIN, str(2 ** 40)),
                                     f"horizon {BEYOND_MEMORY}", limit=GIGABYTE),
        "mass-exponent": Row(play(CONSTANT, iid_masses("1e-5000", "1/2"), "3"),
                             MASS + "'1e-5000'"),
        "mass-long-denominators": Row(play(CONSTANT, iid_masses(*LONG_MASSES), "3"),
                                      MASS + LONG_MASS),
        "mass-exponent-of-seven-digits": Row(
            play(CONSTANT, iid_masses("1e-3000000", "1/2"), "3"), MASS + "'1e-3000000'",
            fresh="mass-exponent"),
        # json.dumps cannot print an int of 5,000 digits, so the spec is written out
        "int-of-5000-digits": Row(
            play(CONSTANT, '{"nature": "coin-flip", "seed": ' + "9" * 5000 + "}", "3"),
            "bad JSON in the inline spec: an int has more than 4300 digits"),
    },
    "test_play_refuses_a_class_beyond_the_caps": Row(
        play("learner.json", {"nature": "scripted", "x": [1], "y": [1]}, "1"),
        "instance 1501 rows x 1500 points exceeds caps (1024 rows, recursion depth 512)",
        files={"learner.json": DEEP}),
    # a target's labels are checked when the spec is read, before round 1
    "test_play_rejects_non_int_target_label": {
        case: Row(play(CONSTANT, {"nature": "scripted", "x": [1, 2], "target": target}, "2"),
                message)
        for case, target, message in [
            ("constant-true", {"kind": "constant", "value": True},
             "constant must be 0 or 1, got True"),
            ("row-float", {"kind": "row", "domain": [1, 2], "values": [0, 1.0]},
             "row values must be 0 or 1, got 1.0")]},
    "test_play_rejects_bad_script": {
        case: Row(play(CONSTANT, {"nature": "scripted", **script}, "3"), message)
        for case, script, message in [
            ("float-label", {"x": [0, 0, 0], "y": [1.7, True, 2]},
             "round 1: label must be 0 or 1, got 1.7"),
            ("bool-label", {"x": [0, 0, 0], "y": [0, 1, True]},
             "round 3: label must be 0 or 1, got True"),
            ("string-label", {"x": [0], "y": ["1"]}, "round 1: label must be 0 or 1, got '1'"),
            # a refused label is quoted as any refused value is: cut after 120 characters
            ("long-label", {"x": [0], "y": ["1" * 3000]},
             "round 1: label must be 0 or 1, got '" + "1" * 119 + "..."),
            ("scalar-y", {"x": [0], "y": 5}, "scripted y must be a list, got 5"),
            ("scalar-x", {"x": 5, "y": [1]}, "scripted x must be a list, got 5"),
            ("scalar-x-target", {"x": 5, "target": {"kind": "constant", "value": 1}},
             "scripted x must be a list, got 5")]},
    "test_unreadable_spec_path": {
        **{argv[0]: Row(argv, "cannot read 'missing.json': No such file or directory")
           for argv in (["ldim", "missing.json"], play("missing.json", COIN, "3"),
                        regret("missing.json"))},
        "not-utf-8": Row(["ldim", "binary.json"], "cannot read 'binary.json': 'utf-8' codec "
                         "can't decode byte 0xff in position 0: invalid start byte",
                         files={"binary.json": b"\xff{}"}),
    },
    # a spec scalar of the wrong type is refused, not converted
    "test_play_rejects_coerced_scalars": {
        case: Row(play(learner, nature, "5"), message)
        for case, learner, nature, message in [
            ("constant-2", {"learner": "constant", "value": 2}, COIN,
             "constant value must be 0 or 1, got 2"),
            ("constant-float", {"learner": "constant", "value": 0.7}, COIN,
             "constant value must be 0 or 1, got 0.7"),
            ("fpl-string-k", {"learner": "fpl", "experts": CONSTANTS, "k": ["1", "1"]}, COIN,
             "fpl k must be a number, got '1'"),
            ("float-components", {**AGNOSTIC, "components": 2.7}, COIN,
             "components must be an int, got 2.7"),
            ("string-cap-T", {**AGNOSTIC, "cap_T": "5"}, COIN,
             "cap_T must be an int or null, got '5'"),
            ("string-cap-d", {**AGNOSTIC, "cap_d": "2"}, COIN,
             "cap_d must be an int or null, got '2'"),
            ("string-family", {**AGNOSTIC, "family": "x"}, COIN,
             "family must be an object, got 'x'"),
            ("int-always-restrict", {"learner": "soa", "class": CLASS, "always_restrict": 1},
             COIN, "always_restrict must be true or false, got 1"),
            ("float-depth", CONSTANT, {"nature": "window-halving", "depth": 2.5},
             "window-halving depth must be an int, got 2.5"),
            ("string-cycle", CONSTANT, {"nature": "scripted", "x": [1], "cycle": "no",
                                        "target": {"kind": "constant", "value": 1}},
             "scripted cycle must be true or false, got 'no'")]},
    "test_ldim_missing_key": Row(["ldim", json.dumps({"hypotheses": [[0]]})],
                                 "class spec is missing key 'domain'"),
    "test_regret_missing_key": Row(regret({"learner": {}}),
                                   "regret config spec is missing key 'T'"),
    "test_regret_rejects_bad_config": {
        **{case: Row(regret({**REGRET, **change}), message) for case, change, message in [
            ("string-T", {"T": "20"}, "T and Ts must hold ints, got ['20']"),
            ("float-Ts", {"Ts": [20, 20.5]}, "T and Ts must hold ints, got [20, 20.5]"),
            ("bool-Ts", {"Ts": [True]}, "T and Ts must hold ints, got [True]"),
            ("scalar-Ts", {"Ts": 20}, "T and Ts must hold ints, got 20"),
            ("zero-Ts", {"Ts": 0}, "T and Ts must hold ints, got 0"),
            ("false-Ts", {"Ts": False}, "T and Ts must hold ints, got False"),
            ("empty-string-Ts", {"Ts": ""}, "T and Ts must hold ints, got ''"),
            ("empty-Ts", {"Ts": []}, "Ts list is empty"),
            ("float-trials", {"trials": 5.9}, "trials must be an int, got 5.9"),
            ("bool-trials", {"trials": True}, "trials must be an int, got True"),
            ("empty-comparison", {"comparison": []}, "comparison list is empty"),
            ("float-seed", {"master_seed": 7.9}, "master_seed must be an int, got 7.9"),
            ("bool-seed", {"master_seed": True}, "master_seed must be an int, got True"),
            ("negative-seed", {"master_seed": -1}, "master_seed must be non-negative, got -1"),
            ("float-dim", {"bound": {"kind": "hierarchical", "dim": 1.7, "n": 1}},
             "bound dim must be an int, got 1.7"),
            ("bool-n", {"bound": {"kind": "hierarchical", "dim": 1, "n": True}},
             "bound n must be an int, got True"),
            ("bool-k", {"bound": {"kind": "fpl", "k": True}}, "bound k must be a number, got True"),
            # a bound is refused when it is read, before any trial: one it
            # cannot evaluate, and a number that no float holds
            ("zero-n", {"bound": {"kind": "hierarchical", "dim": 1, "n": 0}},
             "bound n must be >= 1, got 0"),
            ("negative-n", {"bound": {"kind": "hierarchical", "dim": 1, "n": -3}},
             "bound n must be >= 1, got -3"),
            ("negative-T", {"Ts": [5, -5], "bound": {"kind": "fpl", "k": 1}},
             "T and Ts must be >= 0, got [5, -5]"),
            ("zero-T-hierarchical", {"Ts": [0, 5], "bound": {"kind": "hierarchical", "dim": 1,
                                                            "n": 1}},
             "T and Ts must be >= 1 under a hierarchical bound, got [0, 5]"),
            ("negative-dim", {"bound": {"kind": "hierarchical", "dim": -5, "n": 1}},
             "bound dim must be >= 0, got -5"),
            ("huge-dim", {"bound": {"kind": "hierarchical", "dim": 10 ** 400, "n": 1}},
             "bound dim must be within float range, got " + HUGE),
            ("huge-k", {"bound": {"kind": "fpl", "k": 10 ** 400}},
             "bound k must be within float range, got " + HUGE),
            ("huge-T", {"Ts": [5, 10 ** 400], "bound": {"kind": "fpl", "k": 1}},
             "T and Ts must be within float range, got " + HUGE),
            ("list-bound", {"bound": [1]}, "bound must be an object, got [1]"),
            ("string-bound", {"bound": "fpl"}, "bound must be an object, got 'fpl'"),
            ("redraw-once", {"learner": {"learner": "agnostic-fpl", "family": {
                "kind": "finite-support", "domain": [0, 1]}, "redraw": "once"}},
             "redraw must be 'per-round', got 'once'"),
            ("zero-trials", {"trials": 0}, "need at least 2 trials for a standard error"),
            ("one-trial", {"trials": 1}, "need at least 2 trials for a standard error"),
            ("trials-beyond-count", {"trials": 2 ** 64}, f"trials {WORDS}{2 ** 64}"),
            ("T-beyond-count", {"Ts": [5, 2 ** 64]}, f"T and Ts {WORDS}{2 ** 64}"),
            ("components-beyond-count", {"learner": {**AGNOSTIC, "components": 2 ** 64}},
             f"components {COMPONENTS}{2 ** 64}")]},
        "components-beyond-memory": Row(
            regret({**REGRET, "learner": {**AGNOSTIC, "components": 2 ** 40}}),
            f"components {COMPONENTS_BEYOND_MEMORY}", limit=GIGABYTE),
        "trials-beyond-memory": Row(regret({**REGRET, "trials": 2 ** 40}),
                                    f"trials {BEYOND_MEMORY}", limit=GIGABYTE),
        "mixed-threshold-points": Row(regret(MIXED_POINTS),
                                      "threshold comparison needs numeric points",
                                      fresh="mixed-threshold-points"),
    },
    "test_ldim_rejects_non_binary_row_values": Row(
        ["ldim", '{"domain":["a","b"],"hypotheses":[[1.7,0],[true,1],[0,0]]}'],
        "row values must be 0 or 1, got 1.7"),
    # the CSV is opened before the game is played
    "test_play_csv_to_an_unwritable_path": Row(
        play(CONSTANT, COIN, "5", "--csv", "missing/trace.csv"),
        "cannot write 'missing/trace.csv': No such file or directory"),
    # a game that fails leaves the --csv path as it found it: a file's bytes
    # as they were, and no file where there was none
    "test_play_csv_left_as_it_was_when_the_game_fails": {
        f"{held}-{case}": Row(
            play(learner, nature, horizon, "--csv", csv), message,
            fresh="failed-csv" if (held, case) == ("existing-file", "exhausted-script") else "")
        for held, csv in [("existing-file", "kept.csv"), ("no-file", "trace.csv")]
        for case, learner, nature, horizon, message in [
            ("emptied-version-space", {"learner": "soa", "class": CLASS},
             {"nature": "scripted", "x": [1], "y": [1]}, "1",
             "round 1: restriction by (1, 1) empties the version space"),
            ("exhausted-script", CONSTANT, {"nature": "scripted", "x": [1, 2], "y": [0, 1]}, "3",
             EXHAUSTED)]},
    # every field is type-checked when it is read, lists and objects too
    "test_malformed_spec_fields": {
        case: Row(argv, message, fresh="malformed-spec" if case == "class-hypotheses" else "")
        for case, argv, message in [
            ("class-domain", ["ldim", json.dumps({**CLASS, "domain": 5})],
             "class domain must be a list, got 5"),
            ("class-hypotheses", ["ldim", json.dumps({**CLASS, "hypotheses": 5})],
             "class hypotheses must be a list, got 5"),
            ("class-row", ["ldim", json.dumps({**CLASS, "hypotheses": [5]})],
             "row values must be a list, got 5"),
            ("class-labels", ["ldim", json.dumps({**CLASS, "labels": 5})],
             "class labels must be a list of ints and strings, or null, got 5"),
            ("ldim-list", ["ldim", "list.json"], "class spec must be an object, got [1]"),
            ("play-list", play("list.json", COIN, "3"),
             "learner spec must be an object, got [1]"),
            ("expert-key", play({"learner": "expert", "class": CLASS, "key": "12"}, COIN, "3"),
             "expert key must be a list, got '12'"),
            ("fpl-experts", play({"learner": "fpl", "experts": 5, "k": [1]}, COIN, "3"),
             "fpl experts must be a list, got 5"),
            ("cover", play({"learner": "cover", "cover": 5}, COIN, "3"),
             "cover must be a list, got 5"),
            ("explicit-list-classes",
             play({"learner": "aggregator",
                   "family": {"family": "explicit-list", "params": {"classes": 5}}}, COIN, "3"),
             "explicit-list classes must be a list, got 5"),
            ("family-params",
             play({"learner": "aggregator", "family": {**SUPPORT, "params": 5}}, COIN, "3"),
             "params must be an object, got 5"),
            ("finite-support-domain",
             play({"learner": "aggregator", "family": {**SUPPORT, "params": {"domain": 5}}},
                  COIN, "3"),
             "finite-support domain must be a list, got 5"),
            ("measure-support", play(CONSTANT, iid({"support": 5, "mass": ["1/1"]}), "3"),
             "measure support must be a list, got 5"),
            ("support-points", play(CONSTANT, iid(target={"kind": "support", "points": 5}), "3"),
             "support points must be a list, got 5"),
            ("row-values",
             play(CONSTANT, iid(target={"kind": "row", "domain": [1], "values": 5}), "3"),
             "row values must be a list, got 5"),
            ("iid-target", play(CONSTANT, iid(target=5), "3"),
             "target must be an object, got 5")]},
    # a refusal names the spec file, or says "the inline spec"
    "test_non_finite_json_constants_refused": {
        "file": Row(["ldim", "nan.json"], "bad JSON in 'nan.json': NaN is not a JSON number",
                    files={"nan.json": b'{"domain": [NaN]}'}),
        "fpl-k": Row(play(FPL_NAN, COIN, "5"),
                     "bad JSON in the inline spec: NaN is not a JSON number", fresh="nan"),
        "bound-k": Row(regret(BOUND_INFINITY),
                       "bad JSON in the inline spec: Infinity is not a JSON number"),
        "measure-mass": Row(play(CONSTANT, MASS_MINUS_INFINITY, "3"),
                            "bad JSON in the inline spec: -Infinity is not a JSON number"),
    },
    "test_json_number_overflow_refused": {
        "measure-mass": Row(play(CONSTANT, MASS_OVERFLOW, "3"),
                            "bad JSON in the inline spec: 1e999 is not a finite number",
                            fresh="overflow"),
        "bound-k": Row(regret(BOUND_OVERFLOW),
                       "bad JSON in the inline spec: 1e999 is not a finite number"),
    },
}


TRACE = b"t,x,y,yhat,mistake,cum_mistakes,cum_best_rival\n"
LABELINGS = "".join(f"  labeling {i:02b} -> hypothesis {i}\n" for i in range(4))

RUNS = {
    "test_play_runs": Row(play(CONSTANT, COIN, "5"), "rounds:   5\nmistakes: 1\n"),
    "test_regret_runs": Row(regret(REGRET), "     T  trials       mean       se\n"
                                            "     5       3      0.000    0.000\n"),
    # each column's width and precision, and the seeded values they hold
    "test_regret_prints_the_pinned_table": {
        "bound": Row(regret({"learner": {"learner": "fpl", "experts": CONSTANTS,
                                         "k": [1.0, 1.0]},
                             "nature": COIN, "comparison": CONSTANTS, "Ts": [20, 40],
                             "trials": 30, "master_seed": 5, "bound": {"kind": "fpl", "k": 1.0}}),
                     "     T  trials       mean       se      bound\n"
                     "    20      30      1.500    0.364      13.42\n"
                     "    40      30      2.000    0.521      18.97\n"),
        "no-bound": Row(regret({"learner": CONSTANT, "nature": COIN, "comparison": CONSTANTS,
                                "Ts": [10, 200], "trials": 12, "master_seed": 2}),
                        "     T  trials       mean       se\n"
                        "    10      12      1.667    0.595\n"
                        "   200      12      4.833    2.779\n"),
    },
    "test_play_csv_replaces_the_file_after_the_game": Row(
        play(CONSTANT, COIN, "2", "--csv", "trace.csv"),
        "rounds:   2\nmistakes: 0\ntrace written to trace.csv\n",
        files={"trace.csv": b"old\n" * 50},
        leaves={"trace.csv": TRACE + b"1,0,0,0,0,0,\n2,0,0,0,0,0,\n"}),
    "test_ldim_command": Row(
        ["ldim", "cls.json", "--witness"],
        "hypotheses: 4\ndomain:     2 points\nldim:       2\n"
        "witness points (level order): ['a', 'b', 'b']\n" + LABELINGS,
        files={"cls.json": json.dumps({**TREE_CLASS, "domain": ["a", "b"]}).encode()}),
    "test_play_command": Row(
        play({"learner": "constant", "value": 0},
             {"nature": "scripted", "x": [1, 2, 3], "target": {"kind": "threshold", "value": 2}},
             "3", "--seed", "1", "--csv", "trace.csv"),
        "rounds:   3\nmistakes: 2\ntrace written to trace.csv\n",
        leaves={"trace.csv": TRACE + b"1,1,0,0,0,0,\n2,2,1,0,1,1,\n3,3,1,0,1,2,\n"}),
    "test_regret_command": Row(
        regret("config.json"),
        "     T  trials       mean       se\n    20      20      2.200    0.694\n",
        files={"config.json": json.dumps({
            "learner": {"learner": "constant", "value": 0}, "nature": COIN,
            "comparison": {"domain": [0], "hypotheses": [[0], [1]]}, "T": 20, "trials": 20,
            "master_seed": 0}).encode()}),
    # README's CLI block but `verify`, which the acceptance file runs, and the
    # natural-threshold learner on a point 10^18, which must play in constant
    # memory, and the aggregator against an iid nature, whose script is drawn
    # by exact integer words
    "test_examples_run": {
        "ldim": Row(["ldim", "examples/class.json", "--witness"],
                    "hypotheses: 4\ndomain:     3 points\nldim:       2\n"
                    "witness points (level order): ['b', 'c', 'a']\n" + LABELINGS,
                    fresh="ldim"),
        "play-csv": Row(
            play('{"learner":"natural-threshold"}',
                 '{"nature":"scripted","x":[5,1,2,3,4],"target":{"kind":"threshold","value":3}}',
                 "5", "--seed", "0", "--csv", "trace.csv"),
            "rounds:   5\nmistakes: 2\ntrace written to trace.csv\n", fresh="play-csv",
            leaves={"trace.csv": TRACE + b"1,5,1,0,1,1,\n2,1,0,0,0,1,\n3,2,0,0,0,1,\n"
                                         b"4,3,1,0,1,2,\n5,4,1,1,0,2,\n"}),
        "regret": Row(regret("examples/experiment.json"),
                      "     T  trials       mean       se      bound\n"
                      "   100    2000      3.971    0.097      30.00\n"
                      "   400    2000      7.989    0.200      60.00\n"),
        "point-10-18": Row(
            play('{"learner":"natural-threshold"}',
                 '{"nature":"scripted","x":[1000000000000000000,1,500000000000000000],'
                 '"target":{"kind":"threshold","value":300000000000000000}}',
                 "3", "--seed", "0"),
            "rounds:   3\nmistakes: 2\n", fresh="point-10-18"),
        "aggregator-iid": Row(
            play('{"learner":"aggregator","family":{"family":"finite-support",'
                 '"params":{"domain":[1,2,3,4,5,6]}}}',
                 '{"nature":"iid","measure":{"support":[1,2,3,4,5,6],'
                 '"mass":["1/2","1/4","1/8","1/16","1/32","1/32"]},'
                 '"target":{"kind":"support","points":[1,2]}}',
                 "40", "--seed", "3"),
            "rounds:   40\nmistakes: 4\n", fresh="aggregator-iid"),
    },
}


@pytest.fixture
def cwd(tmp_path, monkeypatch):
    """A fresh working directory that holds `list.json`, `kept.csv` and
    README's `examples`."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "kept.csv").write_bytes(b"t,x\nkept\n")
    (tmp_path / "examples").symlink_to(ROOT / "examples")
    return tmp_path


def files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir() if path.is_file()}


def check(code, row, cwd, fresh):
    """The tables' one body: `row` exits `code` and says `row.said`, and
    leaves the files of `cwd` as it found them but for `row.leaves`."""
    for name, data in row.files.items():
        (cwd / name).write_bytes(data)
    before = files(cwd)
    got = run_process(row.argv, cwd, row.limit) if fresh or row.limit else outcome(row.argv)
    assert contract(row.argv, *got) == (code, row.said)
    assert files(cwd) == {**before, **row.leaves}


def table_test(code, entry, fresh=False):
    """The test of a table entry: `check` on its one row, or on each of its ids."""
    if isinstance(entry, Row):
        def test(cwd):
            check(code, entry, cwd, fresh)
    else:
        @pytest.mark.parametrize("row", list(entry.values()), ids=list(entry))
        def test(row, cwd):
            check(code, row, cwd, fresh)
    return test


def rows(table):
    return [row for entry in table.values()
            for row in (entry.values() if isinstance(entry, dict) else [entry])]


def fresh_rows(table):
    return {row.fresh: row for row in rows(table) if row.fresh}


# collected under each entry's name, so that a row keeps its pytest id
globals().update((name, table_test(2, entry)) for name, entry in REFUSED.items())
globals().update((name, table_test(0, entry)) for name, entry in RUNS.items())
test_bad_input_in_a_fresh_process = table_test(2, fresh_rows(REFUSED), fresh=True)
test_examples_run_in_a_fresh_process = table_test(0, fresh_rows(RUNS), fresh=True)


def test_readme_examples_are_committed():
    # every command of README's CLI block is a row of RUNS, but `verify`;
    # the regret config is README's block
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI\n\n```bash\n")[1].split("```")[0].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("nuolab ")]
    assert [argv for argv in commands if argv not in [row.argv for row in rows(RUNS)]] == [
        ["verify", "--suite", "default"]]
    example = readme.split("(`examples/experiment.json`):\n\n```json\n")[1].split("```")[0]
    assert (ROOT / "examples" / "experiment.json").read_text() == example


def test_verify_command_exit_codes(monkeypatch):
    ok, bad = (lambda: (True, "fine"), {}), (lambda: (False, "broken"), {})
    monkeypatch.setattr(verification, "SUITE", {"ok": ok})
    assert outcome(["verify"]) == (0, "[PASS] ok: fine\n1/1 checks passed\n", "")
    monkeypatch.setattr(verification, "SUITE", {"ok": ok, "bad": bad})
    assert outcome(["verify"]) == (
        1, "[PASS] ok: fine\n[FAIL] bad: broken\n1/2 checks passed\n", "")


def test_a_program_bug_is_not_reported_as_bad_input(capsys, monkeypatch):
    # only a DomainError is bad input: a ValueError from inside the program,
    # as numpy raises, leaves `cli.main` and so exits 1 with its traceback
    def run_game(*args):
        raise ValueError("boom")

    monkeypatch.setattr(runner, "run_game", run_game)
    with pytest.raises(ValueError, match="boom"):
        cli.main(play(CONSTANT, COIN, "3"))
    assert capsys.readouterr() == ("", "")


def test_regret_refuses_an_empty_comparison_class_before_any_game(monkeypatch):
    def run_game(*args):
        raise AssertionError("a game was played")

    monkeypatch.setattr(runner, "run_game", run_game)
    argv = regret({"learner": CONSTANT, "nature": COIN,
                   "comparison": {"domain": [0], "hypotheses": []}, "T": 10, "trials": 2,
                   "master_seed": 1})
    assert contract(argv, *outcome(argv)) == (2, "comparison class has no hypotheses")
