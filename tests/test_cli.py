"""The command line: input errors end with exit code 2 and one line on
stderr, never a traceback."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nuolab import cli, runner

ROOT = Path(__file__).resolve().parent.parent
COIN = json.dumps({"nature": "coin-flip"})
CONSTANT = json.dumps({"learner": "constant"})


def fpl_k(k):
    return json.dumps({"learner": "fpl", "experts": [{"kind": "constant", "value": 0},
                                                     {"kind": "constant", "value": 1}],
                       "k": [k, 1]})


def iid_masses(*masses):
    return json.dumps({"nature": "iid", "measure": {"support": [1, 2], "mass": list(masses)},
                       "target": {"kind": "constant", "value": 0}})


# two masses "1/q" of 3,001 digits, whose sum's denominator has 6,001: more
# than Python prints of an int
LONG_MASSES = [f"1/{10 ** 3000 + 1}", f"1/{10 ** 3000 + 3}"]


# a class of dimension 2 on two points: every labeling of them
TREE_CLASS = {"domain": [1, 2], "hypotheses": [[0, 0], [0, 1], [1, 0], [1, 1]]}


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_play_runs(capsys):
    code, out, err = run(capsys, "play", "--learner", CONSTANT, "--nature", COIN, "-T", "5")
    assert code == 0 and out.startswith("rounds:   5\n") and err == ""


@pytest.mark.parametrize("argv, message", [
    (["--learner", json.dumps({"learner": "nope"}), "--nature", COIN, "-T", "5"],
     "unknown learner spec: 'nope'"),
    (["--learner", CONSTANT, "--nature", COIN, "-T", "-3"],
     "horizon must be >= 0"),
    (["--learner", CONSTANT, "--nature", '{"nature": "coin-flip"', "-T", "3"],
     "bad JSON in"),
    (["--learner", json.dumps({"learner": "soa"}), "--nature", COIN, "-T", "3"],
     "learner spec is missing key 'class'"),
    (["--learner", CONSTANT, "--nature",
      json.dumps({"nature": "scripted", "x": [0, 0], "y": [1, 0]}), "-T", "3"],
     "round 3: scripted stream exhausted after 2 points"),
    (["--learner", json.dumps({"learner": "fpl", "experts": [{"kind": "constant", "value": 0}],
                               "k": [1], "redraw": "once"}), "--nature", COIN, "-T", "3"],
     "redraw must be 'per-round', got 'once'"),
    (["--learner", CONSTANT, "--nature", COIN, "-T", "3", "--seed", "-1"],
     "seed must be non-negative, got -1"),
    (["--learner", fpl_k(-710), "--nature", COIN, "-T", "5"],
     "complexity -710 is out of range: exp(-k) overflows a float"),
    (["--learner", fpl_k(10 ** 400), "--nature", COIN, "-T", "5"],
     f"complexity {10 ** 400} is out of range: exp(-k) overflows a float"),
    (["--learner", json.dumps({"learner": "expert", "class": TREE_CLASS, "key": [3, 1]}),
      "--nature", COIN, "-T", "3"],
     "key must be strictly increasing positive rounds: (3, 1)"),
    (["--learner", CONSTANT, "--nature", json.dumps({"nature": "window-halving", "depth": 0}),
      "-T", "3"], "depth cap must be >= 1"),
    (["--learner", CONSTANT, "--nature",
      json.dumps({"nature": "scripted", "x": [1, 2], "y": [0]}), "-T", "3"],
     "points and labels differ in length"),
    (["--learner", fpl_k(1), "--nature",
      json.dumps({"nature": "tree-adversary", "class": TREE_CLASS, "mode": "committed"}),
      "-T", "3"], "committed adversary requires a deterministic learner"),
    (["--learner", CONSTANT, "--nature",
      json.dumps({"nature": "tree-adversary", "class": {"domain": [1], "hypotheses": [[0]]}}),
      "-T", "3"], "class shatters nothing; there is no branch to force"),
    (["--learner", CONSTANT, "--nature",
      json.dumps({"nature": "iid", "measure": {"support": [1, 2], "mass": ["abc", "1/2"]},
                  "target": {"kind": "constant", "value": 0}}), "-T", "3"],
     "measure mass must hold rationals, got ['abc', '1/2']"),
    (["--learner", CONSTANT, "--nature", COIN, "-T", str(2 ** 64)],
     f"horizon must be at most {sys.maxsize // 8}, got {2 ** 64}"),
    (["--learner", CONSTANT, "--nature", iid_masses("1e-5000", "1/2"), "-T", "3"],
     "measure mass must be a number, or a string of at most 100 characters with an "
     "exponent below 1000, got '1e-5000'"),
    (["--learner", CONSTANT, "--nature", iid_masses(*LONG_MASSES), "-T", "3"],
     "measure mass must be a number, or a string of at most 100 characters"),
    (["--learner", CONSTANT, "--nature", iid_masses("1e-3000000", "1/2"), "-T", "3"],
     "exponent below 1000, got '1e-3000000'"),
    # json.dumps cannot print an int of 5,000 digits, so the spec is written out
    (["--learner", CONSTANT, "--nature", '{"nature": "coin-flip", "seed": ' + "9" * 5000 + "}",
      "-T", "3"], "9}': an int of 5000 characters is too long"),
], ids=["unknown-learner", "negative-horizon", "malformed-nature", "missing-key",
        "exhausted", "redraw-once", "negative-seed", "fpl-k-mass-overflows",
        "fpl-k-beyond-float", "expert-key-decreasing", "window-depth-zero",
        "script-lengths-differ", "committed-fpl", "class-shatters-nothing",
        "measure-mass-not-rational", "horizon-beyond-count", "mass-exponent",
        "mass-long-denominators", "mass-exponent-of-seven-digits", "int-of-5000-digits"])
def test_play_input_errors(capsys, argv, message):
    code, out, err = run(capsys, "play", *argv)
    assert code == 2 and out == ""
    assert err.startswith("nuolab play: error: ") and message in err
    assert err.count("\n") == 1


def test_a_program_bug_is_not_reported_as_bad_input(capsys, monkeypatch):
    # only a DomainError is bad input: a ValueError from inside the program,
    # as numpy raises, leaves `cli.main` and so exits 1 with its traceback
    def run_game(*args):
        raise ValueError("boom")

    monkeypatch.setattr(runner, "run_game", run_game)
    with pytest.raises(ValueError, match="boom"):
        cli.main(["play", "--learner", CONSTANT, "--nature", COIN, "-T", "3"])
    assert capsys.readouterr() == ("", "")


def test_play_refuses_a_class_beyond_the_caps(capsys, tmp_path):
    # a class too deep for the dimension recursion is refused when the
    # learner is built, not by a RecursionError in round 1
    domain = range(1, 1501)
    cls = {"domain": list(domain),
           "hypotheses": [[int(x >= cut) for x in domain] for cut in range(1, 1502)]}
    spec = tmp_path / "learner.json"
    spec.write_text(json.dumps({"learner": "soa", "class": cls}))
    nature = json.dumps({"nature": "scripted", "x": [1], "y": [1]})
    code, out, err = run(capsys, "play", "--learner", str(spec), "--nature", nature, "-T", "1")
    assert code == 2 and out == ""
    assert err.startswith("nuolab play: error: instance 1501 rows x 1500 points exceeds caps")
    assert err.count("\n") == 1


@pytest.mark.parametrize("target, message", [
    ({"kind": "constant", "value": True}, "constant must be 0 or 1, got True"),
    ({"kind": "row", "domain": [1, 2], "values": [0, 1.0]},
     "row values must be 0 or 1, got 1.0"),
], ids=["constant-true", "row-float"])
def test_play_rejects_non_int_target_label(capsys, target, message):
    # rejected when the spec is read, before round 1
    nature = json.dumps({"nature": "scripted", "x": [1, 2], "target": target})
    code, out, err = run(capsys, "play", "--learner", CONSTANT, "--nature", nature, "-T", "2")
    assert code == 2 and out == ""
    assert err == f"nuolab play: error: {message}\n"


@pytest.mark.parametrize("script, message", [
    ({"x": [0, 0, 0], "y": [1.7, True, 2]}, "round 1: label must be 0 or 1, got 1.7"),
    ({"x": [0, 0, 0], "y": [0, 1, True]}, "round 3: label must be 0 or 1, got True"),
    ({"x": [0], "y": ["1"]}, "round 1: label must be 0 or 1, got '1'"),
    ({"x": [0], "y": 5}, "scripted y must be a list, got 5"),
    ({"x": 5, "y": [1]}, "scripted x must be a list, got 5"),
    ({"x": 5, "target": {"kind": "constant", "value": 1}},
     "scripted x must be a list, got 5"),
], ids=["float-label", "bool-label", "string-label", "scalar-y", "scalar-x",
        "scalar-x-target"])
def test_play_rejects_bad_script(capsys, script, message):
    nature = json.dumps({"nature": "scripted", **script})
    code, out, err = run(capsys, "play", "--learner", CONSTANT, "--nature", nature, "-T", "3")
    assert code == 2 and out == ""
    assert err == f"nuolab play: error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["ldim", "missing.json"],
    ["play", "--learner", "missing.json", "--nature", COIN, "-T", "3"],
    ["regret", "--config", "missing.json"],
], ids=["ldim", "play", "regret"])
def test_unreadable_spec_path(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"nuolab {argv[0]}: error: cannot read 'missing.json': "
                   "No such file or directory\n")


FAMILY = {"family": "explicit-list",
          "params": {"classes": [{"domain": [0], "hypotheses": [[0], [1]]}]}}
AGNOSTIC = {"learner": "agnostic-fpl", "family": FAMILY}


@pytest.mark.parametrize("learner, nature, message", [
    ({"learner": "constant", "value": 2}, COIN, "constant value must be 0 or 1, got 2"),
    ({"learner": "constant", "value": 0.7}, COIN, "constant value must be 0 or 1, got 0.7"),
    ({"learner": "fpl", "experts": [{"kind": "constant", "value": 0},
                                    {"kind": "constant", "value": 1}], "k": ["1", "1"]},
     COIN, "fpl k must be a number, got '1'"),
    ({**AGNOSTIC, "components": 2.7}, COIN, "components must be an int, got 2.7"),
    ({**AGNOSTIC, "cap_T": "5"}, COIN, "cap_T must be an int or null, got '5'"),
    ({**AGNOSTIC, "cap_d": "2"}, COIN, "cap_d must be an int or null, got '2'"),
    ({**AGNOSTIC, "family": "x"}, COIN, "family must be an object, got 'x'"),
    ({"learner": "soa", "class": {"domain": [0], "hypotheses": [[0]]},
      "always_restrict": 1}, COIN, "always_restrict must be true or false, got 1"),
    (json.loads(CONSTANT), json.dumps({"nature": "window-halving", "depth": 2.5}),
     "window-halving depth must be an int, got 2.5"),
    (json.loads(CONSTANT), json.dumps({"nature": "scripted", "x": [1], "cycle": "no",
                                       "target": {"kind": "constant", "value": 1}}),
     "scripted cycle must be true or false, got 'no'"),
], ids=["constant-2", "constant-float", "fpl-string-k", "float-components",
        "string-cap-T", "string-cap-d", "string-family", "int-always-restrict",
        "float-depth", "string-cycle"])
def test_play_rejects_coerced_scalars(capsys, learner, nature, message):
    # a spec scalar of the wrong type is refused, not converted
    code, out, err = run(capsys, "play", "--learner", json.dumps(learner),
                         "--nature", nature, "-T", "5")
    assert code == 2 and out == ""
    assert err == f"nuolab play: error: {message}\n"


def test_ldim_missing_key(capsys):
    code, _, err = run(capsys, "ldim", json.dumps({"hypotheses": [[0]]}))
    assert code == 2 and err == "nuolab ldim: error: class spec is missing key 'domain'\n"


def test_regret_missing_key(capsys):
    code, _, err = run(capsys, "regret", "--config", json.dumps({"learner": {}}))
    assert code == 2 and err == "nuolab regret: error: regret config spec is missing key 'T'\n"


REGRET = {"learner": json.loads(CONSTANT), "nature": json.loads(COIN),
          "comparison": [{"kind": "constant", "value": 0}], "T": 5, "trials": 3}


def test_regret_runs(capsys):
    code, out, err = run(capsys, "regret", "--config", json.dumps(REGRET))
    assert code == 0 and out.splitlines()[1].split()[:2] == ["5", "3"] and err == ""


CONSTANTS = [{"kind": "constant", "value": 0}, {"kind": "constant", "value": 1}]


@pytest.mark.parametrize("config, table", [
    ({"learner": {"learner": "fpl", "experts": CONSTANTS, "k": [1.0, 1.0]},
      "nature": json.loads(COIN), "comparison": CONSTANTS, "Ts": [20, 40], "trials": 30,
      "master_seed": 5, "bound": {"kind": "fpl", "k": 1.0}},
     "     T  trials       mean       se      bound\n"
     "    20      30      1.500    0.364      13.42\n"
     "    40      30      2.000    0.521      18.97\n"),
    ({"learner": json.loads(CONSTANT), "nature": json.loads(COIN), "comparison": CONSTANTS,
      "Ts": [10, 200], "trials": 12, "master_seed": 2},
     "     T  trials       mean       se\n"
     "    10      12      1.667    0.595\n"
     "   200      12      4.833    2.779\n"),
], ids=["bound", "no-bound"])
def test_regret_prints_the_pinned_table(capsys, config, table):
    # each column's width and precision, and the seeded values they hold
    assert run(capsys, "regret", "--config", json.dumps(config)) == (0, table, "")


@pytest.mark.parametrize("change, message", [
    ({"T": "20"}, "T and Ts must hold ints, got ['20']"),
    ({"Ts": [20, 20.5]}, "T and Ts must hold ints, got [20, 20.5]"),
    ({"Ts": [True]}, "T and Ts must hold ints, got [True]"),
    ({"Ts": 20}, "T and Ts must hold ints, got 20"),
    ({"Ts": 0}, "T and Ts must hold ints, got 0"),
    ({"Ts": False}, "T and Ts must hold ints, got False"),
    ({"Ts": ""}, "T and Ts must hold ints, got ''"),
    ({"Ts": []}, "Ts list is empty"),
    ({"trials": 5.9}, "trials must be an int, got 5.9"),
    ({"trials": True}, "trials must be an int, got True"),
    ({"comparison": []}, "comparison list is empty"),
    ({"master_seed": 7.9}, "master_seed must be an int, got 7.9"),
    ({"master_seed": True}, "master_seed must be an int, got True"),
    ({"master_seed": -1}, "master_seed must be non-negative, got -1"),
    ({"bound": {"kind": "hierarchical", "dim": 1.7, "n": 1}},
     "bound dim must be an int, got 1.7"),
    ({"bound": {"kind": "hierarchical", "dim": 1, "n": True}},
     "bound n must be an int, got True"),
    ({"bound": {"kind": "fpl", "k": True}}, "bound k must be a number, got True"),
    # a bound is refused when it is read, before any trial: one it cannot
    # evaluate, and a number that no float holds
    ({"bound": {"kind": "hierarchical", "dim": 1, "n": 0}}, "bound n must be >= 1, got 0"),
    ({"bound": {"kind": "hierarchical", "dim": 1, "n": -3}}, "bound n must be >= 1, got -3"),
    ({"Ts": [5, -5], "bound": {"kind": "fpl", "k": 1}}, "T and Ts must be >= 0, got [5, -5]"),
    ({"Ts": [0, 5], "bound": {"kind": "hierarchical", "dim": 1, "n": 1}},
     "T and Ts must be >= 1 under a hierarchical bound, got [0, 5]"),
    ({"bound": {"kind": "hierarchical", "dim": -5, "n": 1}}, "bound dim must be >= 0, got -5"),
    ({"bound": {"kind": "hierarchical", "dim": 10 ** 400, "n": 1}},
     f"bound dim must be within float range, got {10 ** 400}"),
    ({"bound": {"kind": "fpl", "k": 10 ** 400}},
     f"bound k must be within float range, got {10 ** 400}"),
    ({"Ts": [5, 10 ** 400], "bound": {"kind": "fpl", "k": 1}},
     f"T and Ts must be within float range, got {10 ** 400}"),
    ({"bound": [1]}, "bound must be an object, got [1]"),
    ({"bound": "fpl"}, "bound must be an object, got 'fpl'"),
    ({"learner": {"learner": "agnostic-fpl", "family": {"kind": "finite-support",
                                                        "domain": [0, 1]},
                  "redraw": "once"}},
     "redraw must be 'per-round', got 'once'"),
    ({"trials": 0}, "need at least 2 trials for a standard error"),
    ({"trials": 1}, "need at least 2 trials for a standard error"),
    ({"trials": 2 ** 64}, f"trials must be at most {sys.maxsize // 8}, got {2 ** 64}"),
    ({"Ts": [5, 2 ** 64]}, f"T and Ts must be at most {sys.maxsize // 8}, got {2 ** 64}"),
    ({"learner": {**AGNOSTIC, "components": 2 ** 64}},
     f"components must be at most {sys.maxsize // 8}, got {2 ** 64}"),
], ids=["string-T", "float-Ts", "bool-Ts", "scalar-Ts", "zero-Ts", "false-Ts",
        "empty-string-Ts", "empty-Ts", "float-trials",
        "bool-trials", "empty-comparison", "float-seed", "bool-seed", "negative-seed",
        "float-dim",
        "bool-n", "bool-k", "zero-n", "negative-n", "negative-T", "zero-T-hierarchical",
        "negative-dim", "huge-dim", "huge-k", "huge-T", "list-bound", "string-bound",
        "redraw-once", "zero-trials", "one-trial", "trials-beyond-count",
        "T-beyond-count", "components-beyond-count"])
def test_regret_rejects_bad_config(capsys, change, message):
    code, out, err = run(capsys, "regret", "--config", json.dumps({**REGRET, **change}))
    assert code == 2 and out == ""
    assert err == f"nuolab regret: error: {message}\n"


def test_regret_refuses_an_empty_comparison_class_before_any_game(capsys, monkeypatch):
    def run_game(*args):
        raise AssertionError("a game was played")

    monkeypatch.setattr(runner, "run_game", run_game)
    config = {"learner": {"learner": "constant"}, "nature": {"nature": "coin-flip"},
              "comparison": {"domain": [0], "hypotheses": []}, "T": 10, "trials": 2,
              "master_seed": 1}
    code, out, err = run(capsys, "regret", "--config", json.dumps(config))
    assert (code, out) == (2, "")
    assert err == "nuolab regret: error: comparison class has no hypotheses\n"


def test_ldim_rejects_non_binary_row_values(capsys):
    spec = '{"domain":["a","b"],"hypotheses":[[1.7,0],[true,1],[0,0]]}'
    code, out, err = run(capsys, "ldim", spec)
    assert code == 2 and out == ""
    assert err == "nuolab ldim: error: row values must be 0 or 1, got 1.7\n"


def test_readme_examples_are_committed(capsys):
    # README's CLI examples name these files; the regret config is README's block
    code, out, err = run(capsys, "ldim", str(ROOT / "examples" / "class.json"), "--witness")
    assert code == 0 and err == "" and "ldim:       2\nwitness points" in out
    readme = (ROOT / "README.md").read_text()
    assert "nuolab ldim examples/class.json" in readme
    assert "nuolab regret --config examples/experiment.json" in readme
    block = readme.split("(`examples/experiment.json`):\n\n```json\n")[1].split("```")[0]
    assert (ROOT / "examples" / "experiment.json").read_text() == block


def test_play_csv_to_an_unwritable_path(capsys, tmp_path):
    # the CSV is opened before the game is played
    path = tmp_path / "missing" / "trace.csv"
    code, out, err = run(capsys, "play", "--learner", CONSTANT, "--nature", COIN,
                         "-T", "5", "--csv", str(path))
    assert code == 2 and out == ""
    assert err == f"nuolab play: error: cannot write {str(path)!r}: No such file or directory\n"


@pytest.mark.parametrize("learner, nature, horizon, message", [
    ({"learner": "soa", "class": {"domain": [1], "hypotheses": [[0]]}},
     {"nature": "scripted", "x": [1], "y": [1]}, "1",
     "round 1: restriction by (1, 1) empties the version space"),
    (json.loads(CONSTANT), {"nature": "scripted", "x": [1, 2], "y": [0, 1]}, "3",
     "round 3: scripted stream exhausted after 2 points"),
], ids=["emptied-version-space", "exhausted-script"])
@pytest.mark.parametrize("held", [b"t,x\nkept\n", None], ids=["existing-file", "no-file"])
def test_play_csv_left_as_it_was_when_the_game_fails(capsys, tmp_path, learner, nature,
                                                     horizon, message, held):
    path = tmp_path / "trace.csv"
    if held is not None:
        path.write_bytes(held)
    code, out, err = run(capsys, "play", "--learner", json.dumps(learner), "--nature",
                         json.dumps(nature), "-T", horizon, "--csv", str(path))
    assert code == 2 and out == "" and err == f"nuolab play: error: {message}\n"
    assert (path.read_bytes() if path.exists() else None) == held


def test_play_csv_replaces_the_file_after_the_game(capsys, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("old\n" * 50)
    code, out, err = run(capsys, "play", "--learner", CONSTANT, "--nature", COIN,
                         "-T", "2", "--csv", str(path))
    assert code == 0 and err == "" and out.endswith(f"trace written to {path}\n")
    assert path.read_text().splitlines()[0].startswith("t,x,y,yhat")
    assert len(path.read_text().splitlines()) == 3


CLASS = {"domain": [1], "hypotheses": [[0]]}
TARGET = {"kind": "constant", "value": 0}
SUPPORT = {"family": "finite-support", "params": {"domain": [1]}}


def _play(learner=json.loads(CONSTANT), nature=json.loads(COIN)):
    return ["play", "--learner", json.dumps(learner), "--nature", json.dumps(nature),
            "-T", "3"]


def _iid(measure=None, target=TARGET):
    return {"nature": "iid", "measure": measure or {"support": [1], "mass": ["1/1"]},
            "target": target}


@pytest.mark.parametrize("argv, message", [
    (["ldim", json.dumps({**CLASS, "domain": 5})], "class domain must be a list, got 5"),
    (["ldim", json.dumps({**CLASS, "hypotheses": 5})],
     "class hypotheses must be a list, got 5"),
    (["ldim", json.dumps({**CLASS, "hypotheses": [5]})], "row values must be a list, got 5"),
    (["ldim", json.dumps({**CLASS, "labels": 5})],
     "class labels must be a list of ints and strings, or null, got 5"),
    (["ldim", "list.json"], "class spec must be an object, got [1]"),
    (["play", "--learner", "list.json", "--nature", COIN, "-T", "3"],
     "learner spec must be an object, got [1]"),
    (_play({"learner": "expert", "class": CLASS, "key": "12"}),
     "expert key must be a list, got '12'"),
    (_play({"learner": "fpl", "experts": 5, "k": [1]}), "fpl experts must be a list, got 5"),
    (_play({"learner": "cover", "cover": 5}), "cover must be a list, got 5"),
    (_play({"learner": "aggregator",
            "family": {"family": "explicit-list", "params": {"classes": 5}}}),
     "explicit-list classes must be a list, got 5"),
    (_play({"learner": "aggregator", "family": {**SUPPORT, "params": 5}}),
     "params must be an object, got 5"),
    (_play({"learner": "aggregator", "family": {**SUPPORT, "params": {"domain": 5}}}),
     "finite-support domain must be a list, got 5"),
    (_play(nature=_iid({"support": 5, "mass": ["1/1"]})),
     "measure support must be a list, got 5"),
    (_play(nature=_iid(target={"kind": "support", "points": 5})),
     "support points must be a list, got 5"),
    (_play(nature=_iid(target={"kind": "row", "domain": [1], "values": 5})),
     "row values must be a list, got 5"),
    (_play(nature=_iid(target=5)), "target must be an object, got 5"),
], ids=["class-domain", "class-hypotheses", "class-row", "class-labels", "ldim-list",
        "play-list", "expert-key", "fpl-experts", "cover", "explicit-list-classes",
        "family-params", "finite-support-domain", "measure-support", "support-points",
        "row-values", "iid-target"])
def test_malformed_spec_fields(capsys, tmp_path, monkeypatch, argv, message):
    # every field is type-checked when it is read, lists and objects too
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1]")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"nuolab {argv[0]}: error: {message}\n"


FPL_NAN = ('{"learner":"fpl","experts":[{"kind":"constant","value":0},'
           '{"kind":"constant","value":1}],"k":[NaN,1]}')
BOUND_INFINITY = ('{"learner":{"learner":"constant"},"nature":{"nature":"coin-flip"},'
                  '"comparison":[{"kind":"constant","value":0}],"T":5,"trials":3,'
                  '"bound":{"kind":"fpl","k":Infinity}}')
MASS_MINUS_INFINITY = ('{"nature":"iid","measure":{"support":[1,2],"mass":[-Infinity,1]},'
                       '"target":{"kind":"constant","value":0}}')


@pytest.mark.parametrize("argv, spec, constant", [
    (["play", "--learner", FPL_NAN, "--nature", COIN, "-T", "5"], FPL_NAN, "NaN"),
    (["regret", "--config", BOUND_INFINITY], BOUND_INFINITY, "Infinity"),
    (["play", "--learner", CONSTANT, "--nature", MASS_MINUS_INFINITY, "-T", "3"],
     MASS_MINUS_INFINITY, "-Infinity"),
], ids=["fpl-k", "bound-k", "measure-mass"])
def test_non_finite_json_constants_refused(capsys, argv, spec, constant):
    # Python's json reads NaN, Infinity and -Infinity, which JSON does not
    # allow; a spec that holds one is bad JSON
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    message = f"bad JSON in {spec!r}: {constant} is not a JSON number"
    assert err == f"nuolab {argv[0]}: error: {message}\n"


MASS_OVERFLOW = ('{"nature":"iid","measure":{"support":[1,2],"mass":[1e999,1]},'
                 '"target":{"kind":"constant","value":0}}')
BOUND_OVERFLOW = BOUND_INFINITY.replace("Infinity", "1e999")


@pytest.mark.parametrize("argv, spec", [
    (["play", "--learner", CONSTANT, "--nature", MASS_OVERFLOW, "-T", "3"], MASS_OVERFLOW),
    (["regret", "--config", BOUND_OVERFLOW], BOUND_OVERFLOW),
], ids=["measure-mass", "bound-k"])
def test_json_number_overflow_refused(capsys, argv, spec):
    # json reads a number too large for a float, such as 1e999, as inf
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    message = f"bad JSON in {spec!r}: 1e999 is not a finite number"
    assert err == f"nuolab {argv[0]}: error: {message}\n"


# The same rules hold for `python -m nuolab.cli` run as a fresh process from
# the checkout: exit code 2, exactly one line on stderr, and a --csv file
# left byte for byte as it was

def run_process(*argv, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "nuolab.cli", *argv], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


MIXED_POINTS = json.dumps({"learner": {"learner": "constant"},
                           "nature": {"nature": "scripted", "x": ["a", 1], "y": [0, 1]},
                           "comparison": "real-thresholds", "T": 2, "trials": 2})


@pytest.mark.parametrize("argv, message", [
    (["ldim", '{"domain":[1],"hypotheses":5}'], "class hypotheses must be a list, got 5"),
    (["play", "--learner", FPL_NAN, "--nature", COIN, "-T", "5"], "NaN is not a JSON number"),
    (["play", "--learner", CONSTANT, "--nature", MASS_OVERFLOW, "-T", "3"],
     "1e999 is not a finite number"),
    (["play", "--learner", CONSTANT, "--nature",
      '{"nature":"scripted","x":[1,2],"y":[0,1]}', "-T", "3", "--csv", "kept.csv"],
     "round 3: scripted stream exhausted after 2 points"),
    (["regret", "--config", MIXED_POINTS], "threshold comparison needs numeric points"),
    (["play", "--learner", CONSTANT, "--nature", iid_masses("1e-3000000", "1/2"), "-T", "3"],
     "exponent below 1000, got '1e-3000000'"),
], ids=["malformed-spec", "nan", "overflow", "failed-csv", "mixed-threshold-points",
        "mass-exponent"])
def test_bad_input_in_a_fresh_process(tmp_path, argv, message):
    held = tmp_path / "kept.csv"
    held.write_bytes(b"t,x\nkept\n")
    done = run_process(*argv, cwd=tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"nuolab {argv[0]}: error: ") and message in done.stderr
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")
    assert held.read_bytes() == b"t,x\nkept\n"
