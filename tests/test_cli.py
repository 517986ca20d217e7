"""The command line: input errors end with exit code 2 and one line on
stderr, never a traceback."""
import json

import pytest

from nuolab import cli

COIN = json.dumps({"nature": "coin-flip"})
CONSTANT = json.dumps({"learner": "constant"})


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
], ids=["unknown-learner", "negative-horizon", "malformed-nature", "missing-key",
        "exhausted", "redraw-once"])
def test_play_input_errors(capsys, argv, message):
    code, out, err = run(capsys, "play", *argv)
    assert code == 2 and out == ""
    assert err.startswith("nuolab play: error: ") and message in err
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


@pytest.mark.parametrize("change, message", [
    ({"T": "20"}, "T and Ts must hold ints, got ['20']"),
    ({"Ts": [20, 20.5]}, "T and Ts must hold ints, got [20, 20.5]"),
    ({"Ts": [True]}, "T and Ts must hold ints, got [True]"),
    ({"Ts": 20}, "T and Ts must hold ints, got 20"),
    ({"trials": 5.9}, "trials must be an int, got 5.9"),
    ({"trials": True}, "trials must be an int, got True"),
    ({"comparison": []}, "comparison list is empty"),
    ({"master_seed": 7.9}, "master_seed must be an int, got 7.9"),
    ({"master_seed": True}, "master_seed must be an int, got True"),
    ({"bound": {"kind": "hierarchical", "dim": 1.7, "n": 1}},
     "bound dim must be an int, got 1.7"),
    ({"bound": {"kind": "hierarchical", "dim": 1, "n": True}},
     "bound n must be an int, got True"),
    ({"bound": {"kind": "fpl", "k": True}}, "bound k must be a number, got True"),
    ({"learner": {"learner": "agnostic-fpl", "family": {"kind": "finite-support",
                                                        "domain": [0, 1]},
                  "redraw": "once"}},
     "redraw must be 'per-round', got 'once'"),
], ids=["string-T", "float-Ts", "bool-Ts", "scalar-Ts", "float-trials",
        "bool-trials", "empty-comparison", "float-seed", "bool-seed", "float-dim",
        "bool-n", "bool-k", "redraw-once"])
def test_regret_rejects_bad_config(capsys, change, message):
    code, out, err = run(capsys, "regret", "--config", json.dumps({**REGRET, **change}))
    assert code == 2 and out == ""
    assert err == f"nuolab regret: error: {message}\n"


def test_ldim_rejects_non_binary_row_values(capsys):
    spec = '{"domain":["a","b"],"hypotheses":[[1.7,0],[true,1],[0,0]]}'
    code, out, err = run(capsys, "ldim", spec)
    assert code == 2 and out == ""
    assert err == "nuolab ldim: error: row values must be 0 or 1, got 1.7\n"
