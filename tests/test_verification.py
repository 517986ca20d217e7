import importlib.util
import inspect
import json
from pathlib import Path

from nuolab import cli, verification
from nuolab.hypotheses import FiniteClass
from nuolab.littlestone import ldim


class TestOracles:
    def test_exhaustive_adversary_on_known_classes(self):
        assert verification.max_adaptive_soa_mistakes(
            FiniteClass.full_class(("a", "b"))) == 2
        assert verification.max_adaptive_soa_mistakes(
            FiniteClass(("a",), [[0]])) == 0
        thr = FiniteClass.thresholds((1, 2, 3), (1, 2, 3, 4))
        assert verification.max_adaptive_soa_mistakes(thr) == 2

    def test_small_corpus_size(self):
        corpus = verification.small_class_corpus()
        assert len(corpus) == (2 ** 2 - 1) + (2 ** 4 - 1) + (2 ** 8 - 1)

    def test_random_corpus_is_seed_stable(self):
        one = verification.random_class_corpus(10, seed=3)
        two = verification.random_class_corpus(10, seed=3)
        assert [c.rows for c in one] == [c.rows for c in two]


class TestFaultInjection:
    def test_corrupted_dimension_is_caught(self, monkeypatch):
        def corrupted(cls):
            d = ldim(cls)
            return d + 1 if len(cls) == 3 else d

        monkeypatch.setattr(verification, "ldim", corrupted)
        result = verification.check_ldim_minimax_equality(random_count=5)
        assert not result.passed
        assert "FiniteClass" in result.detail   # counterexample printed

    def test_exact_checks_seed_independent(self):
        for check in (verification.check_ldim_minimax_equality,
                      verification.check_soa_mistake_bound):
            a = check(seed=1, random_count=12)
            b = check(seed=2, random_count=12)
            assert a.passed == b.passed


class TestReducedScaleChecks:
    # same code paths as the acceptance run, at a fraction of the trials
    # the Monte-Carlo lines are pinned: a change to the harness, the seed
    # split or a label stream shows here as changed text
    def test_fpl_regret(self):
        assert verification.check_fpl_regret_bound(trials=60, horizon=100).line() == (
            "[PASS] fpl-regret-bound: T=100, 60 trials: two-expert-alternating "
            "worst margin 24.0; two-expert-coin worst margin 26.8; "
            "five-expert-coin worst margin 27.6")

    def test_hierarchical(self):
        assert verification.check_hierarchical_regret_bound(
            trials=12, horizons=(50,)).line() == (
            "[PASS] hierarchical-regret-bound: 12 trials; T=50 alternating: "
            "n=1: 2.8 vs 140, n=2: 2.8 vs 178; T=50 coin: n=1: 3.7 vs 140, "
            "n=2: 6.5 vs 178")

    def test_coinflip_floor(self):
        assert verification.check_coinflip_regret_floor(
            trials=60, horizons=(50,)).line() == (
            "[PASS] coinflip-regret-floor: 60 trials; T=50 agnostic: 3.72 >= 0.33; "
            "T=50 root-expert: 1.77 >= 0.33; T=50 constant: 1.77 >= 0.33")

    def test_aggregator(self):
        assert verification.check_aggregator_square_bound(horizon=60).passed

    def test_cover(self):
        assert verification.check_cover_index_bound(horizon=40).passed

    def test_window(self):
        assert verification.check_window_halving(rounds=8).passed


class TestCli:
    def test_ldim_command(self, tmp_path, capsys):
        path = tmp_path / "cls.json"
        path.write_text(json.dumps({"domain": ["a", "b"],
                                    "hypotheses": [[0, 0], [0, 1], [1, 0], [1, 1]]}))
        assert cli.main(["ldim", str(path), "--witness"]) == 0
        out = capsys.readouterr().out
        assert "ldim:       2" in out and "witness points" in out

    def test_play_command(self, tmp_path, capsys):
        learner = json.dumps({"learner": "constant", "value": 0})
        nat = json.dumps({"nature": "scripted", "x": [1, 2, 3],
                          "target": {"kind": "threshold", "value": 2}})
        csv_path = tmp_path / "trace.csv"
        assert cli.main(["play", "--learner", learner, "--nature", nat,
                         "-T", "3", "--seed", "1", "--csv", str(csv_path)]) == 0
        assert "mistakes: 2" in capsys.readouterr().out
        assert csv_path.read_text().startswith("t,x,y,yhat")

    def test_regret_command(self, tmp_path, capsys):
        config = {
            "learner": {"learner": "constant", "value": 0},
            "nature": {"nature": "coin-flip"},
            "comparison": {"domain": [0], "hypotheses": [[0], [1]]},
            "T": 20, "trials": 20, "master_seed": 0,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["regret", "--config", str(path)]) == 0
        assert "mean" in capsys.readouterr().out

    def test_verify_command_exit_codes(self, monkeypatch, capsys):
        ok = verification.CheckResult("stub", True, "fine")
        bad = verification.CheckResult("stub", False, "broken")
        monkeypatch.setattr(verification, "default_suite", lambda seed=0: [ok])
        assert cli.main(["verify"]) == 0
        assert "[PASS] stub" in capsys.readouterr().out
        monkeypatch.setattr(verification, "default_suite", lambda seed=0: [ok, bad])
        assert cli.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] stub" in out and "1/2 checks passed" in out


def recorded_checks(monkeypatch) -> list:
    """Stub every `check_*` to pass at once; the returned list collects
    (name, arguments with the defaults applied) of each call."""
    calls = []

    def stub_of(name, check):
        signature = inspect.signature(check)

        def stub(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((name, dict(bound.arguments)))
            return verification.CheckResult(name, True, "stub")
        return stub

    for name, check in list(vars(verification).items()):
        if name.startswith("check_") and callable(check):
            monkeypatch.setattr(verification, name, stub_of(name, check))
    return calls


def test_acceptance_pins_the_default_suite(monkeypatch):
    # each acceptance test pins one check's line at its own arguments, and
    # the lines are meant to be what `verify --suite default` prints: the
    # suite must call each check once, with the arguments its test passes,
    # and call no check that has no pinned line. No Monte-Carlo trial runs
    calls = recorded_checks(monkeypatch)
    spec = importlib.util.spec_from_file_location(
        "acceptance_pins", Path(__file__).with_name("test_acceptance.py"))
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    monkeypatch.setattr(acceptance, "_assert", lambda result, line: None)
    for name, test in vars(acceptance).items():
        if name.startswith("test_"):
            test()
    pinned = dict(calls)
    assert len(pinned) == len(calls), calls
    calls.clear()
    verification.default_suite(seed=0)
    assert len(dict(calls)) == len(calls), calls
    assert dict(calls) == pinned
