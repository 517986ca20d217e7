import pytest

from nuolab import bounds, learners, nature, verification
from nuolab.hypotheses import FiniteClass
from nuolab.learners import CoverSpec
from nuolab.littlestone import VersionSpace, ldim


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


def lies(reveal_label):
    """A window nature's `reveal_label` that records the true label but
    reveals the prediction."""
    return lambda self, x, predicted, trace=None: (reveal_label(self, x, predicted, trace),
                                                   predicted)[1]


def misrecords(reveal_label):
    """A window nature's `reveal_label` that reveals the forcing label but
    records its opposite, so that no threshold realizes the history."""
    def reveal(self, x, predicted, trace=None):
        y = reveal_label(self, x, predicted, trace)
        self.emitted[-1] = (x, 1 - y)
        return y
    return reveal


class ZeroVersionSpace(VersionSpace):
    """Predicts 0 from every state: on a class whose hypotheses all label a
    point 1, a mistake there leaves both spaces as they were, so the
    adversary forces mistakes without end."""

    def predict(self, sid, x):
        return 0


def only_component_2(bound):
    """`bounds.hierarchical_regret` with component 2's bound at 0."""
    return lambda dim, n, T: bound(dim, n, T) if n != 2 else 0.0


# fault id -> (object, attribute, a value that breaks the check, the check's
# arguments at a small scale, the start of its FAIL detail): a bound, an
# oracle, a learner or a nature each. A check's first fault has its verdict
# name as id, and any other fires another FAIL branch, under "name/branch"
FAULTS = {
    "ldim-minimax-equality": (verification, "ldim", lambda cls: ldim(cls) + (len(cls) == 3),
                              {"random_count": 5}, "dimension 2 != game value 1 on FiniteClass("),
    "soa-mistake-bound": (learners, "SoaLearner", lambda cls: learners.ConstantLearner(0),
                          {"random_count": 0}, "committed script forces 2 > 1 on FiniteClass("),
    "soa-mistake-bound/exhaustive-adversary": (
        verification, "ldim", lambda cls: max(ldim(cls) - 1, 0), {"random_count": 0},
        "exhaustive adversary forces 1 > dimension 0 on FiniteClass("),
    "soa-mistake-bound/unbounded": (
        verification, "VersionSpace", ZeroVersionSpace, {"random_count": 0},
        "exhaustive adversary forces inf > dimension 0 on FiniteClass("),
    "aggregator-square-bound": (bounds, "aggregator_mistakes", lambda d, k: 0, {"horizon": 20},
                                "k=1: 1 mistakes > (1+1)^2 = 0"),
    "cover-index-bound": (learners, "CoverSpec", lambda cover: CoverSpec(cover[::-1]),
                          {"horizon": 20}, "m=1, seed=0: 1 mistakes, final index 20"),
    "expert-key-cover": (verification, "ldim", lambda cls: 0, {},
                         "no key within 0 + L mistakes for ys=(0, 0, 0, 0, 0, 0, 0, 0)"),
    "fpl-regret-bound": (bounds, "fpl_regret", lambda k, T: 0.0, {"trials": 4, "horizon": 20},
                         "two-expert-alternating: regret vs expert 1 = "),
    "hierarchical-regret-bound": (bounds, "hierarchical_regret", lambda dim, n, T: 0.0,
                                  {"trials": 4, "horizons": (20,)},
                                  "T=20 alternating: regret vs component 1 = "),
    "hierarchical-regret-bound/component-2": (
        bounds, "hierarchical_regret", only_component_2(bounds.hierarchical_regret),
        {"trials": 4, "horizons": (20,)}, "T=20 alternating: regret vs component 2 = "),
    "coinflip-regret-floor": (bounds, "coinflip_floor", lambda T: float(T),
                              {"trials": 4, "horizons": (20,)}, "T=20 agnostic: "),
    "complexity-mass": (bounds, "COMPONENT_MASS", 0.0, {"terms": 10},
                        "component mass 0.2097 > 1/e over 10 terms"),
    "window-halving-forcing": (nature.WindowHalving, "reveal_label",
                               lies(nature.WindowHalving.reveal_label), {"rounds": 8},
                               "TruncatedThresholdSoa predicted correctly at round 1"),
    "window-halving-forcing/realizability": (
        nature.WindowHalving, "reveal_label", misrecords(nature.WindowHalving.reveal_label),
        {"rounds": 8}, "window lost realizability at (1/2, "),
}


class TestFaultInjection:
    def test_every_check_has_a_fault(self):
        assert {fault.partition("/")[0] for fault in FAULTS} == verification.SUITE.keys()

    @pytest.mark.parametrize("fault", FAULTS)
    def test_each_check_can_fail(self, fault, monkeypatch):
        target, attribute, value, arguments, detail = FAULTS[fault]
        monkeypatch.setattr(target, attribute, value)
        name = fault.partition("/")[0]
        assert verification.verdict(name, **arguments).line().startswith(
            f"[FAIL] {name}: {detail}")

    def test_exact_checks_seed_independent(self):
        for name in ("ldim-minimax-equality", "soa-mistake-bound"):
            a = verification.verdict(name, seed=1, random_count=12)
            b = verification.verdict(name, seed=2, random_count=12)
            assert a.passed == b.passed


class TestReducedScaleChecks:
    # same code paths as the acceptance run, at a fraction of the trials
    # the Monte-Carlo lines are pinned: a change to the harness, the seed
    # split or a label stream shows here as changed text
    def test_fpl_regret(self):
        assert verification.verdict("fpl-regret-bound", trials=60, horizon=100).line() == (
            "[PASS] fpl-regret-bound: T=100, 60 trials: two-expert-alternating "
            "worst margin 24.0; two-expert-coin worst margin 26.8; "
            "five-expert-coin worst margin 27.6")

    def test_hierarchical(self):
        assert verification.verdict(
            "hierarchical-regret-bound", trials=12, horizons=(50,)).line() == (
            "[PASS] hierarchical-regret-bound: 12 trials; T=50 alternating: "
            "n=1: 2.8 vs 140, n=2: 2.8 vs 178; T=50 coin: n=1: 3.7 vs 140, "
            "n=2: 6.5 vs 178")

    def test_coinflip_floor(self):
        assert verification.verdict(
            "coinflip-regret-floor", trials=60, horizons=(50,)).line() == (
            "[PASS] coinflip-regret-floor: 60 trials; T=50 agnostic: 3.72 >= 0.33; "
            "T=50 root-expert: 1.77 >= 0.33; T=50 constant: 1.77 >= 0.33")

    def test_aggregator(self):
        assert verification.verdict("aggregator-square-bound", horizon=60).passed

    def test_cover(self):
        assert verification.verdict("cover-index-bound", horizon=40).passed

    def test_window(self):
        assert verification.verdict("window-halving-forcing", rounds=8).passed
