"""Acceptance suite: every bound the package claims, verified at its
stated tolerance. Exact checks carry zero tolerance; expectation checks
compare the Monte-Carlo mean with a three-standard-error margin against
the analytic expression. Each check runs with the arguments that
`nuolab verify --suite default` gives it, and its line is pinned to the
text that command prints, so a change to a verdict, a margin or a random
stream fails here."""
import itertools
import math
from fractions import Fraction

import pytest

from nuolab import runner, verification
from nuolab.hypotheses import FiniteClass

PINNED = [
    # all classes over <= 3 points plus 50 random classes over 4-5 points
    "[PASS] ldim-minimax-equality: 323 classes, game value == dimension on all",
    # committed forcing scripts and exhaustive adversary enumeration
    "[PASS] soa-mistake-bound: 323 classes, mistakes <= dimension on all",
    # twelve-point bounded-support union, truth in component k = 1, 2, 3,
    # adversarial scripted streams of length 200, mistakes <= (d_k + k)^2
    "[PASS] aggregator-square-bound: mistakes <= (d_k+k)^2 for k in (1,2,3), T=200",
    # targets covered at index 1, 5, 10; iid streams; mistakes <= m
    "[PASS] cover-index-bound: mistakes <= m for m in (1,5,10), T=80",
    # exhaustive label patterns at T = 8 and full point/label product at
    # T = 4 over dimension-1 and dimension-2 classes
    "[PASS] expert-key-cover: 3104 point/label patterns, witness key found for all",
    # fixed expert sets, T = 400, 2000 trials, mean + 3 SE <= (k_i + 2) sqrt(T)
    "[PASS] fpl-regret-bound: T=400, 2000 trials: two-expert-alternating "
    "worst margin 50.1; two-expert-coin worst margin 58.9; "
    "five-expert-coin worst margin 59.1",
    # two-component family with dims <= 2, T in {100, 200}, 500 trials
    "[PASS] hierarchical-regret-bound: 500 trials; T=100 alternating: "
    "n=1: 4.8 vs 225, n=2: 4.8 vs 286; T=100 coin: n=1: 3.7 vs 225, n=2: "
    "5.5 vs 286; T=200 alternating: n=1: 6.3 vs 357, n=2: 6.3 vs 453; "
    "T=200 coin: n=1: 5.9 vs 357, n=2: 7.9 vs 453",
    # fair-coin labels, T in {100, 400}, 2000 trials,
    # mean - 3 SE >= 3 sqrt(T) / 64 for the hierarchical learner and baselines
    "[PASS] coinflip-regret-floor: 2000 trials; T=100 agnostic: 3.94 >= "
    "0.47; T=100 root-expert: 4.08 >= 0.47; T=100 constant: 4.08 >= "
    "0.47; T=400 agnostic: 7.83 >= 0.94; T=400 root-expert: 7.99 >= "
    "0.94; T=400 constant: 7.99 >= 0.94",
    # partial sums over 10^4 terms: component scheme <= 1/e, pools <= 0.83
    "[PASS] complexity-mass: component 0.2226 <= 1/e, pool <= 0.83 for "
    "dims 0-3, 10000 terms",
    # every learner errs on each of >= 32 rounds; exact realizability check
    "[PASS] window-halving-forcing: 3 learners, 40 forced mistakes each, "
    "all prefixes realizable",
]


def pinned_name(line: str) -> str:
    """The check a pinned line is the verdict of: "[PASS] name: detail"."""
    return line.split("] ", 1)[1].split(":", 1)[0]


def test_the_pinned_lines_name_the_suite_checks():
    # no check runs: each check of the suite has one pinned line, and each
    # pinned line is the verdict of one check of the suite
    names = [pinned_name(line) for line in PINNED]
    assert sorted(names) == sorted(verification.SUITE)
    checks = [check for check, _ in verification.SUITE.values()]
    assert len(set(checks)) == len(checks)


def coinflip_expected_regret(horizon: int) -> Fraction:
    """T/2 - E[min(B, T - B)] for B ~ Binomial(T, 1/2): the expected regret,
    against the two constants on one point, of a learner that does not see
    the current fair label, and so errs on it with chance 1/2."""
    best = sum(math.comb(horizon, b) * min(b, horizon - b) for b in range(horizon + 1))
    return Fraction(horizon, 2) - Fraction(best, 2 ** horizon)


@pytest.mark.parametrize("horizon", range(13))
def test_coinflip_expectation_is_the_mean_over_every_label_sequence(horizon):
    # both a constant and a learner that repeats the last label see only
    # past labels: their regret, averaged over all 2^T label sequences
    ones = FiniteClass((0,), [[0], [1]])
    for predict in (lambda ys: [0] * len(ys), lambda ys: [0, *ys[:-1]]):
        total = sum(runner.regret(runner.GameTrace([0] * horizon, list(ys), predict(ys)), ones)
                    for ys in itertools.product((0, 1), repeat=horizon))
        assert Fraction(total, 2 ** horizon) == coinflip_expected_regret(horizon)
    assert f"{float(coinflip_expected_regret(100)):.5f}" == "3.97946"
    assert f"{float(coinflip_expected_regret(400)):.5f}" == "7.97386"


@pytest.mark.parametrize("name", verification.SUITE)
def test_the_default_run_prints_the_pinned_line(name, monkeypatch):
    # each curve the check scores is kept, as (horizon, its TrialStats)
    curves, regret_curve = [], runner.regret_curve

    def recorded(makers, make_nature, horizons, *rest):
        stats = regret_curve(makers, make_nature, horizons, *rest)
        curves.extend(zip(horizons, stats))
        return stats

    monkeypatch.setattr(runner, "regret_curve", recorded)
    result = verification.verdict(name, **verification.suite_arguments(name, "default", 0))
    print()
    print(result.line())
    assert result.passed, result.detail
    assert result.line() == {pinned_name(line): line for line in PINNED}[name]
    if name == "coinflip-regret-floor":
        # no learner of the check sees the current label, so each of its six
        # means lies within 4 SE of the exact expectation
        assert [T for T, _ in curves] == [100, 400]
        for T, stats in curves:
            exact = float(coinflip_expected_regret(T))
            assert len(stats.mean) == 3 and (abs(stats.mean - exact) <= 4 * stats.se).all()
