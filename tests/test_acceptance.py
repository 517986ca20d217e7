"""Acceptance suite: every bound the package claims, verified at its
stated tolerance. Exact checks carry zero tolerance; expectation checks
compare the Monte-Carlo mean with a three-standard-error margin against
the analytic expression. One pass/fail line prints per criterion, and
each line is pinned to the text `nuolab verify --suite default` prints, so
a change to a verdict, a margin or a random stream fails here."""

from nuolab import verification


def _assert(result, line):
    print()
    print(result.line())
    assert result.passed, result.detail
    assert result.line() == line


def test_dimension_equals_game_value():
    # all classes over <= 3 points plus 50 random classes over 4-5 points
    _assert(verification.check_ldim_minimax_equality(seed=0, random_count=50),
            "[PASS] ldim-minimax-equality: 323 classes, game value == dimension "
            "on all")


def test_soa_mistakes_within_dimension():
    # committed forcing scripts and exhaustive adversary enumeration
    _assert(verification.check_soa_mistake_bound(seed=0, random_count=50),
            "[PASS] soa-mistake-bound: 323 classes, mistakes <= dimension on all")


def test_aggregator_square_bound():
    # twelve-point bounded-support union, truth in component k = 1, 2, 3,
    # adversarial scripted streams of length 200, mistakes <= (d_k + k)^2
    _assert(verification.check_aggregator_square_bound(horizon=200),
            "[PASS] aggregator-square-bound: mistakes <= (d_k+k)^2 for k in "
            "(1,2,3), T=200")


def test_cover_learner_index_bound():
    # targets covered at index 1, 5, 10; iid streams; mistakes <= m
    _assert(verification.check_cover_index_bound(horizon=80),
            "[PASS] cover-index-bound: mistakes <= m for m in (1,5,10), T=80")


def test_expert_key_exists_for_every_sequence():
    # exhaustive label patterns at T = 8 and full point/label product at
    # T = 4 over dimension-1 and dimension-2 classes
    _assert(verification.check_expert_key_bound(),
            "[PASS] expert-key-cover: 3104 point/label patterns, witness key "
            "found for all")


def test_fpl_regret_within_complexity_bound():
    # fixed expert sets, T = 400, 2000 trials, mean + 3 SE <= (k_i + 2) sqrt(T)
    _assert(verification.check_fpl_regret_bound(trials=2000, horizon=400),
            "[PASS] fpl-regret-bound: T=400, 2000 trials: two-expert-alternating "
            "worst margin 50.1; two-expert-coin worst margin 58.9; "
            "five-expert-coin worst margin 59.1")


def test_hierarchical_regret_within_explicit_bound():
    # two-component family with dims <= 2, T in {100, 200}, 500 trials
    _assert(verification.check_hierarchical_regret_bound(trials=500,
                                                         horizons=(100, 200)),
            "[PASS] hierarchical-regret-bound: 500 trials; T=100 alternating: "
            "n=1: 4.8 vs 225, n=2: 4.8 vs 286; T=100 coin: n=1: 3.7 vs 225, n=2: "
            "5.5 vs 286; T=200 alternating: n=1: 6.3 vs 357, n=2: 6.3 vs 453; "
            "T=200 coin: n=1: 5.9 vs 357, n=2: 7.9 vs 453")


def test_coinflip_regret_floor():
    # fair-coin labels, T in {100, 400}, 2000 trials,
    # mean - 3 SE >= 3 sqrt(T) / 64 for the hierarchical learner and baselines
    _assert(verification.check_coinflip_regret_floor(trials=2000,
                                                     horizons=(100, 400)),
            "[PASS] coinflip-regret-floor: 2000 trials; T=100 agnostic: 3.94 >= "
            "0.47; T=100 root-expert: 4.08 >= 0.47; T=100 constant: 4.08 >= "
            "0.47; T=400 agnostic: 7.83 >= 0.94; T=400 root-expert: 7.99 >= "
            "0.94; T=400 constant: 7.99 >= 0.94")


def test_complexity_mass_ceilings():
    # partial sums over 10^4 terms: component scheme <= 1/e, pools <= 0.83
    _assert(verification.check_complexity_mass(terms=10_000),
            "[PASS] complexity-mass: component 0.2226 <= 1/e, pool <= 0.83 for "
            "dims 0-3, 10000 terms")


def test_window_halving_forces_every_round():
    # every learner errs on each of >= 32 rounds; exact realizability check
    _assert(verification.check_window_halving(rounds=40),
            "[PASS] window-halving-forcing: 3 learners, 40 forced mistakes each, "
            "all prefixes realizable")
