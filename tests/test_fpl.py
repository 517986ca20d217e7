import hashlib
import math
import random

import numpy as np
import pytest

from doubles import LastLabel
from nuolab import bounds, nature, runner
from nuolab.fpl import (AgnosticFpl, ConfigurationError, ExpertPoolFpl,
                        FplLearner, meta_complexity, pool_complexity)
from nuolab.hypotheses import (ExplicitListFamily, FamilyComponent, FiniteClass,
                               FiniteSupportClass, SingletonClass,
                               threshold_hypothesis)
from nuolab.learners import (ConstantLearner, ExpertLearner,
                             FollowHypothesisLearner, SoaLearner)


class TestComplexitySchemes:
    def test_meta_scheme_values(self):
        assert meta_complexity(1) == pytest.approx(2.0)
        assert meta_complexity(10) == pytest.approx(2 * (math.log(10) + 1))

    def test_pool_scheme_values(self):
        assert pool_complexity(2, 0) == 1.0       # empty key
        assert pool_complexity(2, 1) == 1.0       # log 1 = 0
        assert pool_complexity(1, 5) == pytest.approx(1 + 3 * math.log(5))

    # the masses are summed from the schemes the learners run, against the
    # ceilings in `bounds` that the complexity-mass check reads
    @staticmethod
    def meta_mass(terms):
        return math.fsum(math.exp(-meta_complexity(n)) for n in range(1, terms + 1))

    def test_meta_mass_below_inverse_e(self):
        mass = self.meta_mass(10_000)
        assert mass <= bounds.COMPONENT_MASS
        assert mass == pytest.approx(0.2226, abs=5e-4)

    def test_pool_mass_below_083(self):
        for dim in (0, 1, 2, 3):
            mass = math.fsum(t ** dim * math.exp(-pool_complexity(dim, t))
                             for t in range(1, 10_001))
            assert mass < bounds.POOL_MASS

    def test_partial_sums_monotone(self):
        values = [self.meta_mass(n) for n in (10, 100, 1000)]
        assert values == sorted(values) and values[-1] <= bounds.COMPONENT_MASS


class TestFplLearner:
    def test_single_expert_zero_regret(self):
        learner = FplLearner([ConstantLearner(1)], [0.0], seed=0)
        for y in (0, 1, 1, 0, 1):
            learner.update("x", y)
        assert learner.mistakes == learner.losses[0]

    def test_mass_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            FplLearner([ConstantLearner(0), ConstantLearner(1)], [0.0, 0.0], seed=0)

    @pytest.mark.parametrize("k", [math.nan, -math.inf])
    def test_non_finite_mass_rejected(self, k):
        # a NaN mass compares false with the budget, and an infinite one
        # overflows it; either would let `argmin` pick a NaN score
        with pytest.raises(ConfigurationError, match="complexity mass (nan|inf) exceeds 1"):
            FplLearner([ConstantLearner(0), ConstantLearner(1)], [k, 1.0], seed=1)

    @pytest.mark.parametrize("k", [-710, 10 ** 400], ids=["mass-overflows", "int-beyond-float"])
    def test_complexity_beyond_float_range_rejected(self, k):
        # exp(-k) overflows a float below k = -709.8, and an int that no
        # float holds cannot be charged at all: both are refused when the
        # learner is built, as a configuration error
        with pytest.raises(ConfigurationError, match=r"complexity \S+ is out of range"):
            FplLearner([ConstantLearner(0), ConstantLearner(1)], [k, 1.0], seed=1)

    def test_one_complexity_per_expert(self):
        with pytest.raises(ConfigurationError, match="experts and complexities differ in length"):
            FplLearner([ConstantLearner(0), ConstantLearner(1)], [1.0], seed=0)

    def test_no_experts_rejected(self):
        with pytest.raises(ConfigurationError, match="need at least one expert"):
            FplLearner([], [], seed=0)

    def test_expert_listed_twice_rejected(self):
        # the round loop feeds a twice-listed expert twice a round, and a
        # batch counts its mistakes once a round, so the two would choose
        # different leaders
        c, d = ConstantLearner(0), ConstantLearner(1)
        with pytest.raises(ConfigurationError, match="an expert is listed twice"):
            FplLearner([c, c, d], [2.0, 2.0, 2.0], seed=5)

    def test_expert_inside_a_nested_leader_rejected(self):
        # an expert listed beside a nested FplLearner that holds it too is
        # fed twice a round, in another order by a batch than by the loop:
        # on 50 coin-flip labels the two made 21 and 25 mistakes
        c, d = ConstantLearner(0), ConstantLearner(1)
        inner = FplLearner([c, d], [1.5, 1.5], seed=2)
        with pytest.raises(ConfigurationError, match="an expert is listed twice"):
            FplLearner([c, inner], [1.5, 1.5], seed=5)
        with pytest.raises(ConfigurationError, match="an expert is listed twice"):
            FplLearner([FplLearner([inner], [1.5], seed=3), d], [1.5, 1.5], seed=5)

    def test_reproducible_bit_for_bit(self):
        def run():
            learner = FplLearner([ConstantLearner(0), ConstantLearner(1)],
                                 [1.0, 1.0], seed=42)
            out = []
            for t in range(60):
                out.append(learner.predict("x"))
                learner.update("x", t % 2)
            return out
        assert run() == run()

    def test_predict_idempotent_within_round(self):
        learner = FplLearner([ConstantLearner(0), ConstantLearner(1)],
                             [1.0, 1.0], seed=3)
        assert learner.predict("x") == learner.predict("x")
        chosen = learner.chosen_index
        assert learner.predict("x") == learner.predict("x")
        assert learner.chosen_index == chosen

    def test_choice_stable_within_round_on_nan_point(self):
        # nan != nan, so a choice cached on the point would be redrawn by
        # update and scored against a prediction that was never played
        learner = FplLearner([ConstantLearner(0), ConstantLearner(1)],
                             [1.0, 1.0], seed=4)
        labels = random.Random(8)
        x = float("nan")
        played = 0
        for _ in range(200):
            yhat = learner.predict(x)
            chosen = learner.chosen_index
            assert learner.predict(x) == yhat and learner.chosen_index == chosen
            y = labels.getrandbits(1)
            played += yhat != y
            learner.update(x, y)
        assert played == learner.mistakes

    def test_counterfactual_losses_match_replay(self):
        rng = random.Random(9)
        labels = [rng.getrandbits(1) for _ in range(120)]
        learner = FplLearner([ConstantLearner(0), ConstantLearner(1)],
                             [1.0, 1.0], seed=17)
        for y in labels:
            learner.update("x", y)
        assert learner.losses[0] == sum(labels)
        assert learner.losses[1] == len(labels) - sum(labels)


class _Ones:
    """A generator whose every Exponential(1) draw is 1, so scores tie."""

    def standard_exponential(self, size):
        return np.ones(size)


def one_row_leader(rng, complexities, loss, t):
    """The single-round rule the block scorer replaced: one Exponential(1)
    vector, scored in place, ties to the smallest index."""
    score = rng.standard_exponential(len(loss))
    np.subtract(complexities[:len(score)], score, out=score)
    score *= math.sqrt(t)
    score += loss
    return int(score.argmin()), float(score.min())


def scorer(seed: int) -> FplLearner:
    """A perturbed leader to call `_leaders` on; building it draws nothing."""
    return FplLearner([ConstantLearner(0)], [1.0], seed=seed)


class TestBlockScorer:
    """`_PerturbedLeader._leaders`, the one exact scorer, on blocks built by
    hand."""

    MASK = np.array([[True, True, False, True, False],
                     [True, False, False, False, False],
                     [True, True, True, True, True],
                     [True, False, True, True, False]])

    def test_masked_block_draws_once_per_masked_cell(self):
        rng = np.random.default_rng(5)
        loss = rng.integers(0, 6, self.MASK.shape).astype(float)
        k = rng.uniform(1.0, 3.0, self.MASK.shape)
        ts = np.array([3, 4, 5, 6])
        learner = scorer(11)
        with np.errstate(all="raise"):      # the cells outside the mask hold inf
            cols, best = learner._leaders(ts, loss, k, self.MASK)
        reference = np.random.default_rng(11)
        q = iter(reference.standard_exponential(int(self.MASK.sum())))
        assert learner.rng.bit_generator.state == reference.bit_generator.state
        # the draws fill the masked cells in row-major order
        for i, t in enumerate(ts):
            scores = [(loss[i, c] + (k[i, c] - next(q)) * math.sqrt(t), c)
                      for c in np.flatnonzero(self.MASK[i])]
            assert (best[i], cols[i]) == min(scores)

    def test_masked_cell_never_leads(self):
        loss = np.full(self.MASK.shape, 50.0)
        loss[~self.MASK] = -1e6     # the lowest loss, outside the mask
        k = np.ones(self.MASK.shape)
        for seed in range(20):
            with np.errstate(all="raise"):
                cols, best = scorer(seed)._leaders(np.arange(1, 5), loss, k, self.MASK)
            assert self.MASK[np.arange(4), cols].all() and np.isfinite(best).all()

    def test_ties_go_to_the_first_column(self):
        learner = scorer(0)
        learner.rng = _Ones()
        loss = np.array([[2.0, 2.0, 2.0, 2.0], [3.0, 1.0, 4.0, 1.0], [2.0, 2.0, 2.0, 2.0]])
        mask = np.array([[True] * 4, [True] * 4, [False, False, True, True]])
        cols, best = learner._leaders(np.array([1, 4, 9]), loss, np.ones(4), mask)
        assert cols.tolist() == [0, 1, 2] and best.tolist() == [2.0, 1.0, 2.0]
        cols, _ = learner._leaders(np.array([1, 4, 9]), loss, np.ones(4))
        assert cols.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_one_row_block_is_the_single_round_rule(self, n):
        # the leader, its score and the generator state after the round
        # are the single-round rule's, for the same seed
        for seed in range(25):
            draw = random.Random(seed)
            loss = np.array([draw.randint(0, 30) for _ in range(n)])
            k = np.array([1.0 + draw.random() * 4 for _ in range(n)])
            t = draw.randint(1, 500)
            learner = scorer(seed)
            cols, best = learner._leaders(np.array([t]), loss[None], k)
            reference = np.random.default_rng(seed)
            assert (int(cols[0]), float(best[0])) == one_row_leader(reference, k, loss, t)
            assert learner.rng.bit_generator.state == reference.bit_generator.state


def pool_component(dim: int, domain=(1, 2, 3, 4)) -> FamilyComponent:
    if dim == 0:
        return FamilyComponent(1, SingletonClass(threshold_hypothesis(2)), 0)
    if dim == 1:
        return FamilyComponent(1, FiniteClass(domain, [[0] * len(domain),
                                                       [1] * len(domain)]), 1)
    cls = FiniteClass.thresholds(domain, tuple(range(1, len(domain) + 2)))
    return FamilyComponent(2, cls, 2)


class TestExpertPool:
    def test_growth_matches_key_enumeration(self):
        pool = ExpertPoolFpl(pool_component(2), seed=0)
        for t in range(1, 4):
            pool.predict(1)
            pool.update(1, t % 2)
        expected = {(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)}
        assert set(pool.keys) == expected
        assert pool.pool_size <= 3 ** 2 + 1

    def test_missing_attribute_raises_attribute_error(self):
        # the lazy read of a replayed pool's arrays answers only `state` and
        # `losses`, and only once a replay left them unread
        pool = ExpertPoolFpl(pool_component(1), seed=0)
        with pytest.raises(AttributeError, match="'ExpertPoolFpl' object has no attribute 'nope'"):
            pool.nope
        assert not hasattr(pool, "nope")

    def test_dimension_one_growth(self):
        pool = ExpertPoolFpl(pool_component(1), seed=0)
        for t in range(1, 6):
            before = pool.pool_size
            pool.predict(1)
            added = pool.pool_size - before
            assert added == 1
            pool.update(1, 0)
        assert pool.keys[-1] == (5,)

    def test_cardinality_bound(self):
        pool = ExpertPoolFpl(pool_component(2), seed=1)
        for t in range(1, 13):
            pool.predict((t % 4) + 1)
            pool.update((t % 4) + 1, t % 2)
            exact = sum(math.comb(t, l) for l in range(0, 3))
            assert pool.pool_size == exact <= t ** 2 + 1

    @pytest.mark.parametrize("comp", [
        pool_component(2),
        FamilyComponent(2, FiniteSupportClass((1, 2, 3, 4, 5), 2), 2),
        pool_component(0),
    ], ids=["thresholds", "support", "singleton"])
    def test_losses_match_standalone_keyed_experts(self, comp):
        # one version-space learner serves every component class kind
        pool = ExpertPoolFpl(comp, seed=5)
        rng = random.Random(13)
        history = []
        for t in range(1, 16):
            x = rng.choice((1, 2, 3, 4))
            y = rng.getrandbits(1)
            pool.predict(x)
            pool.update(x, y)
            history.append((x, y))
        # replay a sample of keys through the plain object learner
        n = len(pool.keys)
        for idx in sorted({0, 1, n // 2, n - 1} & set(range(n))):
            key = pool.keys[idx]
            expert = ExpertLearner(comp.cls, key, on_empty="freeze")
            for x, y in history:
                expert.update(x, y)
            assert pool.losses[idx] == expert.mistakes, f"key {key}"

    @pytest.mark.parametrize("dim", [0, 1, 2])
    def test_pool_extend_before_predict_grows_the_pool_once(self, dim):
        # a caller may extend a round's pool before `predict`, which extends
        # it again: the second extension and predict's add nothing, and the
        # round's leader and prediction are those of a pool never extended
        # by hand, over rounds whose pools reach the thinned cohort ranges
        extended, plain = (ExpertPoolFpl(pool_component(dim), seed=9) for _ in range(2))
        for t in range(1, 13):
            x, y = (t % 4) + 1, (t // 3) % 2
            counts = [extended.pool_extend() for _ in range(2)]
            grown = (extended.pool_size, extended._ends.tolist(), extended._mass)
            assert counts[0] == counts[1] == extended._ends[t] - extended._ends[t - 1], t
            assert extended.predict(x) == plain.predict(x), t
            assert extended.chosen_index == plain.chosen_index, t
            assert grown == (extended.pool_size, extended._ends.tolist(), extended._mass), t
            assert grown == (plain.pool_size, plain._ends.tolist(), plain._mass), t
            extended.update(x, y)
            plain.update(x, y)
        assert extended.losses.tolist() == plain.losses.tolist()

    def test_singleton_component_pool(self):
        pool = ExpertPoolFpl(pool_component(0), seed=2)
        for x, y in [(1, 0), (2, 1), (3, 1)]:
            assert pool.predict(x) == threshold_hypothesis(2)(x)
            pool.update(x, y)
        assert pool.pool_size == 1

    def test_reproducible(self):
        def run():
            pool = ExpertPoolFpl(pool_component(2), seed=11)
            out = []
            for t in range(1, 25):
                x = (t % 4) + 1
                out.append(pool.predict(x))
                pool.update(x, (t // 2) % 2)
            return out
        assert run() == run()

    def test_seed_sequence_is_not_spawned_from(self):
        # the pool spawns its range and resolution generators from a copy of
        # a passed SeedSequence: the caller's counter stays 0, its next child
        # is the one it would be without the pool, and the pool's streams
        # are those of an int seed with the same entropy
        def game(seed):
            pool = ExpertPoolFpl(pool_component(2), seed=seed)
            xs = [(t % 4) + 1 for t in range(30)]
            return pool.play(xs, [(t // 3) % 2 for t in range(30)]), pool.losses.tolist()

        ss = np.random.SeedSequence(12)
        assert game(ss) == game(12)
        assert ss.n_children_spawned == 0
        assert ss.spawn(1)[0].spawn_key == (0,)
        spawned = np.random.SeedSequence(12, n_children_spawned=5)
        ExpertPoolFpl(pool_component(1), seed=spawned)
        assert spawned.n_children_spawned == 5


def two_component_family() -> ExplicitListFamily:
    constants = FiniteClass((1, 2, 3, 4), [[0, 0, 0, 0], [1, 1, 1, 1]])
    thresholds = FiniteClass.thresholds((1, 2, 3, 4), (1, 2, 3, 4, 5))
    return ExplicitListFamily([constants, thresholds])


class TestAgnosticFpl:
    def family(self):
        return two_component_family()

    def test_reproducible(self):
        def run():
            learner = AgnosticFpl(self.family(), 2, seed=7)
            out = []
            for t in range(1, 40):
                x = (t % 4) + 1
                out.append(learner.predict(x))
                learner.update(x, (t * 3) % 2)
            return out
        assert run() == run()

    def test_cap_dim_enforced(self):
        big = ExplicitListFamily([FiniteClass.full_class((1, 2, 3))])
        with pytest.raises(ConfigurationError):
            AgnosticFpl(big, 1, seed=0, cap_dim=2)
        AgnosticFpl(big, 1, seed=0, cap_dim=None)   # override allowed

    def test_single_component_realizable_mistakes_sublinear(self):
        # roughly O(sqrt T log T): the per-round rate must fall. The root
        # expert, which never restricts, errs once per cycle of the four
        # points and leads until the keyed experts outscore it, which they
        # start to do within 400 rounds. So the rate over 400 rounds falls
        # below the rate over the first 200 rounds of the same games. (Over
        # 1000 trials, games of 100 and of 200 rounds erred at rates 0.2508
        # and 0.2495, a third of the standard error of 30 trials apart.)
        fam = ExplicitListFamily([FiniteClass.thresholds((1, 2, 3, 4),
                                                         (1, 2, 3, 4, 5))])
        target = threshold_hypothesis(3)
        T, trials = 400, 30
        xs = [(t % 4) + 1 for t in range(1, T + 1)]
        ys = [target(x) for x in xs]
        curves = [runner.run_game(AgnosticFpl(fam, 1, seed=s), nature.AgnosticScripted(xs, ys),
                                  T).cumulative_mistakes() for s in range(trials)]
        half = sum(c[T // 2 - 1] for c in curves) / trials
        whole = sum(c[-1] for c in curves) / trials
        assert whole / T < half / (T // 2)

    def test_seed_sequence_is_accepted_and_not_spawned_from(self):
        # a SeedSequence is copied, as a pool copies it: the caller's counter
        # stays as it was, and the game is that of an int seed with the
        # same entropy
        def game(seed):
            learner = AgnosticFpl(self.family(), 2, seed=seed)
            xs = [(t % 4) + 1 for t in range(30)]
            return learner.play(xs, [(t // 3) % 2 for t in range(30)]), learner.rng.random()

        ss = np.random.SeedSequence(1)
        assert game(ss) == game(1)
        assert ss.n_children_spawned == 0
        spawned = np.random.SeedSequence(1, n_children_spawned=5)
        AgnosticFpl(self.family(), 2, seed=spawned)
        assert spawned.n_children_spawned == 5
        assert game(np.int64(1)) == game(1)

    @pytest.mark.parametrize("seed", [1.5, "1", [1, 2], np.random.PCG64(1),
                                      np.random.default_rng(1)],
                             ids=["float", "str", "list", "bit-generator", "generator"])
    def test_other_seeds_are_refused(self, seed):
        # every perturbed leader has the one seed rule. A bit generator or a
        # generator could be shared: one PCG64 seeding a pool and the leader
        # over it, each wrapped in a Generator of its own, interleaves their
        # draws in the round loop but not in a batch
        makers = [lambda: FplLearner([ConstantLearner(0)], [1.0], seed=seed),
                  lambda: ExpertPoolFpl(pool_component(1), seed=seed),
                  lambda: AgnosticFpl(self.family(), 2, seed=seed)]
        for make in makers:
            with pytest.raises(TypeError, match="seed must be an int, a SeedSequence or None, got"):
                make()

    def test_meta_uses_component_complexities(self):
        learner = AgnosticFpl(self.family(), 2, seed=0)
        assert learner.complexities.tolist() == [meta_complexity(1), meta_complexity(2)]
        assert [type(e) for e in learner.experts] == [ExpertPoolFpl, ExpertPoolFpl]


def test_activity_bound_formula_is_exact():
    # `_lazy_leaders` takes 2 ** (1 - k), k = floor(tau log2 e), as exp2 of
    # a float. For tau >= 0, k runs over 0, 1, ..., and both forms are 0 past
    # k = 1075; every k up to 1199 gives the bits of the exact power of two
    k = np.arange(1200.0)
    exact = np.ldexp(1.0, (1 - k).astype(np.int64))
    assert np.array_equal(np.exp2(1.0 - k).view(np.int64), exact.view(np.int64))
    assert exact[1075] > 0.0 == exact[1076]


def same_bits(a, b) -> bool:
    """Whether two arrays hold the same values, floats bit for bit."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or (a.dtype.kind == "f") != (b.dtype.kind == "f"):
        return False
    if a.dtype.kind == "f":
        return np.array_equal(np.ascontiguousarray(a, float).view(np.int64),
                              np.ascontiguousarray(b, float).view(np.int64))
    return np.array_equal(a, b)


def rewrite_inputs(seed: int) -> dict:
    """Inputs of the shapes the replay meets: T rounds, a (round x slot)
    score block, ns states over D points, the cohort tables and ranges."""
    rng = np.random.default_rng(seed)
    T, W, ns, D, n = 60, 9, 4, 5, 5
    a = {"T": T, "ns": ns, "D": D, "y": rng.integers(0, 2, T).astype(np.uint8)}
    a["score"] = rng.integers(0, 4, (T, W)) + rng.standard_exponential((T, W))
    a["cols"] = a["score"].argmin(axis=1)
    a["ix"] = rng.integers(0, D, T)
    a["xs"] = [("p", int(i)) for i in a["ix"]]
    a["pred"] = rng.integers(0, 2, (ns, D))
    a["state"], a["base"] = rng.integers(0, ns, 7), rng.integers(-3, 3, 7).astype(float)
    a["cell"] = rng.integers(0, 7, (T, W))
    a["played"] = rng.integers(0, 2, (n, T)).astype(np.uint8)
    a["before"], a["chosen"] = rng.integers(0, 9, n), rng.integers(0, n, T)
    a["moves"] = rng.integers(0, ns, (ns, D, 2))
    a["mistakes"] = np.cumsum(rng.integers(0, 2, (T + 1, ns)), axis=0).astype(float)
    a["at"] = np.sort(rng.integers(0, T, 90))
    a["low_loss"] = rng.integers(0, 30, 90).astype(float)
    a["low_k"] = rng.uniform(1.0, 9.0, 90)
    a["present"] = [0, 2]
    a["drop"] = rng.integers(-5, 5, (T + 1, ns)).astype(float)
    a["parents"] = rng.uniform(0, 3, (1, ns))
    a["step"] = rng.integers(0, ns, (T + 1, ns))
    return a


def _low(a, copied, index):
    low = np.full(((a["T"] + 1) * a["ns"]), np.inf)
    np.minimum.at(low, index.ravel(), copied.ravel())
    return low


def _losses_in_place(a):
    wrong = a["played"] != a["y"]
    losses = np.add.accumulate(wrong, axis=1, dtype=int)
    losses -= wrong
    losses += a["before"][:, None]
    return losses.T


def _point_index(xs):
    first = {}
    rounds = np.fromiter(map(first.setdefault, xs, range(len(xs))), np.int64, len(xs))
    rank = np.zeros(len(xs), dtype=np.int64)
    rank[list(first.values())] = np.arange(len(first))
    return rank.take(rounds), list(first)


def _cumsum_table(a):
    out = np.zeros((a["T"] + 1, a["ns"]))
    np.cumsum(a["pred"][:, a["ix"]].T != a["y"][:, None], axis=0, out=out[1:])
    return out


def _mistake_table(a):
    out = np.zeros((a["T"] + 1, a["ns"]))
    np.add.accumulate(a["pred"].astype(np.uint8).take(a["ix"], axis=1) != a["y"], axis=1,
                      dtype=float, out=out.T[:, 1:])
    return out


def _step_table(a):
    # the moves as rows 2 * i + y, read once per round
    flat = np.concatenate([a["moves"][:, i, y][None] for i in range(a["D"]) for y in (0, 1)])
    return np.concatenate((np.arange(a["ns"])[None], flat.take(2 * a["ix"] + a["y"], axis=0)))


# each numpy formula the replay rewrote: (the formula it replaced, the one
# it runs), which must agree bit for bit on the shapes it meets
REWRITES = {
    "row-leader-cell": (
        lambda a: a["score"][np.arange(a["T"]), a["cols"]],
        lambda a: a["score"].take(a["cols"] + np.arange(0, a["score"].size, a["score"].shape[1]))),
    "range-tau": (
        lambda a: np.maximum((a["low_loss"] - a["score"].min(axis=1)[a["at"]])
                             / np.sqrt(np.arange(1.0, a["T"] + 1))[a["at"]] + a["low_k"], 0.0),
        lambda a: np.maximum((a["low_loss"] - a["score"].min(axis=1).take(a["at"]))
                             / np.sqrt(np.arange(1.0, a["T"] + 1)).take(a["at"]) + a["low_k"],
                             0.0)),
    "expert-losses": (
        lambda a: (a["before"] + np.cumsum(a["played"].T != a["y"][:, None], axis=0)
                   - (a["played"].T != a["y"][:, None])),
        _losses_in_place),
    "chosen-predictions": (
        lambda a: a["played"].T[np.arange(a["T"]), a["chosen"]],
        lambda a: a["played"].ravel().take(a["chosen"] * a["T"] + np.arange(a["T"]))),
    "chosen-mistakes": (
        lambda a: int((a["played"].T != a["y"][:, None])[np.arange(a["T"]), a["chosen"]].sum()),
        lambda a: int(np.count_nonzero(
            a["played"].ravel().take(a["chosen"] * a["T"] + np.arange(a["T"])) != a["y"]))),
    "point-index": (
        lambda a: (np.fromiter(map({p: i for i, p in enumerate(dict.fromkeys(a["xs"]))}.__getitem__,
                                   a["xs"]), np.int64, a["T"]), list(dict.fromkeys(a["xs"]))),
        lambda a: _point_index(a["xs"])),
    "mistake-table": (_cumsum_table, _mistake_table),
    "step-table": (
        lambda a: np.concatenate((np.arange(a["ns"])[None], a["moves"][:, a["ix"], a["y"]].T)),
        _step_table),
    "low-bases": (
        lambda a: _low(a, a["drop"][1:, a["present"]] + a["parents"][:, a["present"]],
                       np.arange(a["ns"], (a["T"] + 1) * a["ns"], a["ns"])[:, None]
                       + a["step"][1:, a["present"]]),
        lambda a: _low(a, a["drop"].T.take(a["present"], axis=0)[:, 1:]
                       + a["parents"].T.take(a["present"], axis=0),
                       np.arange(a["ns"], (a["T"] + 1) * a["ns"], a["ns"])
                       + a["step"].T.take(a["present"], axis=0)[:, 1:])),
    "exact-cell-losses": (
        lambda a: (a["mistakes"][:a["T"]].take(a["state"], axis=1) + a["base"]).take(
            a["cell"] + 7 * np.arange(a["T"])[:, None]),
        lambda a: (a["mistakes"].T.take(a["state"], axis=0) + a["base"][:, None]).take(
            a["cell"] * (a["T"] + 1) + np.arange(a["T"])[:, None])),
    "pool-predictions": (
        lambda a: a["pred"][a["state"].take(a["cell"][:, 0]), a["ix"]],
        lambda a: a["pred"].astype(np.uint8).take(a["state"].take(a["cell"][:, 0]) * a["D"]
                                                  + a["ix"])),
    "resolved-values": (
        lambda a: np.array((a["low_k"][0] + a["score"][0]).tolist()),
        lambda a: np.array([float(a["low_k"][0]) + e for e in a["score"][0].tolist()])),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", REWRITES)
def test_rewritten_formula_is_exact(name, seed):
    old, new = REWRITES[name]
    a = rewrite_inputs(seed)
    before, after = old(a), new(a)
    if isinstance(before, tuple):   # the point index, and the distinct points
        assert same_bits(before[0], after[0]) and before[1] == after[1]
    else:
        assert same_bits(before, after)


# ---------------------------------------------------------------------------
# stream stability: pinned outputs of fixed seeds and label scripts
# ---------------------------------------------------------------------------

# each case keeps the seed its pinned values below were recorded with
STREAM_SEEDS = {"fpl-five": 500, "pool-dim0": 502, "pool-dim1": 504, "pool-dim2": 506,
                "agnostic-2": 508}


def play_stream(kind, rounds: int = 40):
    """Per-round predictions (as a bit string) and chosen indices, and the
    final losses (a SHA-256 prefix of them for pools above five experts)."""
    seed = STREAM_SEEDS[kind]
    if kind == "fpl-five":
        experts = [ConstantLearner(0), ConstantLearner(1),
                   FollowHypothesisLearner(threshold_hypothesis(3)),
                   SoaLearner(FiniteClass.thresholds((1, 2, 3, 4), (1, 2, 3, 4, 5)),
                              on_empty="freeze"),
                   LastLabel()]
        learner = FplLearner(experts, [1.0 + math.log(i) for i in range(1, 6)],
                             seed=seed)
    elif kind.startswith("pool-dim"):
        learner = ExpertPoolFpl(pool_component(int(kind[-1])), seed=seed)
    else:
        learner = AgnosticFpl(two_component_family(), 2, seed=seed)
    # labels of the threshold at 3, each flipped with probability 1/5
    script = random.Random(77)
    bits, chosen = [], []
    for _ in range(rounds):
        x = script.choice((1, 2, 3, 4))
        y = int(x >= 3) ^ (script.random() < 0.2)
        bits.append(str(learner.predict(x)))
        chosen.append(learner.chosen_index)
        learner.update(x, y)
    if kind == "agnostic-2":
        losses = [pool.mistakes for pool in learner.experts]
    else:
        losses = [int(v) for v in learner.losses]
    if len(losses) > 5:
        losses = hashlib.sha256(repr(losses).encode()).hexdigest()[:16]
    return "".join(bits), chosen, losses


# any change to these values is a change of RNG stream or of tie-breaking.
# From round 9 on, a pool thins its cohorts from the eighth on, range by
# range (`ExpertPoolFpl._lazy_leaders`), and from round 8 on a dimension-2
# pool thins its newborns too, so the pools' streams differ there from
# those of drawing every perturbation, pinned below
STREAM_EXPECTED = {
    "fpl-five": (
        "0010110001000000001010101000010000101011",
        [0, 0, 1, 0, 1, 1, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0, 0, 1, 0,
         1, 0, 3, 0, 2, 2, 0, 3, 0, 1, 0, 0, 2, 3, 3, 0, 1, 0, 1, 1],
        [18, 22, 15, 15, 21]),
    "pool-dim0": (
        "1101001111110110101000111110011100110101", [0] * 40, [19]),
    "pool-dim1": (
        "0111110000000010100001001000000010010000",
        [0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 0, 0, 0,
         0, 4, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0],
        "37ea7bcce4ca14a0"),
    "pool-dim2": (
        "0101001011110110101000111010011100110000",
        [0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1,
         0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        "e44110576736c33f"),
    "agnostic-2": (
        "0101100000000110000100010011000100110110",
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0,
         0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        [18, 18]),
}


@pytest.mark.parametrize("kind", STREAM_SEEDS, ids=[f"{k}/per-round" for k in STREAM_SEEDS])
def test_stream_stability(kind):
    assert play_stream(kind) == STREAM_EXPECTED[kind]


# the pools' values with every perturbation drawn, as before the pools
# thinned their cohorts: the first 8 rounds of a pool draw this way
PER_EXPERT_EXPECTED = {
    "pool-dim1": (
        "0111110000000100000000000100000001110010",
        [0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
         0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 1, 1, 0, 0, 1, 0],
        "37ea7bcce4ca14a0"),
    "pool-dim2": (
        "0101001011000010101000101010011100110001",
        [0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 2, 0, 1, 0, 1, 1,
         1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        "e44110576736c33f"),
    "agnostic-2": (
        "0101100001000010001010000110010000000101",
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0,
         0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0],
        [21, 20]),
}


@pytest.mark.parametrize("kind", STREAM_SEEDS)
def test_stream_with_no_range_draws_every_perturbation(kind, monkeypatch):
    # with no cohort range live before round 40, a pool draws one
    # perturbation per expert and round from its own generator, in index
    # order. At round 40 a dimension-2 pool's 40 newborns are a range; they
    # come last in the round's draws, so the others draw the same values,
    # and at these seeds no newborn leads that round either way
    monkeypatch.setattr(ExpertPoolFpl, "_EXACT", 40)
    expected = PER_EXPERT_EXPECTED.get(kind, STREAM_EXPECTED[kind])
    assert play_stream(kind) == expected
    # and the thinned stream keeps the first 8 rounds: nothing is thinned
    # before round 8, and at round 8 a dimension-2 pool's 8 newborns, which
    # draw last, lead in neither stream
    assert [v[:8] for v in STREAM_EXPECTED[kind][:2]] == [v[:8] for v in expected[:2]]


# the coin-flip check's learner on one long fair-coin game. At this seed a
# range resolves a member after the first past tau (`draw.choice` in
# `ExpertPoolFpl._lazy_leaders`), which about 2 % of such games reach
LONG_COIN_SEED = 693


class _ChoiceSpy:
    """A generator that counts its `choice` calls and passes every call on."""

    def __init__(self, generator):
        self.generator, self.choices = generator, 0

    def __getattr__(self, name):
        return getattr(self.generator, name)

    def choice(self, *args, **kwargs):
        self.choices += 1
        return self.generator.choice(*args, **kwargs)


def play_long_coin(path: str, monkeypatch):
    """(predictions as a bit string, a SHA-256 prefix of the pool's leaders
    and of the final states of the meta, pool, range and resolve generators,
    the count of `choice` calls) of a T=400 coin game, played by `run_game`
    in one replay or round by round through `update`."""
    cls = FiniteClass((0,), [[0], [1]])
    learner = AgnosticFpl(ExplicitListFamily([cls]), 1, seed=LONG_COIN_SEED, cap_dim=2)
    pool = learner.experts[0]
    spy = pool._resolve_rng = _ChoiceSpy(pool._resolve_rng)
    leaders = []
    lazy_leaders = ExpertPoolFpl._lazy_leaders

    def recording(self, *args):
        chosen = lazy_leaders(self, *args)
        leaders.extend(chosen.tolist())
        return chosen

    monkeypatch.setattr(ExpertPoolFpl, "_lazy_leaders", recording)
    coin = nature.CoinFlip(LONG_COIN_SEED)
    if path == "replay":
        predicted = runner.run_game(learner, coin, 400).predicted
    else:
        predicted = []
        for _ in range(400):
            predicted.append(learner.predict(0))
            learner.update(0, coin.reveal_label(0, predicted[-1]))
    generators = (learner.rng, pool.rng, pool._range_rng, spy.generator)
    states = [g.bit_generator.state for g in generators]
    digest = [hashlib.sha256(repr(v).encode()).hexdigest()[:16] for v in (leaders, states)]
    return "".join(map(str, predicted)), *digest, spy.choices


LONG_COIN_EXPECTED = (
    "00000000000000000100100000000000000000000000000000000000000000000000000000000000"
    "00000000010000000010000010000000000000001000000000000010000010000000000000000000"
    "00000010000000011000000000000000101000000000000000001010000100000000100000000000"
    "00010000111011000000010001000000010000000010010000000110000001000000001000010000"
    "01000001010000000100000100001000010001000101000001100000000000010010000000111000",
    "bdacb79b85a4e6d9", "e655ce1fa9f96699")


@pytest.mark.parametrize("path", ["replay", "loop"])
def test_long_coin_stream(path, monkeypatch):
    *pinned, choices = play_long_coin(path, monkeypatch)
    assert choices >= 1
    assert tuple(pinned) == LONG_COIN_EXPECTED
