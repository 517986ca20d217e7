"""Bound-verification suite.

Each check exercises one guarantee at its stated tolerance and returns
(passed, detail), never raising on a failed bound; `verdict` names it as
its `SUITE` key. Exact combinatorial checks get zero tolerance,
expected-regret checks compare the Monte-Carlo mean plus or minus three
standard errors against the bound (`bounds.margin`), over seeded games
that `runner.regret_curve` plays and scores.
"""
from __future__ import annotations

import inspect
import itertools
import math
import random
from dataclasses import dataclass
from functools import partial
from operator import ne

import numpy as np

from . import bounds, fpl, learners, nature, runner
from .hypotheses import (DiscreteMeasure, ExplicitListFamily, FiniteClass,
                         FiniteSupportFamily, support_hypothesis)
from .littlestone import VersionSpace, ldim, minimax_mistakes


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# class corpora
# ---------------------------------------------------------------------------

def small_class_corpus() -> list[FiniteClass]:
    """Every duplicate-free class over 1, 2 and 3 named points."""
    out = []
    for m in (1, 2, 3):
        points = ("a", "b", "c")[:m]
        all_rows = list(itertools.product((0, 1), repeat=m))
        for mask in range(1, 2 ** len(all_rows)):
            rows = [all_rows[i] for i in range(len(all_rows)) if mask >> i & 1]
            out.append(FiniteClass(points, rows))
    return out


def random_class_corpus(count: int, seed: int) -> list[FiniteClass]:
    """Random duplicate-free classes over 4 and 5 points."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        m = 4 + (i % 2)
        points = tuple(f"p{j}" for j in range(m))
        all_rows = list(itertools.product((0, 1), repeat=m))
        n_rows = rng.randint(2, min(14, len(all_rows)))
        out.append(FiniteClass(points, rng.sample(all_rows, n_rows)))
    return out


def max_adaptive_soa_mistakes(cls: FiniteClass) -> float:
    """Exhaustive enumeration of adversary strategies against the
    mistake-update version-space learner: the adversary picks any point
    and any label consistent with some hypothesis given the full history;
    returns the worst-case total mistakes, inf if a mistake can leave both
    spaces as they were. The full history's space and the learner's,
    restricted only on its mistakes, share one kernel."""
    kernel = VersionSpace(cls)
    memo: dict[tuple[int, int], float] = {}

    def rec(full: int, sid: int) -> float:
        key = (full, sid)
        cached = memo.get(key)
        if cached is not None:
            return cached
        best = 0
        for x in cls.domain:
            for y in (0, 1):
                nf = kernel.restrict(full, x, y)
                if nf is None:
                    continue
                mistake = kernel.predict(sid, x) != y
                if not mistake and nf == full:
                    continue    # nothing changed and nothing gained
                # the learner's space contains the full history's, so
                # restricting to a label that keeps nf is never empty
                ns = kernel.restrict(sid, x, y) if mistake else sid
                if (nf, ns) == key:     # a mistake that changes nothing repeats forever
                    return math.inf
                best = max(best, mistake + rec(nf, ns))
        memo[key] = best
        return best

    return rec(0, 0)


# ---------------------------------------------------------------------------
# exact checks
# ---------------------------------------------------------------------------

def check_ldim_minimax_equality(seed: int = 0, random_count: int = 50) -> tuple[bool, str]:
    """Game value of the adaptive mistake game equals the dimension, on an
    exhaustive small corpus plus random classes. Zero tolerance."""
    corpus = small_class_corpus() + random_class_corpus(random_count, seed)
    for cls in corpus:
        d, g = ldim(cls), minimax_mistakes(cls)
        if d != g:
            return False, f"dimension {d} != game value {g} on {cls!r}"
    return True, f"{len(corpus)} classes, game value == dimension on all"


def check_soa_mistake_bound(seed: int = 0, random_count: int = 50) -> tuple[bool, str]:
    """The version-space learner never exceeds the class dimension in
    mistakes: against its committed forcing script, and against exhaustive
    enumeration of adaptive adversaries. Zero tolerance."""
    corpus = small_class_corpus() + random_class_corpus(random_count, seed)
    for cls in corpus:
        d = ldim(cls)
        worst = max_adaptive_soa_mistakes(cls)
        if worst > d:
            return False, f"exhaustive adversary forces {worst} > dimension {d} on {cls!r}"
        if d >= 1:
            script = nature.commit_adversary(cls, lambda c=cls: learners.SoaLearner(c))
            trace = runner.run_game(learners.SoaLearner(cls), script,
                                    d + len(cls.domain))
            if trace.mistakes > d:
                return False, f"committed script forces {trace.mistakes} > {d} on {cls!r}"
    return True, f"{len(corpus)} classes, mistakes <= dimension on all"


def check_aggregator_square_bound(horizon: int = 200) -> tuple[bool, str]:
    """Index-penalized selection over the bounded-support union on twelve
    points: with the truth in component k, mistakes stay within
    `bounds.aggregator_mistakes` on adversarial streams. Zero tolerance."""
    domain = tuple(range(1, 13))
    family = FiniteSupportFamily(domain)
    rng = random.Random(7)
    for k in (1, 2, 3):
        target = support_hypothesis(domain[:k])
        d_k = family.component(k).dim
        bound = bounds.aggregator_mistakes(d_k, k)
        streams = [
            [domain[i % len(domain)] for i in range(horizon)],
            ([*domain[:k]] * 10 + [domain[i % len(domain)] for i in range(horizon)])[:horizon],
            [rng.choice(domain) for _ in range(horizon)],
            [rng.choice(domain) for _ in range(horizon)],
        ]
        for xs in streams:
            agg = learners.AggregatorLearner(family)
            trace = runner.run_game(agg, nature.RealizableScripted(target, xs), horizon)
            if trace.mistakes > bound:
                return False, f"k={k}: {trace.mistakes} mistakes > ({d_k}+{k})^2 = {bound}"
    return True, f"mistakes <= (d_k+k)^2 for k in (1,2,3), T={horizon}"


def check_cover_index_bound(horizon: int = 80) -> tuple[bool, str]:
    """Smallest-consistent-index prediction over an ordered cover: with the
    truth covered at index m, at most m mistakes on iid streams. Zero
    tolerance."""
    support = list(range(1, 21))
    measure = DiscreteMeasure.geometric(support)
    cover = [support_hypothesis([j], hid=j) for j in support]
    for m in (1, 5, 10):
        targets = [cover[m - 1],                      # exactly the m-th entry
                   support_hypothesis([m, 21])]       # differs only off-support
        for target in targets:
            for seed in (0, 1, 2):
                learner = learners.CoverLearner(learners.CoverSpec(cover))
                trace = runner.run_game(
                    learner, nature.StochasticIid(target, measure, seed), horizon)
                if trace.mistakes > m or learner.index > m:
                    return False, (f"m={m}, seed={seed}: {trace.mistakes} mistakes, "
                                   f"final index {learner.index}")
    return True, f"mistakes <= m for m in (1,5,10), T={horizon}"


def _keys_up_to(horizon: int, max_len: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for length in range(1, max_len + 1):
        out.extend(itertools.combinations(range(1, horizon + 1), length))
    return out


def check_expert_key_bound() -> tuple[bool, str]:
    """For every label pattern there is a keyed expert whose mistakes stay
    within key length + best hypothesis mistakes. Exhaustive over label
    patterns at T=8 (cyclic points) and over full point/label product at
    T=4, on classes of dimension 1 and 2. Zero tolerance."""
    classes = [
        FiniteClass.thresholds((1, 2, 3), (1, 2, 3, 4)),
        FiniteClass((1, 2, 3), [[0, 0, 0], [1, 1, 1]]),
    ]
    jobs = []   # (class, xs, ys, the keys of length up to its dimension)
    for cls in classes:
        d = ldim(cls)
        T = 8
        xs = tuple((1, 2, 3)[(t - 1) % 3] for t in range(1, T + 1))
        keys = _keys_up_to(T, d)
        for ys in itertools.product((0, 1), repeat=T):
            jobs.append((cls, xs, ys, keys))
        T = 4
        keys = _keys_up_to(T, d)
        for xs in itertools.product((1, 2, 3), repeat=T):
            for ys in itertools.product((0, 1), repeat=T):
                jobs.append((cls, xs, ys, keys))

    for cls, xs, ys, keys in jobs:
        rival = runner.best_rival_mistakes(cls, runner.GameTrace(xs, ys))
        best = None
        for key in keys:
            expert = learners.ExpertLearner(cls, key)
            try:
                expert.play(xs, ys)
            except learners.ProtocolError:
                continue
            slack = expert.mistakes - len(key)
            if best is None or slack < best:
                best = slack
            if best <= rival:
                break
        if best is None or best > rival:
            return False, f"no key within {rival} + L mistakes for ys={ys} xs={xs} on {cls!r}"
    return True, f"{len(jobs)} point/label patterns, witness key found for all"


def check_complexity_mass(terms: int = 10_000) -> tuple[bool, str]:
    """Partial masses of the complexity schemes the learners run stay under
    their ceilings in `bounds`: the components', and the pools' overcount."""
    rounds = range(1, terms + 1)
    meta = math.fsum(math.exp(-fpl.meta_complexity(n)) for n in rounds)
    if meta > bounds.COMPONENT_MASS:
        return False, f"component mass {meta:.4f} > 1/e over {terms} terms"
    for dim in (0, 1, 2, 3):
        pool = math.fsum(t ** dim * math.exp(-fpl.pool_complexity(dim, t)) for t in rounds)
        if pool > bounds.POOL_MASS:
            return False, (f"pool mass {pool:.4f} > {bounds.POOL_MASS} for dim {dim} "
                           f"over {terms} terms")
    return True, (f"component {meta:.4f} <= 1/e, pool <= {bounds.POOL_MASS} for dims 0-3, "
                  f"{terms} terms")


def check_window_halving(rounds: int = 40) -> tuple[bool, str]:
    """The dyadic window adversary forces a mistake every round, and one real
    threshold realizes its whole history, hence every prefix (exact check)."""
    makers = [learners.TruncatedThresholdSoa,
              lambda: learners.ConstantLearner(0),
              lambda: learners.ConstantLearner(1)]
    for make in makers:
        learner = make()
        adversary = nature.WindowHalving(depth=max(64, rounds))
        trace = runner.run_game(learner, adversary, rounds)
        right = [t for t, (y, p) in enumerate(zip(trace.ys, trace.predicted), 1) if y == p]
        if right:
            return False, f"{type(learner).__name__} predicted correctly at round {right[0]}"
        try:
            adversary.realizing_threshold()
        except AssertionError as exc:
            return False, str(exc)
    return True, f"3 learners, {rounds} forced mistakes each, all prefixes realizable"


# ---------------------------------------------------------------------------
# Monte-Carlo checks
# ---------------------------------------------------------------------------

class _ParityExpert(learners.OnlineLearner):
    """Predicts the round's parity (phase 0: even rounds are 1)."""

    def __init__(self, phase: int):
        super().__init__()
        self.phase = phase

    def predict(self, x) -> int:
        return int(self.t % 2 == self.phase)

    def _replay(self, xs, ys):
        preds = [int(t % 2 == self.phase) for t in range(self.t, self.t + len(ys))]
        return partial(self._record_batch, preds, sum(map(ne, preds, ys)))


class _LastLabelExpert(learners.OnlineLearner):
    """Predicts the previously revealed label (0 on the first round)."""

    def __init__(self):
        super().__init__()
        self.last = 0

    def predict(self, x) -> int:
        return self.last

    def _absorb(self, x, y, predicted) -> None:
        self.last = y

    def _replay(self, xs, ys):
        preds = [self.last, *ys[:-1]]
        return partial(self._record_batch, preds, sum(map(ne, preds, ys)), last=ys[-1])


def check_fpl_regret_bound(trials: int = 2000, horizon: int = 400) -> tuple[bool, str]:
    """Perturbed-leader regret against each fixed expert stays within
    `bounds.fpl_regret` in expectation: Monte-Carlo mean + 3 SE vs the
    bound, on an adversarial alternating script and on fair-coin scripts."""
    two = [lambda: learners.ConstantLearner(0), lambda: learners.ConstantLearner(1)]
    five = two + [lambda: _ParityExpert(0), lambda: _ParityExpert(1),
                  _LastLabelExpert]
    alternating = [t % 2 for t in range(1, horizon + 1)]
    configs = [
        ("two-expert-alternating", two, [1.0, 1.0],
         lambda s: nature.AgnosticScripted([0] * horizon, alternating)),
        ("two-expert-coin", two, [1.0, 1.0], nature.CoinFlip),
        ("five-expert-coin", five, [1.0 + math.log(i) for i in range(1, 6)],
         nature.CoinFlip),
    ]

    details = []
    for offset, (name, makers, ks, make_nature) in enumerate(configs):
        [stats] = runner.regret_curve(
            [lambda s: fpl.FplLearner([m() for m in makers], ks, seed=s)], make_nature,
            [horizon], trials, 2026 + offset,
            lambda _, played: played[0].mistakes - np.asarray(played[0].losses))
        limits = [bounds.fpl_regret(k, horizon) for k in ks]
        margins = bounds.margin(stats.mean, limits, stats.se)
        for j, (mean, se, limit) in enumerate(zip(stats.mean, stats.se, limits)):
            if margins[j] < 0:
                return False, (f"{name}: regret vs expert {j + 1} = {mean:.2f} "
                               f"+ 3*{se:.2f} > {limit:.2f}")
        details.append(f"{name} worst margin {min(margins):.1f}")
    return True, f"T={horizon}, {trials} trials: " + "; ".join(details)


def check_hierarchical_regret_bound(trials: int = 500, horizons=(100, 200)) -> tuple[bool, str]:
    """The two-level perturbed-leader learner keeps expected regret against
    every hypothesis of component n within `bounds.hierarchical_regret`;
    Monte-Carlo mean + 3 SE vs that bound."""
    constants = FiniteClass((1, 2, 3, 4), [[0, 0, 0, 0], [1, 1, 1, 1]])
    thresholds = FiniteClass.thresholds((1, 2, 3, 4), (1, 2, 3, 4, 5))
    family = ExplicitListFamily([constants, thresholds])
    details = []
    for horizon in horizons:
        xs = [(1, 2, 3, 4)[(t - 1) % 4] for t in range(1, horizon + 1)]
        limits = [bounds.hierarchical_regret(family.component(n).dim, n, horizon)
                  for n in (1, 2)]
        for label_mode in ("alternating", "coin"):
            def make_nature(seed: int) -> nature.AgnosticScripted:
                ys = (nature.CoinFlip(seed)._drawn(horizon)[1] if label_mode == "coin"
                      else [t % 2 for t in range(1, horizon + 1)])
                return nature.AgnosticScripted(xs, ys)

            [stats] = runner.regret_curve(
                [lambda s: fpl.AgnosticFpl(family, 2, seed=s)], make_nature, [horizon],
                trials, 31 + horizon,
                lambda traces, _: [runner.regret(traces[0], family.component(n).cls)
                                   for n in (1, 2)])
            columns = list(zip((1, 2), stats.mean, stats.se, limits))
            for n, mean, se, limit in columns:
                if bounds.margin(mean, limit, se) < 0:
                    return False, (f"T={horizon} {label_mode}: regret vs component {n} = "
                                   f"{mean:.2f} + 3*{se:.2f} > {limit:.2f}")
            details.append(f"T={horizon} {label_mode}: " + ", ".join(
                f"n={n}: {mean:.1f} vs {limit:.0f}" for n, mean, _, limit in columns))
    return True, f"{trials} trials; " + "; ".join(details)


def check_coinflip_regret_floor(trials: int = 2000, horizons=(100, 400)) -> tuple[bool, str]:
    """Fair-coin labels on a single point force expected regret of at least
    `bounds.coinflip_floor` on every learner; Monte-Carlo mean - 3 SE vs the floor,
    for the hierarchical learner and two fixed baselines."""
    cls = FiniteClass((0,), [[0], [1]])
    family = ExplicitListFamily([cls])
    makers = {
        "agnostic": lambda s: fpl.AgnosticFpl(family, 1, seed=s, cap_dim=2),
        "root-expert": lambda s: learners.ExpertLearner(cls, ()),
        "constant": lambda s: learners.ConstantLearner(0),
    }

    def score(traces, _) -> list[int]:     # one script, so one rival count
        rival = runner.best_rival_mistakes(cls, traces[0])
        return [trace.mistakes - rival for trace in traces]

    details = []
    for horizon in horizons:
        floor = bounds.coinflip_floor(horizon)
        [stats] = runner.regret_curve(list(makers.values()), nature.CoinFlip, [horizon],
                                      trials, 99 + horizon, score)
        for name, mean, se in zip(makers, stats.mean, stats.se):
            if bounds.margin(mean, floor, se, floor=True) < 0:
                return False, f"T={horizon} {name}: {mean:.2f} - 3*{se:.2f} < floor {floor:.3f}"
            details.append(f"T={horizon} {name}: {mean:.2f} >= {floor:.2f}")
    return True, f"{trials} trials; " + "; ".join(details)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

# verdict name -> (check, its arguments for `--suite full`), in `verify`'s order;
# each name is written only here
SUITE = {
    "ldim-minimax-equality": (check_ldim_minimax_equality, {"random_count": 120}),
    "soa-mistake-bound": (check_soa_mistake_bound, {"random_count": 100}),
    "aggregator-square-bound": (check_aggregator_square_bound, {"horizon": 300}),
    "cover-index-bound": (check_cover_index_bound, {"horizon": 150}),
    "expert-key-cover": (check_expert_key_bound, {}),
    "fpl-regret-bound": (check_fpl_regret_bound, {"trials": 3000}),
    "hierarchical-regret-bound": (check_hierarchical_regret_bound, {"trials": 800}),
    "coinflip-regret-floor": (check_coinflip_regret_floor, {"trials": 3000}),
    "complexity-mass": (check_complexity_mass, {"terms": 100_000}),
    "window-halving-forcing": (check_window_halving, {"rounds": 48}),
}


def verdict(name: str, **args) -> CheckResult:
    """The check `name` of `SUITE`, run on `args`, as a verdict under that name."""
    check, _ = SUITE[name]
    return CheckResult(name, *check(**args))


def suite_arguments(name: str, suite: str, seed: int) -> dict:
    """What `run_suite(suite, seed)` passes the check `name`: the full scale
    or none (the check's defaults), and `seed` if the check takes one."""
    check, full = SUITE[name]
    args = dict(full) if suite == "full" else {}
    if "seed" in inspect.signature(check).parameters:
        args["seed"] = seed
    return args


def run_suite(suite: str, seed: int) -> list[CheckResult]:
    """Each check of `SUITE` in turn, at the scale of `suite`: "default" or "full"."""
    return [verdict(name, **suite_arguments(name, suite, seed)) for name in SUITE]
