"""The benchmark's workloads: inputs made from a seed, the timed public
calls, and the checks on their outputs.

Each workload builds one batch of items at a time. All items of a
workload have the same size, so that latency percentiles are not mixed
from different sizes. Items call into nuolab through module attributes
(`littlestone.ldim(...)`), looked up at call time, so a traced run sees
every call.

Deterministic outputs are checked exactly, item by item. Randomized
outputs are checked only on their distribution, pooled over the run,
against the bound the matching verification check uses; their traces are
never compared to recorded digests, because a legitimate change of RNG
stream would break such a comparison.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import defaultdict
from typing import Optional

import numpy as np

import nuolab
from nuolab import fpl, littlestone, nature, runner


class Recorder(nature.NatureStrategy):
    """Passes a nature through, logging (x, prediction, label) per round."""

    def __init__(self, inner, log: list):
        self.inner = inner
        self.log = log

    def next_point(self, trace=None):
        return self.inner.next_point(trace)

    def reveal_label(self, x, predicted, trace=None):
        y = self.inner.reveal_label(x, predicted, trace)
        self.log.append((x, predicted, y))
        return y


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _trial_halves(seed: int) -> tuple[int, int]:
    half = np.random.SeedSequence(seed).generate_state(2)
    return int(half[0]), int(half[1])


def _pooled_mean_se(values: list[float]) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(len(v)))


class Workload:
    """One batch of same-size items per `build`; `run` is the timed call."""

    name = ""
    items_per_batch = 0
    batch_seconds = 1.0     # typical time of one batch on the reference machine

    def build(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, item, log: Optional[list] = None):
        raise NotImplementedError

    def check(self, item, out) -> Optional[str]:
        """Reason the output is wrong, or None."""
        return None

    def sample(self, item, out):
        """What the pooled distribution check needs from one item."""
        return None

    def pooled_check(self, samples: list) -> dict:
        """Item key -> reason, for items in a group whose pooled statistic fails."""
        return {}

    def digest(self, out, log: list) -> str:
        return _digest(out, log)


# ---------------------------------------------------------------------------
# oracle-exact: the exact oracles on fresh random classes
# ---------------------------------------------------------------------------

class OracleExact(Workload):
    """ldim, a witness at that depth, and the minimax game value of one
    fresh class. Classes are never reused: the dimension memo is keyed per
    class object, so a reused class would time a dictionary lookup."""

    name = "oracle-exact"
    items_per_batch = 20
    batch_seconds = 2.4
    points = 8
    rows = 80

    def build(self, seed: int) -> list:
        rng = random.Random(seed)
        all_rows = list(itertools.product((0, 1), repeat=self.points))
        domain = tuple(range(self.points))
        return [nuolab.FiniteClass(domain, rng.sample(all_rows, self.rows))
                for _ in range(self.items_per_batch)]

    def run(self, cls, log=None):
        d = littlestone.ldim(cls)
        witness = littlestone.shattered_tree_witness(cls, d)
        verified = littlestone.verify_witness(witness, cls)
        g = littlestone.minimax_mistakes(cls)
        return d, witness.points, sorted(witness.realizers.items()), verified, g

    def check(self, cls, out):
        d, _, _, verified, g = out
        if d != g:
            return f"ldim {d} != minimax value {g}"
        if not verified:
            return f"depth-{d} witness fails verify_witness"
        return None


# ---------------------------------------------------------------------------
# pool-hier: the hierarchical learner's expert pools (hierarchical-regret-bound)
# ---------------------------------------------------------------------------

def hierarchical_bound(dim: int, n: int, horizon: int) -> float:
    """The per-component regret expression of the hierarchical-regret-bound check."""
    return (dim + (dim + 3.0) * math.log(horizon) * math.sqrt(horizon)
            + (2.0 * math.log(n) + 4.0) * math.sqrt(horizon))


class PoolHier(Workload):
    """One Monte-Carlo experiment of the two-level perturbed leader on the
    constants/thresholds family. Items cycle through the label modes and
    the component regret is measured against, so every batch covers each
    pairing equally."""

    name = "pool-hier"
    items_per_batch = 12
    batch_seconds = 1.8
    horizon = 200
    trials = 2
    groups = (("alternating", 1), ("coin", 1), ("alternating", 2), ("coin", 2))

    def build(self, seed: int) -> list:
        rng = random.Random(seed)
        constants = nuolab.FiniteClass((1, 2, 3, 4), [[0, 0, 0, 0], [1, 1, 1, 1]])
        thresholds = nuolab.FiniteClass.thresholds((1, 2, 3, 4), (1, 2, 3, 4, 5))
        family = nuolab.ExplicitListFamily([constants, thresholds])
        xs = [(1, 2, 3, 4)[(t - 1) % 4] for t in range(1, self.horizon + 1)]
        return [(family, xs) + self.groups[i % len(self.groups)] + (rng.getrandbits(32),)
                for i in range(self.items_per_batch)]

    def run(self, item, log=None):
        family, xs, mode, n, master = item
        horizon = self.horizon
        comparison = family.component(n).cls

        def trial(seed: int) -> float:
            learner_seed, label_seed = _trial_halves(seed)
            if mode == "coin":
                rng = random.Random(label_seed)
                ys = [rng.getrandbits(1) for _ in range(horizon)]
            else:
                ys = [t % 2 for t in range(1, horizon + 1)]
            strategy = nature.AgnosticScripted(xs, ys)
            if log is not None:
                strategy = Recorder(strategy, log)
            learner = fpl.AgnosticFpl(family, 2, seed=learner_seed)
            trace = runner.run_game(learner, strategy, horizon)
            return float(runner.regret(trace, comparison))

        return runner.monte_carlo(trial, self.trials, master)

    def check(self, item, stats):
        if stats.trials != self.trials:
            return f"{stats.trials} of {self.trials} trials"
        if not all(-self.horizon <= v <= self.horizon for v in stats.values):
            return "regret outside [-T, T]"
        return None

    def sample(self, item, stats):
        family, _, mode, n, _ = item
        return (mode, n, family.component(n).dim), list(stats.values)

    def pooled_check(self, samples):
        groups = defaultdict(list)
        for key, (group, values) in samples:
            groups[group].append((key, values))
        failed = {}
        for (mode, n, dim), members in groups.items():
            mean, se = _pooled_mean_se([v for _, vs in members for v in vs])
            bound = hierarchical_bound(dim, n, self.horizon)
            if not mean + 3 * se <= bound:
                for key, _ in members:
                    failed[key] = (f"{mode} regret vs component {n}: "
                                   f"{mean:.2f} + 3*{se:.2f} > {bound:.2f}")
        return failed

    def digest(self, stats, log):
        return _digest(list(stats.values), log)


# ---------------------------------------------------------------------------
# loop-coin: many short games on fair coins (coinflip-regret-floor, fpl-regret-bound)
# ---------------------------------------------------------------------------

class _ParityExpert(nuolab.OnlineLearner):
    """Predicts the round's parity (phase 0: even rounds are 1)."""

    def __init__(self, phase: int):
        super().__init__()
        self.phase = phase

    def predict(self, x) -> int:
        return int(self.t % 2 == self.phase)


class _LastLabelExpert(nuolab.OnlineLearner):
    """Predicts the previously revealed label (0 on the first round)."""

    def __init__(self):
        super().__init__()
        self.last = 0

    def predict(self, x) -> int:
        return self.last

    def _absorb(self, x, y, predicted) -> None:
        self.last = y


def _five_experts() -> list:
    return [nuolab.ConstantLearner(0), nuolab.ConstantLearner(1),
            _ParityExpert(0), _ParityExpert(1), _LastLabelExpert()]


FIVE_KS = [1.0 + math.log(i) for i in range(1, 6)]


def _expert_mistakes(j: int, ys: list[int]) -> int:
    """Standalone mistakes of the j-th of the five experts on labels ys."""
    if j < 2:
        return sum(y != j for y in ys)
    if j < 4:
        return sum(y != int(t % 2 == j - 2) for t, y in enumerate(ys, start=1))
    return sum(y != prev for prev, y in zip([0] + ys[:-1], ys))


class LoopCoin(Workload):
    """A bundle of Monte-Carlo experiments on fair-coin labels at one
    horizon: the one-component hierarchical learner, the root keyed
    expert, a constant, and perturbed leader over five experts. The
    five-expert regret is taken against the expert the item's index
    selects, cycling through all five."""

    name = "loop-coin"
    items_per_batch = 40
    batch_seconds = 2.0
    horizon = 400
    trials = 2
    floor_learners = ("agnostic", "root-expert", "constant")

    def build(self, seed: int) -> list:
        rng = random.Random(seed)
        cls = nuolab.FiniteClass((0,), [[0], [1]])
        family = nuolab.ExplicitListFamily([cls])
        return [(cls, family, i % 5, [rng.getrandbits(32) for _ in range(4)])
                for i in range(self.items_per_batch)]

    def run(self, item, log=None):
        cls, family, rival, masters = item
        horizon = self.horizon
        makers = {
            "agnostic": lambda s: fpl.AgnosticFpl(family, 1, seed=s, cap_dim=2),
            "root-expert": lambda s: nuolab.ExpertLearner(cls, ()),
            "constant": lambda s: nuolab.ConstantLearner(0),
        }

        def coin_game(make, seed: int):
            learner_seed, label_seed = _trial_halves(seed)
            strategy = nature.CoinFlip(label_seed)
            if log is not None:
                strategy = Recorder(strategy, log)
            return runner.run_game(make(learner_seed), strategy, horizon)

        out = {}
        for (name, make), master in zip(makers.items(), masters):
            out[name] = runner.monte_carlo(
                lambda s, make=make: float(runner.regret(coin_game(make, s), cls)),
                self.trials, master)

        def fpl_trial(seed: int) -> float:
            trace = coin_game(lambda s: fpl.FplLearner(_five_experts(), FIVE_KS, seed=s), seed)
            return float(trace.mistakes - _expert_mistakes(rival, trace.labels()))

        out["fpl-five"] = runner.monte_carlo(fpl_trial, self.trials, masters[3])
        return out

    def check(self, item, out):
        for name, stats in out.items():
            if stats.trials != self.trials:
                return f"{name}: {stats.trials} of {self.trials} trials"
        return None

    def sample(self, item, out):
        return item[2], {name: list(stats.values) for name, stats in out.items()}

    def pooled_check(self, samples):
        failed = {}
        floor = 3.0 * math.sqrt(self.horizon) / 64.0
        for name in self.floor_learners:
            mean, se = _pooled_mean_se([v for _, (_, vals) in samples for v in vals[name]])
            if not mean - 3 * se >= floor:
                for key, _ in samples:
                    failed[key] = f"{name}: {mean:.2f} - 3*{se:.2f} < floor {floor:.3f}"
        for j, k in enumerate(FIVE_KS):
            members = [(key, vals["fpl-five"]) for key, (rival, vals) in samples if rival == j]
            if not members:
                continue
            mean, se = _pooled_mean_se([v for _, vs in members for v in vs])
            bound = (k + 2.0) * math.sqrt(self.horizon)
            if not mean + 3 * se <= bound:
                for key, _ in members:
                    failed[key] = f"regret vs expert {j + 1}: {mean:.2f} + 3*{se:.2f} > {bound:.2f}"
        return failed

    def digest(self, out, log):
        return _digest({name: list(stats.values) for name, stats in out.items()}, log)


# ---------------------------------------------------------------------------
# realizable-adaptive: realizable games with learner-dependent natures
# ---------------------------------------------------------------------------

class RealizableAdaptive(Workload):
    """A bundle of realizable games through `run_game`: the aggregator on
    the bounded-support union against iid points, the cover learner
    against iid points, SOA against its committed forcing script on a
    fresh random class, and the truncated threshold learner against the
    window-halving adversary."""

    name = "realizable-adaptive"
    items_per_batch = 200
    batch_seconds = 2.6
    iid_horizon = 80
    soa_points = 5
    soa_rows = 12
    window_depth = 48
    support_ks = (1, 2, 3)
    cover_ms = (1, 5, 10)

    def build(self, seed: int) -> list:
        rng = random.Random(seed)
        domain = tuple(range(1, 13))
        family = nuolab.FiniteSupportFamily(domain)
        measure = nuolab.DiscreteMeasure.geometric(domain)
        support = list(range(1, 21))
        cover_measure = nuolab.DiscreteMeasure.geometric(support)
        cover = [nuolab.support_hypothesis([j], hid=j) for j in support]
        soa_domain = tuple(f"p{j}" for j in range(self.soa_points))
        all_rows = list(itertools.product((0, 1), repeat=self.soa_points))
        items = []
        for _ in range(self.items_per_batch):
            aggregator = [(k, nuolab.support_hypothesis(domain[:k]), family.component(k).dim,
                           rng.getrandbits(32)) for k in self.support_ks]
            covers = [(m, cover[m - 1], rng.getrandbits(32)) for m in self.cover_ms]
            soa_class = nuolab.FiniteClass(soa_domain, rng.sample(all_rows, self.soa_rows))
            items.append({"family": family, "measure": measure, "aggregator": aggregator,
                          "cover": cover, "cover_measure": cover_measure, "covers": covers,
                          "soa_class": soa_class})
        return items

    def run(self, item, log=None):
        out = {"aggregator": [], "cover": []}
        for k, target, _, seed in item["aggregator"]:
            learner = nuolab.AggregatorLearner(item["family"])
            strategy = nature.StochasticIid(target, item["measure"], seed)
            out["aggregator"].append(runner.run_game(learner, strategy, self.iid_horizon))
        for m, target, seed in item["covers"]:
            learner = nuolab.CoverLearner(nuolab.CoverSpec(item["cover"]))
            strategy = nature.StochasticIid(target, item["cover_measure"], seed)
            out["cover"].append((runner.run_game(learner, strategy, self.iid_horizon),
                                 learner.index))
        cls = item["soa_class"]
        d = littlestone.ldim(cls)
        script = nature.commit_adversary(cls, lambda: nuolab.SoaLearner(cls))
        out["soa"] = (d, runner.run_game(nuolab.SoaLearner(cls), script, d + len(cls.domain)))
        adversary = nature.WindowHalving(depth=self.window_depth)
        trace = runner.run_game(nuolab.TruncatedThresholdSoa(), adversary, self.window_depth)
        out["window"] = (trace, adversary.realizing_threshold())
        return out

    def check(self, item, out):
        for (k, _, d_k, _), trace in zip(item["aggregator"], out["aggregator"]):
            if trace.mistakes > (d_k + k) ** 2:
                return f"aggregator k={k}: {trace.mistakes} > ({d_k}+{k})^2"
        for (m, _, _), (trace, index) in zip(item["covers"], out["cover"]):
            if trace.mistakes > m or index > m:
                return f"cover m={m}: {trace.mistakes} mistakes, final index {index}"
        d, trace = out["soa"]
        if trace.mistakes > d:
            return f"SOA: {trace.mistakes} mistakes > ldim {d} on its committed script"
        trace, cut = out["window"]
        if trace.mistakes != len(trace) or len(trace) != self.window_depth:
            return f"window halving forced {trace.mistakes} of {len(trace)} rounds"
        if any(int(r.x >= cut) != r.y for r in trace.rounds):
            return f"window halving history not realized by threshold {cut}"
        return None

    def digest(self, out, log):
        def rounds(trace):
            return [(r.t, r.x, r.y, r.predicted) for r in trace.rounds]
        return _digest([rounds(t) for t in out["aggregator"]],
                       [(rounds(t), i) for t, i in out["cover"]],
                       out["soa"][0], rounds(out["soa"][1]),
                       rounds(out["window"][0]), out["window"][1], log)


WORKLOADS = {w.name: w for w in (OracleExact(), PoolHier(), LoopCoin(), RealizableAdaptive())}
