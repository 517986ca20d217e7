"""Game loop, mistake/regret accounting, Monte-Carlo orchestration, and
the JSON-config entry points used by the CLI.

A game is recorded as columns: the points, the labels and the learner's
predictions, one entry per round. Mistakes and regret are counted from
the columns; per-round `GameRound` records are derived on demand.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import bounds, fpl, learners, nature
from .hypotheses import (DiscreteMeasure, DomainError, FiniteClass, Hypothesis,
                         Point, family_from_config, format_point,
                         hypothesis_from_config, parse_point, reads_spec)


class GameRound(NamedTuple):
    t: int
    x: Point
    y: int
    predicted: int


@dataclass
class GameTrace:
    """One game as three columns: round t (1-based) showed the point
    `xs[t - 1]`, revealed the label `ys[t - 1]`, and the learner predicted
    `predicted[t - 1]`. Everything else is recomputed from the columns."""

    xs: list[Point] = field(default_factory=list)
    ys: list[int] = field(default_factory=list)
    predicted: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ys)

    @property
    def rounds(self) -> list[GameRound]:
        """The rounds as records, built from the columns on each call."""
        return list(map(GameRound, range(1, len(self) + 1),
                        self.xs, self.ys, self.predicted))

    @property
    def mistakes(self) -> int:
        return sum(map(operator.ne, self.ys, self.predicted))

    def points(self) -> list[Point]:
        return list(self.xs)

    def labels(self) -> list[int]:
        return list(self.ys)

    def cumulative_mistakes(self) -> list[int]:
        return list(accumulate(map(operator.ne, self.ys, self.predicted),
                               initial=0))[1:]


def run_game(learner, strategy: nature.NatureStrategy, horizon: int) -> GameTrace:
    """Exactly `horizon` rounds of observe/predict/reveal. Protocol errors
    surface with their round index; horizon 0 gives an empty trace.

    Against a nature that watches the learner, every round runs through
    `predict`, `reveal_label`, and `update`'s label check and round step
    with the prediction already made (see `OnlineLearner`), so the round
    is `update`'s without a second `predict`. An oblivious nature (see
    `nature.NatureStrategy`) reads neither the prediction nor the trace, so
    its script is drawn first, in one `draw_script` call, and the learner
    plays it in one `learner.play` call. That is the same game: the
    nature's draws come in the same order, and `play` gives the loop's
    predictions, state and random draws (each learner's `_replay` says
    how). Errors match the loop's too: if drawing fails at round r, the
    learner first plays rounds 1..r-1 (and predicts round r when it was
    the label that failed), and a bad label raises from the learner at its
    round (`OnlineLearner.play` says what a batch promises about other
    errors from inside the learner).
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if not strategy.oblivious:
        trace = GameTrace()
        for t in range(1, horizon + 1):
            try:
                x = strategy.next_point(trace)
            except nature.ExhaustionError as exc:
                raise nature.ExhaustionError(f"round {t}: {exc}") from exc
            predicted = learner.predict(x)
            y = strategy.reveal_label(x, predicted, trace)
            learner._check_label(y)
            learner._record(x, y, predicted)
            trace.xs.append(x)
            trace.ys.append(y)
            trace.predicted.append(predicted)
        return trace
    # a failed draw is raised below, once the learner has caught up
    xs, ys, failure = strategy.draw_script(horizon)
    predicted = learner.play(xs[:len(ys)], ys)
    if failure is not None:
        if len(xs) > len(ys):
            learner.predict(xs[-1])
        elif isinstance(failure, nature.ExhaustionError):
            raise nature.ExhaustionError(f"round {len(xs) + 1}: {failure}") from failure
        raise failure
    return GameTrace(xs, ys, predicted)


# ---------------------------------------------------------------------------
# regret
# ---------------------------------------------------------------------------

REAL_THRESHOLDS = "real-thresholds"


def comparison_hypotheses(comparison, points: Sequence[Point]) -> list[Hypothesis]:
    """Materialize a comparison class over the trace's point set.

    Infinite threshold classes reduce to the finitely many behaviors
    distinguishable on the observed points: one cut at each observed value
    plus one above the maximum.
    """
    if isinstance(comparison, FiniteClass):
        return comparison.hypotheses()
    if comparison == REAL_THRESHOLDS:
        numeric = sorted(set(points))
        if not numeric:
            return [Hypothesis("thr-empty", lambda x: 0)]
        if any(isinstance(p, str) for p in numeric):
            raise DomainError("threshold comparison needs numeric points")
        cuts = list(numeric) + [numeric[-1] + 1]
        from .hypotheses import threshold_hypothesis
        return [threshold_hypothesis(c) for c in cuts]
    if isinstance(comparison, Sequence) and all(isinstance(h, Hypothesis) for h in comparison):
        return list(comparison)
    raise DomainError(f"cannot materialize comparison class from {comparison!r}")


def best_rival_mistakes(comparison, trace: GameTrace) -> int:
    """The fewest mistakes any comparison hypothesis makes on the trace.

    A hypothesis is a function of the point, so each distinct (x, y) pair
    is judged once and weighted by its count. That pays when points
    repeat, as in coin-flip and cycled-point games; on all-distinct points
    it saves no hypothesis call and adds one pair hash per round. The pairs
    come in order of first occurrence, so a hypothesis that raises does so
    on the point a scan of the rounds would."""
    pairs = Counter(zip(trace.xs, trace.ys)).items()
    hs = comparison_hypotheses(comparison, trace.xs)
    return min(sum(n for (x, y), n in pairs if h(x) != y) for h in hs)


def regret(trace: GameTrace, comparison) -> int:
    """Learner mistakes minus the best comparison hypothesis's mistakes."""
    return trace.mistakes - best_rival_mistakes(comparison, trace)


def trace_to_csv(trace: GameTrace, comparison=None) -> str:
    """Frozen column order: t,x,y,yhat,mistake,cum_mistakes,cum_best_rival."""
    lines = ["t,x,y,yhat,mistake,cum_mistakes,cum_best_rival"]
    rival_cum: list[str] = [""] * len(trace)
    if comparison is not None and len(trace):
        hs = comparison_hypotheses(comparison, trace.xs)
        per_h = [0] * len(hs)
        for i, (x, y) in enumerate(zip(trace.xs, trace.ys)):
            for j, h in enumerate(hs):
                per_h[j] += h(x) != y
            rival_cum[i] = str(min(per_h))
    columns = zip(trace.xs, trace.ys, trace.predicted, trace.cumulative_mistakes(), rival_cum)
    for t, (x, y, p, cum, rival) in enumerate(columns, 1):
        lines.append(f"{t},{format_point(x)},{y},{p},{int(y != p)},{cum},{rival}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Monte-Carlo harness
# ---------------------------------------------------------------------------

@dataclass
class TrialStats:
    """One value, or one row of m values, per trial; `mean` and `se` reduce
    each column on its own, exactly as a scalar run of it would."""

    values: np.ndarray

    @property
    def trials(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float | np.ndarray:
        return self._per_column(np.mean)

    @property
    def se(self) -> float | np.ndarray:
        return self._per_column(lambda v: np.std(v, ddof=1) / math.sqrt(len(v)))

    def _per_column(self, stat: Callable[[np.ndarray], float]) -> float | np.ndarray:
        if self.values.ndim == 1:
            return float(stat(self.values))
        return np.array([stat(column) for column in self.values.T])


@dataclass
class RegretCurve:
    horizons: list[int]
    stats: list[TrialStats]
    bounds: Optional[list[float]] = None

    def rows(self) -> list[dict]:
        out = []
        for i, T in enumerate(self.horizons):
            row = {"T": T, "mean": self.stats[i].mean, "se": self.stats[i].se,
                   "trials": self.stats[i].trials}
            if self.bounds is not None:
                row["bound"] = self.bounds[i]
            out.append(row)
        return out


def trial_seeds(master_seed: int, trials: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(master_seed).generate_state(trials)]


def split_seed(seed: int) -> tuple[int, int]:
    """(learner seed, nature seed): the two independent seeds one trial's
    seed splits into."""
    learner_seed, nature_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(learner_seed), int(nature_seed)


def play_seeded(make_learner: Callable[[int], object],
                make_nature: Callable[[int], nature.NatureStrategy],
                horizon: int, seed: int) -> tuple[GameTrace, object]:
    """One game from one seed: the learner is built from the seed's first
    half (`split_seed`), then the nature from its second."""
    learner_seed, nature_seed = split_seed(seed)
    learner = make_learner(learner_seed)
    return run_game(learner, make_nature(nature_seed), horizon), learner


def monte_carlo(trial_fn: Callable[[int], float | Sequence[float]],
                trials: int, master_seed: int = 0) -> TrialStats:
    """Independent seeded trials of a scalar or vector experiment."""
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    values = np.array([trial_fn(s) for s in trial_seeds(master_seed, trials)],
                      dtype=float)
    return TrialStats(values)


def regret_curve(make_learner: Callable[[int], object],
                 make_nature: Callable[[int], nature.NatureStrategy],
                 horizons: Sequence[int], trials: int, master_seed: int,
                 comparison, bound_fn: Optional[Callable[[int], float]] = None
                 ) -> RegretCurve:
    """Mean regret with standard errors across seeded games (`play_seeded`),
    one row per horizon, with an optional analytic bound column."""
    def trial(seed: int, T: int) -> float:
        return float(regret(play_seeded(make_learner, make_nature, T, seed)[0], comparison))

    stats = [monte_carlo(lambda s, T=T: trial(s, T), trials, master_seed) for T in horizons]
    bounds = [float(bound_fn(T)) for T in horizons] if bound_fn else None
    return RegretCurve(list(horizons), stats, bounds)


# ---------------------------------------------------------------------------
# JSON-config factories
# ---------------------------------------------------------------------------

def _cover_from_config(spec) -> learners.CoverSpec:
    return learners.CoverSpec([hypothesis_from_config(h) for h in spec])


@reads_spec("learner")
def make_learner(spec: dict, seed: Optional[int] = None):
    """Build a learner from its textual spec (see the README table)."""
    kind = spec.get("learner")
    if kind == "soa":
        always = _checked("always_restrict", spec.get("always_restrict", False),
                          "true or false", bool)
        return learners.SoaLearner(FiniteClass.from_config(spec["class"]),
                                   always_restrict=always,
                                   on_empty=spec.get("on_empty", "error"))
    if kind == "expert":
        return learners.ExpertLearner(FiniteClass.from_config(spec["class"]),
                                      tuple(spec["key"]),
                                      on_empty=spec.get("on_empty", "error"))
    if kind == "aggregator":
        return learners.AggregatorLearner(_family(spec))
    if kind == "cover":
        return learners.CoverLearner(_cover_from_config(spec["cover"]))
    if kind == "natural-threshold":
        return learners.NaturalThresholdLearner()
    if kind == "truncated-threshold-soa":
        return learners.TruncatedThresholdSoa()
    if kind == "constant":
        return learners.ConstantLearner(
            _checked("constant value", spec.get("value", 0), "0 or 1", int, within=(0, 1)))
    if kind in ("fpl", "agnostic-fpl") and spec.get("redraw", "per-round") != "per-round":
        # a spec asking for another perturbation rule must not run this one
        raise DomainError(f"redraw must be 'per-round', got {spec['redraw']!r}")
    if kind == "fpl":
        experts = [learners.FollowHypothesisLearner(hypothesis_from_config(h))
                   for h in spec["experts"]]
        ks = [_checked("fpl k", k, "a number", int, float)
              for k in _checked("fpl k", spec["k"], "a list", list)]
        return fpl.FplLearner(experts, ks, seed=seed)
    if kind == "agnostic-fpl":
        cap_d, cap_T = (_checked(key, spec.get(key, default), "an int or null", int, type(None))
                        for key, default in (("cap_d", 2), ("cap_T", None)))
        return fpl.AgnosticFpl(_family(spec),
                               _checked("components", spec.get("components", 1), "an int", int),
                               seed=seed, cap_dim=cap_d, cap_rounds=cap_T)
    raise DomainError(f"unknown learner spec: {kind!r}")


@reads_spec("nature")
def make_nature(spec: dict, seed: Optional[int] = None,
                learner_spec: Optional[dict] = None) -> nature.NatureStrategy:
    """Build a Nature strategy from its textual spec."""
    kind = spec.get("nature")
    if kind == "scripted":
        xs = [parse_point(p) for p in _checked("scripted x", spec["x"], "a list", list)]
        if "target" in spec:
            cycle = _checked("scripted cycle", spec.get("cycle", False), "true or false", bool)
            return nature.RealizableScripted(hypothesis_from_config(spec["target"]), xs,
                                             cycle=cycle)
        # the labels stay as given: the learner rejects a bad one at its round
        return nature.AgnosticScripted(xs, _checked("scripted y", spec["y"], "a list", list))
    if kind == "iid":
        return nature.StochasticIid(hypothesis_from_config(spec["target"]),
                                    DiscreteMeasure.from_config(spec["measure"]),
                                    seed=seed)
    if kind == "coin-flip":
        return nature.CoinFlip(seed=seed, point=parse_point(spec.get("point", 0)))
    if kind == "window-halving":
        return nature.WindowHalving(
            depth=_checked("window-halving depth", spec.get("depth", 64), "an int", int))
    if kind == "tree-adversary":
        cls = FiniteClass.from_config(spec["class"])
        mode = spec.get("mode", "online")
        if mode == "online":
            return nature.TreeAdversary(cls)
        if mode == "committed":
            if learner_spec is None:
                raise DomainError("committed tree adversary needs the learner spec")
            return nature.commit_adversary(cls, lambda: make_learner(learner_spec))
        raise DomainError(f"unknown tree-adversary mode: {mode!r}")
    raise DomainError(f"unknown nature spec: {kind!r}")


def _checked(name: str, value, what: str, *types, within=None):
    """`value`, if its type is one of `types` and, given `within`, it is
    one of those values. A conversion would read 20.5 as 20 and True as 1,
    and "20" would fail mid-run."""
    if type(value) not in types or within is not None and value not in within:
        raise DomainError(f"{name} must be {what}, got {value!r}")
    return value


def _family(spec: dict):
    """The class family that a learner spec's "family" object describes."""
    return family_from_config(_checked("family", spec["family"], "an object", dict))


def _spec_makers(learner_spec: dict, nature_spec: dict) -> tuple:
    """The learner and nature makers, each of a seed, that two specs give."""
    return (lambda s: make_learner(learner_spec, seed=s),
            lambda s: make_nature(nature_spec, seed=s, learner_spec=learner_spec))


def play_config(learner_spec: dict, nature_spec: dict, horizon: int,
                seed: int = 0):
    """Build both sides from specs with a split seed and run one game."""
    return play_seeded(*_spec_makers(learner_spec, nature_spec), horizon, seed)


@reads_spec("comparison")
def comparison_from_config(spec):
    if spec == REAL_THRESHOLDS:
        return REAL_THRESHOLDS
    if isinstance(spec, dict) and "domain" in spec:
        return FiniteClass.from_config(spec)
    if isinstance(spec, list):
        if not spec:
            raise DomainError("comparison list is empty")
        return [hypothesis_from_config(h) for h in spec]
    raise DomainError(f"unknown comparison spec: {spec!r}")


def regret_experiment_from_config(config: dict) -> RegretCurve:
    """Config keys: learner, nature, comparison, Ts (or T), trials,
    master_seed, optional bound {"kind": "fpl", "k": ...}."""
    return regret_curve(*_experiment_args(config))


@reads_spec("regret config")
def _experiment_args(config: dict) -> tuple:
    """The arguments of `regret_curve` that a regret config describes."""
    horizons = config.get("Ts") or [config["T"]]
    if not isinstance(horizons, list) or any(type(T) is not int for T in horizons):
        raise DomainError(f"T and Ts must hold ints, got {horizons!r}")
    trials = _checked("trials", config.get("trials", 100), "an int", int)
    master_seed = _checked("master_seed", config.get("master_seed", 0), "an int", int)
    learner_spec, nature_spec = config["learner"], config["nature"]
    comparison = comparison_from_config(config["comparison"])

    bound_fn = None
    bound = config.get("bound")
    if bound is not None:
        kind = _checked("bound", bound, "an object", dict)["kind"]
        if kind == "fpl":
            k = _checked("bound k", bound["k"], "a number", int, float)
            bound_fn = lambda T: bounds.fpl_regret(k, T)
        elif kind == "hierarchical":
            d, n = (_checked(f"bound {key}", bound[key], "an int", int) for key in ("dim", "n"))
            bound_fn = lambda T: bounds.hierarchical_regret(d, n, T)
        else:
            raise DomainError(f"unknown bound kind: {kind!r}")

    return (*_spec_makers(learner_spec, nature_spec),
            horizons, trials, master_seed, comparison, bound_fn)
