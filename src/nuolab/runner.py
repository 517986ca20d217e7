"""Game loop, mistake/regret accounting and the Monte-Carlo harness.

A game is recorded as columns: the points, the labels and the learner's
predictions, one entry per round. Mistakes and regret are counted from
the columns; per-round `GameRound` records are derived on demand. The
learners and natures played here are built from specs in `specs`.
"""
from __future__ import annotations

import csv
import io
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import nature
from .hypotheses import (DomainError, FiniteClass, Hypothesis, Point, format_point,
                         threshold_hypothesis)


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
    plus one above the maximum. A class with no hypothesis has no best
    rival and raises DomainError.
    """
    if isinstance(comparison, FiniteClass):
        hs = comparison.hypotheses()
    elif comparison == REAL_THRESHOLDS:
        # strings first: sorting a mix of strings and numbers raises TypeError
        if any(isinstance(p, str) for p in points):
            raise DomainError("threshold comparison needs numeric points")
        numeric = sorted(set(points))
        if not numeric:
            return [Hypothesis("thr-empty", lambda x: 0)]
        cuts = list(numeric) + [numeric[-1] + 1]
        return [threshold_hypothesis(c) for c in cuts]
    elif isinstance(comparison, Sequence) and all(isinstance(h, Hypothesis) for h in comparison):
        hs = list(comparison)
    else:
        raise DomainError(f"cannot materialize comparison class from {comparison!r}")
    if not hs:
        raise DomainError("comparison class has no hypotheses")
    return hs


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
    """Frozen column order: t,x,y,yhat,mistake,cum_mistakes,cum_best_rival.
    A point that holds a comma, a quote or a newline is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "x", "y", "yhat", "mistake", "cum_mistakes", "cum_best_rival"])
    rival_cum: list[str] = [""] * len(trace)
    if comparison is not None and len(trace):
        hs = comparison_hypotheses(comparison, trace.xs)
        per_h = [0] * len(hs)
        for i, (x, y) in enumerate(zip(trace.xs, trace.ys)):
            for j, h in enumerate(hs):
                per_h[j] += h(x) != y
            rival_cum[i] = str(min(per_h))
    columns = zip(trace.xs, trace.ys, trace.predicted, trace.cumulative_mistakes(), rival_cum)
    writer.writerows((t, format_point(x), y, p, int(y != p), cum, rival)
                     for t, (x, y, p, cum, rival) in enumerate(columns, 1))
    return out.getvalue()


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
