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
from itertools import accumulate, compress
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import nature
from .hypotheses import DomainError, FiniteClass, Hypothesis, Point, format_point, all_labels


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
        raise DomainError("horizon must be >= 0")
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


def comparison_values(comparison, points: Sequence[Point]) -> list[list]:
    """One row of values per comparison hypothesis over `points`, a trace's
    distinct points in order of first occurrence: the one place a
    comparison is read. A `FiniteClass` gives its rows at the points'
    columns; `REAL_THRESHOLDS` one cut at each point and one above the
    largest; a list of hypotheses calls each on every point, one after
    another. A class with no hypothesis raises before any point is read."""
    if isinstance(comparison, FiniteClass):
        if not comparison.rows:
            raise DomainError("comparison class has no hypotheses")
        columns = list(map(comparison.point_index, points))
        return [list(map(row.__getitem__, columns)) for row in comparison.rows]
    if comparison == REAL_THRESHOLDS:
        # strings first: sorting a mix of strings and numbers raises TypeError
        if any(isinstance(p, str) for p in points):
            raise DomainError("threshold comparison needs numeric points")
        return [[int(x >= c) for x in points] for c in sorted(points)] + [[0] * len(points)]
    if isinstance(comparison, Sequence) and all(isinstance(h, Hypothesis) for h in comparison):
        if not comparison:
            raise DomainError("comparison class has no hypotheses")
        return [list(map(h, points)) for h in comparison]
    raise DomainError(f"cannot materialize comparison class from {comparison!r}")


def best_rival_mistakes(comparison, trace: GameTrace) -> int:
    """The fewest mistakes any comparison hypothesis makes on the trace.

    A hypothesis's value v at a point (`comparison_values`) errs on the
    point's rounds labelled 1 if v != 1 and on those labelled 0 if v != 0:
    `h(x) != y` for any v. Counting per distinct point pays when points
    repeat, as in coin-flip and cycled-point games. A label other than 0 or
    1 raises."""
    def wrong(v, n: int, n_ones: int) -> int:     # the rounds on which v errs
        return (n_ones if v != 1 else 0) + (n - n_ones if v != 0 else 0)

    if not all_labels(trace.ys):
        raise DomainError("trace labels must be 0 or 1")
    seen, ones = Counter(trace.xs), Counter(compress(trace.xs, trace.ys))
    table = comparison_values(comparison, list(seen))
    counts, n_ones = seen.values(), list(map(ones.__getitem__, seen))
    return min([sum(map(wrong, values, counts, n_ones)) for values in table])


def regret(trace: GameTrace, comparison) -> int:
    """Learner mistakes minus the best comparison hypothesis's mistakes."""
    return trace.mistakes - best_rival_mistakes(comparison, trace)


def trace_to_csv(trace: GameTrace, comparison=None) -> str:
    """Frozen column order: t,x,y,yhat,mistake,cum_mistakes,cum_best_rival,
    the last blank without a comparison. A point that holds a comma, a quote
    or a newline is quoted; one holding a "\r", which the writer leaves
    bare, has its whole row quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(["t", "x", "y", "yhat", "mistake", "cum_mistakes", "cum_best_rival"])
    rival_cum: list[str] = [""] * len(trace)
    if comparison is not None and len(trace):
        # each hypothesis's mistakes so far, read from `comparison_values`
        column = {x: j for j, x in enumerate(dict.fromkeys(trace.xs))}
        rounds = [column[x] for x in trace.xs]
        so_far = [accumulate(map(operator.ne, map(values.__getitem__, rounds), trace.ys), initial=0)
                  for values in comparison_values(comparison, list(column))]
        rival_cum = [str(min(counts)) for counts in zip(*so_far)][1:]
    columns = zip(trace.xs, trace.ys, trace.predicted, trace.cumulative_mistakes(), rival_cum)
    for t, (x, y, p, cum, rival) in enumerate(columns, 1):
        x = format_point(x)
        (quoted if "\r" in x else writer).writerow((t, x, y, p, int(y != p), cum, rival))
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


def _sequence(name: str, seed: int) -> np.random.SeedSequence:
    # numpy refuses a negative seed too, but without naming it
    if seed < 0:
        raise DomainError(f"{name} must be non-negative, got {seed}")
    return np.random.SeedSequence(seed)


def trial_seeds(master_seed: int, trials: int) -> list[int]:
    return [int(s) for s in _sequence("master_seed", master_seed).generate_state(trials)]


def split_seed(seed: int) -> tuple[int, int]:
    """(learner seed, nature seed): the two independent seeds one trial's
    seed splits into."""
    learner_seed, nature_seed = _sequence("seed", seed).generate_state(2)
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
        raise DomainError("need at least 2 trials for a standard error")
    values = np.array([trial_fn(s) for s in trial_seeds(master_seed, trials)],
                      dtype=float)
    return TrialStats(values)


def regret_curve(makers: Sequence[Callable[[int], object]],
                 make_nature: Callable[[int], nature.NatureStrategy],
                 horizons: Sequence[int], trials: int, master_seed: int,
                 score: Callable[[tuple[GameTrace, ...], tuple], float | Sequence[float]]
                 ) -> list[TrialStats]:
    """The one seeded-game experiment: per horizon, `monte_carlo` of
    `score(traces, learners)` over games from `master_seed` (`play_seeded`),
    one per maker, so that the makers' learners share each seed's script."""
    return [monte_carlo(lambda s, T=T: score(*zip(*(play_seeded(make, make_nature, T, s)
                                                    for make in makers))),
                        trials, master_seed) for T in horizons]
