"""Test learners and natures shared by the test modules."""
from nuolab.hypotheses import DiscreteMeasure, DomainError, Hypothesis, threshold_hypothesis
from nuolab.learners import OnlineLearner
from nuolab.nature import AgnosticScripted, CoinFlip, RealizableScripted, StochasticIid


class LastLabel(OnlineLearner):
    """Predicts the previously revealed label (0 on the first round). It has
    no `_replay`, so `play` gives it to the base round loop."""

    def __init__(self):
        super().__init__()
        self.last = 0

    def predict(self, x) -> int:
        return self.last

    def _absorb(self, x, y, predicted) -> None:
        self.last = y


POINTS = [3, 1, 4, 1, 5, 2, 6]
LABELS = [1, 0, 1, 0, 1, 1, 0]
TARGET = threshold_hypothesis(4)


def _raise_on_5(x):
    if x == 5:
        raise DomainError("no label at 5")
    return int(x >= 4)


def _raise_from_9900(x):
    if x >= 9900:
        raise DomainError(f"no label at {x}")
    return int(x >= 4)


RAISES_ON_5 = Hypothesis("raises-on-5", _raise_on_5)
# one point in a hundred of WIDE has no label
RAISES_FROM_9900 = Hypothesis("raises-from-9900", _raise_from_9900)
MEASURE = DiscreteMeasure.uniform(tuple(range(1, 9)))
# more points than a script's rounds: the iid nature labels the drawn ones alone
WIDE = DiscreteMeasure.uniform(tuple(range(10_000)))
# D = 18 is not a power of two: a draw drops the 14 words of 5 bits from 18 up
THIRDS = DiscreteMeasure(range(1, 7), ["1/3", "1/6", "1/6", "1/9", "1/9", "1/9"])

# the oblivious natures by name, each made from a seed; every `draw_script`
# but the realizable scripts' overrides the base class's round loop
OBLIVIOUS = {
    "realizable": lambda seed: RealizableScripted(TARGET, POINTS),
    "realizable-cycle": lambda seed: RealizableScripted(TARGET, POINTS, cycle=True),
    "realizable-cycle-empty": lambda seed: RealizableScripted(TARGET, [], cycle=True),
    "realizable-raises": lambda seed: RealizableScripted(RAISES_ON_5, POINTS, cycle=True),
    "agnostic": lambda seed: AgnosticScripted(POINTS, LABELS),
    "iid": lambda seed: StochasticIid(TARGET, MEASURE, seed),
    "iid-raises": lambda seed: StochasticIid(RAISES_ON_5, MEASURE, seed),
    "iid-thirds": lambda seed: StochasticIid(TARGET, THIRDS, seed),
    "iid-wide": lambda seed: StochasticIid(TARGET, WIDE, seed),
    "iid-wide-raises": lambda seed: StochasticIid(RAISES_FROM_9900, WIDE, seed),
    "coin": lambda seed: CoinFlip(seed, point="p"),
}
