"""Test learners shared by the test modules."""
from nuolab.learners import OnlineLearner


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
