"""nuolab: a desk-scale laboratory for non-uniform online learning.

Exact Littlestone-dimension oracles, version-space learners, countable
expert aggregation by perturbed leaders, the adversaries that meet their
bounds, and a Monte-Carlo harness that verifies every bound on small
instances.
"""

from .hypotheses import (DiscreteMeasure, ExplicitListFamily, FiniteClass,
                         FiniteSupportFamily, support_hypothesis)
from .learners import (AggregatorLearner, ConstantLearner, CoverLearner,
                       CoverSpec, ExpertLearner, OnlineLearner, SoaLearner,
                       TruncatedThresholdSoa)

__version__ = "0.1.0"
