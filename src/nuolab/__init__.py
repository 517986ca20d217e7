"""nuolab: a desk-scale laboratory for non-uniform online learning.

Exact Littlestone-dimension oracles, version-space learners, countable
expert aggregation by perturbed leaders, the adversaries that meet their
bounds, and a Monte-Carlo harness that verifies every bound on small
instances.
"""

from .hypotheses import (ClassFamily, DiscreteMeasure, DomainError,
                         ExplicitListFamily, FamilyComponent, FiniteClass,
                         FiniteSupportClass, FiniteSupportFamily, Hypothesis,
                         NaturalThresholdFamily, Point, RationalThresholdFamily,
                         SingletonClass, constant_hypothesis, family_from_config,
                         hypothesis_from_config, support_hypothesis,
                         threshold_hypothesis)
from .littlestone import (CapacityError, ShatteredTreeWitness, StructureError,
                          VersionSpace, ldim, minimax_mistakes,
                          shattered_tree_witness, soa_prediction, verify_witness)
from .learners import (AggregatorLearner, ConstantLearner, CoverLearner,
                       CoverSpec, ExpertLearner, FollowHypothesisLearner,
                       NaturalThresholdLearner, OnlineLearner, ProtocolError,
                       SoaLearner, TruncatedThresholdSoa)
from .fpl import (AgnosticFpl, ConfigurationError, ExpertPoolFpl, FplLearner,
                  fpl_regret_bound, hierarchical_regret_bound, meta_complexity,
                  meta_mass_partial, pool_complexity, pool_mass_bound_partial)
from .nature import (AgnosticScripted, CoinFlip, ExhaustionError,
                     NatureStrategy, RealizableScripted, StochasticIid,
                     TreeAdversary, WindowHalving, commit_adversary)
from .runner import (GameRound, GameTrace, RegretCurve, TrialStats,
                     best_rival_mistakes, make_learner, make_nature,
                     monte_carlo, play_config, play_seeded, regret,
                     regret_curve, run_game, trace_to_csv)

__version__ = "0.1.0"
