"""Safe adversarial bandits under delayed feedback.

Implements the Prudent-Banker learner (phased aggression over a Banker-OMD
core), the delayed-bandit protocol it plays in, baseline learners, greedy
bucket / hard-instance lower-bound constructions, and a reproducible
experiment harness.
"""

from .banker import BankerOMD, step_size
from .harness import RunConfig, RunTrace, best_fixed_arm, emit, pseudo_loss, run
from .mirror import NEG_ENTROPY, TSALLIS_HALF, Regularizer, grad_psi
from .protocol import (DelaySequence, EnvironmentConfig, FeedbackEvent,
                       FeedbackQueue, LossTable, generate_block_losses,
                       sample_delays)
from .prudent import (PrudentBanker, ThresholdFunctions, build_comparator,
                      gap_statistic)

__all__ = [
    "BankerOMD", "step_size",
    "RunConfig", "RunTrace", "best_fixed_arm", "emit", "pseudo_loss", "run",
    "NEG_ENTROPY", "TSALLIS_HALF", "Regularizer", "grad_psi",
    "DelaySequence", "EnvironmentConfig", "FeedbackEvent", "FeedbackQueue",
    "LossTable", "generate_block_losses", "sample_delays",
    "PrudentBanker", "ThresholdFunctions", "build_comparator", "gap_statistic",
]

__version__ = "0.1.0"
