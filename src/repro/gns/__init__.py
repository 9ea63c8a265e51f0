"""Graph Network Simulator — the paper's primary contribution.

Encode–Process–Decode GNS with attention option, physics-inspired
inductive biases, differentiable rollouts, and training utilities.
"""

from .features import FeatureConfig, GNSFeaturizer, Stats
from .network import EncodeProcessDecode, GNSNetworkConfig, InteractionNetwork
from .engine import InferenceEngine
from .noise import random_walk_noise
from .simulator import LearnedSimulator
from .checkpointing import checkpointed_rollout_gradient
from .training import GNSTrainer, TrainingConfig, one_step_mse, rollout_position_error

__all__ = [
    "FeatureConfig", "GNSFeaturizer", "Stats",
    "EncodeProcessDecode", "GNSNetworkConfig", "InteractionNetwork",
    "random_walk_noise",
    "InferenceEngine", "LearnedSimulator", "checkpointed_rollout_gradient",
    "GNSTrainer", "TrainingConfig", "one_step_mse", "rollout_position_error",
]
