"""repro.train — the unified training stack.

One battle-tested loop shared by every learned simulator in the repo
(GNS particulate, MeshGraphNet fluid, interpretable n-body):

* :class:`Trainer` / :class:`TrainTask` / :class:`TrainerOptions` — the
  generic ``zero_grad → accumulate → clip → step → schedule → EMA``
  loop, parameterized by small task adapters.
* :class:`TrainState` — complete versioned checkpoints (weights,
  optimizer moments, RNG state, EMA shadow, schedule state, config
  hash) in one ``.npz`` + JSON manifest; resuming is bitwise exact.
* :mod:`~repro.train.schedules` — ``ExponentialDecay``, ``CosineDecay``,
  ``StepDecay``, ``ReduceOnPlateau``, ``WarmupSchedule`` behind one
  :class:`Schedule` interface.
* :mod:`~repro.train.callbacks` — checkpoint-every-K, validation with
  EMA/early-stop/best-weights, metric logging.

See ``docs/training.md`` for the architecture and a resume walkthrough.
"""

from .callbacks import (
    Callback, CheckpointCallback, CheckpointManager, EarlyStopping,
    ExponentialMovingAverage, MetricLogger, ValidationCallback,
)
from .schedules import (
    SCHEDULE_NAMES, ConstantSchedule, CosineDecay, ExponentialDecay,
    ReduceOnPlateau, Schedule, StepDecay, WarmupSchedule, build_schedule,
)
from .state import (
    TRAIN_STATE_VERSION, TrainState, config_fingerprint, latest_checkpoint,
    prune_tmp_files, verify_checkpoint,
)
from .trainer import Trainer, TrainerOptions, TrainTask

__all__ = [
    "Trainer", "TrainerOptions", "TrainTask",
    "TrainState", "TRAIN_STATE_VERSION", "config_fingerprint",
    "latest_checkpoint", "verify_checkpoint", "prune_tmp_files",
    "Schedule", "ConstantSchedule", "ExponentialDecay", "CosineDecay",
    "StepDecay", "ReduceOnPlateau", "WarmupSchedule", "build_schedule",
    "SCHEDULE_NAMES",
    "Callback", "CheckpointCallback", "ValidationCallback",
    "CheckpointManager", "EarlyStopping", "ExponentialMovingAverage",
    "MetricLogger",
]
