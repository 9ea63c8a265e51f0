"""Unified training callbacks shared by every trainer.

EMA weights, early stopping, metric logging, and rolling weights-only
checkpoints — plus the pieces the shared
:class:`~repro.train.Trainer` adds on top:

* :class:`Callback` — the hook protocol (``on_train_begin`` /
  ``on_step_end`` / ``on_train_end``; ``on_step_end`` returning True
  stops training).
* :class:`CheckpointCallback` — periodic **full** :class:`TrainState`
  checkpoints (resumable, unlike ``CheckpointManager``'s weights-only
  files) with pruning and a ``latest.json`` index.
* :class:`ValidationCallback` — periodic validation with optional EMA
  evaluation, early stopping, best-weights retention, and metric
  logging; this is the single implementation behind what used to be
  ``GNSTrainer.train_with_validation``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable

import numpy as np

from ..nn import Module

__all__ = [
    "ExponentialMovingAverage", "EarlyStopping", "MetricLogger",
    "CheckpointManager", "Callback", "CheckpointCallback",
    "ValidationCallback",
]


class ExponentialMovingAverage:
    """Shadow parameters θ̄ ← decay·θ̄ + (1−decay)·θ.

    ``apply_to`` swaps the shadow weights into the module (keeping a
    backup); ``restore`` swaps the training weights back — the standard
    evaluate-with-EMA pattern. ``state_dict``/``load_state_dict`` round-
    trip the shadow for :class:`~repro.train.TrainState` checkpoints.
    """

    def __init__(self, module: Module, decay: float = 0.999):
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        self.module = module
        self.decay = decay
        self.shadow = {name: p.data.copy()
                       for name, p in module.named_parameters()}
        self._backup: dict[str, np.ndarray] | None = None

    def update(self) -> None:
        d = self.decay
        for name, p in self.module.named_parameters():
            self.shadow[name] = d * self.shadow[name] + (1.0 - d) * p.data

    def apply_to(self) -> None:
        """Swap EMA weights in (call :meth:`restore` afterwards)."""
        if self._backup is not None:
            raise RuntimeError("EMA weights already applied")
        self._backup = {name: p.data for name, p in
                        self.module.named_parameters()}
        for name, p in self.module.named_parameters():
            p.data = self.shadow[name].copy()

    def restore(self) -> None:
        if self._backup is None:
            raise RuntimeError("no backup to restore")
        for name, p in self.module.named_parameters():
            p.data = self._backup[name]
        self._backup = None

    def __enter__(self):
        self.apply_to()
        return self

    def __exit__(self, *exc):
        self.restore()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.shadow.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        missing = set(self.shadow) - set(state)
        unexpected = set(state) - set(self.shadow)
        if missing or unexpected:
            raise KeyError(f"EMA state mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, arr in state.items():
            arr = np.asarray(arr)
            if arr.shape != self.shadow[name].shape:
                raise ValueError(f"EMA shape mismatch for {name}: "
                                 f"{arr.shape} vs {self.shadow[name].shape}")
            self.shadow[name] = arr.astype(self.shadow[name].dtype, copy=True)


class EarlyStopping:
    """Stop when a monitored metric hasn't improved for ``patience`` checks."""

    def __init__(self, patience: int = 5, min_delta: float = 0.0):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.min_delta = min_delta
        self.best = np.inf
        self.best_step: int | None = None
        self.stale = 0

    def update(self, value: float, step: int | None = None) -> bool:
        """Record a metric; returns True when training should stop."""
        if value < self.best - self.min_delta:
            self.best = value
            self.best_step = step
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


class MetricLogger:
    """Append-only metric rows with CSV persistence."""

    def __init__(self):
        self.rows: list[dict] = []

    def log(self, **metrics) -> None:
        self.rows.append(dict(metrics))

    def column(self, key: str) -> list:
        return [r[key] for r in self.rows if key in r]

    def to_csv(self, path: str | Path) -> None:
        if not self.rows:
            Path(path).write_text("")
            return
        keys: list[str] = []
        for r in self.rows:
            for k in r:
                if k not in keys:
                    keys.append(k)
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=keys)
            writer.writeheader()
            writer.writerows(self.rows)

    @classmethod
    def from_csv(cls, path: str | Path) -> "MetricLogger":
        logger = cls()
        with open(path, newline="") as f:
            for row in csv.DictReader(f):
                parsed = {}
                for k, v in row.items():
                    try:
                        parsed[k] = float(v)
                    except (TypeError, ValueError):
                        parsed[k] = v
                logger.rows.append(parsed)
        return logger


class CheckpointManager:
    """Rolling weights-only checkpoints plus a persistent best checkpoint.

    Works with any object exposing ``save(path)`` (e.g.
    :class:`~repro.gns.LearnedSimulator`). For *resumable* checkpoints
    use :class:`CheckpointCallback`, which snapshots the full
    :class:`~repro.train.TrainState`.
    """

    def __init__(self, directory: str | Path, max_to_keep: int = 3):
        if max_to_keep < 1:
            raise ValueError("max_to_keep must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_to_keep = max_to_keep
        self.best_metric = np.inf
        self._kept: list[Path] = []
        self._index_path = self.directory / "index.json"

    @property
    def best_path(self) -> Path:
        return self.directory / "best.npz"

    def save(self, model, step: int, metric: float | None = None) -> Path:
        """Save a step checkpoint (pruning old ones); update best."""
        path = self.directory / f"step_{step:08d}.npz"
        model.save(path)
        self._kept.append(path)
        while len(self._kept) > self.max_to_keep:
            old = self._kept.pop(0)
            old.unlink(missing_ok=True)
        if metric is not None and metric < self.best_metric:
            self.best_metric = float(metric)
            model.save(self.best_path)
        self._index_path.write_text(json.dumps({
            "kept": [p.name for p in self._kept],
            "best_metric": None if np.isinf(self.best_metric)
                           else self.best_metric,
        }))
        return path

    def latest_path(self) -> Path | None:
        return self._kept[-1] if self._kept else None


# ----------------------------------------------------------------------
# trainer callback protocol
# ----------------------------------------------------------------------

class Callback:
    """Hook protocol for :meth:`repro.train.Trainer.fit`."""

    def on_train_begin(self, trainer) -> None:
        pass

    def on_step_end(self, trainer, step: int, loss: float) -> bool | None:
        """Called after every optimizer step; return True to stop."""

    def on_train_end(self, trainer) -> None:
        pass


class CheckpointCallback(Callback):
    """Write a full resumable :class:`TrainState` every ``every`` steps.

    Keeps the newest ``max_to_keep`` states as ``state_<step>.npz`` and
    maintains a ``latest.json`` index so ``--resume DIR`` can find the
    most recent one. A final state is always written at ``on_train_end``.
    """

    def __init__(self, directory: str | Path, every: int = 100,
                 max_to_keep: int = 3):
        if every < 1:
            raise ValueError("every must be >= 1")
        if max_to_keep < 1:
            raise ValueError("max_to_keep must be >= 1")
        self.directory = Path(directory)
        self.every = int(every)
        self.max_to_keep = int(max_to_keep)
        self._kept: list[Path] = []

    def _write(self, trainer, step: int) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"state_{step:08d}.npz"
        trainer.save(path)
        if path not in self._kept:
            self._kept.append(path)
        while len(self._kept) > self.max_to_keep:
            old = self._kept.pop(0)
            old.unlink(missing_ok=True)
            old.with_suffix(old.suffix + ".json").unlink(missing_ok=True)
        (self.directory / "latest.json").write_text(json.dumps({
            "latest": path.name, "step": step,
            "kept": [p.name for p in self._kept]}))
        return path

    def on_step_end(self, trainer, step: int, loss: float) -> None:
        if step % self.every == 0:
            self._write(trainer, step)

    def on_train_end(self, trainer) -> None:
        if trainer.global_step > 0:
            self._write(trainer, trainer.global_step)


class ValidationCallback(Callback):
    """Periodic validation with EMA evaluation, early stopping, and
    best-weights retention — one implementation for every trainer.

    ``validate`` maps the trainer to a scalar metric (lower = better).
    When the trainer has an EMA, validation and best-checkpoint saving
    run under the shadow weights. When the trainer's schedule is a
    :class:`~repro.train.schedules.ReduceOnPlateau`, each metric is also
    reported to it.
    """

    def __init__(self, validate: Callable[[object], float], every: int = 50,
                 patience: int | None = None,
                 checkpoint_dir: str | Path | None = None,
                 metric_name: str = "val_mse",
                 logger: MetricLogger | None = None):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.validate = validate
        self.every = int(every)
        self.metric_name = metric_name
        self.logger = logger if logger is not None else MetricLogger()
        self.stopper = EarlyStopping(patience) if patience is not None else None
        self.manager = (CheckpointManager(checkpoint_dir)
                        if checkpoint_dir is not None else None)

    def on_step_end(self, trainer, step: int, loss: float) -> bool | None:
        if step % self.every != 0:
            return None
        from ..obs import get_registry
        from .schedules import ReduceOnPlateau, WarmupSchedule

        ema = trainer.ema
        if ema is not None:
            with ema:
                value = float(self.validate(trainer))
        else:
            value = float(self.validate(trainer))
        self.logger.log(step=step, train_loss=loss,
                        **{self.metric_name: value})
        reg = get_registry()
        if reg.enabled:
            reg.series(f"train.{self.metric_name}").append(step, value)
        sched = trainer.schedule
        if isinstance(sched, WarmupSchedule):
            sched = sched.base
        if isinstance(sched, ReduceOnPlateau):
            sched.report(value)
        if self.manager is not None:
            if ema is not None:
                with ema:
                    self.manager.save(trainer.model, step, value)
            else:
                self.manager.save(trainer.model, step, value)
        if self.stopper is not None and self.stopper.update(value, step):
            return True
        return None
