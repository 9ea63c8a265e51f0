"""MeshNet training on recorded CFD velocity fields.

The loop mechanics live in the shared :class:`repro.train.Trainer`;
this module contributes the mesh-field sampling (random frame + input
noise) and the normalized-delta loss.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..autodiff import Tensor
from ..autodiff.functional import mse_loss
from ..nn import Adam
from ..train import Trainer, TrainerOptions
from .simulator import MeshNetSimulator

__all__ = ["MeshTrainingConfig", "MeshNetTrainer", "fields_to_nodes",
           "velocity_field_rmse"]


def fields_to_nodes(fields: np.ndarray, subsample: int = 1) -> np.ndarray:
    """``(T, nx, ny, 2)`` lattice fields → ``(T, N, 2)`` node velocities
    (row-major node ordering matching :func:`mesh_from_lattice`)."""
    sub = fields[:, ::subsample, ::subsample, :]
    t = sub.shape[0]
    return sub.reshape(t, -1, 2)


def velocity_field_rmse(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-frame RMSE between node velocity fields → ``(T,)``."""
    t = min(predicted.shape[0], truth.shape[0])
    diff = predicted[:t] - truth[:t]
    return np.sqrt((diff ** 2).mean(axis=(1, 2)))


@dataclass
class MeshTrainingConfig:
    learning_rate: float = 1e-3
    #: input-velocity corruption for rollout robustness; ``None`` (default)
    #: auto-calibrates to 0.3× the per-frame velocity-change scale so the
    #: noise-correction signal never swamps the dynamics signal
    noise_std: float | None = None
    batch_size: int = 1
    grad_clip: float = 1.0
    #: micro-batches accumulated per optimizer step
    grad_accum: int = 1
    #: decay for EMA shadow weights; ``None`` disables EMA
    ema_decay: float | None = None
    seed: int = 0
    log_every: int = 50


class MeshNetTrainer(Trainer):
    """One-step supervision on consecutive velocity fields (a thin
    MeshNet adapter over the shared :class:`repro.train.Trainer`)."""

    def __init__(self, simulator: MeshNetSimulator,
                 node_velocity_frames: np.ndarray,
                 config: MeshTrainingConfig | None = None):
        if node_velocity_frames.ndim != 3:
            raise ValueError("expected (T, N, 2) node velocity frames")
        if node_velocity_frames.shape[0] < 2:
            raise ValueError("need at least two frames")
        self.simulator = simulator
        self.frames = np.asarray(node_velocity_frames, dtype=np.float64)
        self.config = config or MeshTrainingConfig()
        cfg = self.config

        # calibrate normalization scales from the data
        deltas = np.diff(self.frames, axis=0)
        simulator.velocity_scale = float(np.abs(self.frames).std()) or 1.0
        simulator.delta_scale = float(np.abs(deltas).std()) or 1.0
        if cfg.noise_std is None:
            cfg.noise_std = 0.3 * simulator.delta_scale

        super().__init__(
            simulator,
            Adam(list(simulator.parameters()), lr=cfg.learning_rate),
            options=TrainerOptions(grad_accum=cfg.grad_accum,
                                   grad_clip=cfg.grad_clip,
                                   ema_decay=cfg.ema_decay,
                                   seed=cfg.seed,
                                   log_every=cfg.log_every))

    # -- task protocol --------------------------------------------------
    def sample(self, rng: np.random.Generator) -> list[tuple[int, np.ndarray]]:
        """One micro-batch of (frame index, input noise) draws."""
        cfg = self.config
        batch = []
        for _ in range(cfg.batch_size):
            t = int(rng.integers(0, self.frames.shape[0] - 1))
            noise = rng.normal(0.0, cfg.noise_std,
                               size=self.frames[t].shape)
            batch.append((t, noise))
        return batch

    def loss(self, batch: list[tuple[int, np.ndarray]],
             rng: np.random.Generator) -> Tensor:
        sim = self.simulator
        total = None
        for t, noise in batch:
            noisy = self.frames[t] + noise
            # target measured against the noisy input so the model learns
            # to correct accumulated rollout error
            target_delta = (self.frames[t + 1] - noisy) / sim.delta_scale
            pred = sim.predict_delta(Tensor(noisy))
            loss = mse_loss(pred, target_delta)
            total = loss if total is None else total + loss
        return total / float(len(batch))

    def config_dict(self) -> dict:
        return dict(asdict(self.config),
                    num_frames=int(self.frames.shape[0]),
                    num_nodes=int(self.frames.shape[1]))
