"""GNS training on windowed-noise batches.

One-step supervised learning on (history → next-position) windows with
random-walk noise injection; loss is MSE on *normalized* accelerations,
optionally augmented with a momentum-conservation soft constraint (the
paper's "conservation laws as soft constraints").

The loop mechanics — grad accumulation, clipping, LR schedule, EMA,
telemetry, and resumable :class:`~repro.train.TrainState` checkpoints —
live in the shared :class:`repro.train.Trainer`; this module only
contributes the GNS-specific sampling and loss (the window/noise/fused
batching logic below).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..autodiff import Tensor
from ..autodiff.functional import mse_loss
from ..data.trajectory import TrainingWindow, Trajectory
from ..nn import Adam
from ..train import ExponentialDecay, Trainer, TrainerOptions
from .noise import random_walk_noise
from .simulator import LearnedSimulator

__all__ = ["TrainingConfig", "GNSTrainer", "one_step_mse", "rollout_position_error"]


@dataclass
class TrainingConfig:
    """Trainer hyperparameters (paper: lr=1e-4, 20M steps on A100s —
    scaled down to CPU budgets here)."""

    learning_rate: float = 1e-4
    final_learning_rate: float = 1e-6
    decay_steps: int = 100_000
    noise_std: float = 6.7e-4          # GNS default (WaterRamps units)
    batch_size: int = 2
    grad_clip: float = 1.0
    conservation_weight: float = 0.0   # soft momentum-conservation penalty
    #: fuse the batch into one disjoint-union graph so the network runs a
    #: single (large) pass instead of batch_size small ones — same loss,
    #: less per-op Python/dispatch overhead
    fused_batching: bool = False
    #: >0 enables the *pushforward trick* (Brandstetter et al. 2022): the
    #: model rolls this many steps (no grad) from earlier ground truth and
    #: is then supervised from its own slightly-wrong state — an
    #: alternative / complement to noise injection for rollout stability
    pushforward_steps: int = 0
    #: micro-batches (each of ``batch_size`` windows) accumulated per
    #: optimizer step — the effective batch is ``batch_size * grad_accum``
    grad_accum: int = 1
    #: decay for EMA shadow weights; ``None`` disables EMA
    ema_decay: float | None = None
    seed: int = 0
    log_every: int = 100


class GNSTrainer(Trainer):
    """Minibatch trainer over a pool of training windows (a thin
    GNS adapter over the shared :class:`repro.train.Trainer`)."""

    def __init__(self, simulator: LearnedSimulator,
                 trajectories: list[Trajectory],
                 config: TrainingConfig | None = None):
        self.simulator = simulator
        self.config = config or TrainingConfig()
        cfg = self.config
        history = simulator.feature_config.history
        self.windows: list[TrainingWindow] = []
        for traj in trajectories:
            self.windows.extend(traj.windows(
                history, lookback=cfg.pushforward_steps))
        if not self.windows:
            raise ValueError("no training windows — trajectories too short "
                             f"for history={history}")
        super().__init__(
            simulator,
            Adam(list(simulator.parameters()), lr=cfg.learning_rate),
            schedule=ExponentialDecay(cfg.learning_rate,
                                      cfg.final_learning_rate,
                                      decay_steps=cfg.decay_steps),
            options=TrainerOptions(grad_accum=cfg.grad_accum,
                                   grad_clip=cfg.grad_clip,
                                   ema_decay=cfg.ema_decay,
                                   seed=cfg.seed,
                                   log_every=cfg.log_every))

    # -- task protocol --------------------------------------------------
    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Window indices of one micro-batch."""
        return rng.integers(0, len(self.windows), size=self.config.batch_size)

    def loss(self, batch: np.ndarray, rng: np.random.Generator) -> Tensor:
        """Mean window loss over one sampled micro-batch."""
        cfg = self.config
        windows = [self.windows[int(i)] for i in batch]
        if cfg.fused_batching:
            return self._fused_batch_loss(windows)
        total = None
        for window in windows:
            loss = self._window_loss(window)
            total = loss if total is None else total + loss
        return total / float(len(windows))

    def config_dict(self) -> dict:
        return dict(asdict(self.config), num_windows=len(self.windows))

    # ------------------------------------------------------------------
    def _window_history(self, window: TrainingWindow) -> np.ndarray:
        """The (C+1, n, d) input history for a window.

        With pushforward enabled, the trailing frames are the model's own
        no-grad predictions rolled in from the lookback context, so the
        supervised step sees realistic rollout error.
        """
        cfg = self.config
        if not cfg.pushforward_steps or window.lookback_frames is None:
            return window.position_history
        sim = self.simulator
        c = sim.feature_config.history
        s = window.lookback_frames.shape[0]
        all_frames = np.concatenate(
            [window.lookback_frames, window.position_history], axis=0)
        rolled = sim.rollout(all_frames[:c + 1], s, material=window.material,
                             particle_types=window.particle_types)
        # last C+1 frames: ground truth where still inside the seed,
        # model predictions for the final s frames
        return rolled[-(c + 1):]

    def _window_loss(self, window: TrainingWindow) -> Tensor:
        cfg = self.config
        sim = self.simulator
        base = self._window_history(window)
        noise = random_walk_noise(base, cfg.noise_std, self.rng)
        noisy = base + noise

        history = [Tensor(f) for f in noisy]
        pred_norm = sim.predict_normalized_acceleration(
            history, window.material, window.particle_types)

        # target acceleration measured against the *noisy* inputs, so the
        # model learns to correct accumulated rollout error
        x_t, x_prev = noisy[-1], noisy[-2]
        target = window.target_position - 2.0 * x_t + x_prev
        target_norm = sim.featurizer.normalize_acceleration(target)

        static = sim.feature_config.static_mask(window.particle_types)
        if static is not None and static.any():
            # supervise only the dynamic particles (boundary particles are
            # kinematically frozen, so their targets carry no signal)
            dynamic = ~static
            loss = mse_loss(pred_norm[dynamic], target_norm[dynamic])
        else:
            loss = mse_loss(pred_norm, target_norm)
        if cfg.conservation_weight > 0.0:
            # total momentum change of the system must match the target's
            diff = pred_norm.mean(axis=0) - Tensor(target_norm.mean(axis=0))
            loss = loss + cfg.conservation_weight * (diff * diff).sum()
        return loss

    def _fused_batch_loss(self, windows: list[TrainingWindow]) -> Tensor:
        """Mean window loss computed through ONE disjoint-union graph pass.

        Featurization runs per window (so material columns and noise draws
        match the loop path exactly), then node/edge features are
        concatenated with offset connectivity and the network runs once.
        """
        from ..autodiff import concatenate
        from ..graph import Graph

        cfg = self.config
        sim = self.simulator
        node_parts, edge_parts = [], []
        senders_parts, receivers_parts = [], []
        targets, slices, statics = [], [], []
        offset = 0
        for window in windows:
            base = self._window_history(window)
            noise = random_walk_noise(base, cfg.noise_std, self.rng)
            noisy = base + noise
            graph = sim.featurizer.build_graph(
                [Tensor(f) for f in noisy], window.material,
                window.particle_types)
            n = graph.num_nodes
            node_parts.append(graph.node_features)
            edge_parts.append(graph.edge_features)
            senders_parts.append(graph.senders + offset)
            receivers_parts.append(graph.receivers + offset)
            target = window.target_position - 2.0 * noisy[-1] + noisy[-2]
            targets.append(sim.featurizer.normalize_acceleration(target))
            slices.append((offset, offset + n))
            statics.append(sim.feature_config.static_mask(window.particle_types))
            offset += n

        fused = Graph(concatenate(node_parts, axis=0),
                      concatenate(edge_parts, axis=0),
                      np.concatenate(senders_parts),
                      np.concatenate(receivers_parts))
        pred = sim.network(fused)

        total = None
        for (lo, hi), target, static in zip(slices, targets, statics):
            pred_w = pred[lo:hi]
            if static is not None and static.any():
                dyn = ~static
                loss = mse_loss(pred_w[dyn], target[dyn])
            else:
                loss = mse_loss(pred_w, target)
            if cfg.conservation_weight > 0.0:
                diff = pred_w.mean(axis=0) - Tensor(target.mean(axis=0))
                loss = loss + cfg.conservation_weight * (diff * diff).sum()
            total = loss if total is None else total + loss
        return total / float(len(windows))

    # ------------------------------------------------------------------
    def train_with_validation(self, num_steps: int,
                              val_trajectories: list[Trajectory],
                              eval_every: int = 50,
                              ema_decay: float | None = None,
                              patience: int | None = None,
                              checkpoint_dir=None,
                              max_val_windows: int = 10):
        """Validated training through the shared callback path: periodic
        validation with optional EMA evaluation, early stopping, and
        best-checkpoint retention.

        Returns the :class:`~repro.train.MetricLogger` with one row per
        evaluation (columns: step, train_loss, val_mse).
        """
        from ..train.callbacks import (
            ExponentialMovingAverage, ValidationCallback,
        )

        if ema_decay is not None:
            self.ema = ExponentialMovingAverage(self.simulator, ema_decay)

        def validate(trainer) -> float:
            total = 0.0
            for traj in val_trajectories:
                total += one_step_mse(self.simulator, traj,
                                      max_windows=max_val_windows)
            return total / max(len(val_trajectories), 1)

        callback = ValidationCallback(validate, every=eval_every,
                                      patience=patience,
                                      checkpoint_dir=checkpoint_dir)
        self.fit(num_steps, callbacks=[callback])
        return callback.logger


# ----------------------------------------------------------------------
# evaluation helpers
# ----------------------------------------------------------------------

def one_step_mse(simulator: LearnedSimulator, trajectory: Trajectory,
                 max_windows: int | None = None) -> float:
    """Mean one-step normalized-acceleration MSE over a trajectory."""
    windows = trajectory.windows(simulator.feature_config.history)
    if max_windows is not None:
        windows = windows[:max_windows]
    from ..autodiff import no_grad

    total = 0.0
    with no_grad():
        for w in windows:
            history = [Tensor(f) for f in w.position_history]
            pred = simulator.predict_normalized_acceleration(history, w.material)
            target = simulator.featurizer.normalize_acceleration(w.target_acceleration())
            total += float(((pred.data - target) ** 2).mean())
    return total / max(len(windows), 1)


def rollout_position_error(predicted: np.ndarray, truth: np.ndarray,
                           normalize_by: float | None = None) -> np.ndarray:
    """Per-frame mean particle position error ‖x̂ − x‖ (optionally divided
    by a domain length scale, giving the paper's '%-of-domain' metric)."""
    t = min(predicted.shape[0], truth.shape[0])
    err = np.linalg.norm(predicted[:t] - truth[:t], axis=-1).mean(axis=-1)
    if normalize_by:
        err = err / normalize_by
    return err
