"""Tests for training infrastructure: EMA, early stopping, metric logging,
checkpoint management, and the validation training loop."""

import numpy as np
import pytest

from repro.data import Trajectory
from repro.gns import (
    FeatureConfig, GNSNetworkConfig, GNSTrainer, LearnedSimulator,
    TrainingConfig,
)
from repro.nn import Linear, default_rng
from repro.train import (
    CheckpointManager, EarlyStopping, ExponentialMovingAverage, MetricLogger,
)

BOUNDS = np.array([[0.0, 1.0], [0.0, 1.0]])


def _tiny_sim(seed=0):
    fc = FeatureConfig(connectivity_radius=0.4, history=2, bounds=BOUNDS)
    nc = GNSNetworkConfig(latent_size=8, mlp_hidden_size=8, mlp_hidden_layers=1,
                          message_passing_steps=1)
    return LearnedSimulator(fc, nc, rng=np.random.default_rng(seed))


def _toy_trajectory(seed=0, t=8, n=5):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.3, 0.7, size=(n, 2))
    frames = [base]
    for _ in range(t - 1):
        frames.append(frames[-1] + rng.normal(0, 0.002, size=(n, 2)))
    return Trajectory(np.stack(frames), dt=1.0, bounds=BOUNDS)


class TestEMA:
    def test_shadow_tracks_weights(self):
        lin = Linear(2, 2, default_rng(0))
        ema = ExponentialMovingAverage(lin, decay=0.5)
        orig = lin.weight.data.copy()
        lin.weight.data = orig + 1.0
        ema.update()
        np.testing.assert_allclose(ema.shadow["weight"], orig + 0.5)

    def test_apply_restore_roundtrip(self):
        lin = Linear(2, 2, default_rng(0))
        ema = ExponentialMovingAverage(lin, decay=0.9)
        train_weights = lin.weight.data.copy()
        lin.weight.data = train_weights + 5.0
        with ema:
            # inside: shadow (== original) weights active
            np.testing.assert_allclose(lin.weight.data, train_weights)
        np.testing.assert_allclose(lin.weight.data, train_weights + 5.0)

    def test_double_apply_raises(self):
        ema = ExponentialMovingAverage(Linear(2, 2, default_rng(0)))
        ema.apply_to()
        with pytest.raises(RuntimeError):
            ema.apply_to()

    def test_restore_without_apply_raises(self):
        ema = ExponentialMovingAverage(Linear(2, 2, default_rng(0)))
        with pytest.raises(RuntimeError):
            ema.restore()

    def test_bad_decay_raises(self):
        with pytest.raises(ValueError):
            ExponentialMovingAverage(Linear(2, 2, default_rng(0)), decay=1.5)


class TestEarlyStopping:
    def test_stops_after_patience(self):
        es = EarlyStopping(patience=2)
        assert not es.update(1.0)
        assert not es.update(1.1)     # stale 1
        assert es.update(1.2)         # stale 2 → stop

    def test_improvement_resets(self):
        es = EarlyStopping(patience=2)
        es.update(1.0)
        es.update(1.1)
        assert not es.update(0.5)     # improvement resets staleness
        assert es.best == 0.5

    def test_min_delta(self):
        es = EarlyStopping(patience=1, min_delta=0.1)
        es.update(1.0)
        assert es.update(0.95)        # not enough improvement

    def test_tracks_best_step(self):
        es = EarlyStopping(patience=3)
        es.update(1.0, step=10)
        es.update(0.5, step=20)
        es.update(0.7, step=30)
        assert es.best_step == 20

    def test_bad_patience_raises(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)


class TestMetricLogger:
    def test_log_and_column(self):
        log = MetricLogger()
        log.log(step=1, loss=0.5)
        log.log(step=2, loss=0.25, extra="x")
        assert log.column("loss") == [0.5, 0.25]
        assert log.column("extra") == ["x"]

    def test_csv_roundtrip(self, tmp_path):
        log = MetricLogger()
        log.log(step=1, loss=0.5)
        log.log(step=2, loss=0.25)
        p = tmp_path / "metrics.csv"
        log.to_csv(p)
        loaded = MetricLogger.from_csv(p)
        assert loaded.column("loss") == [0.5, 0.25]
        assert loaded.column("step") == [1.0, 2.0]

    def test_empty_csv(self, tmp_path):
        p = tmp_path / "empty.csv"
        MetricLogger().to_csv(p)
        assert p.read_text() == ""


class TestCheckpointManager:
    def test_prunes_old_checkpoints(self, tmp_path):
        sim = _tiny_sim()
        mgr = CheckpointManager(tmp_path / "ckpts", max_to_keep=2)
        for step in (10, 20, 30):
            mgr.save(sim, step)
        files = sorted(p.name for p in (tmp_path / "ckpts").glob("step_*.npz"))
        assert files == ["step_00000020.npz", "step_00000030.npz"]

    def test_best_checkpoint_retained(self, tmp_path):
        sim = _tiny_sim()
        mgr = CheckpointManager(tmp_path / "ckpts", max_to_keep=1)
        mgr.save(sim, 1, metric=1.0)
        mgr.save(sim, 2, metric=0.1)   # best
        mgr.save(sim, 3, metric=0.5)
        assert mgr.best_metric == pytest.approx(0.1)
        assert mgr.best_path.exists()
        loaded = LearnedSimulator.load(mgr.best_path)
        assert loaded.feature_config.history == 2

    def test_latest_path(self, tmp_path):
        sim = _tiny_sim()
        mgr = CheckpointManager(tmp_path / "c", max_to_keep=2)
        assert mgr.latest_path() is None
        mgr.save(sim, 5)
        assert mgr.latest_path().name == "step_00000005.npz"

    def test_bad_keep_raises(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, max_to_keep=0)


class TestTrainWithValidation:
    def test_logs_and_checkpoints(self, tmp_path):
        sim = _tiny_sim()
        trainer = GNSTrainer(sim, [_toy_trajectory(0)], TrainingConfig(
            learning_rate=1e-3, noise_std=1e-5, batch_size=1))
        log = trainer.train_with_validation(
            20, [_toy_trajectory(1)], eval_every=5,
            ema_decay=0.9, checkpoint_dir=tmp_path / "run")
        assert len(log.rows) == 4
        assert (tmp_path / "run" / "best.npz").exists()
        assert all(np.isfinite(v) for v in log.column("val_mse"))

    def test_early_stopping_halts(self):
        sim = _tiny_sim()
        trainer = GNSTrainer(sim, [_toy_trajectory(0)], TrainingConfig(
            learning_rate=0.0, final_learning_rate=0.0,  # frozen → no improvement
            noise_std=1e-5, batch_size=1))
        log = trainer.train_with_validation(
            100, [_toy_trajectory(1)], eval_every=2, patience=2)
        # stopped long before 50 evaluations
        assert len(log.rows) <= 5
