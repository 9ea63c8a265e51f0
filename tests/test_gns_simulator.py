"""Tests for the learned simulator: stepping, rollouts, differentiability,
training, and checkpointing."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.data import Trajectory
from repro.gns import (
    FeatureConfig, GNSNetworkConfig, GNSTrainer, LearnedSimulator, Stats,
    TrainingConfig, one_step_mse, random_walk_noise, rollout_position_error,
)

BOUNDS = np.array([[0.0, 1.0], [0.0, 1.0]])


def _tiny_sim(history=2, use_material=False, attention=False, seed=0):
    fc = FeatureConfig(connectivity_radius=0.4, history=history, bounds=BOUNDS,
                       use_material=use_material, dim=2)
    nc = GNSNetworkConfig(latent_size=8, mlp_hidden_size=8, mlp_hidden_layers=1,
                          message_passing_steps=2, attention=attention)
    return LearnedSimulator(fc, nc, rng=np.random.default_rng(seed))


def _seed_history(history=2, n=5, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.3, 0.7, size=(n, 2))
    frames = [base]
    for _ in range(history):
        frames.append(frames[-1] + rng.normal(0, 0.005, size=(n, 2)))
    return np.stack(frames)


def _synthetic_trajectory(t=12, n=5, seed=0):
    """Ballistic particles under constant 'gravity' in displacement units."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.3, 0.7, size=(n, 2))
    v0 = rng.normal(0, 0.003, size=(n, 2))
    g = np.array([0.0, -1e-4])
    frames = [x0]
    v = v0.copy()
    for _ in range(t - 1):
        v = v + g
        frames.append(frames[-1] + v)
    return Trajectory(np.stack(frames), dt=1.0, material=30.0, bounds=BOUNDS)


class TestStepAndRollout:
    def test_step_output_shape(self):
        sim = _tiny_sim()
        hist = [Tensor(f) for f in _seed_history()]
        out = sim.step(hist)
        assert out.shape == (5, 2)

    def test_rollout_shape_includes_seed(self):
        sim = _tiny_sim()
        frames = sim.rollout(_seed_history(), num_steps=4)
        assert frames.shape == (3 + 4, 5, 2)

    def test_rollout_deterministic(self):
        sim = _tiny_sim()
        a = sim.rollout(_seed_history(), 3)
        b = sim.rollout(_seed_history(), 3)
        np.testing.assert_array_equal(a, b)

    def test_untrained_rollout_is_finite(self):
        sim = _tiny_sim()
        frames = sim.rollout(_seed_history(), 10)
        assert np.all(np.isfinite(frames))

    def test_zero_acc_prediction_gives_inertial_motion(self):
        """If the network predicted exactly the dataset-mean acceleration of 0,
        integration reduces to x_{t+1} = 2x_t − x_{t−1}. We emulate that by
        zeroing the decoder output weights."""
        sim = _tiny_sim()
        last = sim.network.decoder.linears[-1]
        last.weight.data[:] = 0.0
        last.bias.data[:] = 0.0
        hist = _seed_history()
        out = sim.step([Tensor(f) for f in hist]).data
        np.testing.assert_allclose(out, 2 * hist[-1] - hist[-2], atol=1e-12)


class TestDifferentiableRollout:
    def test_gradient_wrt_material(self):
        sim = _tiny_sim(use_material=True)
        m = Tensor(np.array(30.0), requires_grad=True)
        frames = sim.rollout_differentiable(
            [Tensor(f) for f in _seed_history()], num_steps=3, material=m)
        loss = (frames[-1] ** 2).sum()
        loss.backward()
        assert m.grad is not None
        assert np.isfinite(float(m.grad))
        assert abs(float(m.grad)) > 0.0

    def test_gradient_wrt_initial_positions(self):
        sim = _tiny_sim()
        seed = _seed_history()
        leaf = Tensor(seed[-1], requires_grad=True)
        history = [Tensor(seed[0]), Tensor(seed[1]), leaf]
        frames = sim.rollout_differentiable(history, num_steps=2)
        (frames[-1] ** 2).sum().backward()
        assert leaf.grad is not None
        assert np.abs(leaf.grad).sum() > 0

    def test_matches_inference_rollout(self):
        sim = _tiny_sim()
        seed = _seed_history()
        fast = sim.rollout(seed, 3)
        slow = sim.rollout_differentiable([Tensor(f) for f in seed], 3)
        np.testing.assert_array_equal(fast, np.stack([f.data for f in slow]))


class TestTraining:
    def test_loss_decreases(self):
        trajs = [_synthetic_trajectory(seed=i) for i in range(2)]
        sim = _tiny_sim()
        trainer = GNSTrainer(sim, trajs, TrainingConfig(
            learning_rate=1e-3, noise_std=1e-5, batch_size=2, seed=0))
        losses = trainer.train(60)
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_conservation_penalty_changes_loss(self):
        trajs = [_synthetic_trajectory(seed=0)]
        sim = _tiny_sim(seed=1)
        t0 = GNSTrainer(sim, trajs, TrainingConfig(conservation_weight=0.0, seed=3))
        l0 = t0._window_loss(t0.windows[0])
        sim2 = _tiny_sim(seed=1)
        t1 = GNSTrainer(sim2, trajs, TrainingConfig(conservation_weight=10.0, seed=3))
        l1 = t1._window_loss(t1.windows[0])
        assert float(l1.data) >= float(l0.data)

    def test_trainer_requires_windows(self):
        short = Trajectory(np.zeros((2, 3, 2)), dt=1.0, bounds=BOUNDS)
        with pytest.raises(ValueError):
            GNSTrainer(_tiny_sim(), [short])

    def test_one_step_mse_finite(self):
        traj = _synthetic_trajectory()
        sim = _tiny_sim()
        val = one_step_mse(sim, traj, max_windows=3)
        assert np.isfinite(val) and val >= 0

    def test_attention_sim_trains(self):
        trajs = [_synthetic_trajectory(seed=0)]
        sim = _tiny_sim(attention=True)
        trainer = GNSTrainer(sim, trajs, TrainingConfig(
            learning_rate=1e-3, noise_std=1e-5, batch_size=1))
        losses = trainer.train(10)
        assert all(np.isfinite(losses))


class TestNoise:
    def test_shape_and_first_frame_zero(self):
        hist = np.zeros((4, 6, 2))
        noise = random_walk_noise(hist, 1e-3, np.random.default_rng(0))
        assert noise.shape == hist.shape
        np.testing.assert_array_equal(noise[0], 0.0)

    def test_zero_std_is_zero(self):
        noise = random_walk_noise(np.zeros((3, 4, 2)), 0.0,
                                  np.random.default_rng(0))
        np.testing.assert_array_equal(noise, 0.0)

    def test_last_velocity_std_calibrated(self):
        """Velocity noise at the final step accumulates to ~noise_std."""
        rng = np.random.default_rng(0)
        hist = np.zeros((6, 4000, 2))
        noise = random_walk_noise(hist, 1e-3, rng)
        last_vel_noise = noise[-1] - noise[-2]
        assert np.std(last_vel_noise) == pytest.approx(1e-3, rel=0.1)

    def test_too_short_history_raises(self):
        with pytest.raises(ValueError):
            random_walk_noise(np.zeros((1, 3, 2)), 1e-3, np.random.default_rng(0))


class TestCheckpoint:
    def test_save_load_roundtrip(self, tmp_path):
        sim = _tiny_sim(use_material=True)
        path = tmp_path / "sim.npz"
        sim.save(path)
        loaded = LearnedSimulator.load(path)
        seed = _seed_history()
        np.testing.assert_allclose(sim.rollout(seed, 2, material=30.0),
                                   loaded.rollout(seed, 2, material=30.0))

    def test_loaded_config_matches(self, tmp_path):
        sim = _tiny_sim()
        path = tmp_path / "sim.npz"
        sim.save(path)
        loaded = LearnedSimulator.load(path)
        assert loaded.feature_config.history == sim.feature_config.history
        assert loaded.network_config.latent_size == sim.network_config.latent_size


class TestEvalHelpers:
    def test_rollout_position_error(self):
        a = np.zeros((5, 3, 2))
        b = np.ones((5, 3, 2))
        err = rollout_position_error(a, b)
        np.testing.assert_allclose(err, np.sqrt(2.0))
        err_norm = rollout_position_error(a, b, normalize_by=2.0)
        np.testing.assert_allclose(err_norm, np.sqrt(2.0) / 2.0)
