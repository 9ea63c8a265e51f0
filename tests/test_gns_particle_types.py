"""Tests for GNS particle-type support (static obstacles / boundary
particles)."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.data import Trajectory
from repro.gns import (
    FeatureConfig, GNSNetworkConfig, GNSTrainer, LearnedSimulator,
    TrainingConfig,
)

BOUNDS = np.array([[0.0, 1.0], [0.0, 1.0]])


def _typed_sim(seed=0, static=(1,)):
    fc = FeatureConfig(connectivity_radius=0.4, history=2, bounds=BOUNDS,
                       num_particle_types=2, static_types=static, dim=2)
    nc = GNSNetworkConfig(latent_size=8, mlp_hidden_size=8, mlp_hidden_layers=1,
                          message_passing_steps=1)
    return LearnedSimulator(fc, nc, rng=np.random.default_rng(seed))


def _history(n=6, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.3, 0.7, size=(n, 2))
    return np.stack([base, base + 0.002, base + 0.004])


TYPES = np.array([0, 0, 0, 1, 1, 0])


class TestFeatureConfig:
    def test_node_feature_size_includes_types(self):
        fc = FeatureConfig(connectivity_radius=0.4, history=2, bounds=BOUNDS,
                           num_particle_types=3)
        assert fc.node_feature_size() == 2 * 2 + 4 + 3

    def test_one_hot(self):
        fc = FeatureConfig(num_particle_types=3)
        oh = fc.one_hot_types(np.array([0, 2, 1]))
        np.testing.assert_array_equal(oh, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_one_hot_out_of_range_raises(self):
        fc = FeatureConfig(num_particle_types=2)
        with pytest.raises(ValueError):
            fc.one_hot_types(np.array([0, 2]))

    def test_static_mask(self):
        fc = FeatureConfig(num_particle_types=3, static_types=(1, 2))
        mask = fc.static_mask(np.array([0, 1, 2, 0]))
        np.testing.assert_array_equal(mask, [False, True, True, False])

    def test_static_mask_none_when_unconfigured(self):
        fc = FeatureConfig()
        assert fc.static_mask(np.array([0, 0])) is None
        fc2 = FeatureConfig(num_particle_types=2, static_types=(1,))
        assert fc2.static_mask(None) is None


class TestSimulatorWithTypes:
    def test_featurizer_requires_types(self):
        sim = _typed_sim()
        with pytest.raises(ValueError):
            sim.rollout(_history(), 1)

    def test_type_feature_in_graph(self):
        sim = _typed_sim()
        g = sim.featurizer.build_graph([Tensor(f) for f in _history()],
                                       particle_types=TYPES)
        one_hot = g.node_features.data[:, -2:]
        np.testing.assert_array_equal(one_hot[:, 1], TYPES.astype(float))

    def test_static_particles_do_not_move(self):
        sim = _typed_sim()
        frames = sim.rollout(_history(), 5, particle_types=TYPES)
        static = TYPES == 1
        # from the last seed frame onward, static particles stay put
        for t in range(2, frames.shape[0]):
            np.testing.assert_array_equal(frames[t][static],
                                          frames[2][static])
        # dynamic particles do move
        assert not np.allclose(frames[-1][~static], frames[2][~static])

    def test_differentiable_path_matches_numpy(self):
        sim = _typed_sim()
        hist = _history()
        fast = sim.rollout(hist, 1, particle_types=TYPES)[-1]
        slow = sim.step([Tensor(f) for f in hist],
                        particle_types=TYPES).data
        np.testing.assert_array_equal(fast, slow)

    def test_gradient_flows_through_dynamic_only(self):
        sim = _typed_sim()
        hist = _history()
        leaf = Tensor(hist[-1].copy(), requires_grad=True)
        frames = sim.rollout_differentiable(
            [Tensor(hist[0]), Tensor(hist[1]), leaf], 2,
            particle_types=TYPES)
        # loss only on static particles' final positions: they equal the
        # input, so gradient w.r.t. earlier dynamics is the identity path
        static = TYPES == 1
        (frames[-1][static] ** 2).sum().backward()
        assert leaf.grad is not None

    def test_checkpoint_roundtrip_with_types(self, tmp_path):
        sim = _typed_sim()
        path = tmp_path / "typed.npz"
        sim.save(path)
        loaded = LearnedSimulator.load(path)
        assert loaded.feature_config.num_particle_types == 2
        assert loaded.feature_config.static_types == (1,)
        a = sim.rollout(_history(), 2, particle_types=TYPES)
        b = loaded.rollout(_history(), 2, particle_types=TYPES)
        np.testing.assert_allclose(a, b)


class TestTrainingWithTypes:
    @staticmethod
    def _typed_trajectory(t=8, seed=0):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.3, 0.7, size=(6, 2))
        frames = [base]
        for _ in range(t - 1):
            nxt = frames[-1].copy()
            nxt[TYPES == 0] += rng.normal(0, 0.002, size=(4, 2))
            frames.append(nxt)
        return Trajectory(np.stack(frames), dt=1.0, bounds=BOUNDS,
                          particle_types=TYPES)

    def test_windows_carry_types(self):
        traj = self._typed_trajectory()
        w = traj.windows(2)[0]
        np.testing.assert_array_equal(w.particle_types, TYPES)

    def test_training_runs_and_masks_static(self):
        sim = _typed_sim()
        trainer = GNSTrainer(sim, [self._typed_trajectory()],
                             TrainingConfig(learning_rate=1e-3,
                                            noise_std=1e-5, batch_size=1))
        losses = trainer.train(10)
        assert all(np.isfinite(losses))

    def test_trajectory_types_roundtrip_io(self, tmp_path):
        from repro.data import load_trajectories, save_trajectories

        traj = self._typed_trajectory()
        p = tmp_path / "typed.npz"
        save_trajectories(p, [traj])
        loaded = load_trajectories(p)[0]
        np.testing.assert_array_equal(loaded.particle_types, TYPES)

    def test_bad_types_shape_raises(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((4, 3, 2)), dt=1.0,
                       particle_types=np.zeros(5, dtype=int))


class TestObstacleFlowPipeline:
    """End-to-end: obstacle scenario → typed trajectory → typed GNS."""

    def test_trajectory_structure(self):
        from repro.data import generate_obstacle_flow_trajectory

        traj = generate_obstacle_flow_trajectory(
            steps=40, record_every=10, obstacle_samples=12,
            cells_per_unit=16)
        assert traj.particle_types is not None
        static = traj.particle_types == 1
        assert static.sum() == 12
        # obstacle particles never move
        np.testing.assert_array_equal(traj.positions[0][static],
                                      traj.positions[-1][static])
        # granular particles do
        assert not np.allclose(traj.positions[0][~static],
                               traj.positions[-1][~static])

    def test_typed_gns_trains_on_obstacle_data(self):
        from repro.data import generate_obstacle_flow_trajectory, \
            normalization_stats
        from repro.gns import Stats

        traj = generate_obstacle_flow_trajectory(
            steps=60, record_every=10, obstacle_samples=10,
            cells_per_unit=16)
        stats = Stats.from_dict(normalization_stats([traj]))
        fc = FeatureConfig(connectivity_radius=0.15, history=2,
                           bounds=traj.bounds, num_particle_types=2,
                           static_types=(1,))
        nc = GNSNetworkConfig(latent_size=8, mlp_hidden_size=8,
                              mlp_hidden_layers=1, message_passing_steps=1)
        sim = LearnedSimulator(fc, nc, stats, rng=np.random.default_rng(0))
        noise = float(np.mean(stats.acceleration_std))
        trainer = GNSTrainer(sim, [traj], TrainingConfig(
            learning_rate=1e-3, noise_std=noise, batch_size=1))
        losses = trainer.train(5)
        assert all(np.isfinite(losses))

        # rollout: obstacle stays put
        c = fc.history
        rolled = sim.rollout(traj.positions[:c + 1], 4,
                             particle_types=traj.particle_types)
        static = traj.particle_types == 1
        np.testing.assert_array_equal(rolled[-1][static],
                                      rolled[c][static])
