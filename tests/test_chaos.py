"""End-to-end chaos tests: inject faults, assert the run heals itself
and (where the fault is transient) ends bitwise-identical to an
undisturbed run."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.autodiff.functional import mse_loss
from repro.gns import FeatureConfig, GNSNetworkConfig, LearnedSimulator
from repro.hybrid import FixedSchedule, HybridSimulator
from repro.mpm import granular_box_flow
from repro.nn import Adam, Linear
from repro.obs import RolloutDivergedError
from repro.parallel import DataParallelConfig, DataParallelTrainer
from repro.resilience import (
    RecoveryPolicy, RewindPolicy, TrainingAbortedError, arm_faults,
    disarm_faults, get_injector, train_with_recovery,
)
from repro.train import (
    CheckpointCallback, Trainer, TrainerOptions, TrainTask,
)

BOUNDS = np.array([[0.0, 1.0], [0.0, 1.0]])


@pytest.fixture(autouse=True)
def _clean_global_injector():
    disarm_faults()
    yield
    disarm_faults()


class _LineTask(TrainTask):
    def __init__(self, model):
        self.model = model

    def sample(self, rng):
        x = rng.normal(size=(4, 1))
        return x, 2.0 * x

    def loss(self, batch, rng):
        x, y = batch
        return mse_loss(self.model(Tensor(x)), y)


def _trainer(seed=0):
    model = Linear(1, 1, np.random.default_rng(0))
    return Trainer(model, Adam(list(model.parameters()), lr=1e-2),
                   task=_LineTask(model), options=TrainerOptions(seed=seed))


def _weights(trainer):
    return {k: v.copy() for k, v in trainer.model.state_dict().items()}


class TestTrainerRecovery:
    def test_poisoned_batch_recovers_bitwise(self, tmp_path):
        """A transient NaN loss triggers reload-from-checkpoint; the RNG
        state restored with it replays the exact sample sequence, so the
        final weights match the fault-free run bit for bit."""
        baseline = _trainer()
        baseline.fit(12, callbacks=[CheckpointCallback(tmp_path / "a",
                                                       every=4)])
        expected = _weights(baseline)

        arm_faults("train.poison_batch@6")   # poison step 7 of the run
        chaotic = _trainer()
        losses = train_with_recovery(
            chaotic, 12, tmp_path / "b",
            callbacks=[CheckpointCallback(tmp_path / "b", every=4)],
            policy=RecoveryPolicy(streak=1, max_recoveries=2))

        assert chaotic.global_step == 12
        assert any(not np.isfinite(v) for v in losses)  # the hit is logged
        assert get_injector().fired("train.poison_batch") == 1
        for k, v in _weights(chaotic).items():
            np.testing.assert_array_equal(v, expected[k])

    def test_falls_back_past_corrupted_checkpoint(self, tmp_path):
        """When the newest checkpoint was also damaged, recovery rewinds
        further — to the step-0 baseline here — and still converges to
        the fault-free weights."""
        baseline = _trainer()
        baseline.fit(12, callbacks=[CheckpointCallback(tmp_path / "a",
                                                       every=4)])
        expected = _weights(baseline)

        # save #0 is the step-0 baseline, save #1 the step-4 checkpoint;
        # corrupt the latter, then poison step 7
        arm_faults("train.poison_batch@6;ckpt.corrupt@1")
        chaotic = _trainer()
        train_with_recovery(
            chaotic, 12, tmp_path / "b",
            callbacks=[CheckpointCallback(tmp_path / "b", every=4)],
            policy=RecoveryPolicy(streak=1, max_recoveries=2))

        assert chaotic.global_step == 12
        for k, v in _weights(chaotic).items():
            np.testing.assert_array_equal(v, expected[k])

    def test_nan_grad_is_absorbed_without_recovery(self, tmp_path):
        """NaN *gradients* (finite loss) are dropped by clip_grad_norm —
        the update is skipped, no checkpoint reload is needed, weights
        stay finite."""
        arm_faults("train.nan_grad@2")
        trainer = _trainer()
        trainer.train(5)
        assert trainer.global_step == 5
        for v in _weights(trainer).values():
            assert np.isfinite(v).all()

    def test_persistent_poison_exhausts_budget(self, tmp_path):
        arm_faults("train.poison_batch@4+")   # every step from 5 on
        trainer = _trainer()
        with pytest.raises(TrainingAbortedError) as exc:
            train_with_recovery(
                trainer, 20, tmp_path / "ck",
                callbacks=[CheckpointCallback(tmp_path / "ck", every=2)],
                policy=RecoveryPolicy(streak=1, max_recoveries=1,
                                      skip_draws=0))
        assert exc.value.recoveries == 1

    def test_skip_draws_routes_around_persistent_poison(self, tmp_path):
        """With skip_draws the reload deliberately desynchronizes the RNG
        so a fault pinned to specific draws stops recurring — liveness
        traded for bitwise parity."""
        arm_faults("train.poison_batch@4-5")
        trainer = _trainer()
        losses = train_with_recovery(
            trainer, 10, tmp_path / "ck",
            callbacks=[CheckpointCallback(tmp_path / "ck", every=2)],
            policy=RecoveryPolicy(streak=2, max_recoveries=3, skip_draws=1))
        assert trainer.global_step == 10
        assert np.isfinite(losses[-1])


class TestHybridRewind:
    @staticmethod
    def _hybrid(max_rewinds=3):
        fc = FeatureConfig(connectivity_radius=0.2, history=2, bounds=BOUNDS,
                           dim=2)
        nc = GNSNetworkConfig(latent_size=8, mlp_hidden_size=8,
                              mlp_hidden_layers=1, message_passing_steps=1)
        gns = LearnedSimulator(fc, nc, rng=np.random.default_rng(0))
        spec = granular_box_flow(seed=0, cells_per_unit=12)
        return HybridSimulator(gns, spec.solver,
                               FixedSchedule(warmup_frames=3, gns_frames=3,
                                             refine_frames=2),
                               substeps=2,
                               recovery=RewindPolicy(max_rewinds=max_rewinds))

    def test_transient_divergence_rewinds_and_completes(self):
        arm_faults("rollout.diverge@0")   # first GNS step goes NaN
        result = self._hybrid().run(10)
        assert result.frames.shape[0] == 11     # full budget delivered
        assert np.isfinite(result.frames).all() # no garbage frame leaked
        assert result.rewinds == 1
        assert not result.mpm_fallback
        assert result.gns_frames > 0            # later phases succeeded

    def test_persistent_divergence_circuit_breaks_to_mpm(self):
        arm_faults("rollout.diverge@*")   # every GNS step diverges
        result = self._hybrid(max_rewinds=2).run(10)
        assert result.frames.shape[0] == 11
        assert np.isfinite(result.frames).all()
        assert result.mpm_fallback
        assert result.rewinds == 2
        assert result.gns_frames == 0
        assert result.mpm_frames == 10


class TestRolloutDivergeSite:
    """``rollout.diverge`` fires once per step on both engine loops, so
    an armed step index surfaces as the same typed error on each."""

    @staticmethod
    def _sim_and_seed(n=6):
        fc = FeatureConfig(connectivity_radius=0.3, history=2, bounds=BOUNDS,
                           dim=2)
        nc = GNSNetworkConfig(latent_size=8, mlp_hidden_size=8,
                              mlp_hidden_layers=1, message_passing_steps=1)
        sim = LearnedSimulator(fc, nc, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x0 = rng.uniform(0.3, 0.7, size=(n, 2))
        seed = np.stack([x0 + 1e-3 * i for i in range(3)])
        return sim, seed

    @pytest.mark.parametrize("batch", [None, 1, 3])
    def test_armed_step_raises_typed_error(self, batch):
        """``None`` is the single-trajectory ``rollout``; ``1``/``3`` are
        ``rollout_batch`` with that many trajectories."""
        sim, seed = self._sim_and_seed()
        arm_faults("rollout.diverge@2")
        with pytest.raises(RolloutDivergedError) as err:
            if batch is None:
                sim.rollout(seed, 5)
            else:
                sim.rollout_batch(np.stack([seed] * batch), 5)
        assert err.value.step == 2
        assert get_injector().fired("rollout.diverge") == 1


class TestPoolChaos:
    @staticmethod
    def _sim(seed=0):
        fc = FeatureConfig(connectivity_radius=0.4, history=2, bounds=BOUNDS,
                           dim=2)
        nc = GNSNetworkConfig(latent_size=8, mlp_hidden_size=8,
                              mlp_hidden_layers=1, message_passing_steps=1)
        return LearnedSimulator(fc, nc, rng=np.random.default_rng(seed))

    @staticmethod
    def _trajectory(seed=0, t=8, n=5):
        from repro.data import Trajectory

        rng = np.random.default_rng(seed)
        frames = [rng.uniform(0.3, 0.7, size=(n, 2))]
        for _ in range(t - 1):
            frames.append(frames[-1] + rng.normal(0, 0.002, size=(n, 2)))
        return Trajectory(np.stack(frames), dt=1.0, material=30.0,
                          bounds=BOUNDS)

    def test_sequential_crash_retried(self):
        arm_faults("pool.crash@0")    # first task crashes, retry is clean
        trainer = DataParallelTrainer(
            self._sim(), [self._trajectory()],
            DataParallelConfig(num_workers=2, windows_per_worker=1))
        trainer.train(1)
        assert trainer.step_count == 1
        assert get_injector().fired("pool.crash") == 1

    def test_process_pool_crash_retried(self):
        arm_faults("pool.crash@0")    # each forked worker crashes once
        cfg = DataParallelConfig(num_workers=2, windows_per_worker=1,
                                 use_processes=True, max_task_retries=2)
        with DataParallelTrainer(self._sim(), [self._trajectory()],
                                 cfg) as trainer:
            trainer.train(1)
        assert trainer.step_count == 1

    def test_process_pool_straggler_redispatched(self):
        arm_faults("pool.stall@0")    # each worker's first task stalls
        cfg = DataParallelConfig(num_workers=2, windows_per_worker=1,
                                 use_processes=True, task_timeout=0.2,
                                 max_task_retries=3)
        with DataParallelTrainer(self._sim(), [self._trajectory()],
                                 cfg) as trainer:
            trainer.train(1)
        assert trainer.step_count == 1
