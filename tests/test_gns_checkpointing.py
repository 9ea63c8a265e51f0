"""Tests for checkpointed rollout gradients: must equal the full tape."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.gns import (
    FeatureConfig, GNSNetworkConfig, LearnedSimulator,
    checkpointed_rollout_gradient,
)

from .helpers import steady_material_sim, steady_seed_frames, traced_peak

BOUNDS = np.array([[0.0, 1.0], [0.0, 1.0]])


def _sim(use_material=True, history=2, seed=0):
    fc = FeatureConfig(connectivity_radius=0.4, history=history, bounds=BOUNDS,
                       use_material=use_material, dim=2)
    nc = GNSNetworkConfig(latent_size=8, mlp_hidden_size=8, mlp_hidden_layers=1,
                          message_passing_steps=1)
    return LearnedSimulator(fc, nc, rng=np.random.default_rng(seed))


def _seed_history(history=2, n=6, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.3, 0.7, size=(n, 2))
    frames = [base]
    for _ in range(history):
        frames.append(frames[-1] + rng.normal(0, 0.004, size=(n, 2)))
    return np.stack(frames)


def _full_tape_reference(sim, seed, num_steps, material):
    """Loss + grads via the ordinary full-tape differentiable rollout."""
    leaves = [Tensor(f.copy(), requires_grad=True) for f in seed]
    mat = Tensor(np.array(material), requires_grad=True)
    frames = sim.rollout_differentiable(leaves, num_steps, material=mat)
    loss = (frames[-1] ** 2).sum()
    loss.backward()
    seed_grad = np.stack([l.grad for l in leaves], axis=0)
    return float(loss.data), float(mat.grad), seed_grad


LOSS = lambda x: (x ** 2).sum()  # noqa: E731


class TestCheckpointedGradient:
    @pytest.mark.parametrize("segment_length", [1, 2, 3, 10])
    def test_matches_full_tape(self, segment_length):
        sim = _sim()
        seed = _seed_history()
        ref_loss, ref_mat, ref_seed = _full_tape_reference(sim, seed, 7, 30.0)
        loss, mat_grad, seed_grad = checkpointed_rollout_gradient(
            sim, seed, 7, 30.0, LOSS, segment_length=segment_length)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert mat_grad == pytest.approx(ref_mat, rel=1e-9)
        np.testing.assert_allclose(seed_grad, ref_seed, rtol=1e-9, atol=1e-14)

    def test_segment_equal_to_rollout_length(self):
        sim = _sim()
        seed = _seed_history()
        ref = _full_tape_reference(sim, seed, 5, 25.0)
        out = checkpointed_rollout_gradient(sim, seed, 5, 25.0, LOSS,
                                            segment_length=5)
        assert out[0] == pytest.approx(ref[0])
        assert out[1] == pytest.approx(ref[1], rel=1e-9)

    def test_without_material(self):
        sim = _sim(use_material=False)
        seed = _seed_history()
        loss, mat_grad, seed_grad = checkpointed_rollout_gradient(
            sim, seed, 6, None, LOSS, segment_length=2)
        assert mat_grad is None
        assert np.isfinite(loss)
        assert np.abs(seed_grad).sum() > 0

        # cross-check the seed gradient against the full tape
        leaves = [Tensor(f.copy(), requires_grad=True) for f in seed]
        frames = sim.rollout_differentiable(leaves, 6)
        (frames[-1] ** 2).sum().backward()
        ref = np.stack([l.grad for l in leaves], axis=0)
        np.testing.assert_allclose(seed_grad, ref, rtol=1e-9, atol=1e-14)

    def test_long_rollout_feasible(self):
        """A rollout far beyond comfortable full-tape length still yields
        finite gradients (the paper's k=30 ceiling removed)."""
        sim = _sim(history=2)
        seed = _seed_history()
        loss, mat_grad, seed_grad = checkpointed_rollout_gradient(
            sim, seed, 60, 30.0, LOSS, segment_length=5)
        assert np.isfinite(loss)
        assert np.isfinite(mat_grad)
        assert np.all(np.isfinite(seed_grad))

    def test_invalid_inputs(self):
        sim = _sim()
        seed = _seed_history()
        with pytest.raises(ValueError):
            checkpointed_rollout_gradient(sim, seed, 5, 30.0, LOSS,
                                          segment_length=0)
        with pytest.raises(ValueError):
            checkpointed_rollout_gradient(sim, seed[:2], 5, 30.0, LOSS)

    def test_custom_loss_function(self):
        sim = _sim()
        seed = _seed_history()

        def runout_like(x):
            return x[:, 0].mean()

        loss, mat_grad, _ = checkpointed_rollout_gradient(
            sim, seed, 4, 30.0, runout_like, segment_length=2)
        leaves = [Tensor(f.copy()) for f in seed]
        mat = Tensor(np.array(30.0), requires_grad=True)
        frames = sim.rollout_differentiable(leaves, 4, material=mat)
        runout_like(frames[-1]).backward()
        assert mat_grad == pytest.approx(float(mat.grad), rel=1e-9)

    def test_one_segment_bitwise_equals_full_tape(self):
        """With a single segment the checkpointed pass is the full tape
        differentiated with respect to its leaves only: same bits."""
        sim = _sim()
        seed = _seed_history()
        ref_loss, ref_mat, ref_seed = _full_tape_reference(sim, seed, 7, 30.0)
        loss, mat_grad, seed_grad = checkpointed_rollout_gradient(
            sim, seed, 7, 30.0, LOSS, segment_length=7)
        assert loss == ref_loss and mat_grad == ref_mat
        assert seed_grad.tobytes() == ref_seed.tobytes()

    def test_leaves_simulator_grads_untouched(self):
        sim = _sim()
        checkpointed_rollout_gradient(sim, _seed_history(), 6, 30.0, LOSS,
                                      segment_length=2)
        assert all(p.grad is None for p in sim.parameters())

    def test_zero_adjoint_skips_earlier_segments(self):
        sim = _sim()
        seed = _seed_history()
        loss, mat_grad, seed_grad = checkpointed_rollout_gradient(
            sim, seed, 6, 30.0, lambda x: (x * 0.0).sum(), segment_length=2)
        assert loss == 0.0 and mat_grad == 0.0
        assert seed_grad.shape == seed.shape and not np.any(seed_grad)


def test_peak_memory_follows_segment_length():
    sim = steady_material_sim()
    seed = steady_seed_frames()

    def peak(steps, segment):
        return traced_peak(lambda: checkpointed_rollout_gradient(
            sim, seed, steps, 30.0, LOSS, segment_length=segment))

    peak(2, 2)                               # warm caches outside the trace
    # doubling k at a fixed segment length leaves the peak where it was
    assert peak(12, 2) <= 1.1 * peak(6, 2)
    # one segment's tape is alive at a time: half the segment length,
    # about half the peak (two live segments put it at ~the full tape)
    assert peak(12, 6) <= 0.6 * peak(12, 12)
