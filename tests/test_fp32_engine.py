"""End-to-end float32 inference mode: accuracy contract vs float64,
dtype plumbing through simulator/engine, and sanitizer cleanliness.

The contract (docs/performance.md): the network forward pass runs in
float32 but positions, integration, and physics accumulators stay
float64 — so the fp32 trajectory drifts from the f64 one only through
the ~1e-7-per-step network output error, and every sanitizer site
observes a stable float64 dtype in both modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gns import FeatureConfig, GNSNetworkConfig, LearnedSimulator, Stats
from repro.lint.sanitize import install, uninstall


@pytest.fixture(autouse=True)
def _no_sanitizer():
    uninstall()
    yield
    uninstall()


def _make_sim(latent=16, mp=2, history=3, seed=0, hidden=None,
              hidden_layers=2):
    spacing = 1.0 / 12
    cfg = FeatureConfig(connectivity_radius=2.33 * spacing, history=history,
                        bounds=np.array([[0.0, 1.0], [0.0, 1.0]]))
    net = GNSNetworkConfig(latent_size=latent,
                           mlp_hidden_size=hidden or latent,
                           mlp_hidden_layers=hidden_layers,
                           message_passing_steps=mp)
    vel = 0.002
    stats = Stats(np.zeros(2), np.full(2, vel), np.zeros(2),
                  np.full(2, 0.05 * vel))
    return LearnedSimulator(cfg, net, stats, rng=np.random.default_rng(seed))


def _seed_frames(sim, n=60, seed=1):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.2, 0.8, size=(n, 2))
    frames = [x0]
    for _ in range(sim.feature_config.history):
        frames.append(frames[-1] + rng.normal(0, 5e-4, size=(n, 2)))
    return np.stack(frames, axis=0)


class TestAccuracy:
    def test_single_step_error_small(self):
        sim = _make_sim()
        frames = _seed_frames(sim)
        f64 = sim.rollout(frames, 1)
        f32 = sim.rollout(frames, 1, dtype=np.float32)
        drift = np.abs(f32 - f64).max()
        assert drift < 1e-5, f"single-step fp32 drift {drift:.2e}"

    def test_rollout_within_tolerance(self):
        sim = _make_sim()
        frames = _seed_frames(sim)
        f64 = sim.rollout(frames, 20)
        f32 = sim.rollout(frames, 20, dtype=np.float32)
        drift = np.abs(f32 - f64).max()
        assert drift < 1e-3, f"20-step fp32 drift {drift:.2e}"

    def test_fp32_output_is_float64_positions(self):
        # integration stays f64: returned trajectory dtype never changes
        sim = _make_sim()
        frames = _seed_frames(sim)
        out = sim.rollout(frames, 2, dtype=np.float32)
        assert out.dtype == np.float64

    def test_numpy_fallback_parity(self, monkeypatch):
        """With C kernels force-disabled the fp32 path must still agree
        with the f64 path to the same tolerance."""
        from repro.accel import cpu

        monkeypatch.setattr(cpu, "_KERNELS", None)
        monkeypatch.setattr(cpu, "_TRIED", True)
        sim = _make_sim(seed=2)
        frames = _seed_frames(sim)
        f64 = sim.rollout(frames, 5)
        f32 = sim.rollout(frames, 5, dtype=np.float32)
        assert np.abs(f32 - f64).max() < 1e-4


class TestPlumbing:
    def test_engine_dtype_rebuild(self):
        sim = _make_sim()
        e64 = sim.engine()
        assert e64.dtype == np.float64
        e32 = sim.engine(dtype=np.float32)
        assert e32.dtype == np.float32
        assert sim.engine(dtype=np.float32) is e32
        assert sim.engine() is not e32

    def test_inference_dtype_default(self):
        sim = _make_sim()
        sim.inference_dtype = np.float32
        assert sim.engine().dtype == np.float32

    def test_bad_dtype_rejected(self):
        from repro.gns.engine import InferenceEngine

        sim = _make_sim()
        with pytest.raises(ValueError, match="float32 or float64"):
            InferenceEngine(sim, dtype=np.int32)

    def test_slow_path_dtype_override_rejected(self):
        sim = _make_sim()
        frames = _seed_frames(sim)
        with pytest.raises(ValueError, match="fast=True"):
            sim.rollout(frames, 1, fast=False, dtype=np.float32)

    def test_oracle_rejects_float32_inference_dtype(self):
        # the tape oracle runs float64 only: a float32 inference_dtype
        # raises instead of silently running float64
        sim = _make_sim()
        sim.inference_dtype = np.float32
        frames = _seed_frames(sim)
        with pytest.raises(ValueError, match="float64 tape oracle"):
            sim.rollout(frames, 1, fast=False)
        np.testing.assert_array_equal(
            sim.rollout(frames, 1, fast=False, dtype=np.float64),
            sim.rollout(frames, 1, dtype=np.float64))

    def test_batch_rollout_fp32(self):
        sim = _make_sim()
        frames = _seed_frames(sim)
        batch = np.stack([frames, frames], axis=0)
        out64 = sim.rollout_batch(batch, 3)
        out32 = sim.rollout_batch(batch, 3, dtype=np.float32)
        assert np.abs(out32 - out64).max() < 1e-4
        np.testing.assert_array_equal(out32[0], out32[1])


@pytest.fixture
def edge_passes(monkeypatch):
    """Counts calls of the fused float32 edge pass."""
    from repro.accel import CpuKernels, build_error, kernels, toolchain_missing

    if toolchain_missing() is not None:
        pytest.skip(toolchain_missing())
    assert kernels() is not None, build_error()
    calls = {"n": 0}
    run = CpuKernels.edge_pass

    def counted(self, *args, **kwargs):
        calls["n"] += 1
        return run(self, *args, **kwargs)

    monkeypatch.setattr(CpuKernels, "edge_pass", counted)
    return calls


class TestFusedEdgePass:
    """The float32 engine's edge side runs as one C pass per block; its
    trajectories stay deterministic and batch-independent."""

    def test_batch_equals_solo_rollouts_bitwise(self, edge_passes):
        sim = _make_sim()
        seeds = np.stack([_seed_frames(sim, seed=s) for s in (1, 2, 3)])
        batch = sim.rollout_batch(seeds, 6, dtype=np.float32,
                                  backend="accel")
        assert edge_passes["n"] > 0
        for i in range(3):
            np.testing.assert_array_equal(
                batch[i], sim.rollout(seeds[i], 6, dtype=np.float32,
                                      backend="accel"))

    def test_repeated_rollouts_bitwise(self, edge_passes):
        sim = _make_sim(latent=24)
        frames = _seed_frames(sim)
        first = sim.rollout(frames, 6, dtype=np.float32, backend="accel")
        assert edge_passes["n"] > 0
        np.testing.assert_array_equal(
            first, sim.rollout(frames, 6, dtype=np.float32, backend="accel"))

    @pytest.mark.parametrize("hidden_layers", [0, 1, 2, 3])
    def test_hidden_layers_match_numpy_backend(self, edge_passes,
                                               hidden_layers):
        """A one-layer edge MLP (no hidden layer) keeps the generic
        path; every deeper one runs the fused pass, within the float32
        tolerance of the kernel-free path."""
        sim = _make_sim(latent=32, hidden=64, hidden_layers=hidden_layers,
                        seed=3)
        frames = _seed_frames(sim)
        fused = sim.rollout(frames, 5, dtype=np.float32, backend="accel")
        assert (edge_passes["n"] > 0) == (hidden_layers > 0)
        calls = edge_passes["n"]
        generic = sim.rollout(frames, 5, dtype=np.float32, backend="numpy")
        assert edge_passes["n"] == calls
        assert np.abs(fused - generic).max() < 1e-5

    def test_rebound_bias_and_beta_reach_the_float32_engine(self,
                                                           edge_passes):
        """Rebinding only an edge-MLP bias and a LayerNorm β (as an
        optimizer step does) refreshes their float32 casts and the fused
        edge pass's packed weights: the rollout equals, bit for bit, a
        fresh simulator's loaded with the same weights."""
        sim = _make_sim()
        frames = _seed_frames(sim)
        sim.rollout(frames, 2, dtype=np.float32, backend="accel")
        edge_lin = sim.network.blocks[0].edge_mlp.linears[1]
        edge_lin.bias.data = edge_lin.bias.data + 0.5
        node_norm = sim.network.blocks[1].node_mlp.norm
        node_norm.beta.data = node_norm.beta.data + 0.25
        fresh = _make_sim(seed=7)
        fresh.load_state_dict(sim.state_dict())
        got = sim.rollout(frames, 4, dtype=np.float32, backend="accel")
        assert edge_passes["n"] > 0
        np.testing.assert_array_equal(
            got, fresh.rollout(frames, 4, dtype=np.float32, backend="accel"))


class TestSanitizer:
    def test_dtype_sanitizer_clean_in_fp32_mode(self):
        """REPRO_SANITIZE=dtype across an fp32 rollout: the engine's
        sanitized sites (forward output, integration) must present
        float64 in both modes — no dtype drift."""
        sim = _make_sim()
        frames = _seed_frames(sim)
        san = install("dtype")
        sim.rollout(frames, 4)
        sim.rollout(frames, 4, dtype=np.float32)  # same sites, same dtypes
        assert san.checks > 0

    def test_nan_sanitizer_clean_in_fp32_mode(self):
        sim = _make_sim()
        frames = _seed_frames(sim)
        san = install("nan")
        sim.rollout(frames, 4, dtype=np.float32)
        assert san.checks > 0
