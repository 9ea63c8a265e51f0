"""Backend selection plumbing: env var and explicit kwargs.

The registry's precedence contract is explicit > environment > default.
These tests pin the knobs around that contract: ``REPRO_BACKEND``
implies the C-kernel kill switch (one knob), unknown names fail loudly,
and engines/rollouts thread ``backend=`` with kwarg-over-env precedence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    DEFAULT_BACKEND, UnknownBackendError, active, get_backend,
    registered_backends, reset_backends, use_backend,
)
from repro.gns import FeatureConfig, GNSNetworkConfig, LearnedSimulator, Stats


@pytest.fixture(autouse=True)
def _isolated_backends(monkeypatch):
    """Each test starts from a clean registry state and an unset env."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_NO_CKERNELS", raising=False)
    reset_backends()
    yield
    reset_backends()


def make_sim(seed=1):
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    cfg = FeatureConfig(connectivity_radius=0.2, history=2, bounds=bounds,
                        use_material=True)
    net = GNSNetworkConfig(latent_size=8, mlp_hidden_size=8,
                           message_passing_steps=2)
    stats = Stats(np.zeros(2), np.full(2, 0.01), np.zeros(2),
                  np.full(2, 2e-4))
    return LearnedSimulator(cfg, net, stats, rng=np.random.default_rng(seed))


def make_seed(sim, n=24, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.3, 0.7, size=(n, 2))
    frames = [x0]
    for _ in range(sim.feature_config.history):
        frames.append(frames[-1] + rng.normal(0, 5e-4, size=(n, 2)))
    return np.stack(frames, axis=0)


class TestRegistry:
    def test_default_is_accel(self):
        assert DEFAULT_BACKEND == "accel"
        assert active().name == "accel"

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert active().name == "numpy"
        # read live: flipping the env re-resolves without reset
        monkeypatch.setenv("REPRO_BACKEND", "accel")
        assert active().name == "accel"

    def test_env_cache_reuses_instance(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert active() is active()

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        with use_backend("accel") as b:
            assert active() is b
            assert active().name == "accel"
        assert active().name == "numpy"

    def test_instance_passthrough(self):
        b = get_backend("numpy")
        assert get_backend(b) is b

    def test_unknown_backend_error(self):
        with pytest.raises(UnknownBackendError, match="nope"):
            get_backend("nope")
        # the error names what *is* registered, so typos are debuggable
        with pytest.raises(UnknownBackendError, match="numpy"):
            get_backend("nope")

    @pytest.mark.parametrize("name", ["cupy", "torch"])
    def test_gpu_backend_names_are_unknown(self, monkeypatch, name):
        # no GPU backend is registered: selecting one fails loudly
        # instead of running NumPy under its name
        assert {"accel", "numpy"} <= set(registered_backends())
        monkeypatch.setenv("REPRO_BACKEND", name)
        with pytest.raises(UnknownBackendError, match=name):
            active()


class TestOneKnob:
    def test_numpy_backend_implies_no_ckernels(self, monkeypatch):
        from repro.accel import available, kernels
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert kernels() is None
        assert not available()
        assert active().float32_kernels() is None

    def test_numpy_backend_never_reports_kernels(self):
        b = get_backend("numpy")
        assert b.float32_kernels() is None
        assert "float32-kernels" not in b.capabilities


class TestEnginePlumbing:
    def test_engine_pins_active_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        sim = make_sim()
        assert sim.engine().backend.name == "numpy"

    def test_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        sim = make_sim()
        assert sim.engine(backend="accel").backend.name == "accel"

    def test_engine_rebuilds_on_backend_change(self, monkeypatch):
        sim = make_sim()
        eng_a = sim.engine()
        assert eng_a.backend.name == "accel"
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        eng_b = sim.engine()
        assert eng_b is not eng_a
        assert eng_b.backend.name == "numpy"
        # and the cached engine is reused while the selection is stable
        assert sim.engine() is eng_b

    def test_engine_unknown_backend(self):
        sim = make_sim()
        with pytest.raises(UnknownBackendError):
            sim.engine(backend="nope")

    def test_rollout_kwarg_matches_env_pin_bitwise(self, monkeypatch):
        sim = make_sim()
        frames = make_seed(sim)
        via_kwarg = sim.rollout(frames, 4, material=30.0, backend="numpy")
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        via_env = sim.rollout(frames, 4, material=30.0)
        np.testing.assert_array_equal(via_kwarg, via_env)

    def test_non_fast_rollout_rejects_backend(self):
        sim = make_sim()
        frames = make_seed(sim)
        with pytest.raises(ValueError, match="fast=True"):
            sim.rollout(frames, 2, material=30.0, fast=False,
                        backend="numpy")
