"""The acceleration switch: ``accel`` or ``numpy``.

Precedence is a ``backend=`` keyword, then ``REPRO_BACKEND`` (read on
every call), then ``accel``; every other name fails loudly. Engines pick
the switch up per call of ``LearnedSimulator.engine`` and rebuild when
it changes. ``TestDispatch`` checks that the switch governs what runs,
not only what a handle reports: it counts compiled-kernel calls for
every environment × keyword pair, and for the float64 tape (a
training step and an inverse-problem φ-gradient) every environment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import CpuKernels, build_error, kernels, toolchain_missing
from repro.autodiff import Tensor
from repro.backend import DEFAULT_BACKEND, UnknownBackendError, get_backend
from repro.data import Trajectory
from repro.gns import (FeatureConfig, GNSNetworkConfig, GNSTrainer,
                       LearnedSimulator, Stats, TrainingConfig)
from repro.inverse import RunoutInverseProblem
from repro.mpm import MPMSolver, granular_column_collapse


@pytest.fixture(autouse=True)
def _unset_env(monkeypatch):
    """Each test starts with ``REPRO_BACKEND`` unset."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


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
        assert get_backend().name == "accel"

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert get_backend().name == "numpy"
        # read live: flipping the env re-resolves
        monkeypatch.setenv("REPRO_BACKEND", "accel")
        assert get_backend().name == "accel"

    def test_env_cache_reuses_instance(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert get_backend() is get_backend() is get_backend("numpy")

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert get_backend("accel").name == "accel"
        assert get_backend().name == "numpy"

    def test_instance_passthrough(self):
        b = get_backend("numpy")
        assert get_backend(b) is b

    def test_unknown_backend_error(self):
        with pytest.raises(UnknownBackendError, match="nope"):
            get_backend("nope")
        # the error names the valid choices, so typos are debuggable
        with pytest.raises(UnknownBackendError, match="numpy"):
            get_backend("nope")

    @pytest.mark.parametrize("name", ["cupy", "torch"])
    def test_gpu_backend_names_are_unknown(self, monkeypatch, name):
        # no GPU backend exists: selecting one fails loudly instead of
        # running NumPy under its name
        with pytest.raises(UnknownBackendError, match=name):
            get_backend(name)
        monkeypatch.setenv("REPRO_BACKEND", name)
        with pytest.raises(UnknownBackendError, match=name):
            get_backend()


class TestOneKnob:
    def test_numpy_backend_implies_no_ckernels(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert get_backend().float32_kernels() is None

    def test_numpy_backend_never_reports_kernels(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "accel")
        assert get_backend("numpy").float32_kernels() is None


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


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts calls of every public :class:`CpuKernels` method. Checked
    while ``REPRO_BACKEND`` is still unset, so a working toolchain whose
    build fails fails the test rather than skipping it."""
    reason = toolchain_missing()
    if reason is not None:
        pytest.skip(reason)
    assert kernels() is not None, build_error()
    calls = {"n": 0}

    def counted(method):
        def run(self, *args, **kwargs):
            calls["n"] += 1
            return method(self, *args, **kwargs)
        return run

    for name, method in list(vars(CpuKernels).items()):
        if callable(method) and not name.startswith("_"):
            monkeypatch.setattr(CpuKernels, name, counted(method))
    return calls


_KWARGS = pytest.mark.parametrize(
    "kwarg", [None, "accel", "numpy"],
    ids=["kwarg-none", "kwarg-accel", "kwarg-numpy"])
_ENVS = pytest.mark.parametrize(
    "env", [None, "numpy", "accel"],
    ids=["env-unset", "env-numpy", "env-accel"])


def _train_step() -> list[np.ndarray]:
    """Loss and weight gradients of one float64 training step."""
    sim = make_sim()
    rng = np.random.default_rng(4)
    frames = [rng.uniform(0.3, 0.7, size=(24, 2))]
    for _ in range(7):
        frames.append(frames[-1] + rng.normal(0, 5e-4, size=(24, 2)))
    traj = Trajectory(positions=np.stack(frames), dt=1.0, material=30.0,
                      bounds=np.array([[0.0, 1.0], [0.0, 1.0]]))
    trainer = GNSTrainer(sim, [traj], TrainingConfig(batch_size=2, seed=3))
    loss = trainer.train_step()
    return [np.array(loss)] + [p.grad for p in sim.parameters()]


def _phi_gradient() -> list[np.ndarray]:
    """Loss and φ-gradient of a pruned backward through a 3-step
    float64 inverse-problem tape."""
    sim = make_sim()
    problem = RunoutInverseProblem(sim, make_seed(sim), target_runout=0.05,
                                   toe_x=0.6, rollout_steps=3)
    phi = Tensor(np.array(30.0), requires_grad=True)
    loss = problem.loss(phi)
    loss.backward(inputs=[phi])
    return [loss.data, phi.grad]


class TestDispatch:
    """The kernels run exactly when the resolved switch is ``accel``.
    The float64 tape takes no ``backend=`` keyword: it follows
    ``REPRO_BACKEND``, and its results are bitwise-equal to the
    ``numpy`` leg's."""

    @staticmethod
    def _set_env(monkeypatch, env, kwarg) -> bool:
        """Set ``REPRO_BACKEND``; whether the kernels should then run."""
        if env is not None:
            monkeypatch.setenv("REPRO_BACKEND", env)
        return (kwarg or env or "accel") == "accel"

    @pytest.mark.parametrize("run", [_train_step, _phi_gradient],
                             ids=["train-step", "phi-gradient"])
    @_ENVS
    def test_float64_tape(self, monkeypatch, kernel_calls, env, run):
        expect = self._set_env(monkeypatch, env, None)
        got = run()
        assert (kernel_calls["n"] > 0) == expect, kernel_calls
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        before = kernel_calls["n"]
        reference = run()
        assert kernel_calls["n"] == before
        assert np.all(np.isfinite(reference[-1]))
        assert np.any(reference[-1] != 0.0)
        assert len(got) == len(reference)
        for a, b in zip(got, reference):
            assert a.dtype == b.dtype == np.float64
            np.testing.assert_array_equal(a.view(np.int64),
                                          b.view(np.int64))

    @_KWARGS
    @_ENVS
    def test_float32_rollout(self, monkeypatch, kernel_calls, env, kwarg):
        expect = self._set_env(monkeypatch, env, kwarg)
        sim = make_sim()
        sim.rollout(make_seed(sim), 3, material=30.0, dtype=np.float32,
                    backend=kwarg)
        assert (kernel_calls["n"] > 0) == expect, kernel_calls

    @_KWARGS
    @_ENVS
    def test_mpm_step(self, monkeypatch, kernel_calls, env, kwarg):
        expect = self._set_env(monkeypatch, env, kwarg)
        s = granular_column_collapse(cells_per_unit=8).solver
        MPMSolver(s.grid, s.particles, s.materials, s.config,
                  backend=kwarg).step()
        assert (kernel_calls["n"] > 0) == expect, kernel_calls
