"""Backend conformance suite: the contract a new backend must pass.

Parametrized over every registered backend
(:func:`repro.backend.registered_backends`): numpy, accel and a stub
backend registered by this module — proving a third backend plugs in
without touching core modules. For each backend the suite pins

* scatter/segment primitive semantics against the NumPy ufunc.at
  reference (duplicate accumulation, NaN propagation, empty segments),
* dtype promotion through the tensor layer,
* the host boundary (``to_host``/``from_host`` round trips), and
* the full gradcheck sweep: tensor ops, scatter ops, fused MLP
  kernels, and compiled tape chains, all under ``use_backend``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, compile_tape
from repro.autodiff.scatter import (SortedSegments, gather, scatter_add,
                                    scatter_mean, scatter_softmax,
                                    segment_sum)
from repro.backend import (
    CAP_FLOAT32_KERNELS, CAP_REFERENCE, NumpyBackend, get_backend,
    register_backend, registered_backends, use_backend,
)

from .helpers import check_grad

RNG = np.random.default_rng(23)


class StubBackend(NumpyBackend):
    """Third backend registered by the test suite alone — the
    registration path a real external backend would take."""

    name = "stub"
    capabilities = frozenset({"float64"})


register_backend("stub", StubBackend, replace=True)

BACKENDS = registered_backends()


@pytest.fixture(params=BACKENDS)
def backend(request):
    b = get_backend(request.param)
    with use_backend(b):
        yield b


class TestPrimitives:
    def test_index_add_matches_add_at(self, backend):
        idx = np.array([0, 2, 2, 1, 2, 0])
        values = RNG.normal(size=(6, 3))
        expect = np.zeros((4, 3))
        np.add.at(expect, idx, values)
        out = backend.zeros((4, 3), np.float64)
        backend.index_add(out, idx, backend.asarray(values))
        np.testing.assert_array_equal(backend.to_host(out), expect)

    def test_index_max_matches_maximum_at(self, backend):
        idx = np.array([1, 1, 0, 1])
        values = np.array([[1.0], [3.0], [np.nan], [2.0]])
        expect = np.full((3, 1), -np.inf)
        np.maximum.at(expect, idx, values)
        out = backend.from_host(np.full((3, 1), -np.inf))
        backend.index_max(out, idx, backend.asarray(values))
        host = backend.to_host(out)
        assert np.isnan(host[0, 0])
        np.testing.assert_array_equal(host[1:], expect[1:])

    @pytest.mark.parametrize("case", ["unsorted", "empty", "zero-edges"])
    def test_segment_sum_matches_reference(self, backend, case):
        idx, n = {"unsorted": (np.array([3, 0, 4, 0, 3, 1]), 5),
                  "empty": (np.array([2, 2, 2]), 6),
                  "zero-edges": (np.empty(0, dtype=np.intp), 4)}[case]
        values = RNG.normal(size=(idx.shape[0], 3))
        expect = np.zeros((n, 3))
        np.add.at(expect, idx, values)
        out = backend.segment_sum(backend.asarray(values), idx, n)
        np.testing.assert_array_equal(backend.to_host(out), expect)

    def test_plan_segment_sum_on_backend(self, backend):
        idx = np.array([0, 0, 1, 3, 3, 3])
        values = RNG.normal(size=(6, 4))
        plan = SortedSegments(idx, 5, backend=backend)
        np.testing.assert_array_equal(
            backend.to_host(plan.segment_sum(values)),
            segment_sum(values, idx, 5))


class TestDtypePromotion:
    def test_f32_plus_f64_promotes(self, backend):
        a = Tensor(RNG.normal(size=3).astype(np.float32))
        b = Tensor(RNG.normal(size=3))
        assert (a + b).data.dtype == np.float64

    def test_f32_stays_f32(self, backend):
        a = Tensor(RNG.normal(size=(2, 3)).astype(np.float32))
        b = Tensor(RNG.normal(size=(2, 3)).astype(np.float32))
        for out in (a + b, a * b, a.tanh()):
            assert out.data.dtype == np.float32

    def test_asarray_respects_dtype(self, backend):
        out = backend.asarray([1, 2, 3], dtype=np.float32)
        assert backend.to_host(out).dtype == np.float32


class TestHostBoundary:
    def test_round_trip(self, backend):
        host = RNG.normal(size=(5, 2))
        dev = backend.from_host(host)
        back = backend.to_host(dev)
        assert isinstance(back, np.ndarray)
        np.testing.assert_array_equal(back, host)

    def test_to_host_dtype_cast(self, backend):
        dev = backend.from_host(np.ones(3, dtype=np.float32))
        out = backend.to_host(dev, np.float64)
        assert out.dtype == np.float64

    def test_allocation(self, backend):
        z = backend.to_host(backend.zeros((2, 2), np.float32))
        assert z.dtype == np.float32 and not z.any()
        e = backend.empty((3,), np.float64)
        assert backend.to_host(e).shape == (3,)


class TestCapabilities:
    def test_reference_flag_is_numpy(self, backend):
        if CAP_REFERENCE in backend.capabilities:
            assert backend.xp is np

    def test_float32_kernels_flag_consistent(self, backend):
        has_kern = backend.float32_kernels() is not None
        assert (CAP_FLOAT32_KERNELS in backend.capabilities) == has_kern


class TestGradcheckSweep:
    """Full gradient sweep under each backend: numerical parity is the
    semantics contract for the autodiff layer's dispatch."""

    def test_tensor_ops(self, backend):
        check_grad(lambda t: ((t * 2.0 - 1.0).tanh().exp()
                              + t.sigmoid()).sum(),
                   RNG.normal(size=(4, 3)) * 0.3)
        check_grad(lambda t: ((t ** 2 + 1.0).log().sqrt()).sum(),
                   RNG.normal(size=(3, 2)))
        w = RNG.normal(size=(3, 2))
        check_grad(lambda t: (t @ Tensor(w)).abs().sum(),
                   RNG.normal(size=(4, 3)))
        check_grad(lambda t: t.clip(-0.5, 0.5).sum(),
                   RNG.normal(size=(5,)))

    def test_scatter_ops(self, backend):
        idx = np.array([3, 0, 4, 0, 3, 1])
        plan = SortedSegments(idx, 5, backend=backend)
        check_grad(lambda t: (scatter_add(t, idx, 5, plan=plan) ** 2).sum(),
                   RNG.normal(size=(6, 2)))
        full = np.array([3, 0, 4, 0, 3, 1, 2])  # every segment non-empty
        check_grad(lambda t: (scatter_mean(t, full, 5) ** 2).sum(),
                   RNG.normal(size=(7, 2)))
        check_grad(
            lambda t: (scatter_softmax(t, full, 5) ** 2).sum(),
            RNG.normal(size=7), rtol=1e-4, atol=1e-6)
        check_grad(lambda t: (gather(t, idx) ** 2).sum(),
                   RNG.normal(size=(5, 3)))

    def test_fused_mlp(self, backend):
        from repro.autodiff import mlp_forward
        w0 = RNG.normal(size=(3, 5)) * 0.4
        b0 = RNG.normal(size=5) * 0.1
        w1 = RNG.normal(size=(5, 2)) * 0.4
        b1 = RNG.normal(size=2) * 0.1
        check_grad(
            lambda t: (mlp_forward(t, [Tensor(w0), Tensor(w1)],
                                   [Tensor(b0), Tensor(b1)]) ** 2).sum(),
            RNG.normal(size=(6, 3)))

    def test_compiled_chain(self, backend):
        vmean = RNG.normal(size=2)
        vstd = np.abs(RNG.normal(size=2)) + 0.5
        chain = compile_tape(lambda cur, prev: (cur - prev - vmean) / vstd)
        prev = RNG.random((8, 2))
        check_grad(lambda t: (chain(t, Tensor(prev)) ** 2).sum(),
                   RNG.random((8, 2)))
        clip_chain = compile_tape(lambda x: (x * 2.0).clip(-0.5, 0.5).exp())
        check_grad(lambda t: clip_chain(t).sum(), RNG.normal(size=(5, 2)))


class TestStubBackend:
    """A stub third backend is fully usable end-to-end without touching
    core modules — the registry is the only integration point."""

    def test_resolves(self):
        b = get_backend("stub")
        assert isinstance(b, StubBackend)
        assert b.name == "stub"

    def test_rollout_on_stub_matches_numpy(self):
        from repro.gns import (FeatureConfig, GNSNetworkConfig,
                               LearnedSimulator, Stats)
        bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
        cfg = FeatureConfig(connectivity_radius=0.2, history=2,
                            bounds=bounds, use_material=True)
        net = GNSNetworkConfig(latent_size=8, mlp_hidden_size=8,
                               message_passing_steps=2)
        stats = Stats(np.zeros(2), np.full(2, 0.01), np.zeros(2),
                      np.full(2, 2e-4))
        sim = LearnedSimulator(cfg, net, stats,
                               rng=np.random.default_rng(1))
        rng = np.random.default_rng(0)
        x0 = rng.uniform(0.3, 0.7, size=(20, 2))
        frames = np.stack([x0, x0 + rng.normal(0, 5e-4, size=(20, 2)),
                           x0 + rng.normal(0, 5e-4, size=(20, 2))], axis=0)
        on_stub = sim.rollout(frames, 3, material=30.0, backend="stub")
        on_numpy = sim.rollout(frames, 3, material=30.0, backend="numpy")
        np.testing.assert_array_equal(on_stub, on_numpy)
