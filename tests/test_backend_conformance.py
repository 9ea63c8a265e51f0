"""Dtype rules hold in every state of the acceleration switch.

Parametrized over the three ways the code can run: ``accel`` (compiled
float32 kernels wherever they apply), ``numpy`` (never) and ``stub`` —
the ``accel`` handle with its kernel loader stubbed to ``None``, the
state of a host whose toolchain cannot build the kernels. In each, the
tensor layer promotes float32 mixed with float64 to float64 and keeps
pure float32 work in float32, and the no-grad paths that consult the
switch (``SortedSegments.segment_sum`` and ``MLP.forward_numpy``) keep
the dtype they are given.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.backend
from repro.autodiff import Tensor
from repro.autodiff.scatter import SortedSegments
from repro.backend import get_backend
from repro.nn import MLP

RNG = np.random.default_rng(23)


@pytest.fixture(params=["accel", "numpy", "stub"])
def backend(request, monkeypatch):
    if request.param == "stub":
        monkeypatch.setattr(repro.backend, "kernels", lambda: None)
        return get_backend("accel")
    return get_backend(request.param)


def switched_outputs(backend, x):
    """Outputs of the no-grad paths that consult ``backend``."""
    mlp = MLP([x.shape[1], 8, 8, 3], np.random.default_rng(0),
              layer_norm=True)
    plan = SortedSegments(np.array([0, 0, 1, 3, 3, 3]), 5, backend=backend)
    return (plan.segment_sum(x), mlp.forward_numpy(x, backend=backend))


class TestDtypePromotion:
    def test_f32_plus_f64_promotes(self, backend):
        a = Tensor(RNG.normal(size=(6, 4)).astype(np.float32))
        b = Tensor(RNG.normal(size=(6, 4)))
        mixed = (a + b).data
        assert mixed.dtype == np.float64
        for out in switched_outputs(backend, mixed):
            assert out.dtype == np.float64

    def test_mlp_tape_op_promotes_f32_input(self):
        """``MLP.forward`` (one tape node) on a float32 input with float64
        parameters runs in float64, as the ``Tensor`` ops ``x @ w + b``
        do, bitwise-equal to the same input cast to float64."""
        x = RNG.normal(size=(2, 3)).astype(np.float32)
        for sizes in ([3, 2], [3, 4, 2]):
            mlp = MLP(sizes, np.random.default_rng(0))
            mixed = mlp(Tensor(x)).data
            assert mixed.dtype == np.float64, sizes
            assert np.array_equal(
                mixed, mlp(Tensor(x.astype(np.float64))).data), sizes

    def test_f32_stays_f32(self, backend):
        a = Tensor(RNG.normal(size=(6, 4)).astype(np.float32))
        b = Tensor(RNG.normal(size=(6, 4)).astype(np.float32))
        for out in (a + b, a * b, a.tanh()):
            assert out.data.dtype == np.float32
        for out in switched_outputs(backend, (a + b).data):
            assert out.dtype == np.float32
