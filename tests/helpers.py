"""Shared test utilities: numerical gradient checking, traced memory."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from repro.autodiff import Tensor


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(x)`` w.r.t. array ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float(fn(x))
        flat[i] = orig - eps
        down = float(fn(x))
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def check_grad(build_loss, x0: np.ndarray, rtol: float = 1e-5, atol: float = 1e-7,
               eps: float = 1e-6) -> None:
    """Assert autodiff gradient of ``build_loss(Tensor)`` matches central differences.

    ``build_loss`` maps a Tensor to a scalar Tensor.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    t = Tensor(x0.copy(), requires_grad=True)
    loss = build_loss(t)
    loss.backward()
    assert t.grad is not None, "no gradient reached the input"

    def f(arr):
        return build_loss(Tensor(arr)).data

    num = numerical_grad(f, x0, eps=eps)
    np.testing.assert_allclose(t.grad, num, rtol=rtol, atol=atol)


def traced_peak(fn) -> int:
    """Peak bytes traced by ``tracemalloc`` while ``fn()`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def steady_material_sim():
    """Untrained material-conditioned GNS with a tiny acceleration scale:
    particles barely move, so every step's graph, and so its tape, has
    the same size (memory tests compare tapes of different lengths)."""
    from repro.gns import (FeatureConfig, GNSNetworkConfig, LearnedSimulator,
                           Stats)

    fc = FeatureConfig(connectivity_radius=0.12, history=2,
                       bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
                       use_material=True, dim=2)
    nc = GNSNetworkConfig(latent_size=16, mlp_hidden_size=16,
                          mlp_hidden_layers=1, message_passing_steps=2)
    zero = np.zeros(2)
    stats = Stats(zero.copy(), np.full(2, 1e-3), zero.copy(),
                  np.full(2, 1e-5))
    return LearnedSimulator(fc, nc, stats, rng=np.random.default_rng(0))


def steady_seed_frames(n: int = 40) -> np.ndarray:
    """``(3, n, 2)`` seed frames of a small particle block."""
    rng = np.random.default_rng(0)
    base = np.stack([rng.uniform(0.1, 0.5, n), rng.uniform(0.1, 0.5, n)],
                    axis=1)
    return np.stack([base, base + 0.001, base + 0.002])
