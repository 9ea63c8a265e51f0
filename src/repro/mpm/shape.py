"""B-spline shape functions for the MPM particle–grid transfer.

Both the linear hat (2 support nodes per axis: 4 nodes per particle in
2-D, 8 in 3-D) and the quadratic B-spline (3 per axis: 9 or 27 nodes,
the default — it avoids cell-crossing noise) are implemented fully
vectorized and for either dimension, read from the positions' shape:
for ``n`` particles the kernel returns the node ids, weights, and weight
gradients of all ``k × n`` particle–node pairs at once, offset-major
(one contiguous length-``n`` row per shape-function offset), which is
the layout the solver's per-channel ``bincount`` scatters and per-offset
gathers run on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ParticleOutsideGridError", "ShapeFunction", "LinearShape",
           "QuadraticShape", "make_shape"]


class ParticleOutsideGridError(ValueError):
    """A particle's position is not finite, or its shape-function support
    reaches past the grid's nodes. The solver raises it before a step
    changes any state."""

    @classmethod
    def at(cls, particle: int,
           positions: np.ndarray) -> "ParticleOutsideGridError":
        return cls(f"particle {particle} at {positions[particle].tolist()}:"
                   f" position not finite or shape-function support "
                   f"outside the grid")


@dataclass
class ShapeKernel:
    """Particle→node influence sets for one configuration of particles.

    Attributes
    ----------
    nodes:
        ``(k, n)`` flattened grid-node indices, one row per offset.
    weights:
        ``(k, n)`` interpolation weights; columns sum to 1 (partition of
        unity).
    grads:
        ``(d, k, n)`` spatial gradients ∂N/∂x_a (``grads[a]``) of each
        weight.
    """

    nodes: np.ndarray
    weights: np.ndarray
    grads: np.ndarray


class ShapeFunction:
    """Interface: evaluate influence sets on a structured grid of
    ``len(grid_dims)`` = d dimensions."""

    #: support nodes per axis; a particle reaches ``support ** d`` nodes
    support: int

    def __call__(self, positions: np.ndarray, h: float,
                 grid_dims: tuple[int, ...]) -> ShapeKernel:  # pragma: no cover
        raise NotImplementedError


def _support_base(lowest: np.ndarray, m: int, grid_dims: tuple[int, ...],
                  positions: np.ndarray) -> np.ndarray:
    """``lowest`` — each particle's floored first support node per axis —
    as int64, once all ``m`` support nodes per axis are known to be grid
    nodes (a NaN position fails the check; its node ids would wrap)."""
    inside = (lowest >= 0) & (lowest <= np.subtract(grid_dims, m))
    if not inside.all():
        bad = int(np.flatnonzero(~inside.all(axis=1))[0])
        raise ParticleOutsideGridError.at(bad, positions)
    return lowest.astype(np.int64)


def _tensor_product(base: np.ndarray, w1d: np.ndarray, dw1d: np.ndarray,
                    grid_dims: tuple[int, ...]) -> ShapeKernel:
    """Combine per-axis 1-D weights ``(m, n, d)`` at the ``m`` nodes from
    ``base`` on into the ``m^d`` offsets, offset ``(i0·m + i1)·m + i2``
    being node ``(base_0 + i0, base_1 + i1, base_2 + i2)`` (in 2-D,
    ``i0·m + i1``): the last axis runs fastest, as in the grid's
    row-major node numbering. Products run over the axes in order,
    ``(N_0·N_1)·N_2``, with ∂N/∂x_a in place of ``N_a`` for ``grads[a]``."""
    m, n, d = w1d.shape
    idx = base.T[:, None, :] + np.arange(m, dtype=np.int64)[:, None]  # (d, m, n)
    nodes, weights = idx[0], w1d[:, :, 0]
    grads = [dw1d[:, :, 0]] + [weights] * (d - 1)
    for a in range(1, d):
        nodes = (nodes[:, None] * grid_dims[a] + idx[a]).reshape(-1, n)
        weights = (weights[:, None] * w1d[:, :, a]).reshape(-1, n)
        grads = [(g[:, None] * (dw1d if b == a else w1d)[:, :, a]).reshape(-1, n)
                 for b, g in enumerate(grads)]
    return ShapeKernel(nodes, weights, np.stack(grads))


class LinearShape(ShapeFunction):
    """Multilinear hat functions: support h, 2 nodes per axis."""

    support = 2

    def __call__(self, positions: np.ndarray, h: float,
                 grid_dims: tuple[int, ...]) -> ShapeKernel:
        pos = np.asarray(positions, dtype=np.float64)
        xi = pos / h
        base = _support_base(np.floor(xi), 2, grid_dims, pos)   # (n, d)
        frac = xi - base                               # local coordinate in [0,1)

        # 1-D weights/gradients for offsets {0, 1} in each dimension
        w = np.stack([1.0 - frac, frac], axis=0)       # (2, n, d)
        dw = np.stack([-np.ones_like(frac), np.ones_like(frac)], axis=0) / h
        return _tensor_product(base, w, dw, grid_dims)


def _bspline_quadratic(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic B-spline value and derivative at signed distance ``d``
    (in units of grid spacing)."""
    ad = np.abs(d)
    w = np.where(ad < 0.5, 0.75 - d * d,
                 np.where(ad < 1.5, 0.5 * (1.5 - ad) ** 2, 0.0))
    dw = np.where(ad < 0.5, -2.0 * d,
                  np.where(ad < 1.5, (ad - 1.5) * np.sign(d), 0.0))
    return w, dw


class QuadraticShape(ShapeFunction):
    """Quadratic B-splines: support 1.5h, 3 nodes per axis."""

    support = 3

    def __call__(self, positions: np.ndarray, h: float,
                 grid_dims: tuple[int, ...]) -> ShapeKernel:
        pos = np.asarray(positions, dtype=np.float64)
        xi = pos / h
        # leftmost of 3 nodes
        base = _support_base(np.floor(xi - 0.5), 3, grid_dims, pos)

        # signed distance from particle to each of the 3 nodes per dim
        w1d = np.empty((3,) + pos.shape, dtype=np.float64)
        dw1d = np.empty((3,) + pos.shape, dtype=np.float64)
        for o in range(3):
            d = xi - (base + o)
            w1d[o], dw1d[o] = _bspline_quadratic(d)
        dw1d /= h
        return _tensor_product(base, w1d, dw1d, grid_dims)


def make_shape(kind: str) -> ShapeFunction:
    """Factory: ``"linear"`` or ``"quadratic"``."""
    if kind == "linear":
        return LinearShape()
    if kind == "quadratic":
        return QuadraticShape()
    raise ValueError(f"unknown shape function {kind!r}")
