"""B-spline shape functions for the MPM particle–grid transfer.

Both the linear hat (4 nodes per particle in 2-D) and the quadratic
B-spline (9 nodes, the default — it avoids cell-crossing noise) are
implemented fully vectorized: for ``n`` particles the kernel returns the
node ids, weights, and weight gradients of all ``k × n`` particle–node
pairs at once, offset-major (one contiguous length-``n`` row per
shape-function offset), which is the layout the solver's per-channel
``bincount`` scatters and per-offset gathers run on.
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
        ``(2, k, n)`` spatial gradients ∂N/∂x (``grads[0]``) and ∂N/∂y
        (``grads[1]``) of each weight.
    """

    nodes: np.ndarray
    weights: np.ndarray
    grads: np.ndarray


class ShapeFunction:
    """Interface: evaluate influence sets on a structured grid."""

    nodes_per_particle: int

    def __call__(self, positions: np.ndarray, h: float,
                 grid_dims: tuple[int, int]) -> ShapeKernel:  # pragma: no cover
        raise NotImplementedError


def _support_base(lowest: np.ndarray, m: int, grid_dims: tuple[int, int],
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
                    ny: int) -> ShapeKernel:
    """Combine per-axis 1-D weights ``(m, n, 2)`` at the ``m`` nodes from
    ``base`` on into the ``m²`` 2-D offsets, offset ``i * m + j`` being
    node ``(base_x + i, base_y + j)``."""
    m, n = w1d.shape[:2]
    steps = np.arange(m, dtype=np.int64)[:, None]
    ix = base[:, 0] + steps                                  # (m, n)
    iy = base[:, 1] + steps
    wx, wy = w1d[:, None, :, 0], w1d[None, :, :, 1]          # (m, 1, n), (1, m, n)
    dwx, dwy = dw1d[:, None, :, 0], dw1d[None, :, :, 1]
    k = m * m
    nodes = (ix[:, None] * ny + iy[None, :]).reshape(k, n)
    weights = (wx * wy).reshape(k, n)
    grads = np.empty((2, k, n), dtype=np.float64)
    np.multiply(dwx, wy, out=grads[0].reshape(m, m, n))
    np.multiply(wx, dwy, out=grads[1].reshape(m, m, n))
    return ShapeKernel(nodes, weights, grads)


class LinearShape(ShapeFunction):
    """Bilinear hat functions: support h, 4 nodes per particle (2-D)."""

    nodes_per_particle = 4

    def __call__(self, positions: np.ndarray, h: float,
                 grid_dims: tuple[int, int]) -> ShapeKernel:
        pos = np.asarray(positions, dtype=np.float64)
        xi = pos / h
        base = _support_base(np.floor(xi), 2, grid_dims, pos)   # (n, 2)
        frac = xi - base                               # local coordinate in [0,1)

        # 1-D weights/gradients for offsets {0, 1} in each dimension
        w = np.stack([1.0 - frac, frac], axis=0)       # (2, n, 2)
        dw = np.stack([-np.ones_like(frac), np.ones_like(frac)], axis=0) / h
        return _tensor_product(base, w, dw, grid_dims[1])


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
    """Quadratic B-splines: support 1.5h, 9 nodes per particle (2-D)."""

    nodes_per_particle = 9

    def __call__(self, positions: np.ndarray, h: float,
                 grid_dims: tuple[int, int]) -> ShapeKernel:
        pos = np.asarray(positions, dtype=np.float64)
        n = pos.shape[0]
        xi = pos / h
        # leftmost of 3 nodes
        base = _support_base(np.floor(xi - 0.5), 3, grid_dims, pos)

        # signed distance from particle to each of the 3 nodes per dim
        w1d = np.empty((3, n, 2), dtype=np.float64)
        dw1d = np.empty((3, n, 2), dtype=np.float64)
        for o in range(3):
            d = xi - (base + o)
            w1d[o], dw1d[o] = _bspline_quadratic(d)
        dw1d /= h
        return _tensor_product(base, w1d, dw1d, grid_dims[1])


def make_shape(kind: str) -> ShapeFunction:
    """Factory: ``"linear"`` or ``"quadratic"``."""
    if kind == "linear":
        return LinearShape()
    if kind == "quadratic":
        return QuadraticShape()
    raise ValueError(f"unknown shape function {kind!r}")
