"""Background Eulerian grid for MPM with box boundary conditions, in two
or three dimensions (the length of the domain size)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "BoxBoundary"]


@dataclass
class BoxBoundary:
    """Rigid box walls aligned with the domain edges (faces in 3-D).

    ``friction`` is the Coulomb wall-friction coefficient; ``mode`` is
    ``"frictional"`` (no-penetration + Coulomb tangential decay),
    ``"slip"`` (no-penetration, free tangential) or ``"sticky"``
    (zero velocity at walls).
    """

    friction: float = 0.3
    mode: str = "frictional"
    thickness: int = 2  # wall surface sits `thickness` node layers inside

    def apply(self, grid: "Grid", velocities: np.ndarray) -> np.ndarray:
        """Return velocities with wall constraints enforced (copy).

        Nodes at or beyond the wall surface (``thickness`` layers in from
        each domain edge, inclusive) are constrained, so particles resting
        at the wall surface always interpolate from constrained nodes.
        """
        v = velocities.copy()
        t = self.thickness
        # each wall: (mask, normal axis, outward sign), low then high
        # face per axis
        walls = []
        for axis, n in enumerate(grid.node_dims):
            i = grid.node_index[:, axis]
            walls += [(i <= t, axis, -1.0), (i >= n - 1 - t, axis, 1.0)]

        if self.mode == "sticky":
            v[np.logical_or.reduce([mask for mask, _, _ in walls])] = 0.0
            return v

        for mask, axis, sign in walls:
            vn = v[mask, axis] * sign
            moving_out = vn > 0.0
            if not np.any(moving_out):
                continue
            idx = np.nonzero(mask)[0][moving_out]
            removed = vn[moving_out]
            v[idx, axis] = 0.0
            if self.mode == "frictional" and self.friction > 0.0:
                self._coulomb(v, idx, axis, removed)
        return v

    def _coulomb(self, v: np.ndarray, idx: np.ndarray, axis: int,
                 removed: np.ndarray) -> None:
        """Decay the tangential velocity of nodes ``idx`` by μ times the
        removed normal speed. 2-D shrinks the one signed tangential
        component, 3-D the norm of the two; each keeps its own rounding."""
        if v.shape[1] == 2:
            tangent = 1 - axis
            vt = v[idx, tangent]
            decay = np.maximum(np.abs(vt) - self.friction * removed, 0.0)
            v[idx, tangent] = np.sign(vt) * decay
            return
        tang = np.ix_(idx, [a for a in range(3) if a != axis])
        vt = v[tang]
        mag = np.linalg.norm(vt, axis=1)
        keep = np.maximum(mag - self.friction * removed, 0.0)
        scale = np.where(mag > 1e-15, keep / np.maximum(mag, 1e-15), 0.0)
        v[tang] = vt * scale[:, None]


class Grid:
    """Structured background grid over ``[0, size_0] × … × [0, size_d−1]``,
    d = 2 or 3.

    Node arrays are flat ``(num_nodes, ...)`` in row-major order (last
    axis fastest): node ``(i, j)`` has flat index ``i * ny + j``, node
    ``(i, j, l)`` has ``(i * ny + j) * nz + l``.
    """

    def __init__(self, size: tuple[float, ...], spacing: float,
                 boundary: BoxBoundary | None = None):
        self.size = tuple(float(s) for s in size)
        if len(self.size) not in (2, 3):
            raise ValueError(f"grid must be 2-D or 3-D, got size {size}")
        self.spacing = float(spacing)
        cells = [int(round(s / spacing)) for s in self.size]
        if not all(np.isclose(c * spacing, s) for c, s in zip(cells, self.size)):
            raise ValueError("domain size must be an integer multiple of spacing")
        self.node_dims = tuple(c + 1 for c in cells)
        self.num_nodes = int(np.prod(self.node_dims))
        self.boundary = boundary or BoxBoundary()

        #: ``(num_nodes, d)`` integer node coordinates
        self.node_index = np.stack(
            np.unravel_index(np.arange(self.num_nodes), self.node_dims), axis=1)
        self.node_positions = self.node_index * spacing

        self.mass = np.zeros(self.num_nodes, dtype=np.float64)
        self.momentum = np.zeros((self.num_nodes, self.dim), dtype=np.float64)
        self.force = np.zeros((self.num_nodes, self.dim), dtype=np.float64)
        #: optional static in-domain obstacle: velocities at these nodes
        #: are zeroed every step (rigid, sticky inclusion)
        self.obstacle_mask: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.node_dims)

    def add_circular_obstacle(self, center: tuple[float, float],
                              radius: float) -> np.ndarray:
        """Mark grid nodes inside a circle as a rigid obstacle (2-D).

        Returns the boolean node mask (also OR-ed into
        :attr:`obstacle_mask`). Particles should be seeded outside the
        circle; the sticky nodes stop anything that flows against it.
        """
        d2 = ((self.node_positions[:, 0] - center[0]) ** 2
              + (self.node_positions[:, 1] - center[1]) ** 2)
        mask = d2 <= radius ** 2
        if self.obstacle_mask is None:
            self.obstacle_mask = mask.copy()
        else:
            self.obstacle_mask |= mask
        return mask

    def reset(self) -> None:
        self.mass[:] = 0.0
        self.momentum[:] = 0.0
        self.force[:] = 0.0

    def velocities(self, eps: float = 1e-12) -> np.ndarray:
        """Momentum / mass with empty nodes zeroed."""
        m = np.maximum(self.mass, eps)[:, None]
        v = self.momentum / m
        v[self.mass <= eps] = 0.0
        return v

    def interior_margin(self) -> float:
        """Distance from the domain edge to the wall surface — particles
        are kept at or inside this coordinate."""
        return self.boundary.thickness * self.spacing
