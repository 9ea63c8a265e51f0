"""3-D scenarios: axisymmetric granular column collapse and elastic drop."""

from __future__ import annotations

import numpy as np

from ..mpm import BoxBoundary, Grid, MPMConfig, MPMSolver, Particles
from .materials3d import DruckerPrager3D, LinearElastic3D

__all__ = ["column_collapse_3d", "elastic_drop_3d", "radial_runout"]

_GRAVITY = (0.0, 0.0, -9.81)


def column_collapse_3d(
    column_radius: float = 0.15,
    aspect_ratio: float = 1.0,
    friction_angle: float = 30.0,
    domain=(1.0, 1.0, 1.0),
    cells_per_unit: int = 16,
    particles_per_cell: int = 1,
    youngs_modulus: float = 2e6,
):
    """Cylindrical granular column at the domain center collapsing under
    gravity — the axisymmetric experiment (Lube et al. 2004) behind the
    paper's 2-D setup."""
    h = 1.0 / cells_per_unit
    grid = Grid(domain, h, BoxBoundary(friction=0.35))
    material = DruckerPrager3D(density=1800.0, youngs_modulus=youngs_modulus,
                               poisson_ratio=0.3,
                               friction_angle=friction_angle)
    margin = grid.interior_margin()
    spacing = h / particles_per_cell
    height = aspect_ratio * 2.0 * column_radius
    cx, cy = domain[0] / 2, domain[1] / 2
    lower = (cx - column_radius, cy - column_radius, margin)
    upper = (cx + column_radius, cy + column_radius, margin + height)
    # centred in x and y, so the upper faces decide the fit
    if any(u > d - margin for u, d in zip(upper, domain)):
        raise ValueError("column does not fit in the domain")
    block = Particles.from_block(lower, upper, spacing, material.density)
    # carve the cylinder out of the block
    r = np.hypot(block.positions[:, 0] - cx, block.positions[:, 1] - cy)
    keep = r <= column_radius
    particles = Particles(
        positions=block.positions[keep], velocities=block.velocities[keep],
        masses=block.masses[keep], volumes=block.volumes[keep],
        stresses=block.stresses[keep])
    solver = MPMSolver(grid, particles, material, MPMConfig(gravity=_GRAVITY))
    meta = dict(column_radius=column_radius, aspect_ratio=aspect_ratio,
                friction_angle=friction_angle, center=(cx, cy),
                base_z=margin)
    return solver, meta


def elastic_drop_3d(domain=(1.0, 1.0, 1.0), cells_per_unit: int = 12,
                    drop_height: float = 0.3, youngs_modulus: float = 5e5):
    """Soft elastic cube dropped onto the floor."""
    h = 1.0 / cells_per_unit
    grid = Grid(domain, h, BoxBoundary(friction=0.0, mode="slip"))
    material = LinearElastic3D(density=1000.0,
                               youngs_modulus=youngs_modulus,
                               poisson_ratio=0.3)
    margin = grid.interior_margin()
    side = 0.2
    c = domain[0] / 2
    particles = Particles.from_block(
        (c - side / 2, c - side / 2, margin + drop_height),
        (c + side / 2, c + side / 2, margin + drop_height + side),
        h / 2, material.density)
    return MPMSolver(grid, particles, material, MPMConfig(gravity=_GRAVITY)), \
        dict(drop_height=drop_height, side=side)


def radial_runout(positions: np.ndarray, center: tuple[float, float],
                  initial_radius: float, quantile: float = 0.995) -> float:
    """Radial runout of an axisymmetric collapse: front radius − R0."""
    r = np.hypot(positions[:, 0] - center[0], positions[:, 1] - center[1])
    front = float(np.quantile(r, quantile))
    return max(front - initial_radius, 0.0)
