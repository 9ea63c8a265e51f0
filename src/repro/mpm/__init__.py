"""Explicit Material Point Method — the paper's numerical substrate.

Replaces the CB-Geo MPM C++ code: generates GNS training data, serves as
the speedup baseline (E2), and closes the loop in the hybrid GNS/MPM
solver (E4). Grid, particles, boundary, shape functions and solver work
in two or three dimensions; the materials here are 2-D (plane strain),
the 3-D ones live in :mod:`repro.mpm3d`.
"""

from .grid import BoxBoundary, Grid
from .materials import DruckerPrager, LinearElastic, Material, NewtonianFluid
from .particles import Particles
from .shape import (
    LinearShape, ParticleOutsideGridError, QuadraticShape, make_shape,
)
from .solver import MPMConfig, MPMSolver
from .diff_solver import DifferentiableMPM, DiffMPMConfig, DiffMPMState
from .scenarios import (
    ScenarioSpec, apply_geostatic_stress, dam_break, elastic_block_bounce,
    flow_around_obstacle, granular_box_flow, granular_column_collapse,
    runout_distance, water_on_sand,
)

__all__ = [
    "BoxBoundary", "Grid",
    "DifferentiableMPM", "DiffMPMConfig", "DiffMPMState",
    "DruckerPrager", "LinearElastic", "Material", "NewtonianFluid",
    "ParticleOutsideGridError", "Particles",
    "LinearShape", "QuadraticShape", "make_shape",
    "MPMConfig", "MPMSolver",
    "ScenarioSpec", "apply_geostatic_stress", "dam_break", "elastic_block_bounce",
    "flow_around_obstacle", "granular_box_flow",
    "granular_column_collapse", "runout_distance",
    "water_on_sand",
]
