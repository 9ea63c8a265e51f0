"""Bitwise gate for the MPM step on both of its paths.

``_reference_step`` is a frozen copy of ``MPMSolver.step`` as it was
written before the transfers moved to offset-major arrays: particle-major
``(n, k)`` kernels, ``np.add.at`` scatters and ``einsum`` gathers. The
production step must reproduce its trajectories exactly, so every
particle field is compared with ``np.array_equal`` after many steps —
once on the NumPy backend and once on ``accel``, whose step runs the
compiled float64 kernels of :mod:`repro.accel.cpu`, the constitutive
update of elastic and Drucker–Prager materials included.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.accel import CpuKernels, build_error, kernels, toolchain_missing
from repro.mpm import (
    BoxBoundary, DruckerPrager, Grid, MPMConfig, MPMSolver,
    ParticleOutsideGridError, Particles, dam_break, elastic_block_bounce,
    flow_around_obstacle, granular_box_flow, granular_column_collapse,
    water_on_sand,
)

CELLS = 12
STEPS = 60
FIELDS = ("positions", "velocities", "stresses", "sigma_zz", "volumes")


def _reference_step(solver):
    p, g = solver.particles, solver.grid
    dt = solver.stable_dt()
    kernel = solver.shape(p.positions, g.spacing, g.node_dims)
    # the layout (and so the einsum loop order) the old step computed in
    nodes = np.ascontiguousarray(kernel.nodes.T)                  # (n, k)
    w = np.ascontiguousarray(kernel.weights.T)                    # (n, k)
    dw = np.ascontiguousarray(kernel.grads.transpose(2, 1, 0))    # (n, k, 2)
    flat = nodes.ravel()

    g.reset()
    mw = p.masses[:, None] * w
    np.add.at(g.mass, flat, mw.ravel())
    mom = mw[:, :, None] * p.velocities[:, None, :]
    np.add.at(g.momentum, flat, mom.reshape(-1, 2))
    f_int = -np.einsum("p,pab,pkb->pka", p.volumes, p.stresses, dw)
    np.add.at(g.force, flat, f_int.reshape(-1, 2))
    f_ext = mw[:, :, None] * solver._gravity
    np.add.at(g.force, flat, f_ext.reshape(-1, 2))

    v_old = g.boundary.apply(g, g.velocities())
    if g.obstacle_mask is not None:
        v_old[g.obstacle_mask] = 0.0
    m = np.maximum(g.mass, 1e-12)[:, None]
    v_new = v_old + dt * g.force / m
    v_new[g.mass <= 1e-12] = 0.0
    v_new = g.boundary.apply(g, v_new)
    if g.obstacle_mask is not None:
        v_new[g.obstacle_mask] = 0.0

    v_new_k, v_old_k = v_new[nodes], v_old[nodes]
    v_pic = np.einsum("pk,pkc->pc", w, v_new_k)
    dv = np.einsum("pk,pkc->pc", w, v_new_k - v_old_k)
    flip = solver.config.flip
    p.velocities = (1.0 - flip) * v_pic + flip * (p.velocities + dv)
    p.positions = p.positions + dt * v_pic
    margin = g.interior_margin()
    np.clip(p.positions[:, 0], margin, g.size[0] - margin, out=p.positions[:, 0])
    np.clip(p.positions[:, 1], margin, g.size[1] - margin, out=p.positions[:, 1])

    lgrad = np.einsum("pka,pkb->pab", v_new_k, dw)
    strain_inc = 0.5 * (lgrad + lgrad.transpose(0, 2, 1)) * dt
    spin_inc = 0.5 * (lgrad - lgrad.transpose(0, 2, 1)) * dt
    tr = strain_inc[:, 0, 0] + strain_inc[:, 1, 1]
    p.volumes = p.volumes * (1.0 + tr)
    for mat_id, mat in solver.materials.items():
        sel = p.material_ids == mat_id
        if not np.any(sel):
            continue
        s_new, szz_new = mat.update_stress(
            p.stresses[sel], p.sigma_zz[sel], strain_inc[sel], spin_inc[sel],
            jacobian=p.volumes[sel] / p.initial_volumes[sel], dt=dt)
        p.stresses[sel] = s_new
        p.sigma_zz[sel] = szz_new
    solver.time += dt
    solver.step_count += 1


def _linear_column():
    s = granular_column_collapse(cells_per_unit=CELLS).solver
    return MPMSolver(s.grid, s.particles, s.materials, MPMConfig(shape="linear"))


def _sticky_column():
    s = granular_column_collapse(cells_per_unit=CELLS).solver
    s.grid.boundary = BoxBoundary(mode="sticky")
    return s


def _bench_column():
    """The ``hybrid-column`` benchmark's 1024-particle column."""
    return granular_column_collapse(
        aspect_ratio=1.0, column_width=0.5, cells_per_unit=32,
        particles_per_cell=2, youngs_modulus=5e7).solver


def _few_particles(n):
    """``n`` particles with random velocities and stresses, so every
    transfer term is non-trivial."""
    rng = np.random.default_rng(n)
    vol = np.full(n, 2.5e-3, dtype=np.float64)
    stress = rng.normal(0.0, 1e3, size=(n, 2, 2))
    particles = Particles(
        positions=rng.uniform(0.3, 0.7, size=(n, 2)),
        velocities=rng.normal(0.0, 0.5, size=(n, 2)),
        masses=1800.0 * vol, volumes=vol.copy(),
        stresses=0.5 * (stress + stress.transpose(0, 2, 1)),
        sigma_zz=rng.normal(0.0, 1e3, size=n))
    return MPMSolver(Grid((1.0, 1.0), 0.1, BoxBoundary()), particles,
                     DruckerPrager(density=1800.0, youngs_modulus=2e6,
                                   poisson_ratio=0.3))


SCENARIOS = {
    "column": lambda: granular_column_collapse(cells_per_unit=CELLS).solver,
    "column-linear": _linear_column,
    "column-sticky": _sticky_column,
    "bench-column": _bench_column,
    "box-flow": lambda: granular_box_flow(seed=0, cells_per_unit=CELLS).solver,
    "dam-break": lambda: dam_break(cells_per_unit=CELLS).solver,
    "water-on-sand": lambda: water_on_sand(cells_per_unit=CELLS).solver,
    "obstacle": lambda: flow_around_obstacle(cells_per_unit=CELLS).solver,
    "elastic-bounce": lambda: elastic_block_bounce(cells_per_unit=CELLS).solver,
    # one particle is the case where a `.sum(axis=0)` over offsets would
    # switch to pairwise summation
    "1-particle": lambda: _few_particles(1),
    "2-particles": lambda: _few_particles(2),
    "3-particles": lambda: _few_particles(3),
}


# compiled stress updates per step, one per elastic or Drucker–Prager
# material: none for the fluid, only the sand's on water-on-sand, the one
# material's everywhere else
STRESS_CALLS = {"dam-break": 0, "water-on-sand": 1}


@pytest.fixture(params=["numpy", "accel"])
def backend(request, monkeypatch):
    """The backend name, plus a dict that counts the calls of the
    compiled ``mpm_g2p`` and ``mpm_stress`` kernels (``None`` on the
    NumPy leg), so a dispatch that fell back to NumPy shows. The accel
    leg skips only when cffi or the C compiler is missing or a kill
    switch (``REPRO_BACKEND=numpy``, ``REPRO_NO_CKERNELS``) is set; a
    failed build fails it."""
    if request.param == "numpy":
        return "numpy", None
    reason = toolchain_missing()
    if reason is not None:
        pytest.skip(reason)
    assert kernels() is not None, build_error()
    calls = {"mpm_g2p": 0, "mpm_stress": 0}

    def counted(name):
        kernel = getattr(CpuKernels, name)

        def run(self, *args, **kwargs):
            calls[name] += 1
            return kernel(self, *args, **kwargs)
        return run

    for name in calls:
        monkeypatch.setattr(CpuKernels, name, counted(name))
    return "accel", calls


def _on(solver, backend):
    return MPMSolver(solver.grid, solver.particles, solver.materials,
                     solver.config, backend=backend)


# the NumPy leg keeps the scenario name as its id, the accel leg adds
# "-accel"
@pytest.mark.parametrize("name, backend", [
    *(pytest.param(name, "numpy", id=name) for name in sorted(SCENARIOS)),
    *(pytest.param(name, "accel", id=f"{name}-accel")
      for name in sorted(SCENARIOS)),
], indirect=["backend"])
def test_step_matches_frozen_reference_bitwise(name, backend):
    backend, compiled = backend
    solver, reference = _on(SCENARIOS[name](), backend), SCENARIOS[name]()
    for _ in range(STEPS):
        solver.step()
        _reference_step(reference)
    assert solver.step_count == reference.step_count == STEPS
    assert solver.time == reference.time
    if compiled is not None:
        assert compiled == {"mpm_g2p": STEPS,
                            "mpm_stress": STEPS * STRESS_CALLS.get(name, 1)}
    for field in FIELDS:
        got = getattr(solver.particles, field)
        assert np.isfinite(got).all(), field
        assert np.array_equal(got, getattr(reference.particles, field)), field


class _TracedDruckerPrager(DruckerPrager):
    """A subclass that overrides the update; here it only counts."""

    calls = 0

    def update_stress(self, *args, **kwargs):
        type(self).calls += 1
        return super().update_stress(*args, **kwargs)


def _subclassed(solver):
    solver.materials[0] = _TracedDruckerPrager(**asdict(solver.materials[0]))


def _int32_ids(solver):
    p = solver.particles
    p.material_ids = p.material_ids.astype(np.int32)


@pytest.mark.parametrize("change", [_subclassed, _int32_ids],
                         ids=["subclass", "int32-ids"])
def test_numpy_update_where_the_kernel_does_not_apply(change, backend,
                                                      monkeypatch):
    """A Drucker–Prager subclass that overrides ``update_stress`` runs
    its override on both backends, and int32 material ids (the kernel
    reads int64 ones) take the material's own update too; either way
    the trajectory equals the frozen reference."""
    backend, compiled = backend
    monkeypatch.setattr(_TracedDruckerPrager, "calls", 0)

    def make():
        s = SCENARIOS["column"]()
        change(s)
        return s

    solver, reference = _on(make(), backend), make()
    for _ in range(10):
        solver.step()
        _reference_step(reference)
    if change is _subclassed:
        assert _TracedDruckerPrager.calls == 20
    if compiled is not None:
        assert compiled == {"mpm_g2p": 10, "mpm_stress": 0}
    for field in FIELDS:
        assert np.array_equal(getattr(solver.particles, field),
                              getattr(reference.particles, field)), field


def test_step_leaves_callers_arrays_alone(backend):
    """``positions``, ``velocities`` and ``volumes`` are rebound, never
    written in place: arrays a caller held keep their values."""
    backend, _ = backend
    solver = _on(SCENARIOS["column"](), backend)
    p = solver.particles
    held = [p.positions, p.velocities, p.volumes]
    before = [a.copy() for a in held]
    solver.step()
    for name, a, b in zip(("positions", "velocities", "volumes"), held,
                          before):
        assert getattr(p, name) is not a, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("shape", ["linear", "quadratic"])
# (2.0, y) is the domain's right edge: a node past the grid's last for
# either basis
@pytest.mark.parametrize("where", [(np.nan, 0.5), (0.5, np.inf), (5.0, 0.5),
                                   (0.5, -0.01), (2.0, 0.5)])
def test_particle_outside_grid_raises_before_any_change(shape, where,
                                                        backend):
    """A non-finite position, or one whose shape-function support
    reaches past the grid, raises instead of scattering onto wrapped
    node ids, and leaves the solver's state untouched."""
    backend, _ = backend
    s = granular_column_collapse(cells_per_unit=CELLS).solver
    solver = MPMSolver(s.grid, s.particles, s.materials,
                       MPMConfig(shape=shape), backend=backend)
    solver.step()
    solver.particles.positions[3] = where
    snap = solver.snapshot()
    with pytest.raises(ParticleOutsideGridError, match="particle 3 "):
        solver.step()
    after = solver.snapshot()
    assert after.keys() == snap.keys()
    for key, value in snap.items():
        assert np.array_equal(after[key], value, equal_nan=True), key


def test_water_on_sand_has_two_materials():
    solver = SCENARIOS["water-on-sand"]()
    assert len(np.unique(solver.particles.material_ids)) == 2
