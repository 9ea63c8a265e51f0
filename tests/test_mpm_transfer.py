"""Bitwise gate for the MPM step on both of its paths and in both
dimensions.

``_reference_step`` is a frozen copy of ``MPMSolver.step`` as it was
written before the transfers moved to offset-major arrays: particle-major
``(n, k)`` kernels, ``np.add.at`` scatters and ``einsum`` gathers. The
production step must reproduce its trajectories exactly, so every
particle field is compared with ``np.array_equal`` after many steps —
once on the NumPy backend and once on ``accel``, whose step runs the
compiled float64 kernels of :mod:`repro.accel.cpu`, the constitutive
update of elastic and Drucker–Prager materials included.

``_reference_step_3d`` is the same for three dimensions: a frozen copy
of the separate 3-D solver's step, with its own shape kernels and box
walls, from before 3-D ran on ``MPMSolver``. A 3-D step runs the NumPy
step on either backend.
"""

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.accel import CpuKernels, build_error, kernels, toolchain_missing
from repro.mpm import (
    BoxBoundary, DruckerPrager, Grid, MPMConfig, MPMSolver,
    ParticleOutsideGridError, Particles, dam_break, elastic_block_bounce,
    flow_around_obstacle, granular_box_flow, granular_column_collapse,
    water_on_sand,
)
from repro.mpm3d import DruckerPrager3D, column_collapse_3d, elastic_drop_3d

CELLS = 12
STEPS = 60
FIELDS = ("positions", "velocities", "stresses", "sigma_zz", "volumes")
FIELDS_3D = ("positions", "velocities", "stresses", "volumes")


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


def _reference_shape_3d(quadratic, positions, h, node_dims):
    """The 3-D shape kernels as they were frozen: particle-major ``(n, k)``
    node ids and weights and ``(n, k, 3)`` gradients, one offset per
    turn of a triple loop over the per-axis 1-D weights."""
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    xi = pos / h
    if quadratic:
        base = np.floor(xi - 0.5).astype(np.int64)
        w1 = np.empty((3, n, 3))
        dw1 = np.empty((3, n, 3))
        for o in range(3):
            d = xi - (base + o)
            ad = np.abs(d)
            w1[o] = np.where(ad < 0.5, 0.75 - d * d,
                             np.where(ad < 1.5, 0.5 * (1.5 - ad) ** 2, 0.0))
            dw1[o] = np.where(ad < 0.5, -2.0 * d,
                              np.where(ad < 1.5, (ad - 1.5) * np.sign(d), 0.0))
        dw1 /= h
    else:
        base = np.floor(xi).astype(np.int64)
        frac = xi - base
        w1 = np.stack([1.0 - frac, frac], axis=0)
        dw1 = np.stack([-np.ones_like(frac), np.ones_like(frac)], axis=0) / h
    m = w1.shape[0]
    ny, nz = node_dims[1], node_dims[2]
    nodes = np.empty((n, m ** 3), dtype=np.int64)
    weights = np.empty((n, m ** 3))
    grads = np.empty((n, m ** 3, 3))
    k = 0
    for i in range(m):
        for j in range(m):
            for l in range(m):
                nodes[:, k] = ((base[:, 0] + i) * ny + (base[:, 1] + j)
                               ) * nz + (base[:, 2] + l)
                weights[:, k] = w1[i, :, 0] * w1[j, :, 1] * w1[l, :, 2]
                grads[:, k, 0] = dw1[i, :, 0] * w1[j, :, 1] * w1[l, :, 2]
                grads[:, k, 1] = w1[i, :, 0] * dw1[j, :, 1] * w1[l, :, 2]
                grads[:, k, 2] = w1[i, :, 0] * w1[j, :, 1] * dw1[l, :, 2]
                k += 1
    return nodes, weights, grads


def _reference_walls_3d(boundary, grid, velocities):
    """The six-face box walls as they were frozen: each face's outgoing
    normal velocity zeroed, the two tangential components scaled by
    their norm's Coulomb decay."""
    v = velocities.copy()
    t = boundary.thickness
    dims = grid.node_dims
    idx = np.arange(grid.num_nodes)
    coords = np.stack([idx // (dims[1] * dims[2]), (idx // dims[2]) % dims[1],
                       idx % dims[2]], axis=1)
    if boundary.mode == "sticky":
        wall = np.zeros(v.shape[0], dtype=bool)
        for axis in range(3):
            wall |= (coords[:, axis] <= t) | \
                    (coords[:, axis] >= dims[axis] - 1 - t)
        v[wall] = 0.0
        return v
    for axis in range(3):
        for mask, sign in ((coords[:, axis] <= t, -1.0),
                           (coords[:, axis] >= dims[axis] - 1 - t, 1.0)):
            vn = v[mask, axis] * sign
            out = vn > 0.0
            if not np.any(out):
                continue
            ids = np.nonzero(mask)[0][out]
            removed = vn[out]
            v[ids, axis] = 0.0
            if boundary.mode == "frictional" and boundary.friction > 0.0:
                tang = [a for a in range(3) if a != axis]
                vt = v[np.ix_(ids, tang)]
                mag = np.linalg.norm(vt, axis=1)
                keep = np.maximum(mag - boundary.friction * removed, 0.0)
                scale = np.where(mag > 1e-15,
                                 keep / np.maximum(mag, 1e-15), 0.0)
                v[np.ix_(ids, tang)] = vt * scale[:, None]
    return v


def _reference_step_3d(solver):
    p, g = solver.particles, solver.grid
    dt = solver.stable_dt()
    nodes, w, dw = _reference_shape_3d(solver.config.shape == "quadratic",
                                       p.positions, g.spacing, g.node_dims)
    flat = nodes.ravel()

    g.reset()
    mw = p.masses[:, None] * w
    np.add.at(g.mass, flat, mw.ravel())
    mom = mw[:, :, None] * p.velocities[:, None, :]
    np.add.at(g.momentum, flat, mom.reshape(-1, 3))
    f_int = -np.einsum("p,pab,pkb->pka", p.volumes, p.stresses, dw)
    np.add.at(g.force, flat, f_int.reshape(-1, 3))
    f_ext = mw[:, :, None] * solver._gravity
    np.add.at(g.force, flat, f_ext.reshape(-1, 3))

    v_old = _reference_walls_3d(g.boundary, g, g.velocities())
    m = np.maximum(g.mass, 1e-12)[:, None]
    v_new = v_old + dt * g.force / m
    v_new[g.mass <= 1e-12] = 0.0
    v_new = _reference_walls_3d(g.boundary, g, v_new)

    v_new_k, v_old_k = v_new[nodes], v_old[nodes]
    v_pic = np.einsum("pk,pkc->pc", w, v_new_k)
    dv = np.einsum("pk,pkc->pc", w, v_new_k - v_old_k)
    flip = solver.config.flip
    p.velocities = (1.0 - flip) * v_pic + flip * (p.velocities + dv)
    p.positions = p.positions + dt * v_pic
    margin = g.interior_margin()
    for axis in range(3):
        np.clip(p.positions[:, axis], margin, g.size[axis] - margin,
                out=p.positions[:, axis])

    lgrad = np.einsum("pka,pkb->pab", v_new_k, dw)
    strain_inc = 0.5 * (lgrad + lgrad.transpose(0, 2, 1)) * dt
    spin_inc = 0.5 * (lgrad - lgrad.transpose(0, 2, 1)) * dt
    p.volumes = p.volumes * (1.0 + np.trace(strain_inc, axis1=1, axis2=2))
    p.stresses = solver.materials[0].update_stress(p.stresses, strain_inc,
                                                   spin_inc)
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


def _column_3d():
    return column_collapse_3d()[0]


def _linear_column_3d():
    s = _column_3d()
    return MPMSolver(s.grid, s.particles, s.materials,
                     replace(s.config, shape="linear"))


def _sticky_column_3d():
    s = _column_3d()
    s.grid.boundary = BoxBoundary(mode="sticky")
    return s


def _few_particles_3d(n):
    rng = np.random.default_rng(n)
    vol = np.full(n, 1.25e-4, dtype=np.float64)
    stress = rng.normal(0.0, 1e3, size=(n, 3, 3))
    particles = Particles(
        positions=rng.uniform(0.3, 0.7, size=(n, 3)),
        velocities=rng.normal(0.0, 0.5, size=(n, 3)),
        masses=1800.0 * vol, volumes=vol.copy(),
        stresses=0.5 * (stress + stress.transpose(0, 2, 1)))
    return MPMSolver(Grid((1.0, 1.0, 1.0), 0.1, BoxBoundary()), particles,
                     DruckerPrager3D(density=1800.0, youngs_modulus=2e6,
                                     poisson_ratio=0.3),
                     MPMConfig(gravity=(0.0, 0.0, -9.81)))


SCENARIOS_3D = {
    # the column stands on the frictional floor from the first step
    "column-3d": _column_3d,
    "column-3d-linear": _linear_column_3d,
    "column-3d-sticky": _sticky_column_3d,
    # dropped this low, the cube's support reaches the floor's wall
    # nodes from the first step, so the slip walls act throughout
    "elastic-drop-3d": lambda: elastic_drop_3d(cells_per_unit=8,
                                               drop_height=0.05)[0],
    "1-particle-3d": lambda: _few_particles_3d(1),
    "2-particles-3d": lambda: _few_particles_3d(2),
    "3-particles-3d": lambda: _few_particles_3d(3),
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
    leg skips only when cffi or the C compiler is missing; a failed
    build fails it."""
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


@pytest.mark.parametrize("name", sorted(SCENARIOS_3D))
def test_3d_step_matches_frozen_reference_bitwise(name, backend):
    """3-D runs ``MPMSolver``'s offset-major NumPy step, which must give
    the frozen 3-D step's bits; the compiled kernels are 2-D, so the
    accel leg calls none of them."""
    backend, compiled = backend
    solver = _on(SCENARIOS_3D[name](), backend)
    reference = SCENARIOS_3D[name]()
    for _ in range(STEPS):
        solver.step()
        _reference_step_3d(reference)
    assert solver.step_count == reference.step_count == STEPS
    assert solver.time == reference.time
    if compiled is not None:
        assert compiled == {"mpm_g2p": 0, "mpm_stress": 0}
    for field in FIELDS_3D:
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
# either basis; z = 1.0 is the top face of the 3-D column's domain
@pytest.mark.parametrize("where", [
    (np.nan, 0.5), (0.5, np.inf), (5.0, 0.5), (0.5, -0.01), (2.0, 0.5),
    *(pytest.param(w, id=f"3d-where{i}") for i, w in enumerate([
        (np.nan, 0.5, 0.25), (0.5, 0.5, np.inf), (-0.5, 0.5, 0.25),
        (0.5, -0.01, 0.25), (0.5, 0.5, 1.0)])),
])
def test_particle_outside_grid_raises_before_any_change(shape, where,
                                                        backend):
    """A non-finite position, or one whose shape-function support
    reaches past the grid, raises instead of scattering onto wrapped
    node ids, and leaves the solver's state untouched."""
    backend, _ = backend
    s = (column_collapse_3d(cells_per_unit=12)[0] if len(where) == 3
         else granular_column_collapse(cells_per_unit=CELLS).solver)
    solver = MPMSolver(s.grid, s.particles, s.materials,
                       replace(s.config, shape=shape), backend=backend)
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
