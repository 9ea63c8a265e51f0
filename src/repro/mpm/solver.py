"""Explicit Update-Stress-Last MPM solver in two (plane strain) or three
dimensions, d read from the grid.

The step is the standard hybrid Eulerian–Lagrangian cycle the paper's
CB-Geo MPM substrate implements:

1. **P2G** — scatter particle mass/momentum to grid nodes; accumulate
   internal forces ``−V_p σ_p ∇N`` and gravity.
2. **Grid update** — explicit momentum update with box boundary
   conditions (no-penetration + Coulomb wall friction).
3. **G2P** — gather updated velocities (FLIP/PIC blend), move particles,
   compute the velocity gradient, and update stress through the
   constitutive model (USL).

Everything is vectorized over particles. The transfers work on
offset-major arrays (one length-``n`` row per shape-function offset) and
reproduce, bit for bit, the accumulation order of ``np.add.at`` scatters
and ``einsum`` gathers over particle-major ``(n, k, d)`` arrays; see
"Transfer layout" in ``docs/mpm.md``. The only Python-level loops are
over the 4/9 (2-D) or 8/27 (3-D) offsets and the axes.

On the ``accel`` backend (the default), when the C toolchain can build
the kernels, a 2-D step runs compiled: the shape evaluation, P2G, grid
update and G2P each run as
one float64 C call (:mod:`repro.accel.cpu`) that repeats the NumPy
step's arithmetic in its order, and so does the constitutive
update of each :class:`LinearElastic` or :class:`DruckerPrager`
material (exact type; other materials and subclasses run their own
``update_stress``). Trajectories are bitwise-equal either way;
``backend="numpy"`` runs the NumPy step, the oracle. A 3-D step always
runs the NumPy step; its materials (:mod:`repro.mpm3d`) update full
3×3 stresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..backend import get_backend
from ..obs import get_registry, span
from ..utils.buffers import Workspace
from .grid import BoxBoundary, Grid
from .materials import DruckerPrager, LinearElastic, Material
from .particles import Particles
from .shape import (
    ParticleOutsideGridError, QuadraticShape, ShapeFunction, make_shape,
)

__all__ = ["MPMConfig", "MPMSolver"]

# the particle arrays a snapshot keeps (``sigma_zz`` is None in 3-D)
_STATE = ("positions", "velocities", "volumes", "stresses", "sigma_zz")


def _offset_sum(terms):
    """``Σ_j terms[j]`` added onto +0.0 in offset order ``j = 0, 1, ...``,
    the order einsum accumulated its reduction in. Never
    ``terms.sum(axis=0)``: with a single particle NumPy reduces the
    then-contiguous offset axis pairwise, which rounds differently."""
    acc = np.zeros(terms.shape[1:], dtype=np.float64)
    for row in terms:
        acc += row
    return acc


@dataclass
class MPMConfig:
    """Solver configuration.

    Attributes
    ----------
    gravity: body acceleration vector, one entry per grid dimension (the
        default is 2-D; a 3-D solver needs a 3-vector).
    flip: FLIP fraction of the velocity update (0 = pure PIC, damps;
        1 = pure FLIP, noisy). 0.95–0.99 is standard for granular flow.
    cfl: Courant factor for the automatic time step.
    shape: ``"quadratic"`` (default) or ``"linear"`` basis.
    """

    gravity: tuple[float, ...] = (0.0, -9.81)
    flip: float = 0.98
    cfl: float = 0.4
    shape: str = "quadratic"
    dt: float | None = None  # explicit override; otherwise CFL-derived


class MPMSolver:
    """Explicit USL MPM stepping a :class:`Particles` system on a
    :class:`Grid` of the same dimension."""

    def __init__(self, grid: Grid, particles: Particles,
                 materials: dict[int, Material] | object,
                 config: MPMConfig | None = None, backend=None):
        self.grid = grid
        self.particles = particles
        if not isinstance(materials, dict):
            materials = {0: materials}
        self.materials = materials
        self.config = config or MPMConfig()
        self._gravity = np.asarray(self.config.gravity, dtype=np.float64)
        if particles.dim != grid.dim or self._gravity.shape != (grid.dim,):
            raise ValueError(
                f"{particles.dim}-D particles and gravity "
                f"{tuple(self._gravity.tolist())} on a {grid.dim}-D grid: "
                f"all three need the same dimension")
        # resolved once: the compiled step's kernels, or None for the
        # NumPy step, for the solver's lifetime; the kernels are 2-D
        self.backend = get_backend(backend)
        self._kernels = (self.backend.float32_kernels() if grid.dim == 2
                         else None)
        self.shape: ShapeFunction = make_shape(self.config.shape)
        # per-pair scratch kept across steps: allocated fresh each step,
        # these half-megabyte arrays cost more in page faults than the
        # arithmetic that fills them
        self._work = Workspace()
        self.time = 0.0
        self.step_count = 0
        ids = np.unique(particles.material_ids)
        missing = [int(i) for i in ids if int(i) not in materials]
        if missing:
            raise KeyError(f"no material registered for ids {missing}")

    # ------------------------------------------------------------------
    def max_speed(self) -> float:
        """Current maximum particle speed (NaN if any velocity is)."""
        v = self.particles.velocities
        if v.size == 0:
            return 0.0
        return float(np.sqrt((v ** 2).sum(axis=1)).max())

    def snapshot(self) -> dict:
        """Copy of the full mutable solver state — positions,
        velocities, volumes, stresses, clock — for rewind-and-retry
        (:class:`repro.resilience.GuardedMPMStepper`, hybrid recovery)."""
        p = self.particles
        return {
            **{name: getattr(p, name).copy() for name in _STATE
               if getattr(p, name) is not None},
            "time": self.time,
            "step_count": self.step_count,
        }

    def restore(self, snap: dict) -> None:
        """Rewind to a :meth:`snapshot` (arrays are copied back in)."""
        p = self.particles
        for name in _STATE:
            if name in snap:
                setattr(p, name, snap[name].copy())
        self.time = float(snap["time"])
        self.step_count = int(snap["step_count"])

    # ------------------------------------------------------------------
    def stable_dt(self) -> float:
        """CFL time step from the stiffest material's P-wave speed and the
        current maximum particle speed."""
        if self.config.dt is not None:
            return self.config.dt
        c = max(m.wave_speed() for m in self.materials.values())
        vmax = float(np.sqrt((self.particles.velocities ** 2).sum(axis=1)).max(initial=0.0))
        return self.config.cfl * self.grid.spacing / (c + vmax + 1e-12)

    # ------------------------------------------------------------------
    def step(self, dt: float | None = None) -> float:
        """Advance one explicit step; returns the dt actually used.

        The three phases are traced as ``mpm/p2g``, ``mpm/grid``, and
        ``mpm/g2p`` spans (no-ops unless global tracing is on). Raises
        :class:`ParticleOutsideGridError`, before any state changes, when
        a position is not finite or its shape-function support leaves
        the grid. ``positions``, ``velocities`` and ``volumes`` are
        rebound to new arrays, never written in place.
        """
        dt = float(dt if dt is not None else self.stable_dt())
        if self._kernels is None:
            self._step_numpy(dt)
        else:
            self._step_compiled(self._kernels, dt)
        self.time += dt
        self.step_count += 1
        reg = get_registry()
        if reg.enabled:
            reg.counter("mpm.steps").inc()
            reg.gauge("mpm.dt").set(dt)
            reg.gauge("mpm.num_particles").set(self.particles.count)
        return dt

    def _step_numpy(self, dt: float) -> None:
        """The step in NumPy: the reference the compiled kernels match."""
        p = self.particles
        g = self.grid

        kernel = self.shape(p.positions, g.spacing, g.node_dims)
        nodes, w, dw = kernel.nodes, kernel.weights, kernel.grads
        k, n = nodes.shape
        d = g.dim

        # --- P2G -------------------------------------------------------
        with span("mpm/p2g"):
            # per-pair contributions, one (k, n) row block per channel:
            # mass, momentum per axis, then internal and gravity force
            # per axis (1 + 3d channels)
            pairs = self._work.get("p2g.pairs", (1 + 3 * d, k, n),
                                   np.float64)
            mw = pairs[0]
            np.multiply(w, p.masses, out=mw)
            vs = p.volumes[:, None, None] * p.stresses       # V_p σ_p
            for a in range(d):
                np.multiply(mw, p.velocities[:, a], out=pairs[1 + a])
                # internal force −V_p σ_p ∇N (σ symmetric), V_p σ_p
                # formed first and summed over b in order as einsum did:
                # −((Vσ_a0 ∂xN + Vσ_a1 ∂yN) + Vσ_a2 ∂zN)
                f_int = pairs[1 + d + 2 * a]
                np.multiply(vs[:, a, 0], dw[0], out=f_int)
                for b in range(1, d):
                    f_int += vs[:, a, b] * dw[b]
                np.negative(f_int, out=f_int)
                np.multiply(mw, self._gravity[a], out=pairs[2 + d + 2 * a])
            # Particle-major pair order is the order np.add.at summed in,
            # and bincount adds its weights in input order: every node
            # total is rounded exactly as before. Each axis's internal and
            # gravity rows are adjacent, so one bincount adds all internal
            # terms of a node before any gravity term, as two add.at did.
            idx = self._work.get("p2g.nodes", (2, n, k), np.int64)
            idx[0] = nodes.T
            idx[1] = idx[0]
            flat, flat2 = idx[0].ravel(), idx.ravel()
            pm = self._work.get("p2g.particle_major", (1 + 3 * d, n, k),
                                np.float64)
            np.copyto(pm, pairs.transpose(0, 2, 1))
            nn = g.num_nodes
            g.mass[:] = np.bincount(flat, pm[0].ravel(), minlength=nn)
            for a in range(d):
                g.momentum[:, a] = np.bincount(flat, pm[1 + a].ravel(),
                                               minlength=nn)
                g.force[:, a] = np.bincount(
                    flat2, pm[1 + d + 2 * a:3 + d + 2 * a].ravel(),
                    minlength=nn)

        # --- grid update -------------------------------------------------
        with span("mpm/grid"):
            v_old = g.velocities()
            v_old = g.boundary.apply(g, v_old)
            if g.obstacle_mask is not None:
                v_old[g.obstacle_mask] = 0.0
            m = np.maximum(g.mass, 1e-12)[:, None]
            v_new = v_old + dt * g.force / m
            v_new[g.mass <= 1e-12] = 0.0
            v_new = g.boundary.apply(g, v_new)
            if g.obstacle_mask is not None:
                v_new[g.obstacle_mask] = 0.0

        # --- G2P ---------------------------------------------------------
        with span("mpm/g2p"):
            # per-pair terms, 2d + d² rows per offset: w·v (PIC), w·Δv
            # (FLIP increment), then v_a ∂N/∂x_b for the velocity
            # gradient L_ab. Δv taken per node and then gathered is the
            # same per-pair difference as gathering both velocities first.
            dv_grid = v_new - v_old
            terms = self._work.get("g2p.terms", (k, 2 * d + d * d, n),
                                   np.float64)
            for a in range(d):
                v_k = v_new[:, a][nodes]                      # (k, n)
                np.multiply(w, v_k, out=terms[:, a])
                np.multiply(w, dv_grid[:, a][nodes], out=terms[:, d + a])
                for b in range(d):
                    np.multiply(v_k, dw[b], out=terms[:, 2 * d + d * a + b])
            sums = _offset_sum(terms)                         # (2d + d², n)
            v_pic = sums[0:d].T.copy()
            dv = sums[d:2 * d].T
            flip = self.config.flip
            p.velocities = (1.0 - flip) * v_pic + flip * (p.velocities + dv)
            p.positions = p.positions + dt * v_pic

            # keep particles inside the constrained band
            margin = g.interior_margin()
            for a in range(d):
                np.clip(p.positions[:, a], margin, g.size[a] - margin,
                        out=p.positions[:, a])

            # velocity gradient L_ab = Σ_k v_a ∂N/∂x_b
            lgrad = sums[2 * d:].T.reshape(n, d, d)
            strain_inc = 0.5 * (lgrad + lgrad.transpose(0, 2, 1)) * dt
            spin_inc = 0.5 * (lgrad - lgrad.transpose(0, 2, 1)) * dt

            # the trace summed in axis order, (ε00 + ε11) + ε22
            tr = strain_inc[:, 0, 0] + strain_inc[:, 1, 1]
            for a in range(2, d):
                tr += strain_inc[:, a, a]
            p.volumes = p.volumes * (1.0 + tr)
            self._update_stress(strain_inc, spin_inc, dt)

    def _step_compiled(self, kern, dt: float) -> None:
        """The step as four float64 kernels of ``kern``
        (:class:`repro.accel.CpuKernels`), bitwise-equal to
        :meth:`_step_numpy`."""
        p = self.particles
        g = self.grid
        f64 = np.float64

        def c64(a):
            return np.ascontiguousarray(a, dtype=f64)

        pos = c64(p.positions)
        n = pos.shape[0]
        k = self.shape.support ** 2
        # particle-major (n, k) pairs: a particle's pairs are adjacent
        nodes = self._work.get("shape.nodes", (n, k), np.int64)
        w = self._work.get("shape.weights", (n, k), f64)
        dw = self._work.get("shape.grads", (n, k, 2), f64)
        bad = kern.mpm_shape(isinstance(self.shape, QuadraticShape), pos,
                             g.spacing, g.node_dims, nodes, w, dw)
        if bad >= 0:
            raise ParticleOutsideGridError.at(bad, pos)
        vel, vol = c64(p.velocities), c64(p.volumes)

        with span("mpm/p2g"):
            kern.mpm_p2g(nodes, w, dw, c64(p.masses), vel, vol,
                         c64(p.stresses), self._gravity, g.mass, g.momentum,
                         g.force)

        with span("mpm/grid"):
            v_new = self._work.get("grid.v_new", (g.num_nodes, 2), f64)
            dv_grid = self._work.get("grid.dv", (g.num_nodes, 2), f64)
            b = g.boundary
            kern.mpm_grid(g.mass, g.momentum, g.force, g.node_dims, dt,
                          b.mode, b.friction, b.thickness, g.obstacle_mask,
                          v_new, dv_grid)

        with span("mpm/g2p"):
            margin = g.interior_margin()
            out_vel = np.empty((n, 2), dtype=f64)
            out_pos = np.empty((n, 2), dtype=f64)
            out_vol = np.empty(n, dtype=f64)
            strain_inc = self._work.get("g2p.strain", (n, 2, 2), f64)
            spin_inc = self._work.get("g2p.spin", (n, 2, 2), f64)
            kern.mpm_g2p(nodes, w, dw, v_new, dv_grid, vel, pos, vol,
                         self.config.flip, dt,
                         (margin, g.size[0] - margin,
                          margin, g.size[1] - margin),
                         out_vel, out_pos, out_vol, strain_inc, spin_inc)
            p.velocities, p.positions, p.volumes = out_vel, out_pos, out_vol
            self._update_stress(strain_inc, spin_inc, dt, kern)

    def _update_stress(self, strain_inc: np.ndarray, spin_inc: np.ndarray,
                       dt: float, kern=None) -> None:
        """Constitutive update of every material's particles (USL); runs
        after the volumes were updated, which the Jacobian reads. With
        ``kern``, a material whose exact type is :class:`LinearElastic` or
        :class:`DruckerPrager` is updated by its compiled kernel, in place
        and bitwise-equal to its ``update_stress``; any other material,
        subclasses included (they may override the update), runs its own
        ``update_stress``. 2-D materials take and return the plane-strain
        ``sigma_zz`` beside the stresses; 3-D ones only the stresses."""
        p = self.particles
        # the kernel writes in place, so only onto the particles' own
        # arrays, in the layout it reads
        arrays = (p.stresses, p.sigma_zz, p.material_ids)
        compiled = kern is not None and all(
            a.flags.c_contiguous for a in arrays) and tuple(
            a.dtype for a in arrays) == (np.float64, np.float64, np.int64)
        for mat_id, mat in self.materials.items():
            if compiled and type(mat) in (LinearElastic, DruckerPrager):
                cone = (mat.yield_surface() if type(mat) is DruckerPrager
                        else None)
                kern.mpm_stress(p.material_ids, int(mat_id), mat.lam,
                                2.0 * mat.mu, cone, strain_inc, spin_inc,
                                p.stresses, p.sigma_zz)
                continue
            sel = p.material_ids == mat_id
            if not np.any(sel):
                continue
            jacobian = p.volumes[sel] / p.initial_volumes[sel]
            if p.sigma_zz is None:              # 3-D
                p.stresses[sel] = mat.update_stress(
                    p.stresses[sel], strain_inc[sel], spin_inc[sel],
                    jacobian=jacobian, dt=dt)
                continue
            s_new, szz_new = mat.update_stress(
                p.stresses[sel], p.sigma_zz[sel], strain_inc[sel],
                spin_inc[sel], jacobian=jacobian, dt=dt)
            p.stresses[sel] = s_new
            p.sigma_zz[sel] = szz_new

    # ------------------------------------------------------------------
    def run(self, num_steps: int, dt: float | None = None,
            callback: Callable[["MPMSolver"], None] | None = None) -> None:
        """Advance ``num_steps`` steps, optionally invoking ``callback``
        after each one (used for trajectory recording)."""
        for _ in range(num_steps):
            self.step(dt)
            if callback is not None:
                callback(self)

    def rollout(self, num_steps: int, record_every: int = 1,
                dt: float | None = None) -> np.ndarray:
        """Run and record particle positions every ``record_every`` steps.

        Returns ``(T, n, d)`` positions including the initial state.
        """
        frames = [self.particles.positions.copy()]
        for i in range(num_steps):
            self.step(dt)
            if (i + 1) % record_every == 0:
                frames.append(self.particles.positions.copy())
        return np.stack(frames, axis=0)
