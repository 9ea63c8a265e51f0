"""Tests for MPM in three dimensions (``repro.mpm``'s solver on a 3-D
grid with the materials and scenarios of ``repro.mpm3d``) and the 3-D
GNS pipeline. The shape functions' 3-D checks live with the 2-D ones in
``tests/test_mpm_shape.py``."""

import numpy as np
import pytest

from repro.mpm import BoxBoundary, Grid, MPMConfig, MPMSolver, Particles
from repro.mpm.shape import LinearShape, make_shape
from repro.mpm3d import (
    DruckerPrager3D, LinearElastic3D, column_collapse_3d, elastic_drop_3d,
    radial_runout,
)


class TestMaterials3D:
    def test_elastic_uniaxial(self):
        mat = LinearElastic3D(density=1.0, youngs_modulus=100.0,
                              poisson_ratio=0.25)
        strain = np.zeros((1, 3, 3))
        strain[0, 0, 0] = 0.01
        out = mat.elastic_increment(strain)
        assert out[0, 0, 0] == pytest.approx((mat.lam + 2 * mat.mu) * 0.01)
        assert out[0, 1, 1] == pytest.approx(mat.lam * 0.01)
        assert out[0, 2, 2] == pytest.approx(mat.lam * 0.01)

    def test_dp_pure_shear_cohesionless_collapses(self):
        mat = DruckerPrager3D(density=1.0, youngs_modulus=1e4,
                              poisson_ratio=0.25, friction_angle=30.0)
        strain = np.zeros((1, 3, 3))
        strain[0, 0, 1] = strain[0, 1, 0] = 0.05
        out = mat.update_stress(np.zeros((1, 3, 3)), strain,
                                np.zeros((1, 3, 3)))
        assert abs(out[0, 0, 1]) < 1e-8

    def test_dp_pressure_strengthens(self):
        mat = DruckerPrager3D(density=1.0, youngs_modulus=1e4,
                              poisson_ratio=0.25, friction_angle=30.0)
        strain = np.zeros((1, 3, 3))
        strain[0, 0, 1] = strain[0, 1, 0] = 0.05
        caps = []
        for pressure in (0.0, -100.0):
            s0 = pressure * np.eye(3)[None]
            out = mat.update_stress(s0.copy(), strain, np.zeros((1, 3, 3)))
            caps.append(abs(out[0, 0, 1]))
        assert caps[1] > caps[0]

    def test_wave_speed(self):
        mat = LinearElastic3D(density=1000.0, youngs_modulus=1e6,
                              poisson_ratio=0.3)
        assert mat.wave_speed() == pytest.approx(
            np.sqrt((mat.lam + 2 * mat.mu) / 1000.0))


class TestSolver3D:
    @staticmethod
    def _free_fall(gravity=(0.0, 0.0, -9.81)):
        grid = Grid((1.0, 1.0, 1.0), 1.0 / 16,
                    BoxBoundary(friction=0.0, mode="slip"))
        mat = LinearElastic3D(density=1000.0, youngs_modulus=1e5,
                              poisson_ratio=0.3)
        p = Particles.from_block((0.4, 0.4, 0.6), (0.6, 0.6, 0.8), 1.0 / 32,
                                 mat.density)
        return MPMSolver(grid, p, mat, MPMConfig(gravity=gravity))

    def test_mass_conserved(self):
        s = self._free_fall()
        m0 = s.particles.total_mass()
        s.run(15)
        assert s.particles.total_mass() == pytest.approx(m0)

    def test_momentum_conserved_without_gravity(self):
        s = self._free_fall(gravity=(0.0, 0.0, 0.0))
        s.particles.velocities[:] = np.random.default_rng(0).normal(
            size=s.particles.velocities.shape) * 0.1
        mom0 = s.particles.total_momentum()
        s.step(dt=1e-4)
        np.testing.assert_allclose(s.particles.total_momentum(), mom0,
                                   rtol=1e-6, atol=1e-10)

    def test_free_fall_matches_analytic(self):
        s = self._free_fall()
        z0 = s.particles.positions[:, 2].mean()
        t = 0.0
        for _ in range(40):
            t += s.step(dt=2e-4)
        drop = z0 - s.particles.positions[:, 2].mean()
        # symplectic Euler advances x with v_{n+1}: drop = ½ g t (t + dt)
        assert drop == pytest.approx(0.5 * 9.81 * t * (t + 2e-4), rel=2e-3)

    def test_floor_stops_block(self):
        grid = Grid((1.0, 1.0, 1.0), 1.0 / 16, BoxBoundary(mode="sticky"))
        mat = LinearElastic3D(density=1000.0, youngs_modulus=1e5,
                              poisson_ratio=0.3)
        p = Particles.from_block((0.4, 0.4, 0.2), (0.6, 0.6, 0.35), 1.0 / 32,
                                 mat.density)
        s = MPMSolver(grid, p, mat, MPMConfig(gravity=(0.0, 0.0, -9.81)))
        s.run(300)
        assert p.positions[:, 2].min() >= grid.interior_margin() - 1e-9
        assert np.sqrt((p.velocities ** 2).sum(axis=1)).mean() < 0.5

    def test_grid_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            Grid((1.05, 1.0, 1.0), 0.1)

    def test_dimension_mismatch_raises(self):
        """Particles and gravity must have the grid's dimension: the
        default 2-D gravity on a 3-D grid, 2-D particles on it, and 3-D
        gravity on a 2-D grid all raise."""
        s = self._free_fall()
        flat = Particles.from_block((0.4, 0.4), (0.6, 0.6), 1.0 / 32, 1.0)
        grid_2d = Grid((1.0, 1.0), 1.0 / 16)
        for grid, particles, config in (
                (s.grid, s.particles, MPMConfig()),
                (s.grid, flat, s.config),
                (grid_2d, flat, s.config)):
            with pytest.raises(ValueError, match="same dimension"):
                MPMSolver(grid, particles, s.materials, config)

    def test_rollout_shape(self):
        s = self._free_fall()
        frames = s.rollout(10, record_every=5)
        assert frames.shape[0] == 3
        assert frames.shape[2] == 3


class TestScenarios3D:
    def test_column_collapses_and_settles(self):
        solver, meta = column_collapse_3d(cells_per_unit=12)
        r0 = radial_runout(solver.particles.positions, meta["center"],
                           meta["column_radius"])
        solver.run(500)
        r1 = radial_runout(solver.particles.positions, meta["center"],
                           meta["column_radius"])
        assert r0 == pytest.approx(0.0, abs=1e-6)
        assert r1 > 0.03
        # settled: low kinetic energy
        assert solver.particles.kinetic_energy() < 1.0

    def test_column_fits_its_domain(self):
        # too tall for a 0.5 m high domain, too wide for a 1 m wide one
        for kwargs in (dict(aspect_ratio=1.5, domain=(1.0, 1.0, 0.5)),
                       dict(column_radius=0.4, aspect_ratio=0.25)):
            with pytest.raises(ValueError, match="does not fit"):
                column_collapse_3d(**kwargs)
        solver, _ = column_collapse_3d()
        m = solver.grid.interior_margin()
        pos = solver.particles.positions
        assert (pos >= m).all()
        assert (pos <= np.asarray(solver.grid.size) - m).all()

    def test_lower_friction_spreads_farther_3d(self):
        results = {}
        for phi in (20.0, 45.0):
            solver, meta = column_collapse_3d(cells_per_unit=12,
                                              friction_angle=phi)
            solver.run(500)
            results[phi] = radial_runout(solver.particles.positions,
                                         meta["center"],
                                         meta["column_radius"])
        assert results[20.0] > results[45.0]

    def test_elastic_drop_bounces(self):
        solver, meta = elastic_drop_3d(cells_per_unit=8)
        z0 = solver.particles.positions[:, 2].mean()
        lowest = z0
        for _ in range(200):
            solver.step()
            lowest = min(lowest, solver.particles.positions[:, 2].mean())
        assert lowest < z0 - 0.05
        assert solver.particles.positions[:, 2].min() > 0.0

    def test_make_shape3d_factory(self):
        # the one factory builds the 3-D bases too: a linear kernel on a
        # 3-D grid spans the particle's 2×2×2 cell corners
        shape = make_shape("linear")
        assert isinstance(shape, LinearShape)
        pos = np.random.default_rng(0).uniform(0.3, 0.7, size=(5, 3))
        k = shape(pos, 0.1, (12, 12, 12))
        assert k.weights.shape[0] == 8
        np.testing.assert_allclose(k.weights.sum(axis=0), 1.0, atol=1e-12)
        with pytest.raises(ValueError):
            make_shape("cubic")


class TestGNS3D:
    """End-to-end: the GNS stack is dimension-generic — train on 3-D
    trajectories and roll out."""

    def test_gns_trains_on_3d_mpm_data(self):
        from repro.data import Trajectory, normalization_stats
        from repro.gns import (
            FeatureConfig, GNSNetworkConfig, GNSTrainer, LearnedSimulator,
            Stats, TrainingConfig,
        )

        solver, meta = column_collapse_3d(cells_per_unit=12)
        dt = solver.stable_dt()
        frames = solver.rollout(120, record_every=10, dt=dt)
        m = solver.grid.interior_margin()
        bounds = np.array([[m, 1.0 - m], [m, 1.0 - m],
                           [m, solver.grid.size[2] - m]])
        traj = Trajectory(frames, dt=dt * 10, bounds=bounds)

        stats = Stats.from_dict(normalization_stats([traj]))
        fc = FeatureConfig(connectivity_radius=0.2, history=3, bounds=bounds,
                           dim=3)
        nc = GNSNetworkConfig(latent_size=8, mlp_hidden_size=8,
                              mlp_hidden_layers=1, message_passing_steps=1)
        sim = LearnedSimulator(fc, nc, stats, rng=np.random.default_rng(0))
        noise = float(np.mean(stats.acceleration_std))
        trainer = GNSTrainer(sim, [traj], TrainingConfig(
            learning_rate=1e-3, noise_std=noise, batch_size=1))
        losses = trainer.train(15)
        assert all(np.isfinite(losses))

        rolled = sim.rollout(traj.positions[:4], 4)
        assert rolled.shape == (8, traj.num_particles, 3)
        assert np.all(np.isfinite(rolled))
