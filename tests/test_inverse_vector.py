"""Tests for multi-parameter (vector) inversion with Adam + AD."""

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad
from repro.inverse import AdamInverter
from repro.mpm import DifferentiableMPM, DiffMPMConfig

DENSITY = 1000.0


class TestAdamInverterAnalytic:
    def test_quadratic_bowl(self):
        target = np.array([2.0, -1.0])

        def obj(x: Tensor) -> Tensor:
            d = x - Tensor(target)
            return (d * d).sum()

        rec = AdamInverter(obj, lr=0.2).solve(np.zeros(2), max_iterations=200)
        np.testing.assert_allclose(rec.final_parameters, target, atol=1e-2)

    def test_anisotropic_scales(self):
        """Parameters of wildly different magnitude invert cleanly with
        per-parameter scales."""
        target = np.array([1e5, 3.0])

        def obj(x: Tensor) -> Tensor:
            d = (x - Tensor(target)) * Tensor(np.array([1e-5, 1.0]))
            return (d * d).sum()

        rec = AdamInverter(obj, lr=0.1,
                           scales=np.array([1e5, 1.0])).solve(
            np.array([5e4, 0.0]), max_iterations=400)
        np.testing.assert_allclose(rec.final_parameters / target, 1.0,
                                   atol=0.02)

    def test_bounds_projection(self):
        def obj(x: Tensor) -> Tensor:
            return ((x - 10.0) * (x - 10.0)).sum()

        bounds = np.array([[0.0, 4.0]])
        rec = AdamInverter(obj, lr=0.5, bounds=bounds).solve(
            np.array([1.0]), max_iterations=50)
        assert rec.final_parameters[0] <= 4.0 + 1e-12

    def test_early_stop_on_loss_tol(self):
        def obj(x: Tensor) -> Tensor:
            return (x * x).sum()

        rec = AdamInverter(obj, lr=0.3, loss_tol=1e-6).solve(
            np.array([0.5]), max_iterations=500)
        assert rec.converged
        assert rec.iterations < 500

    def test_trace_recorded(self):
        def obj(x: Tensor) -> Tensor:
            return (x * x).sum()

        rec = AdamInverter(obj, lr=0.1).solve(np.array([1.0]),
                                              max_iterations=5)
        assert len(rec.parameters) == len(rec.losses)
        assert len(rec.gradients) == len(rec.losses)

    def test_final_objective_records_no_tape(self):
        w = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        returned = []

        def obj(x):
            d = x * w - Tensor(np.array([1.0, 1.0]))
            out = (d * d).sum()
            returned.append(out)
            return out

        rec = AdamInverter(obj, lr=0.1).solve(np.array([1.0, 1.0]),
                                              max_iterations=3)
        assert len(returned) == 4
        assert returned[-1]._backward_fn is None
        assert not returned[-1].requires_grad
        taped = obj(Tensor(rec.final_parameters.copy(), requires_grad=True))
        assert rec.losses[-1] == float(taped.data)
        # only the parameter vector is differentiated
        assert w.grad is None


class TestJointPhysicalInversion:
    """Recover (gravity magnitude, initial x-velocity) jointly from the
    final state of a differentiable MPM rollout — two parameters, one
    reverse pass per iteration."""

    @staticmethod
    def _setup():
        sim = DifferentiableMPM((1.0, 1.0), 1.0 / 16,
                                DiffMPMConfig(gravity=(0.0, 0.0)))
        e = Tensor(np.array(1e5))
        dt = sim.stable_dt(1e5, DENSITY)
        steps = 15

        def centroid_after(params: Tensor) -> Tensor:
            g_mag, vx = params[0], params[1]
            gravity = Tensor(np.array([0.0, -1.0])) * g_mag \
                + Tensor(np.array([1.0, 0.0])) * 0.0
            state = sim.block_state((0.4, 0.5), (0.6, 0.7), 1.0 / 32, DENSITY)
            # differentiable initial velocity
            vel = state.velocities + Tensor(np.array([1.0, 0.0])) * vx
            state = type(state)(state.positions, vel, state.stresses,
                                state.volumes, state.masses)
            out = sim.rollout(state, e, dt, steps, gravity=gravity)
            return out.positions.mean(axis=0)

        return centroid_after

    def test_joint_recovery(self):
        centroid_after = self._setup()
        true_params = np.array([9.81, 0.4])
        with no_grad():
            target = centroid_after(Tensor(true_params)).data.copy()

        def obj(params: Tensor) -> Tensor:
            d = centroid_after(params) - Tensor(target)
            return (d * d).sum()

        rec = AdamInverter(obj, lr=0.3,
                           bounds=np.array([[0.0, 20.0], [-2.0, 2.0]])
                           ).solve(np.array([5.0, 0.0]), max_iterations=60)
        assert rec.losses[-1] < rec.losses[0] * 1e-3
        np.testing.assert_allclose(rec.final_parameters, true_params,
                                   atol=0.3)
