"""Tests for the inverse-problem machinery: soft runout, inverters,
and the GNS runout problem."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.gns import FeatureConfig, GNSNetworkConfig, LearnedSimulator
from repro.inverse import (
    FiniteDifferenceInverter, GradientDescentInverter, RunoutInverseProblem,
    finite_difference_gradient, hard_runout, soft_front, soft_runout,
)

from .helpers import steady_material_sim, steady_seed_frames, traced_peak


class TestSoftRunout:
    def test_soft_front_approaches_max(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(size=(50, 2))
        front = float(soft_front(Tensor(pos), temperature=1e-4).data)
        assert front == pytest.approx(pos[:, 0].max(), abs=1e-3)

    def test_soft_front_below_max(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        front = float(soft_front(Tensor(pos), temperature=0.5).data)
        assert front < 1.0

    def test_soft_runout_gradient_concentrates_on_leaders(self):
        pos = Tensor(np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]),
                     requires_grad=True)
        soft_runout(pos, toe_x=0.2, temperature=0.1).backward()
        gx = pos.grad[:, 0]
        # the leading particle dominates the front gradient ...
        assert gx[2] > abs(gx[1]) and gx[2] > abs(gx[0])
        # ... and the total sensitivity to a rigid translation is exactly 1
        assert gx.sum() == pytest.approx(1.0)

    def test_hard_runout_never_negative(self):
        pos = np.array([[0.1, 0.0], [0.2, 0.0]])
        assert hard_runout(pos, toe_x=5.0) == 0.0

    def test_hard_runout_value(self):
        pos = np.array([[0.1, 0.0], [0.9, 0.0]])
        assert hard_runout(pos, toe_x=0.4, quantile=1.0) == pytest.approx(0.5)


class TestInverters:
    def test_gd_quadratic_converges(self):
        inverter = GradientDescentInverter(lambda x: (x - 3.0) * (x - 3.0),
                                           lr=0.4)
        rec = inverter.solve(0.0, max_iterations=50)
        assert rec.converged
        assert rec.final_parameter == pytest.approx(3.0, abs=1e-3)

    def test_gd_respects_bounds(self):
        inverter = GradientDescentInverter(lambda x: (x - 10.0) * (x - 10.0),
                                           lr=1.0, bounds=(0.0, 5.0))
        rec = inverter.solve(2.0, max_iterations=10)
        assert max(rec.parameters) <= 5.0

    def test_gd_grad_clipping(self):
        inverter = GradientDescentInverter(lambda x: (x * x) * 1e6, lr=1e-3,
                                           max_grad=1.0)
        rec = inverter.solve(5.0, max_iterations=3)
        # with clipped gradient the first step moves by exactly lr
        assert rec.parameters[1] == pytest.approx(5.0 - 1e-3)

    def test_gd_callback_invoked(self):
        calls = []
        inverter = GradientDescentInverter(lambda x: x * x, lr=0.1)
        inverter.solve(1.0, max_iterations=3,
                       callback=lambda *a: calls.append(a))
        assert len(calls) >= 1

    def test_gd_records_trace(self):
        inverter = GradientDescentInverter(lambda x: (x - 1.0) * (x - 1.0),
                                           lr=0.3)
        rec = inverter.solve(0.0, max_iterations=5)
        assert len(rec.parameters) == len(rec.losses)
        assert rec.losses[0] == pytest.approx(1.0)

    def test_fd_gradient_matches_analytic(self):
        g = finite_difference_gradient(lambda x: x ** 3, 2.0, eps=1e-5)
        assert g == pytest.approx(12.0, rel=1e-4)

    def test_fd_inverter_converges(self):
        inverter = FiniteDifferenceInverter(lambda x: (x - 3.0) ** 2, lr=0.4)
        rec = inverter.solve(0.0, max_iterations=50)
        assert rec.converged
        assert rec.final_parameter == pytest.approx(3.0, abs=1e-3)

    def test_ad_and_fd_agree_on_smooth_objective(self):
        def obj_t(x: Tensor) -> Tensor:
            return (x * x * x).sin() + x * 0.5

        def obj_f(x: float) -> float:
            return float(np.sin(x ** 3) + 0.5 * x)

        x0 = 0.7
        t = Tensor(np.array(x0), requires_grad=True)
        obj_t(t).backward()
        fd = finite_difference_gradient(obj_f, x0, eps=1e-6)
        assert float(t.grad) == pytest.approx(fd, rel=1e-5)


def _material_sim(seed=0):
    fc = FeatureConfig(connectivity_radius=0.4, history=2,
                       bounds=np.array([[0.0, 2.0], [0.0, 1.0]]),
                       use_material=True, dim=2)
    nc = GNSNetworkConfig(latent_size=8, mlp_hidden_size=8, mlp_hidden_layers=1,
                          message_passing_steps=1)
    return LearnedSimulator(fc, nc, rng=np.random.default_rng(seed))


def _column_history(n=8, seed=0):
    rng = np.random.default_rng(seed)
    base = np.stack([rng.uniform(0.15, 0.4, n), rng.uniform(0.15, 0.4, n)], axis=1)
    return np.stack([base, base + 0.001, base + 0.002])


class TestRunoutInverseProblem:
    def test_requires_material_feature(self):
        fc = FeatureConfig(connectivity_radius=0.4, history=2, dim=2)
        sim = LearnedSimulator(fc, GNSNetworkConfig(
            latent_size=8, mlp_hidden_size=8, mlp_hidden_layers=1,
            message_passing_steps=1))
        with pytest.raises(ValueError):
            RunoutInverseProblem(sim, _column_history(), 0.5, toe_x=0.4)

    def test_loss_zero_at_target_angle(self):
        sim = _material_sim()
        hist = _column_history()
        prob = RunoutInverseProblem(sim, hist, target_runout=0.0, toe_x=0.4,
                                    rollout_steps=3, temperature=1e-4)
        target = prob.target_from_angle(30.0)
        prob.target_runout = target
        # soft runout at tiny temperature ≈ hard runout → near-zero loss
        loss = float(prob.loss(Tensor(np.array(30.0))).data)
        assert loss < 1e-6

    def test_gradient_flows_through_rollout(self):
        sim = _material_sim()
        prob = RunoutInverseProblem(sim, _column_history(), target_runout=0.3,
                                    toe_x=0.4, rollout_steps=3)
        phi = Tensor(np.array(35.0), requires_grad=True)
        prob.loss(phi).backward()
        assert phi.grad is not None and np.isfinite(float(phi.grad))

    def test_ad_gradient_matches_finite_difference(self):
        sim = _material_sim()
        prob = RunoutInverseProblem(sim, _column_history(), target_runout=0.3,
                                    toe_x=0.4, rollout_steps=2)
        phi0 = 33.0
        t = Tensor(np.array(phi0), requires_grad=True)
        prob.loss(t).backward()

        def obj(phi):
            from repro.autodiff import no_grad
            with no_grad():
                return float(prob.loss(Tensor(np.array(phi))).data)

        fd = finite_difference_gradient(obj, phi0, eps=1e-3)
        assert float(t.grad) == pytest.approx(fd, rel=1e-3, abs=1e-9)

    def test_evaluate_reports_diagnostics(self):
        sim = _material_sim()
        prob = RunoutInverseProblem(sim, _column_history(), target_runout=0.1,
                                    toe_x=0.4, rollout_steps=2)
        out = prob.evaluate(30.0)
        assert set(out) == {"phi", "hard_runout", "soft_runout", "target_runout"}
        assert np.isfinite(out["soft_runout"])


def _steady_problem() -> RunoutInverseProblem:
    return RunoutInverseProblem(steady_material_sim(), steady_seed_frames(),
                                target_runout=0.3, toe_x=0.5,
                                rollout_steps=6)


class _Stop(Exception):
    pass


class TestInversionTape:
    """Each gradient-descent iteration differentiates only φ and frees
    its tape in the backward; values nobody differentiates are computed
    without a tape."""

    @staticmethod
    def _iterations(prob, count):
        def callback(it, phi, loss, grad):
            if it + 1 == count:
                raise _Stop
        with pytest.raises(_Stop):
            prob.solve(40.0, max_iterations=count + 1, callback=callback)

    def test_consecutive_iterations_hold_one_tape(self):
        prob = _steady_problem()
        self._iterations(prob, 1)            # warm caches outside the trace
        one = traced_peak(lambda: self._iterations(prob, 1))
        two = traced_peak(lambda: self._iterations(prob, 2))
        # with iteration 1's tape alive while iteration 2 records its own
        # this ratio is ~1.9; freed in the backward it stays ~1.0
        assert two <= 1.25 * one

    def test_phi_gradient_bitwise_equal_to_full_backward(self):
        prob = _steady_problem()
        record = prob.solve(40.0, max_iterations=3)
        for phi, grad in zip(record.parameters, record.gradients[:-1]):
            t = Tensor(np.array(phi), requires_grad=True)
            prob.loss(t).backward()
            assert float(t.grad) == grad

    def test_solve_leaves_simulator_grads_unchanged(self):
        prob = _steady_problem()
        params = list(prob.simulator.parameters())
        for i, p in enumerate(params):
            p.grad = None if i % 2 else np.full(p.shape, 3.0)
        before = [p.grad for p in params]
        prob.solve(40.0, max_iterations=2)
        for p, g in zip(params, before):
            assert p.grad is g
            if g is not None:
                assert np.all(g == 3.0)

    def test_final_objective_records_no_tape(self):
        prob = _steady_problem()
        returned = []

        def objective(phi):
            out = prob.loss(phi)
            returned.append(out)
            return out

        record = GradientDescentInverter(objective, lr="auto").solve(
            40.0, max_iterations=2)
        assert len(returned) == 3 and record.iterations == 2
        final = returned[-1]
        assert final._backward_fn is None and not final.requires_grad
        taped = prob.loss(Tensor(np.array(record.parameters[-1]),
                                 requires_grad=True))
        assert taped._backward_fn is not None
        assert record.losses[-1] == float(taped.data)

    def test_evaluate_records_no_tape(self):
        prob = _steady_problem()
        returned = []
        simulated = prob.simulated_runout

        def spy(phi):
            out = simulated(phi)
            returned.append(out)
            return out

        prob.simulated_runout = spy
        out = prob.evaluate(33.0)
        assert len(returned) == 1
        assert returned[0]._backward_fn is None
        assert not returned[0].requires_grad
        taped = simulated(Tensor(np.array(33.0), requires_grad=True))
        assert out["soft_runout"] == float(taped.data)
