"""The paper's inverse problem (Section 5): identify the friction angle φ
whose k-step GNS rollout reproduces a target runout distance.

Loss:  J(φ) = (L_f^{φ_target} − L_f^{φ})²

∂J/∂φ is computed by reverse-mode AD through the *entire* rollout — the
capability classical forward simulators lack. Following the paper, the
differentiable forward pass is truncated to k steps (k = 30 in the paper,
for memory reasons) and the target runout is defined at step k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import Tensor, no_grad
from ..gns.simulator import LearnedSimulator
from .optimizers import FiniteDifferenceInverter, GradientDescentInverter, InversionRecord
from .runout import hard_runout, soft_runout

__all__ = ["RunoutInverseProblem"]


@dataclass
class RunoutInverseProblem:
    """Friction-angle identification from a target runout.

    Parameters
    ----------
    simulator:
        A :class:`LearnedSimulator` trained **with the material feature**
        (``FeatureConfig.use_material=True``).
    initial_history:
        ``(C+1, n, d)`` seed frames (e.g. MPM warm-up of the column).
    target_runout:
        L_f^{φ_target} at step ``rollout_steps`` (use
        :meth:`target_from_angle` to generate it with the same simulator).
    toe_x:
        Initial toe position the runout is measured from.
    rollout_steps:
        k — differentiable forward-pass length (paper: 30).
    """

    simulator: LearnedSimulator
    initial_history: np.ndarray
    target_runout: float
    toe_x: float
    rollout_steps: int = 30
    temperature: float = 0.02

    def __post_init__(self):
        if not self.simulator.feature_config.use_material:
            raise ValueError("inverse problem needs a material-conditioned GNS "
                             "(FeatureConfig.use_material=True)")

    # ------------------------------------------------------------------
    def simulated_runout(self, phi: Tensor) -> Tensor:
        """Differentiable L_f^{φ}: rollout k steps, soft front of the last frame."""
        history = [Tensor(f) for f in self.initial_history]
        frames = self.simulator.rollout_differentiable(
            history, self.rollout_steps, material=phi)
        return soft_runout(frames[-1], self.toe_x, self.temperature)

    def loss(self, phi: Tensor) -> Tensor:
        """J(φ) = (L_target − L_f^{φ})²."""
        diff = self.simulated_runout(phi) - self.target_runout
        return diff * diff

    # ------------------------------------------------------------------
    def solve(self, phi0: float, lr: float | str = "auto",
              max_iterations: int = 20,
              bounds: tuple[float, float] = (5.0, 60.0),
              initial_step: float = 3.0,
              callback=None) -> InversionRecord:
        """Gradient-descent inversion via AD (the paper's method).

        ``lr="auto"`` self-calibrates the step so the first update moves φ
        by ``initial_step`` degrees (J is in m², so raw gradients are tiny).
        """
        inverter = GradientDescentInverter(self.loss, lr=lr, bounds=bounds,
                                           loss_tol=1e-12,
                                           auto_initial_step=initial_step)
        return inverter.solve(phi0, max_iterations=max_iterations,
                              callback=callback)

    def solve_finite_difference(self, phi0: float, lr: float = 500.0,
                                max_iterations: int = 20, eps: float = 0.5,
                                bounds: tuple[float, float] = (5.0, 60.0)
                                ) -> InversionRecord:
        """Baseline inversion with central differences (2 rollouts/gradient)."""

        def objective(phi: float) -> float:
            with no_grad():
                val = self.loss(Tensor(np.array(phi)))
            return float(val.data)

        inverter = FiniteDifferenceInverter(objective, lr=lr, eps=eps,
                                            bounds=bounds, loss_tol=1e-8)
        return inverter.solve(phi0, max_iterations=max_iterations)

    # ------------------------------------------------------------------
    def target_from_angle(self, phi_target: float) -> float:
        """Generate the target runout by rolling out the simulator at
        φ_target (the paper's Fig 5a target profile).

        Uses the same soft-front measurement as :meth:`simulated_runout`,
        so J(φ_target) = 0 exactly — the inverse problem is well-posed by
        construction. (May be negative early in a collapse, when the flow
        front has not yet passed the toe.)
        """
        with no_grad():
            frames = self.simulator.rollout(self.initial_history,
                                            self.rollout_steps,
                                            material=phi_target)
            return float(soft_runout(Tensor(frames[-1]), self.toe_x,
                                     self.temperature).data)

    def evaluate(self, phi: float) -> dict:
        """Non-differentiable diagnostics at φ."""
        with no_grad():
            frames = self.simulator.rollout(self.initial_history,
                                            self.rollout_steps, material=phi)
            soft = float(self.simulated_runout(Tensor(np.array(phi))).data)
        return {
            "phi": phi,
            "hard_runout": hard_runout(frames[-1], self.toe_x, quantile=1.0),
            "soft_runout": soft,
            "target_runout": self.target_runout,
        }
