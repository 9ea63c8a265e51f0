"""Scalar-parameter optimizers for inverse problems.

The paper uses plain gradient descent on the friction angle with the
gradient obtained by reverse-mode AD through the GNS rollout; a central
finite-difference baseline is provided for comparison (it costs two full
rollouts per gradient instead of one forward + one backward pass).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..autodiff import Tensor, no_grad
from ..obs import get_registry, span

__all__ = ["InversionRecord", "GradientDescentInverter", "finite_difference_gradient"]


def _record_iteration(method: str, it: int, x: float, loss: float,
                      grad: float) -> None:
    """Push one inversion iterate into the global metrics registry
    (no-op unless telemetry is enabled)."""
    reg = get_registry()
    if not reg.enabled:
        return
    reg.counter("inverse.iterations", method=method).inc()
    reg.series("inverse.loss", method=method).append(it, loss)
    reg.series("inverse.parameter", method=method).append(it, x)
    reg.series("inverse.gradient", method=method).append(it, grad)


@dataclass
class InversionRecord:
    """Trace of one inversion run."""

    parameters: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    gradients: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0

    @property
    def final_parameter(self) -> float:
        return self.parameters[-1]


def finite_difference_gradient(objective: Callable[[float], float],
                               x: float, eps: float = 1e-3) -> float:
    """Central-difference ∂objective/∂x — the trial-and-error baseline."""
    return (objective(x + eps) - objective(x - eps)) / (2.0 * eps)


class GradientDescentInverter:
    """Gradient descent on a scalar parameter.

    Parameters
    ----------
    objective:
        Maps a scalar Tensor (requires_grad) to a scalar loss Tensor.
        The AD tape supplies ∂J/∂x; the backward differentiates only x,
        so parameters the objective closes over keep their ``.grad``.
    lr: step size.
    bounds: optional (lo, hi) box projection after each step.
    grad_tol / loss_tol: convergence thresholds.
    """

    def __init__(self, objective: Callable[[Tensor], Tensor],
                 lr: float | str = 1.0,
                 bounds: tuple[float, float] | None = None,
                 grad_tol: float = 0.0, loss_tol: float = 1e-10,
                 max_grad: float | None = None,
                 auto_initial_step: float = 1.0):
        self.objective = objective
        self.lr = lr
        self.bounds = bounds
        self.grad_tol = grad_tol
        self.loss_tol = loss_tol
        self.max_grad = max_grad
        #: with ``lr="auto"``, the first update moves the parameter by
        #: exactly this much (the step size self-calibrates to the
        #: objective's scale — useful when J is in squared physical units)
        self.auto_initial_step = auto_initial_step

    def solve(self, x0: float, max_iterations: int = 20,
              callback: Callable[[int, float, float, float], None] | None = None
              ) -> InversionRecord:
        """Iterate from ``x0``; returns the full trace."""
        record = InversionRecord()
        x = float(x0)
        lr = self.lr
        for it in range(max_iterations):
            with span("inverse/iteration"):
                param = Tensor(np.array(x), requires_grad=True)
                with span("forward"):
                    loss = self.objective(param)
                with span("backward"):
                    loss.backward(inputs=[param])
                g = float(param.grad)
            if self.max_grad is not None:
                g = float(np.clip(g, -self.max_grad, self.max_grad))
            record.parameters.append(x)
            record.losses.append(float(loss.data))
            record.gradients.append(g)
            _record_iteration("gradient", it, x, float(loss.data), g)
            if callback is not None:
                callback(it, x, float(loss.data), g)
            if float(loss.data) < self.loss_tol or (
                    self.grad_tol > 0.0 and abs(g) < self.grad_tol):
                record.converged = True
                record.iterations = it + 1
                return record
            if lr == "auto":
                lr = self.auto_initial_step / (abs(g) + 1e-30)
            x = x - lr * g
            if self.bounds is not None:
                x = float(np.clip(x, *self.bounds))
        record.iterations = max_iterations
        # record the final parameter reached
        record.parameters.append(x)
        with no_grad():
            final = self.objective(Tensor(np.array(x)))
        record.losses.append(float(final.data))
        record.gradients.append(float("nan"))
        return record


class FiniteDifferenceInverter:
    """Same loop with central-difference gradients (baseline, 2 rollouts/iter)."""

    def __init__(self, objective: Callable[[float], float], lr: float = 1.0,
                 eps: float = 1e-3, bounds: tuple[float, float] | None = None,
                 grad_tol: float = 0.0, loss_tol: float = 1e-10):
        self.objective = objective
        self.lr = lr
        self.eps = eps
        self.bounds = bounds
        self.grad_tol = grad_tol
        self.loss_tol = loss_tol

    def solve(self, x0: float, max_iterations: int = 20) -> InversionRecord:
        record = InversionRecord()
        x = float(x0)
        for it in range(max_iterations):
            with span("inverse/iteration"):
                loss = self.objective(x)
                g = finite_difference_gradient(self.objective, x, self.eps)
            record.parameters.append(x)
            record.losses.append(loss)
            record.gradients.append(g)
            _record_iteration("fd", it, x, loss, g)
            if loss < self.loss_tol or (self.grad_tol > 0.0
                                        and abs(g) < self.grad_tol):
                record.converged = True
                record.iterations = it + 1
                return record
            x = x - self.lr * g
            if self.bounds is not None:
                x = float(np.clip(x, *self.bounds))
        record.iterations = max_iterations
        record.parameters.append(x)
        record.losses.append(self.objective(x))
        record.gradients.append(float("nan"))
        return record
