"""Gradient checkpointing for differentiable GNS rollouts.

The paper (§5) reports that reverse-mode AD through a full rollout
"requires extensive memory capacity … not feasible in the currently
available GPU memory (40 GB)", which forces k = 30 steps on CPU. Segment
checkpointing removes that limit: the forward pass stores only the
C+1-frame window at each segment boundary, and the backward pass re-runs
one segment at a time, so peak tape memory is O(segment_length) instead
of O(num_steps) while the gradient stays *exactly* equal to the
full-tape result (recomputation, not approximation).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..autodiff import Tensor, no_grad
from .simulator import LearnedSimulator

__all__ = ["checkpointed_rollout_gradient"]


def _run_segment(sim: LearnedSimulator, window: list[Tensor],
                 material: Tensor | None, steps: int) -> list[Tensor]:
    frames = list(window)
    for _ in range(steps):
        frames.append(sim.step(frames[-(sim.feature_config.history + 1):],
                               material))
    return frames


def checkpointed_rollout_gradient(
    simulator: LearnedSimulator,
    initial_history: np.ndarray,
    num_steps: int,
    material: float | None,
    loss_fn: Callable[[Tensor], Tensor],
    segment_length: int = 10,
) -> tuple[float, float | None, np.ndarray]:
    """Loss and gradients of ``loss_fn(final_frame)`` with O(segment) memory.

    Parameters
    ----------
    initial_history: ``(C+1, n, d)`` seed frames.
    num_steps: rollout length (may vastly exceed what a full tape allows).
    material: scalar material parameter (or None when the featurizer does
        not use one).
    loss_fn: maps the final frame Tensor ``(n, d)`` to a scalar Tensor.
    segment_length: steps re-taped per backward segment.

    Returns
    -------
    (loss_value, dloss/dmaterial or None, dloss/dseed ``(C+1, n, d)``)
    """
    if segment_length < 1:
        raise ValueError("segment_length must be >= 1")
    c = simulator.feature_config.history
    window_len = c + 1
    seed = np.asarray(initial_history, dtype=np.float64)
    if seed.shape[0] != window_len:
        raise ValueError(f"initial_history must have {window_len} frames")

    # ------- forward: checkpoint the window at each segment boundary -----
    boundaries: list[np.ndarray] = [seed.copy()]
    segment_steps: list[int] = []
    remaining = num_steps
    window = [seed[i] for i in range(window_len)]
    with no_grad():
        while remaining > 0:
            steps = min(segment_length, remaining)
            frames = _run_segment(simulator,
                                  [Tensor(f) for f in window], None
                                  if material is None else Tensor(np.array(material)),
                                  steps)
            window = [f.data for f in frames[-window_len:]]
            boundaries.append(np.stack(window, axis=0))
            segment_steps.append(steps)
            remaining -= steps

    # ------- backward: re-tape one segment at a time ---------------------
    material_grad = 0.0 if material is not None else None
    lambda_window: list[np.ndarray] | None = None  # adjoint of the window
    loss_value = 0.0

    for seg in range(len(segment_steps) - 1, -1, -1):
        if lambda_window is not None and not any(np.any(lam)
                                                 for lam in lambda_window):
            # zero adjoint: nothing flows into the earlier segments
            lambda_window = [np.zeros_like(boundaries[seg][i])
                             for i in range(window_len)]
            continue
        in_frames = [Tensor(boundaries[seg][i].copy(), requires_grad=True)
                     for i in range(window_len)]
        mat_leaf = None if material is None else \
            Tensor(np.array(material), requires_grad=True)
        frames = _run_segment(simulator, in_frames, mat_leaf,
                              segment_steps[seg])
        out_window = frames[-window_len:]

        if seg == len(segment_steps) - 1:
            objective = loss_fn(out_window[-1])
            loss_value = float(objective.data)
        else:
            objective = None
            for frame, lam in zip(out_window, lambda_window):
                if not np.any(lam):
                    continue
                term = (frame * Tensor(lam)).sum()
                objective = term if objective is None else objective + term
        # the backward consumes this segment's tape, so it is freed before
        # the next segment is re-taped (one segment's tape alive at a time)
        leaves = in_frames if mat_leaf is None else in_frames + [mat_leaf]
        objective.backward(inputs=leaves)

        if mat_leaf is not None and mat_leaf.grad is not None:
            material_grad += float(mat_leaf.grad)
        lambda_window = [
            f.grad if f.grad is not None else np.zeros_like(f.data)
            for f in in_frames
        ]

    seed_grad = np.stack(lambda_window, axis=0)
    return loss_value, material_grad, seed_grad
