"""Physics health monitors: structured watchdogs for learned rollouts.

A learned surrogate fails differently from a physics solver: instead of
crashing it silently produces garbage — NaNs, exploding velocities,
energy gained from nowhere, drift away from the reference physics. The
monitors here sample a trajectory (or watch a rollout in flight) and
raise *structured* warnings (:class:`HealthEvent`) that telemetry can
export, instead of letting bad frames flow downstream unremarked.

Monitors reuse the repo's existing physics diagnostics
(:mod:`repro.analysis.energy`, :mod:`repro.hybrid.metrics`) — imported
lazily so :mod:`repro.obs` stays importable on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["HealthEvent", "HealthReport", "HealthMonitor", "NaNMonitor",
           "VelocityExplosionMonitor", "EnergyGainMonitor",
           "MomentumDriftMonitor", "DivergenceMonitor", "check_trajectory",
           "check_loss_curve", "default_monitors", "RolloutDivergedError"]


@dataclass
class HealthEvent:
    """One structured finding from a monitor."""

    monitor: str
    severity: str                       # "warning" | "error"
    step: int                           # frame index the finding anchors to
    message: str
    data: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        return {"kind": "health", "monitor": self.monitor,
                "severity": self.severity, "step": self.step,
                "message": self.message, "data": self.data}


@dataclass
class HealthReport:
    """All events from one :func:`check_trajectory` pass."""

    events: list = field(default_factory=list)
    frames_checked: int = 0
    monitors_run: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.events

    @property
    def errors(self) -> list:
        return [e for e in self.events if e.severity == "error"]

    @property
    def warnings(self) -> list:
        return [e for e in self.events if e.severity == "warning"]

    def triggered(self, monitor: str | None = None) -> bool:
        if monitor is None:
            return bool(self.events)
        return any(e.monitor == monitor for e in self.events)


class RolloutDivergedError(RuntimeError):
    """A rollout produced non-finite or physically-absurd state.

    Raised by the in-flight guards in
    :meth:`repro.gns.InferenceEngine.rollout` and
    :meth:`repro.gns.LearnedSimulator.rollout` so callers get the step
    index, offending particle count, and the good frames produced so
    far, instead of a full trajectory of garbage.
    """

    def __init__(self, step: int, reason: str, bad_particles: int,
                 max_velocity: float, frames: np.ndarray | None = None):
        self.step = int(step)
        self.reason = reason                      # "non-finite" | "velocity"
        self.bad_particles = int(bad_particles)
        self.max_velocity = float(max_velocity)
        self.frames = frames                      # good frames incl. seed
        super().__init__(
            f"rollout diverged at step {self.step}: {reason} "
            f"({self.bad_particles} particles affected, "
            f"max |v| = {self.max_velocity:.3e})")

    @property
    def diagnostic(self) -> dict:
        return {"step": self.step, "reason": self.reason,
                "bad_particles": self.bad_particles,
                "max_velocity": self.max_velocity}

    def as_event(self) -> HealthEvent:
        return HealthEvent(monitor="rollout_guard", severity="error",
                           step=self.step, message=str(self),
                           data=self.diagnostic)


# ----------------------------------------------------------------------
# monitors
# ----------------------------------------------------------------------
class HealthMonitor:
    """Base class: scan a full trajectory, yield events.

    Subclasses implement :meth:`scan`; ``name`` keys the events. Custom
    monitors only need a ``name`` and a ``scan(frames, dt) ->
    list[HealthEvent]``.
    """

    name = "monitor"

    def scan(self, frames: np.ndarray, dt: float = 1.0) -> list[HealthEvent]:
        raise NotImplementedError


class NaNMonitor(HealthMonitor):
    """Flags the first frame containing NaN/Inf positions."""

    name = "nan"

    def scan(self, frames: np.ndarray, dt: float = 1.0) -> list[HealthEvent]:
        finite = np.isfinite(frames).all(axis=(1, 2))
        if finite.all():
            return []
        step = int(np.argmin(finite))
        bad = int((~np.isfinite(frames[step]).all(axis=-1)).sum())
        return [HealthEvent(
            monitor=self.name, severity="error", step=step,
            message=f"non-finite positions from frame {step} "
                    f"({bad} particles)",
            data={"bad_particles": bad,
                  "frames_affected": int((~finite).sum())})]


class VelocityExplosionMonitor(HealthMonitor):
    """Flags frames whose max per-particle displacement exceeds a limit.

    ``max_velocity`` is in displacement-per-frame units (the GNS's
    native velocity); default scales off the trajectory's own early
    motion: ``factor ×`` the 95th-percentile speed of the first frames.
    """

    name = "velocity"

    def __init__(self, max_velocity: float | None = None,
                 factor: float = 25.0):
        self.max_velocity = max_velocity
        self.factor = factor

    def scan(self, frames: np.ndarray, dt: float = 1.0) -> list[HealthEvent]:
        if frames.shape[0] < 2:
            return []
        speed = np.linalg.norm(np.diff(frames, axis=0), axis=-1)  # (T-1, n)
        with np.errstate(invalid="ignore"):
            limit = self.max_velocity
            if limit is None:
                early = speed[: max(2, speed.shape[0] // 8)]
                early = early[np.isfinite(early)]
                if early.size == 0:
                    return []
                limit = self.factor * max(float(np.percentile(early, 95.0)),
                                          1e-12)
            per_frame = np.where(np.isfinite(speed), speed, np.inf).max(axis=1)
            hot = per_frame > limit
        if not hot.any():
            return []
        step = int(np.argmax(hot)) + 1
        count = int((speed[step - 1] > limit).sum()
                    + (~np.isfinite(speed[step - 1])).sum())
        finite = speed[step - 1][np.isfinite(speed[step - 1])]
        vmax = float(finite.max()) if finite.size else float("nan")
        return [HealthEvent(
            monitor=self.name, severity="error", step=step,
            message=f"velocity explosion at frame {step}: max |v| "
                    f"{vmax:.3e} > limit {limit:.3e} ({count} particles)",
            data={"max_velocity": vmax, "limit": float(limit),
                  "bad_particles": count,
                  "frames_affected": int(hot.sum())})]


class EnergyGainMonitor(HealthMonitor):
    """Flags frames where total energy *increases* — thermodynamically
    impossible for the passive systems simulated here. Wraps
    :func:`repro.analysis.energy.energy_gain_events`."""

    name = "energy"

    def __init__(self, masses: np.ndarray | None = None,
                 gravity: float = 9.81, tolerance: float = 0.02):
        self.masses = masses
        self.gravity = gravity
        self.tolerance = tolerance

    def scan(self, frames: np.ndarray, dt: float = 1.0) -> list[HealthEvent]:
        from ..analysis.energy import energy_gain_events

        if frames.shape[0] < 3 or not np.isfinite(frames).all():
            return []        # NaNMonitor owns the non-finite case
        masses = (self.masses if self.masses is not None
                  else np.ones(frames.shape[1]))
        events = energy_gain_events(frames, masses, dt, gravity=self.gravity,
                                    tolerance=self.tolerance)
        if events.size == 0:
            return []
        return [HealthEvent(
            monitor=self.name, severity="warning", step=int(events[0]),
            message=f"total energy increased at {events.size} frames "
                    f"(first: {int(events[0])}) — surrogate is injecting "
                    "energy",
            data={"frames": [int(e) for e in events[:16]],
                  "num_events": int(events.size),
                  "tolerance": self.tolerance})]


class MomentumDriftMonitor(HealthMonitor):
    """Flags jumps in total-momentum change between consecutive frames
    (conservation-violation proxy needing no ground truth). Wraps
    :func:`repro.hybrid.metrics.momentum_drift`."""

    name = "momentum"

    def __init__(self, threshold: float | None = None, factor: float = 20.0):
        self.threshold = threshold
        self.factor = factor

    def scan(self, frames: np.ndarray, dt: float = 1.0) -> list[HealthEvent]:
        from ..hybrid.metrics import momentum_drift

        if frames.shape[0] < 4 or not np.isfinite(frames).all():
            return []
        drift = momentum_drift(frames)
        threshold = self.threshold
        if threshold is None:
            early = drift[: max(2, drift.shape[0] // 8)]
            threshold = self.factor * max(float(np.median(early)), 1e-15)
        hot = drift > threshold
        if not hot.any():
            return []
        step = int(np.argmax(hot)) + 2
        return [HealthEvent(
            monitor=self.name, severity="warning", step=step,
            message=f"momentum drift spike at frame {step}: "
                    f"{float(drift[step - 2]):.3e} > {threshold:.3e}",
            data={"drift": float(drift[step - 2]),
                  "threshold": float(threshold),
                  "frames_affected": int(hot.sum())})]


class DivergenceMonitor(HealthMonitor):
    """Flags where a rollout drifts from a reference trajectory (e.g.
    GNS vs MPM ground truth) beyond a displacement threshold. Wraps
    :func:`repro.hybrid.metrics.displacement_error`."""

    name = "divergence"

    def __init__(self, reference: np.ndarray, threshold: float):
        self.reference = np.asarray(reference, dtype=np.float64)
        self.threshold = float(threshold)

    def scan(self, frames: np.ndarray, dt: float = 1.0) -> list[HealthEvent]:
        from ..hybrid.metrics import displacement_error

        err = displacement_error(frames, self.reference)
        with np.errstate(invalid="ignore"):
            hot = ~np.isfinite(err) | (err > self.threshold)
        if not hot.any():
            return []
        step = int(np.argmax(hot))
        value = float(err[step])
        return [HealthEvent(
            monitor=self.name, severity="warning", step=step,
            message=f"diverged from reference at frame {step}: mean "
                    f"displacement error {value:.3e} > {self.threshold:.3e}",
            data={"error": value, "threshold": self.threshold,
                  "frames_affected": int(hot.sum()),
                  "final_error": float(err[-1])})]


# ----------------------------------------------------------------------
def default_monitors(reference: np.ndarray | None = None,
                     divergence_threshold: float | None = None
                     ) -> list[HealthMonitor]:
    """The standard watchdog set: NaN, velocity explosion, energy gain,
    momentum drift, plus reference divergence when a ground truth is
    available."""
    monitors: list[HealthMonitor] = [
        NaNMonitor(), VelocityExplosionMonitor(), EnergyGainMonitor(),
        MomentumDriftMonitor(),
    ]
    if reference is not None:
        if divergence_threshold is None:
            span = np.asarray(reference)
            scale = float(np.nanmax(span) - np.nanmin(span)) or 1.0
            divergence_threshold = 0.1 * scale
        monitors.append(DivergenceMonitor(reference, divergence_threshold))
    return monitors


def check_trajectory(frames: np.ndarray,
                     monitors: list[HealthMonitor] | None = None,
                     dt: float = 1.0) -> HealthReport:
    """Run every monitor over a recorded ``(T, n, d)`` trajectory."""
    frames = np.asarray(frames, dtype=np.float64)
    if monitors is None:
        monitors = default_monitors()
    report = HealthReport(frames_checked=int(frames.shape[0]),
                          monitors_run=[m.name for m in monitors])
    for monitor in monitors:
        report.events.extend(monitor.scan(frames))
    return report


def check_loss_curve(losses, divergence_factor: float = 3.0) -> HealthReport:
    """Health-check a training loss trace (one value per optimizer step).

    Two findings: a non-finite loss anywhere (error — the run is
    producing garbage gradients), and a diverging trend where the mean of
    the final quarter exceeds ``divergence_factor``× the mean of the
    first quarter (warning). Used by the shared trainer's telemetry path;
    ``step`` on each event is the optimizer-step index.
    """
    arr = np.asarray(list(losses), dtype=np.float64)
    report = HealthReport(frames_checked=int(arr.size),
                          monitors_run=["nonfinite_loss", "loss_divergence"])
    if arr.size == 0:
        return report
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        first = int(bad[0])
        report.events.append(HealthEvent(
            monitor="nonfinite_loss", severity="error", step=first,
            message=f"non-finite training loss at step {first} "
                    f"({bad.size} total)",
            data={"count": int(bad.size)}))
    if arr.size >= 8:
        q = arr.size // 4
        head = float(np.nanmean(arr[:q]))
        tail = float(np.nanmean(arr[-q:]))
        if np.isfinite(head) and np.isfinite(tail) and head > 0.0 \
                and tail > divergence_factor * head:
            report.events.append(HealthEvent(
                monitor="loss_divergence", severity="warning",
                step=int(arr.size - 1),
                message=f"loss diverging: tail mean {tail:.3e} > "
                        f"{divergence_factor:g}x head mean {head:.3e}",
                data={"head_mean": head, "tail_mean": tail}))
    return report
