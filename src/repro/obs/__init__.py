"""repro.obs — unified, zero-dependency telemetry.

The measurement layer the paper's quantitative claims rest on:

* :mod:`~repro.obs.trace` — nestable tracing spans with a strict no-op
  fast path (``with obs.span("encode")``); aggregates wall time, call
  counts, and parent/child structure.
* :mod:`~repro.obs.metrics` — a registry of labeled counters, gauges,
  fixed-bucket histograms, and series (loss curves, steps/sec,
  edges-per-graph, cache hit rates).
* :mod:`~repro.obs.session` — :class:`TelemetrySession` exports one
  ``telemetry.jsonl`` + ``manifest.json`` (config, seed, git SHA,
  dtype, summary stats) per run, making runs reproducible and diffable.
* :mod:`~repro.obs.health` — pluggable physics watchdogs (NaN/Inf,
  velocity explosion, energy gain, momentum drift, GNS-vs-MPM
  divergence) raising structured :class:`HealthEvent` findings instead
  of letting garbage trajectories flow through silently.
* :mod:`~repro.obs.profiling` — :func:`profile_block`, a cProfile
  context manager for hotspot listings (``--profile``).
* :mod:`~repro.obs.deep` — op-level tape profiling (span → op cost
  trees via the ``Tensor._make`` hook) and deterministic merging of
  per-worker telemetry shards into one labeled timeline.
* :mod:`~repro.obs.report` — self-contained HTML flame chart + op
  table + metric percentiles from any telemetry dir
  (``repro telemetry report``), with a terminal fallback.

Global telemetry is **off by default**; ``obs.enable()`` (or opening a
:class:`TelemetrySession`) turns on the process-global tracer and
registry. See ``docs/observability.md``.
"""

from .health import (
    DivergenceMonitor, EnergyGainMonitor, HealthEvent, HealthMonitor,
    HealthReport, MomentumDriftMonitor, NaNMonitor, RolloutDivergedError,
    VelocityExplosionMonitor, check_loss_curve, check_trajectory,
    default_monitors,
)
from .deep import (
    TapeProfiler, format_op_tree, merge_worker_telemetry, op_tree,
    profiled_rollout,
)
from .metrics import (
    Counter, Gauge, Histogram, MetricsRegistry, Series, disable_metrics,
    enable_metrics, get_registry, percentile_from_row, reset_metrics,
)
from .profiling import profile_block, top_functions
from .report import render_html, render_text, write_report
from .session import (
    TelemetrySession, current_session, git_sha, read_manifest,
    read_telemetry, read_telemetry_tolerant,
)
from .summarize import summarize_telemetry
from .trace import (
    NULL_SPAN, Span, Tracer, disable_tracing, enable_tracing, get_tracer,
    reset_tracing, span, tracing_enabled,
)

__all__ = [
    # trace
    "NULL_SPAN", "Span", "Tracer", "get_tracer", "span", "enable_tracing",
    "disable_tracing", "reset_tracing", "tracing_enabled",
    # metrics
    "Counter", "Gauge", "Histogram", "Series", "MetricsRegistry",
    "get_registry", "enable_metrics", "disable_metrics", "reset_metrics",
    "percentile_from_row",
    # session / export
    "TelemetrySession", "current_session", "git_sha", "read_telemetry",
    "read_telemetry_tolerant", "read_manifest", "summarize_telemetry",
    # deep profiling / merge
    "TapeProfiler", "profiled_rollout", "op_tree", "format_op_tree",
    "merge_worker_telemetry",
    # reports
    "render_html", "render_text", "write_report",
    # health
    "HealthEvent", "HealthReport", "HealthMonitor", "NaNMonitor",
    "VelocityExplosionMonitor", "EnergyGainMonitor", "MomentumDriftMonitor",
    "DivergenceMonitor", "check_trajectory", "check_loss_curve",
    "default_monitors", "RolloutDivergedError",
    # cProfile
    "profile_block", "top_functions",
    # umbrella switches
    "enable", "disable", "reset",
]


def enable() -> None:
    """Turn on the process-global tracer and metrics registry."""
    enable_tracing()
    enable_metrics()


def disable() -> None:
    """Turn global telemetry back off (aggregates are kept)."""
    disable_tracing()
    disable_metrics()


def reset() -> None:
    """Drop all global span aggregates and metrics."""
    reset_tracing()
    reset_metrics()
