"""Telemetry sessions: JSONL event export plus run manifests.

A :class:`TelemetrySession` brackets one run (a CLI invocation, a
benchmark, a training job). While open it enables the process-global
tracer and metrics registry (restoring their prior state at the end),
buffers free-form events and health findings, and on :meth:`finish`
writes two artifacts into its directory:

* ``telemetry.jsonl`` — one JSON object per line: span aggregates,
  metric states, health events, and free-form events, each tagged with
  a ``kind``. Diffable, greppable, and small (aggregates, not raw
  per-step samples).
* ``manifest.json`` — everything needed to reproduce and compare the
  run: command, config, seed, git SHA, dtype, package versions,
  platform, wall time, and caller-supplied summary stats.

Usage::

    with TelemetrySession(out_dir, command="rollout",
                          config=vars(args)) as session:
        ...run, record metrics...
        session.finish(summary={"steps_per_sec": sps})
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from pathlib import Path

from .health import HealthEvent, HealthReport
from .metrics import MetricsRegistry, get_registry
from .trace import Tracer, get_tracer

__all__ = ["TelemetrySession", "current_session", "git_sha",
           "read_telemetry", "read_telemetry_tolerant", "read_manifest"]

SCHEMA_VERSION = 1

#: the most recently opened, not-yet-finished session (or None) — lets
#: deep subsystems (pool dispatch, resilience retries) attach events to
#: whatever run is active without threading a session handle through
#: every call signature
_CURRENT: "TelemetrySession | None" = None


def current_session() -> "TelemetrySession | None":
    """The innermost active :class:`TelemetrySession`, if any."""
    return _CURRENT


def git_sha(cwd: str | Path | None = None) -> str | None:
    """HEAD commit of the enclosing repo, or None outside one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd else Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _jsonable(value):
    """Best-effort conversion to JSON-serializable types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") \
            else repr(value)
    if hasattr(value, "tolist"):          # numpy array OR numpy scalar
        return _jsonable(value.tolist())
    if hasattr(value, "item"):            # other 0-d array-likes
        return _jsonable(value.item())
    return repr(value)


class TelemetrySession:
    """One run's telemetry scope; writes JSONL + manifest on finish."""

    def __init__(self, directory: str | Path, command: str = "",
                 config: dict | None = None, seed: int | None = None,
                 dtype: str | None = None,
                 tracer: Tracer | None = None,
                 registry: MetricsRegistry | None = None,
                 enable_global: bool = True):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.config = config or {}
        self.seed = seed
        self.dtype = dtype
        self.tracer = tracer if tracer is not None else get_tracer()
        self.registry = registry if registry is not None else get_registry()
        self._extra_tracers: list[tuple[str, Tracer, dict | None]] = []
        self._events: list[dict] = []
        self._health: list[HealthEvent] = []
        self._summary: dict = {}
        self._started_wall = time.time()
        self._t0 = time.perf_counter()
        self._finished = False
        self._restore: tuple[bool, bool] | None = None
        self._profilers: list = []
        self._prev_session: "TelemetrySession | None" = None
        if enable_global:
            g_tracer, g_reg = get_tracer(), get_registry()
            self._restore = (g_tracer.enabled, g_reg.enabled)
            g_tracer.enable()
            g_reg.enable()
        global _CURRENT
        self._prev_session = _CURRENT
        _CURRENT = self

    # ------------------------------------------------------------------
    @property
    def telemetry_path(self) -> Path:
        return self.directory / "telemetry.jsonl"

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    # ------------------------------------------------------------------
    def event(self, name: str, **fields) -> None:
        """Buffer a free-form event row."""
        row = {"kind": "event", "name": name, "t": round(self.elapsed(), 6)}
        row.update(_jsonable(fields))
        self._events.append(row)

    def record_health(self, finding) -> None:
        """Attach a :class:`HealthEvent` or a whole :class:`HealthReport`."""
        if isinstance(finding, HealthReport):
            self._health.extend(finding.events)
        else:
            self._health.append(finding)

    def add_tracer(self, tracer: Tracer, prefix: str = "",
                   since: dict | None = None) -> None:
        """Also export spans from a private tracer (e.g. the inference
        engine's), optionally path-prefixed and scoped to a snapshot."""
        self._extra_tracers.append((prefix, tracer, since))

    def add_profiler(self, profiler) -> None:
        """Export op rows from a :class:`~repro.obs.deep.TapeProfiler`
        (anything with a ``rows() -> list[dict]`` method) on finish."""
        self._profilers.append(profiler)

    # ------------------------------------------------------------------
    def _span_rows(self) -> list[dict]:
        rows = []
        sources = [("", self.tracer, None)] + self._extra_tracers
        seen = set()
        for prefix, tracer, since in sources:
            if id(tracer) in seen and not prefix:
                continue
            seen.add(id(tracer))
            for path, stats in tracer.stats(since=since).items():
                full = f"{prefix.rstrip('/')}/{path}" if prefix else path
                rows.append({"kind": "span", "path": full,
                             "total": stats["total"], "count": stats["count"],
                             "mean": stats["mean"], "min": stats["min"],
                             "max": stats["max"]})
        return rows

    def _collect_rows(self) -> list[dict]:
        rows: list[dict] = []
        rows.extend(self._span_rows())
        rows.extend(self.registry.collect())
        for profiler in self._profilers:
            rows.extend(profiler.rows())
        rows.extend(e.as_row() for e in self._health)
        rows.extend(self._events)
        return rows

    def flush(self) -> Path:
        """Rewrite ``telemetry.jsonl`` with the current state *without*
        closing the session — crash insurance for processes that may be
        terminated without cleanup (pool workers under ``terminate()``)."""
        rows = self._collect_rows()
        with open(self.telemetry_path, "w") as f:
            for row in rows:
                f.write(json.dumps(_jsonable(row)) + "\n")
        return self.telemetry_path

    def finish(self, summary: dict | None = None) -> Path:
        """Write ``telemetry.jsonl`` + ``manifest.json``; restore global
        telemetry state. Idempotent (later calls rewrite the files)."""
        if summary:
            self._summary.update(summary)
        rows = self._collect_rows()
        with open(self.telemetry_path, "w") as f:
            for row in rows:
                f.write(json.dumps(_jsonable(row)) + "\n")

        manifest = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "argv": list(sys.argv),
            "config": _jsonable(self.config),
            "seed": self.seed,
            "dtype": self.dtype,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "platform": platform.platform(),
            "started_at": time.strftime(
                "%Y-%m-%dT%H:%M:%S%z", time.localtime(self._started_wall)),
            "elapsed_seconds": round(self.elapsed(), 6),
            "num_rows": len(rows),
            "health": {
                "events": len(self._health),
                "errors": sum(1 for e in self._health
                              if e.severity == "error"),
                "warnings": sum(1 for e in self._health
                                if e.severity == "warning"),
            },
            "summary": _jsonable(self._summary),
        }
        self.manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")

        if not self._finished:
            if self._restore is not None:
                get_tracer().enabled, get_registry().enabled = self._restore
            global _CURRENT
            if _CURRENT is self:
                _CURRENT = self._prev_session
        self._finished = True
        return self.telemetry_path

    # ------------------------------------------------------------------
    def __enter__(self) -> "TelemetrySession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.event("exception", type=getattr(exc_type, "__name__", "?"),
                       message=str(exc))
        if not self._finished:
            self.finish()
        return False


def _numpy_version() -> str | None:
    try:
        import numpy
        return numpy.__version__
    except ImportError:                            # pragma: no cover
        return None


# ----------------------------------------------------------------------
# readers
# ----------------------------------------------------------------------
def read_telemetry(path: str | Path) -> list[dict]:
    """Parse a ``telemetry.jsonl`` (or a directory containing one)."""
    path = Path(path)
    if path.is_dir():
        path = path / "telemetry.jsonl"
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def read_telemetry_tolerant(path: str | Path) -> tuple[list[dict], int]:
    """Like :func:`read_telemetry`, but skips unparseable lines.

    Crash-killed runs (``pool.terminate()``, OOM) leave truncated
    trailing JSONL lines; a summary of a damaged run is more useful
    than a traceback. Returns ``(rows, skipped_line_count)``.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "telemetry.jsonl"
    rows: list[dict] = []
    skipped = 0
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(row, dict):
                rows.append(row)
            else:
                skipped += 1
    return rows, skipped


def read_manifest(path: str | Path) -> dict | None:
    """The ``manifest.json`` next to a telemetry file, if present."""
    path = Path(path)
    candidate = path / "manifest.json" if path.is_dir() \
        else path.parent / "manifest.json"
    if path.name == "manifest.json":
        candidate = path
    if not candidate.exists():
        return None
    return json.loads(candidate.read_text())
