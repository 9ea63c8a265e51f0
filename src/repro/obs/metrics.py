"""Metrics registry: counters, gauges, fixed-bucket histograms, series.

Labeled, get-or-create metric families::

    reg = MetricsRegistry()
    reg.counter("neighbor_cache.builds").inc()
    reg.gauge("rollout.steps_per_sec").set(412.0)
    reg.histogram("gns.edges_per_graph", buckets=(1e2, 1e3, 1e4)).observe(e)
    reg.series("train.loss").append(step, loss)

Metrics created from a disabled registry record nothing (a single branch
per call), so instrumentation left in hot code costs ~nothing when
telemetry is off. The process-global registry starts disabled; a
:class:`~repro.obs.session.TelemetrySession` (or ``obs.enable()``)
turns it on.
"""

from __future__ import annotations

import math
import threading

__all__ = ["Counter", "Gauge", "Histogram", "Series", "MetricsRegistry",
           "get_registry", "enable_metrics", "disable_metrics",
           "reset_metrics"]


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class _Metric:
    """Base: metrics know their registry so they can no-op when it is off."""

    kind = "metric"
    __slots__ = ("name", "labels", "_reg")

    def __init__(self, name: str, labels: dict, registry=None):
        self.name = name
        self.labels = dict(labels)
        self._reg = registry

    @property
    def _on(self) -> bool:
        return self._reg is None or self._reg.enabled

    def _payload(self) -> dict:
        raise NotImplementedError

    def as_row(self) -> dict:
        """One flat dict describing the metric (JSONL-exportable)."""
        row = {"kind": "metric", "type": self.kind, "name": self.name}
        if self.labels:
            row["labels"] = self.labels
        row.update(self._payload())
        return row


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: dict | None = None, registry=None):
        super().__init__(name, labels or {}, registry)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if self._on:
            self.value += amount

    def _payload(self) -> dict:
        return {"value": self.value}


class Gauge(_Metric):
    """Last-written value, with min/max/count of all writes."""

    kind = "gauge"
    __slots__ = ("value", "min", "max", "count")

    def __init__(self, name: str, labels: dict | None = None, registry=None):
        super().__init__(name, labels or {}, registry)
        self.value = None
        self.min = math.inf
        self.max = -math.inf
        self.count = 0

    def set(self, value: float) -> None:
        if not self._on:
            return
        value = float(value)
        self.value = value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def _payload(self) -> dict:
        if self.count == 0:
            return {"value": None, "count": 0}
        return {"value": self.value, "min": self.min, "max": self.max,
                "count": self.count}


DEFAULT_BUCKETS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)


class Histogram(_Metric):
    """Fixed-bucket histogram.

    ``buckets`` are ascending upper edges; an observation lands in the
    first bucket whose edge is ``>= value`` (edge-inclusive), or in the
    overflow slot past the last edge. Counts are per-bin (not
    cumulative).
    """

    kind = "histogram"
    __slots__ = ("buckets", "counts", "overflow", "sum", "count", "min", "max")

    def __init__(self, name: str, buckets=None, labels: dict | None = None,
                 registry=None):
        super().__init__(name, labels or {}, registry)
        edges = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("histogram buckets must be strictly ascending")
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        self.buckets = edges
        self.counts = [0] * len(edges)
        self.overflow = 0
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        if not self._on:
            return
        value = float(value)
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                self.counts[i] += 1
                return
        self.overflow += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate, ``q`` in [0, 100].

        Linear interpolation inside the bucket that contains the target
        rank, with the observed ``min``/``max`` tightening the first and
        overflow bucket edges — exact at q=0/q=100, and exact whenever
        all mass in the deciding bucket sits at one value that min/max
        pin down. Returns 0.0 for an empty histogram.
        """
        if self.count == 0:
            return 0.0
        return _bucket_percentile(self.buckets, self.counts, self.overflow,
                                  self.count, self.min, self.max, q)

    def percentiles(self, qs=(50.0, 95.0, 99.0)) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` for the given qs."""
        return {f"p{q:g}": self.percentile(q) for q in qs}

    def _payload(self) -> dict:
        payload = {"buckets": list(self.buckets), "counts": list(self.counts),
                   "overflow": self.overflow, "sum": self.sum,
                   "count": self.count, "mean": self.mean,
                   "min": None if self.count == 0 else self.min,
                   "max": None if self.count == 0 else self.max}
        if self.count:
            payload.update(self.percentiles())
        return payload


class Series(_Metric):
    """Append-only (x, y) series — loss curves, per-iteration traces.

    When the series exceeds ``max_points`` it is decimated by dropping
    every other retained point and doubling the keep-stride, so memory
    stays bounded while the overall shape of the curve survives.
    """

    kind = "series"
    __slots__ = ("points", "max_points", "_stride", "_skip")

    def __init__(self, name: str, labels: dict | None = None,
                 max_points: int = 4096, registry=None):
        super().__init__(name, labels or {}, registry)
        if max_points < 2:
            raise ValueError("max_points must be >= 2")
        self.points: list[tuple[float, float]] = []
        self.max_points = max_points
        self._stride = 1
        self._skip = 0

    def append(self, x: float, y: float) -> None:
        if not self._on:
            return
        if self._skip:
            self._skip -= 1
            return
        self._skip = self._stride - 1
        self.points.append((float(x), float(y)))
        if len(self.points) >= self.max_points:
            self.points = self.points[::2]
            self._stride *= 2

    def _payload(self) -> dict:
        payload = {"points": [list(p) for p in self.points],
                   "stride": self._stride}
        if self.points:
            ys = [p[1] for p in self.points]
            payload["last"] = ys[-1]
            payload["min"] = min(ys)
            payload["max"] = max(ys)
        return payload


def _bucket_percentile(edges, counts, overflow: int, total: int,
                       lo_obs: float, hi_obs: float, q: float) -> float:
    """Shared bucket-interpolation core (see :meth:`Histogram.percentile`)."""
    q = min(max(float(q), 0.0), 100.0)
    rank = q / 100.0 * total
    # walk buckets (including the synthetic overflow bucket) until the
    # cumulative count reaches the target rank, then interpolate
    cum = 0.0
    bins = list(zip(edges, counts)) + [(hi_obs, overflow)]
    lo = lo_obs
    for i, (edge, c) in enumerate(bins):
        hi = min(float(edge), hi_obs) if c else float(edge)
        lo_eff = max(lo, lo_obs) if i == 0 else lo
        if c and cum + c >= rank:
            frac = (rank - cum) / c
            value = lo_eff + (hi - lo_eff) * frac
            return min(max(value, lo_obs), hi_obs)
        cum += c
        lo = float(edge)
    return hi_obs


def percentile_from_row(row: dict, q: float) -> float | None:
    """:meth:`Histogram.percentile` over an exported histogram row
    (``as_row()``/JSONL dict) — lets reports compute percentiles from
    telemetry files written before percentiles were exported inline.
    Returns None when the row is not a non-empty histogram row."""
    if row.get("type") != "histogram" or not row.get("count"):
        return None
    try:
        return _bucket_percentile(
            [float(b) for b in row["buckets"]],
            [float(c) for c in row["counts"]],
            float(row.get("overflow", 0)), float(row["count"]),
            float(row["min"]), float(row["max"]), q)
    except (KeyError, TypeError, ValueError):
        return None


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram,
          "series": Series}


class MetricsRegistry:
    """Get-or-create store of labeled metrics."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: dict[tuple, _Metric] = {}
        # serve worker threads get-or-create the same metrics: without
        # the lock two creators race and one's updates land in an orphan
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = (cls.kind, name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels=labels, registry=self, **kwargs)
                self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets=None, **labels) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def series(self, name: str, max_points: int = 4096, **labels) -> Series:
        return self._get(Series, name, labels, max_points=max_points)

    # ------------------------------------------------------------------
    def metrics(self) -> list:
        return list(self._metrics.values())

    def collect(self) -> list[dict]:
        """All metrics as JSONL-ready rows."""
        return [m.as_row() for m in self._metrics.values()]

    def reset(self) -> None:
        self._metrics = {}

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def __len__(self) -> int:
        return len(self._metrics)


# ----------------------------------------------------------------------
# process-global registry
# ----------------------------------------------------------------------
_GLOBAL = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-global registry (disabled until :func:`enable_metrics`)."""
    return _GLOBAL


def enable_metrics() -> None:
    _GLOBAL.enabled = True


def disable_metrics() -> None:
    _GLOBAL.enabled = False


def reset_metrics() -> None:
    _GLOBAL.reset()
