"""Buffer-reusing rollout engine — the GNS inference fast path.

Against a step through the tape forward, which rebuilds the radius graph
from scratch and allocates every feature array and MLP intermediate,
this engine removes the per-step overhead:

* **Verlet-skin neighbor caching** (:class:`repro.graph.NeighborListCache`)
  — the candidate edge list is reused across steps and only rebuilt when
  some particle has moved more than ``skin/2`` since the last build. The
  per-step filter is exact, so edges are bitwise-identical to fresh
  rebuilds.
* **Feature buffers** — node/edge feature matrices live in preallocated
  arrays; step-invariant columns (material, one-hot type) are written
  once per rollout.
* **Fused network kernels with workspace buffers** — see
  :meth:`EncodeProcessDecode.forward_fast`; no edge-sized allocation
  survives into steady state.
* **Per-stage tracing** via :class:`repro.obs.Tracer` spans: graph
  build, feature assembly, encode, process, decode, integrate. Each
  rollout opens a fresh *run scope* (a tracer snapshot), so
  :meth:`timings` reports the latest run only — successive rollouts
  never double-count — while the tracer keeps lifetime aggregates for
  telemetry export.
* **Divergence guard** — every produced frame is checked for
  NaN/Inf and (optionally) exploding velocities; a failing step raises
  :class:`repro.obs.RolloutDivergedError` carrying the step index,
  offending particle count, max |v|, and the good frames produced so
  far, instead of rolling out garbage for the remaining steps.

Float64 rollouts are bitwise-identical to the tape oracle,
``LearnedSimulator.rollout(fast=False)`` (:meth:`LearnedSimulator.step`
under ``no_grad``) — the engine runs the same operations in the same
order, just into reused memory.

:meth:`InferenceEngine.rollout` and :meth:`InferenceEngine.rollout_batch`
share one step loop: B independent initial conditions are stacked into
one block-diagonal graph (edges never cross trajectories, each
trajectory slot keeps its own neighbor cache), which turns B small MLP
matmuls into one B×-taller matmul — the shape the inverse-problem
ensemble and micro-batched serving need. A solo rollout is the B=1 case.
"""
# repro-lint: fp32-ok — float32 inference fast path

from __future__ import annotations

import time

import numpy as np

from ..backend import get_backend
from ..graph import NeighborListCache
from ..lint.sanitize import active as active_sanitizer
from ..obs import RolloutDivergedError, Tracer
from ..resilience.faults import get_injector
from ..utils.buffers import Workspace

__all__ = ["InferenceEngine"]

_STAGES = ("graph", "features", "encode", "process", "decode", "integrate")

#: edge-count histogram buckets (edges per graph per step)
_EDGE_BUCKETS = (1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6)

#: per-step latency buckets (seconds), 100 µs .. 3 s
_STEP_SECONDS_BUCKETS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
                         1e-1, 3e-1, 1.0, 3.0)


class InferenceEngine:
    """Reusable fast-rollout state for one :class:`LearnedSimulator`.

    Parameters
    ----------
    simulator:
        The simulator whose network/featurizer to run. Weights are read
        live (not copied), so an engine stays valid across training
        updates.
    skin:
        Verlet skin radius forwarded to :class:`NeighborListCache`;
        ``None`` uses the cache default (``0.25 × connectivity_radius``),
        ``0.0`` disables caching (rebuild every step — the reference
        path).
    tracer:
        Span recorder for the per-stage breakdown. Defaults to a
        private, *enabled* tracer (stage timing has always been on for
        this engine and costs ~one perf_counter pair per stage per
        step). Pass a disabled :class:`~repro.obs.Tracer` to strip even
        that.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; when set, the
        engine records edges-per-graph histograms and step counters.
    dtype:
        Precision of the network forward pass: ``np.float64`` (default,
        bitwise-equal to the tape oracle) or ``np.float32`` (the fast
        path: features, encoder, processor and decoder run end-to-end in
        fp32 — weights are cast once and cached). Integration, the
        rollout window and all returned positions stay float64 in both
        modes. ``None`` follows ``simulator.inference_dtype``. Training
        paths must stay float64; this knob exists for inference only.
    backend:
        ``"accel"`` (compiled float32 kernels where they apply) or
        ``"numpy"``, or a :class:`~repro.backend.Backend` handle.
        ``None`` reads ``REPRO_BACKEND`` (default ``accel``). Resolved
        once, at construction; an explicit argument wins over the
        environment.
    """

    def __init__(self, simulator, skin: float | None = None,
                 tracer: Tracer | None = None, metrics=None, dtype=None,
                 backend=None):
        self.simulator = simulator
        self.skin = skin
        # resolved once: the engine keeps this backend for life
        self.backend = get_backend(backend)
        resolved = np.dtype(dtype if dtype is not None
                            else simulator.inference_dtype)
        if resolved not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(
                f"InferenceEngine dtype must be float32 or float64, "
                f"got {resolved}")
        self.dtype = resolved
        self.work = Workspace()
        self.tracer = tracer if tracer is not None else Tracer(enabled=True)
        self.metrics = metrics
        self._spans = {name: self.tracer.span(name) for name in _STAGES}
        self._run_mark: dict | None = None
        #: one neighbor cache per trajectory slot of the batch
        self._caches: list[NeighborListCache] = []

    # ------------------------------------------------------------------
    def _slot_caches(self, b: int) -> list[NeighborListCache]:
        cfg = self.simulator.feature_config
        while len(self._caches) < b:
            self._caches.append(NeighborListCache(
                cfg.connectivity_radius, skin=self.skin,
                method=cfg.neighbor_method))
        return self._caches[:b]

    @property
    def cache(self) -> NeighborListCache:
        """The first slot's cache — the one a solo :meth:`rollout` uses."""
        return self._slot_caches(1)[0]

    def cache_stats(self) -> dict:
        stats = self.cache.stats()
        for c in self._caches[1:]:
            for key in ("queries", "builds"):
                stats[key] += c.stats()[key]
        if stats["queries"]:
            stats["hit_rate"] = 1.0 - stats["builds"] / stats["queries"]
        return stats

    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        """Open a fresh timing scope: :meth:`timings` reports spans
        recorded after this point. Called automatically by every
        rollout."""
        self._run_mark = self.tracer.snapshot()

    def reset_timers(self) -> None:
        """Drop all span aggregates (lifetime and run scope)."""
        self.tracer.reset()
        self._run_mark = None

    def timings(self, scope: str | dict = "run") -> dict:
        """Per-stage wall-clock stats as plain dicts.

        ``scope="run"`` (default) covers the most recent
        :meth:`rollout`/:meth:`rollout_batch` call only — the fix for
        the old accumulate-forever double counting. ``scope="lifetime"``
        covers everything since construction/:meth:`reset_timers`; a
        tracer snapshot dict scopes to "since that snapshot".
        """
        if isinstance(scope, dict):
            since = scope
        elif scope == "run":
            since = self._run_mark
        elif scope == "lifetime":
            since = None
        else:
            raise ValueError(f"unknown timing scope: {scope!r}")
        stats = self.tracer.stats(since=since)
        out = {}
        for name in _STAGES:
            s = stats.get(name)
            if s is None:
                out[name] = {"total": 0.0, "count": 0, "mean": 0.0}
            else:
                out[name] = {"total": s["total"], "count": s["count"],
                             "mean": s["mean"]}
        return out

    # ------------------------------------------------------------------
    def _forward(self, window: np.ndarray, node_feats: np.ndarray,
                 senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        """Features (dynamic columns) → network → denormalized accel.

        Features are assembled directly into the run-dtype buffers (the
        assembly ufuncs write through ``out=``, so the fp32 mode never
        materializes float64 feature arrays); the denormalized
        acceleration is promoted back to float64 for integration.
        """
        sim = self.simulator
        featurizer = sim.featurizer
        x_t = window[-1]
        with self._spans["features"]:
            featurizer.assemble_node_features(window, out=node_feats)
            edge_feats = featurizer.assemble_edge_features(
                x_t, senders, receivers,
                out=self.work.get("feat.edge",
                                  (senders.shape[0],
                                   featurizer.config.edge_feature_size()),
                                  node_feats.dtype))
        acc_norm = sim.network.forward_fast(node_feats, edge_feats, senders,
                                            receivers, work=self.work,
                                            timers=self._spans,
                                            backend=self.backend)
        # everything downstream (integration, guards, the rollout
        # window) is float64
        acc_norm = np.asarray(acc_norm, dtype=np.float64)
        return featurizer.denormalize_acceleration(acc_norm)

    @staticmethod
    def _integrate(window: np.ndarray, acc: np.ndarray,
                   static_mask: np.ndarray | None) -> np.ndarray:
        x_t, x_prev = window[-1], window[-2]
        x_next = x_t + (x_t - x_prev + acc)
        if static_mask is not None and static_mask.any():
            x_next = np.where(static_mask[:, None], x_t, x_next)
        return x_next

    @staticmethod
    def _shift_window(window: np.ndarray, x_next: np.ndarray) -> None:
        for i in range(window.shape[0] - 1):
            window[i] = window[i + 1]
        window[-1] = x_next

    @staticmethod
    def _guard_step(step: int, x_t: np.ndarray, x_next: np.ndarray,
                    frames_so_far, max_velocity: float | None) -> None:
        """Abort a diverging rollout with a structured diagnostic.

        One displacement reduction per step (~µs at 1k particles); NaNs
        propagate into ``vmax`` so a single comparison covers both the
        non-finite and the exploding-velocity case. ``frames_so_far``
        may be a callable (evaluated only on failure).
        """
        v = x_next - x_t
        vmax = float(np.max(np.abs(v))) if v.size else 0.0
        if np.isfinite(vmax) and (max_velocity is None
                                  or vmax <= max_velocity):
            return
        speed = np.linalg.norm(v, axis=-1)
        finite = np.isfinite(x_next).all(axis=-1)
        if not np.isfinite(vmax):
            reason = "non-finite positions"
            bad = int((~finite).sum())
        else:
            reason = f"velocity above limit {max_velocity:g}"
            bad = int((speed > max_velocity).sum())
        if callable(frames_so_far):
            frames_so_far = frames_so_far()
        finite_speed = speed[np.isfinite(speed)]
        raise RolloutDivergedError(
            step=step, reason=reason, bad_particles=bad,
            max_velocity=(float(finite_speed.max()) if finite_speed.size
                          else float("nan")),
            frames=np.asarray(frames_so_far).copy())

    @staticmethod
    def _guard_seed(frames: np.ndarray) -> None:
        """Reject a non-finite ``(B, C+1, n, d)`` seed with the same
        structured error the per-step guard raises (otherwise the KD-tree
        build crashes with an opaque ValueError on the first graph
        query)."""
        if np.isfinite(frames).all():
            return
        bad = int((~np.isfinite(frames).all(axis=(0, 1, -1))).sum())
        raise RolloutDivergedError(
            step=-1, reason="non-finite seed frames", bad_particles=bad,
            max_velocity=float("nan"), frames=None)

    # ------------------------------------------------------------------
    def rollout(self, initial_history: np.ndarray, num_steps: int,
                material: float | None = None,
                particle_types: np.ndarray | None = None,
                max_velocity: float | None = None,
                guard: bool = True) -> np.ndarray:
        """Fast rollout: ``(C+1+num_steps, n, d)`` positions.

        Bitwise-identical (float64) to the tape oracle. With ``guard``
        (default), raises :class:`~repro.obs.RolloutDivergedError` the
        moment a step produces NaN/Inf positions or (with
        ``max_velocity``) a per-step displacement above the limit.
        """
        frames = np.asarray(initial_history, dtype=np.float64)
        return self._run(frames[np.newaxis], num_steps, [material],
                         particle_types, max_velocity, guard)[0]

    def rollout_batch(self, initial_histories: np.ndarray, num_steps: int,
                      materials=None,
                      particle_types: np.ndarray | None = None,
                      max_velocity: float | None = None,
                      guard: bool = True) -> np.ndarray:
        """Vectorized rollout of B independent initial conditions.

        Parameters
        ----------
        initial_histories:
            ``(B, C+1, n, d)`` seed frames (same particle count per
            trajectory).
        materials:
            Scalar applied to every trajectory, or a length-``B``
            sequence (the inverse-problem ensemble varies the material).
        particle_types:
            ``(n,)`` shared across trajectories, or ``(B, n)``.

        Returns
        -------
        ``(B, C+1+num_steps, n, d)`` positions. Each trajectory is
        bitwise-equal (float64) to its solo :meth:`rollout`: the batch
        runs one block-diagonal graph through the same kernels.
        """
        frames = np.asarray(initial_histories, dtype=np.float64)
        if frames.ndim != 4:
            raise ValueError("initial_histories must be (B, C+1, n, d)")
        b = frames.shape[0]
        if np.isscalar(materials) or materials is None:
            materials = [materials] * b
        else:
            values = np.asarray(materials, dtype=np.float64)
            if values.shape != (b,):
                raise ValueError("materials must be scalar or length B")
            materials = [float(v) for v in values]
        return self._run(frames, num_steps, materials, particle_types,
                         max_velocity, guard)

    def _run(self, frames: np.ndarray, num_steps: int, materials: list,
             particle_types, max_velocity, guard: bool) -> np.ndarray:
        """The one step loop: ``(B, C+1, n, d)`` seeds and one material
        per trajectory → ``(B, C+1+num_steps, n, d)`` positions."""
        cfg = self.simulator.feature_config
        b, window_len, n, dim = frames.shape
        if window_len != cfg.history + 1:
            raise ValueError(
                f"need {cfg.history + 1} seed frames, got {window_len}")
        if guard:
            self._guard_seed(frames)

        # stack trajectories into one big particle system (graph stays
        # block-diagonal: each trajectory keeps its own neighbor cache).
        # Explicit copy: for B=1 the transpose+reshape is a *view* of the
        # caller's array (a size-1 axis never breaks C-contiguity, so
        # ascontiguousarray would be a no-op) and _shift_window would
        # mutate the caller's seed frames in place.
        window = np.empty((window_len, b * n, dim), dtype=np.float64)
        np.copyto(window, frames.transpose(1, 0, 2, 3)
                  .reshape(window_len, b * n, dim))
        types_flat = None
        if particle_types is not None:
            types = np.asarray(particle_types)
            types_flat = (np.tile(types, b) if types.ndim == 1
                          else types.reshape(b * n))
        static_mask = cfg.static_mask(types_flat)

        node_feats = np.empty((b * n, cfg.node_feature_size()),
                              dtype=self.dtype)
        for i, material in enumerate(materials):
            self.simulator.featurizer.write_static_columns(
                node_feats[i * n:(i + 1) * n], material,
                None if types_flat is None else types_flat[i * n:(i + 1) * n])
        caches = self._slot_caches(b)

        self.begin_run()
        metrics = self.metrics
        edge_hist = step_hist = None
        if metrics is not None:
            edge_hist = metrics.histogram("gns.edges_per_graph",
                                          buckets=_EDGE_BUCKETS)
            step_hist = metrics.histogram("gns.step_seconds",
                                          buckets=_STEP_SECONDS_BUCKETS)
        out = np.empty((window_len + num_steps, b * n, dim), dtype=np.float64)
        out[:window_len] = window
        san = active_sanitizer()
        for t in range(num_steps):
            t_step = time.perf_counter() if step_hist is not None else 0.0
            with self._spans["graph"]:
                x_t = window[-1]
                if b == 1:
                    senders, receivers = caches[0].query(x_t)
                else:
                    parts = [c.query(x_t[i * n:(i + 1) * n])
                             for i, c in enumerate(caches)]
                    senders = np.concatenate(
                        [s + i * n for i, (s, _) in enumerate(parts)])
                    # each trajectory's receivers come out of its cache
                    # sorted and the offsets increase, so the block-diagonal
                    # receiver index is sorted too: a reduction plan over
                    # it is a single searchsorted
                    receivers = np.concatenate(
                        [r + i * n for i, (_, r) in enumerate(parts)])
            if edge_hist is not None:
                edge_hist.observe(senders.shape[0])
            acc = self._forward(window, node_feats, senders, receivers)
            if san is not None:
                san.check("engine.forward", acc, step=t)
            with self._spans["integrate"]:
                x_next = self._integrate(window, acc, static_mask)
            inj = get_injector()
            if inj.armed and inj.fire("rollout.diverge"):
                # chaos site: one produced frame goes NaN (counter is per
                # rollout step across the process); the guard below must
                # turn it into a structured RolloutDivergedError
                x_next = np.full_like(x_next, np.nan)
            if san is not None:
                # sanitized runs pinpoint the originating op+step before
                # the coarser trajectory guard fires
                san.check("engine.integrate", x_next, step=t)
            if guard:
                self._guard_step(t, window[-1], x_next,
                                 out[:window_len + t], max_velocity)
            with self._spans["integrate"]:
                out[window_len + t] = x_next
                self._shift_window(window, x_next)
            if step_hist is not None:
                # per-step latency distribution: p50/p95/p99 make
                # neighbor-rebuild hiccups visible where a mean cannot
                step_hist.observe(time.perf_counter() - t_step)
        if metrics is not None:
            metrics.counter("gns.rollout_steps").inc(num_steps)
        return np.ascontiguousarray(
            out.reshape(window_len + num_steps, b, n, dim).transpose(1, 0, 2, 3))
