"""Warm engine workers: the threads that actually run rollouts.

Each :class:`EngineWorker` owns a private map of warm
:class:`~repro.gns.engine.InferenceEngine` instances (one per served
checkpoint) — engines hold reusable buffers and neighbor caches, so they
must never be shared across threads. Jobs are pulled from a shared
queue; execution is supervised by :func:`repro.resilience.retry_call`
with the service's shared :class:`RetryBudget`:

* A single slow attempt is bounded by ``attempt_timeout`` — on
  :class:`AttemptTimeoutError` the worker **discards its engines**
  (the abandoned attempt thread still owns their buffers) and retries
  on fresh ones.
* ``pool.crash`` firing in the worker loop simulates worker death: the
  job is re-queued (bounded by ``max_requeues``) and the service
  respawns a replacement thread, so queued requests survive crashes.
* ``serve.slow_worker`` firing inside an attempt stalls it past any
  test-sized attempt deadline, exercising the timeout→retry path.
* A failed *batch* falls back to solo execution per request, so one
  poisoned trajectory (e.g. a diverging rollout) cannot take its
  siblings down with it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..gns.engine import InferenceEngine
from ..obs.health import RolloutDivergedError
from ..obs.metrics import get_registry
from ..resilience.faults import get_injector
from ..resilience.retry import (
    AttemptTimeoutError, RetryBudget, RetryExhaustedError, RetryPolicy,
    retry_call,
)
from .request import InverseRequest, RequestFailedError, RolloutRequest
from .batcher import batch_materials, stack_seed_frames

__all__ = ["EngineWorker", "WorkerCrashError", "Job", "SHUTDOWN"]

#: how long an injected ``serve.slow_worker`` stalls — comfortably past
#: any test-sized attempt deadline, short enough that the abandoned
#: attempt thread drains quickly
_STALL_SECONDS = 0.3

#: queue sentinel that tells a worker to exit its loop
SHUTDOWN = object()


class WorkerCrashError(RuntimeError):
    """A worker died mid-job (injected via ``pool.crash``)."""


@dataclass
class Job:
    """One unit of worker work: a compatible batch of admitted entries
    (singleton for inverse requests and degraded mode)."""

    entries: list
    checkpoint: str
    degraded: bool = False
    requeues: int = 0
    attempts: int = field(default=0)


class EngineWorker(threading.Thread):
    """One serving thread with warm per-checkpoint engines.

    ``service`` is the owning :class:`SimulationService`; the worker
    only touches its narrow supervision surface (``_jobs`` queue,
    ``_finish_ok`` / ``_finish_error`` / ``_requeue`` /
    ``_on_worker_death`` callbacks and the shared retry budget).
    """

    def __init__(self, index: int, service):
        super().__init__(name=f"serve-worker-{index}", daemon=True)
        self.index = index
        self.service = service
        self._engines: dict[str, InferenceEngine] = {}

    # -- engine pool ----------------------------------------------------
    def _engine(self, checkpoint: str) -> InferenceEngine:
        engine = self._engines.get(checkpoint)
        if engine is None:
            cfg = self.service.config
            # the global registry: the engine's step and edge histograms
            # land in serve telemetry beside the service's own metrics
            engine = InferenceEngine(self.service.simulators[checkpoint],
                                     metrics=get_registry(),
                                     dtype=cfg.engine_dtype,
                                     backend=cfg.engine_backend)
            self._engines[checkpoint] = engine
        return engine

    def _discard_engines(self) -> None:
        """Drop every warm engine. Called after an attempt timeout: the
        abandoned attempt thread may still be writing into the old
        engine's buffers, so retrying on it would race."""
        self._engines = {}

    # -- main loop ------------------------------------------------------
    def run(self):
        jobs = self.service._jobs
        while True:
            job = jobs.get()
            if job is SHUTDOWN:
                return
            if get_injector().fire("pool.crash"):
                # simulated worker death: hand the job back, then die.
                # The service's death callback respawns a replacement,
                # so no queued request is lost.
                self.service._requeue(job, WorkerCrashError(
                    f"worker {self.index} crashed (pool.crash)"))
                self.service._on_worker_death(self)
                return
            try:
                self._execute(job)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as err:
                # last-resort containment: a bug in result handling must
                # fail this job's requests, never hang or kill the fleet
                for entry in job.entries:
                    self.service._finish_error(
                        entry, RequestFailedError(entry.request_id, err))

    # -- execution ------------------------------------------------------
    def _execute(self, job: Job) -> None:
        entries = self.service._shed_expired(job.entries)
        if not entries:
            return
        job.entries = entries
        cfg = self.service.config
        policy = RetryPolicy(max_attempts=cfg.retry_max_attempts)

        def on_retry(attempt: int, err: BaseException) -> None:
            job.attempts += 1
            if isinstance(err, AttemptTimeoutError):
                self._discard_engines()

        job.attempts = 1
        try:
            payload = retry_call(
                self._run_job, job, policy=policy,
                retry_on=(WorkerCrashError, OSError),
                give_up_on=(RolloutDivergedError,),
                budget=self.service.retry_budget,
                op="serve.job", on_retry=on_retry)
        except (RetryExhaustedError, RolloutDivergedError) as err:
            self.service.breaker.record(False)
            if len(job.entries) > 1:
                self._solo_fallback(job)
            else:
                entry = job.entries[0]
                self.service._finish_error(
                    entry, RequestFailedError(entry.request_id, err))
            return
        self.service.breaker.record(True)
        self._resolve(job, payload)

    def _run_job(self, job: Job):
        """One supervised attempt: the whole batch through one engine
        call (or one inverse solve). Chaos stall lives *inside* the
        attempt so it is what the attempt deadline measures."""
        if get_injector().fire("serve.slow_worker"):
            time.sleep(_STALL_SECONDS)
        first = job.entries[0].request
        if isinstance(first, InverseRequest):
            return self._run_inverse(first)
        engine = self._engine(job.checkpoint)
        requests = [e.request for e in job.entries]
        if len(requests) == 1:
            r = requests[0]
            frames = engine.rollout(
                np.asarray(r.seed_frames, dtype=np.float64), r.num_steps,
                material=r.material, particle_types=r.particle_types,
                max_velocity=r.max_velocity)
            return frames[np.newaxis]
        stacked = stack_seed_frames(requests)
        types = requests[0].particle_types
        return engine.rollout_batch(
            stacked, requests[0].num_steps,
            materials=batch_materials(requests), particle_types=types,
            max_velocity=requests[0].max_velocity)

    def _run_inverse(self, request: InverseRequest):
        from ..inverse.problem import RunoutInverseProblem

        seed = np.asarray(request.seed_frames, dtype=np.float64)
        toe_x = request.toe_x
        if toe_x is None:
            toe_x = float(seed[-1, :, 0].max())
        problem = RunoutInverseProblem(
            simulator=self.service.simulators[request.checkpoint],
            initial_history=seed, target_runout=request.target_runout,
            toe_x=toe_x, rollout_steps=request.rollout_steps)
        return problem.solve(request.phi0,
                             max_iterations=request.max_iterations)

    def _resolve(self, job: Job, payload) -> None:
        first = job.entries[0].request
        if isinstance(first, InverseRequest):
            self.service._finish_ok(job.entries[0], inverse=payload,
                                    batch_size=1, attempts=job.attempts,
                                    degraded=job.degraded)
            return
        for i, entry in enumerate(job.entries):
            self.service._finish_ok(entry, frames=payload[i],
                                    batch_size=len(job.entries),
                                    attempts=job.attempts,
                                    degraded=job.degraded)

    def _solo_fallback(self, job: Job) -> None:
        """Re-run each request of a failed batch individually so one bad
        trajectory cannot poison its siblings."""
        self.service._count("serve.solo_fallbacks")
        for entry in job.entries:
            solo = Job(entries=[entry], checkpoint=job.checkpoint,
                       degraded=job.degraded, requeues=job.requeues)
            self._execute(solo)
