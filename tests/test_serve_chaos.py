"""Chaos suite for the serving layer: the contract is that every
admitted request terminates with a result or a typed error, and every
completed rollout is bitwise-identical to a fault-free direct
InferenceEngine run."""

import numpy as np
import pytest

from repro.obs import get_registry
from repro.resilience import arm_faults, disarm_faults
from repro.serve import (
    BreakerConfig, QueueFullError, RequestFailedError, RolloutRequest,
    ServeConfig, ServeError, SimulationService,
)
from repro.serve.synthetic import synthetic_seed, synthetic_simulator

RESULT_TIMEOUT = 60.0


@pytest.fixture(autouse=True)
def _clean_injector():
    # test_chaos.py's disarm fixture is module-local; this suite arms
    # faults aggressively, so scrub the injector around every test here
    disarm_faults()
    yield
    disarm_faults()


@pytest.fixture(scope="module")
def sim():
    return synthetic_simulator(seed=1)


def _request(sim, material=30.0, steps=5, seed=0, **kw):
    return RolloutRequest(seed_frames=synthetic_seed(sim, n=40, seed=seed),
                          num_steps=steps, material=material, **kw)


class TestWorkerCrash:
    def test_crashes_respawn_and_lose_nothing(self, sim):
        """Two injected worker deaths: jobs are re-queued, replacement
        workers spawn, and every rollout still comes back bitwise-equal
        to a fault-free direct engine run."""
        cfg = ServeConfig(num_workers=2, max_batch=1, cache_capacity=0)
        service = SimulationService(sim, cfg, auto_start=False)
        mats = [20.0, 24.0, 28.0, 32.0, 36.0, 40.0]
        futures = [service.submit(_request(sim, material=m)) for m in mats]
        arm_faults("pool.crash@0,2")
        try:
            service.start()
            responses = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
        finally:
            disarm_faults()
            service.close()
        assert service.counts["worker_respawns"] == 2
        seed = synthetic_seed(sim, n=40, seed=0)
        for resp, mat in zip(responses, mats):
            direct = sim.engine().rollout(seed, 5, material=mat)
            np.testing.assert_array_equal(resp.frames, direct)

    def test_requeue_bound_fails_typed(self, sim):
        """A job that crashes every worker that picks it up must fail
        with RequestFailedError once its re-queue budget is spent — not
        loop forever, not vanish."""
        arm_faults("pool.crash@*")
        cfg = ServeConfig(num_workers=1, cache_capacity=0, max_requeues=2)
        service = SimulationService(sim, cfg, auto_start=False)
        try:
            future = service.submit(_request(sim))
            service.start()
            with pytest.raises(RequestFailedError):
                future.result(timeout=RESULT_TIMEOUT)
        finally:
            disarm_faults()
            service.close()
        # every pickup crashed: initial + max_requeues re-queues
        assert service.counts["worker_respawns"] == 3
        assert service.counts["failed"] == 1


class TestSlowWorker:
    def test_stalled_attempt_times_out_and_retries(self, sim):
        """serve.slow_worker stalls the first attempt past the 0.1 s
        attempt deadline; the retry runs clean and the result is still
        bitwise-exact (fresh engines after the abandoned attempt)."""
        cfg = ServeConfig(num_workers=1, cache_capacity=0,
                          attempt_timeout=0.1, retry_max_attempts=3)
        arm_faults("serve.slow_worker@0")
        try:
            with SimulationService(sim, cfg) as service:
                resp = service.submit(_request(sim)).result(
                    timeout=RESULT_TIMEOUT)
        finally:
            disarm_faults()
        assert resp.attempts == 2
        direct = sim.engine().rollout(synthetic_seed(sim, n=40, seed=0), 5,
                                      material=30.0)
        np.testing.assert_array_equal(resp.frames, direct)


class TestDegradedMode:
    def test_breaker_opens_and_serves_degraded(self, sim):
        """Enough failures flip the breaker open; subsequent successes
        are served (batch cap 1) and tagged degraded=True."""
        bad_seed = synthetic_seed(sim, n=40, seed=7)
        bad_seed[-1] += 0.5          # guaranteed divergence at vmax=0.1
        cfg = ServeConfig(
            num_workers=1, cache_capacity=0,
            breaker=BreakerConfig(window=8, failure_threshold=0.5,
                                  min_samples=2, cooldown_jobs=100,
                                  probe_successes=2))
        with SimulationService(sim, cfg) as service:
            for _ in range(2):
                future = service.submit(RolloutRequest(
                    seed_frames=bad_seed, num_steps=5, material=30.0,
                    max_velocity=0.1))
                with pytest.raises(RequestFailedError):
                    future.result(timeout=RESULT_TIMEOUT)
            assert service.breaker.degraded
            resp = service.submit(_request(sim)).result(
                timeout=RESULT_TIMEOUT)
        assert resp.status == "ok"
        assert resp.degraded
        assert resp.batch_size == 1
        assert service.counts["degraded_served"] >= 1
        # the flip is on the record for the post-mortem
        assert any(t[1] == "open" for t in service.breaker.transitions)


class TestDivergenceIsolation:
    def test_poisoned_batch_member_fails_alone(self, sim):
        """One diverging trajectory inside a micro-batch: the batch
        attempt aborts, the solo fallback re-runs every member, the bad
        request fails typed, and its siblings complete bitwise-equal to
        fault-free direct runs."""
        bad_seed = synthetic_seed(sim, n=40, seed=7)
        bad_seed[-1] += 0.5
        cfg = ServeConfig(num_workers=1, max_batch=8, cache_capacity=0)
        service = SimulationService(sim, cfg, auto_start=False)
        try:
            good = [service.submit(_request(sim, material=m, seed=0,
                                            max_velocity=0.1))
                    for m in (25.0, 35.0)]
            bad = service.submit(RolloutRequest(
                seed_frames=bad_seed, num_steps=5, material=30.0,
                max_velocity=0.1))
            service.start()
            with pytest.raises(RequestFailedError):
                bad.result(timeout=RESULT_TIMEOUT)
            responses = [f.result(timeout=RESULT_TIMEOUT) for f in good]
        finally:
            service.close()
        assert service.counts["solo_fallbacks"] == 1
        seed = synthetic_seed(sim, n=40, seed=0)
        for resp, mat in zip(responses, (25.0, 35.0)):
            direct = sim.engine().rollout(seed, 5, material=mat,
                                          max_velocity=0.1)
            np.testing.assert_array_equal(resp.frames, direct)


class TestProbabilisticChaos:
    def test_every_admitted_request_terminates(self, sim):
        """Seeded probabilistic crash + stall storm: no admitted request
        may be lost — each resolves ok or raises a typed ServeError."""
        cfg = ServeConfig(num_workers=2, cache_capacity=0,
                          attempt_timeout=1.0, max_requeues=5)
        service = SimulationService(sim, cfg, auto_start=False)
        futures = [service.submit(_request(sim, material=20.0 + i))
                   for i in range(10)]
        arm_faults("pool.crash@p0.1;serve.slow_worker@p0.2")
        try:
            service.start()
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=RESULT_TIMEOUT))
                except ServeError as err:
                    outcomes.append(err)
        finally:
            disarm_faults()
            service.close()
        assert len(outcomes) == 10           # nothing lost or hung
        seed = synthetic_seed(sim, n=40, seed=0)
        for outcome, i in zip(outcomes, range(10)):
            if isinstance(outcome, ServeError):
                continue
            direct = sim.engine().rollout(seed, 5, material=20.0 + i)
            np.testing.assert_array_equal(outcome.frames, direct)
        counts = service.counts
        assert (counts["completed"] + counts["failed"]
                + counts["shed"]) == 10


class TestInjectedRejection:
    def test_serve_reject_surfaces_as_queue_full(self, sim):
        arm_faults("serve.reject@0")
        with SimulationService(sim, ServeConfig(num_workers=1)) as service:
            with pytest.raises(QueueFullError):
                service.submit(_request(sim))
            disarm_faults()
            resp = service.submit(_request(sim)).result(
                timeout=RESULT_TIMEOUT)
        assert resp.status == "ok"
        assert service.counts["rejected"] == 1


class TestChaosTelemetry:
    def test_metrics_capture_the_storm(self, sim):
        reg = get_registry()
        reg.enable()
        try:
            reg.reset()
            cfg = ServeConfig(num_workers=1, max_batch=1, cache_capacity=0)
            service = SimulationService(sim, cfg, auto_start=False)
            futures = [service.submit(_request(sim, material=m))
                       for m in (25.0, 35.0)]
            arm_faults("pool.crash@0")
            try:
                service.start()
                for f in futures:
                    f.result(timeout=RESULT_TIMEOUT)
            finally:
                disarm_faults()
                service.close()
            rows = {(r["name"], tuple(sorted((r.get("labels") or {}).items()))):
                    r for r in reg.collect()}
            by_name = {}
            for (name, _), row in rows.items():
                by_name.setdefault(name, 0)
                by_name[name] += row.get("value", 0) or 0
            assert by_name.get("serve.admitted") == 2
            assert by_name.get("serve.completed") == 2
            assert by_name.get("serve.worker_respawns") == 1
            lat = next(r for (n, _), r in rows.items()
                       if n == "serve.latency_seconds")
            assert lat["count"] == 2
        finally:
            reg.reset()
            reg.disable()
