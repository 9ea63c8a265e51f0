"""SimulationService end-to-end: batching parity, caching, deadlines,
quota, lifecycle, asyncio facade, inverse requests."""

import asyncio
import time

import numpy as np
import pytest

from repro.resilience import disarm_faults
from repro.serve import (
    DeadlineExceededError, InverseRequest, QueueFullError, QuotaConfig,
    QuotaExceededError, RolloutRequest, ServeConfig, ServiceClosedError,
    SimulationService,
)
from repro.serve.synthetic import synthetic_seed, synthetic_simulator

RESULT_TIMEOUT = 60.0


@pytest.fixture(autouse=True)
def _clean_injector():
    disarm_faults()
    yield
    disarm_faults()


@pytest.fixture(scope="module")
def sim():
    return synthetic_simulator(seed=1)


def _request(sim, material=30.0, steps=5, n=40, seed=0, **kw):
    return RolloutRequest(seed_frames=synthetic_seed(sim, n=n, seed=seed),
                          num_steps=steps, material=material, **kw)


class SteppableClock:
    """Starts at 0 and only moves when the test says so — makes deadline
    arithmetic deterministic regardless of scheduler noise."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestBatchingParity:
    def test_batched_requests_bitwise_match_direct_engine(self, sim):
        cfg = ServeConfig(num_workers=1, max_batch=8, cache_capacity=0)
        service = SimulationService(sim, cfg, auto_start=False)
        try:
            mats = [20.0, 25.0, 30.0, 35.0]
            futures = [service.submit(_request(sim, material=m))
                       for m in mats]
            # all four sit in the pending queue; starting the service
            # drains them in one sweep -> one micro-batch of 4
            service.start()
            responses = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
        finally:
            service.close()
        assert [r.batch_size for r in responses] == [4, 4, 4, 4]
        seed = synthetic_seed(sim, n=40, seed=0)
        for resp, mat in zip(responses, mats):
            direct = sim.engine().rollout(seed, 5, material=mat)
            np.testing.assert_array_equal(resp.frames, direct)
            assert not resp.cached and resp.status == "ok"

    def test_incompatible_requests_run_separately(self, sim):
        cfg = ServeConfig(num_workers=1, max_batch=8, cache_capacity=0)
        service = SimulationService(sim, cfg, auto_start=False)
        try:
            f1 = service.submit(_request(sim, steps=4))
            f2 = service.submit(_request(sim, steps=6))
            service.start()
            r1 = f1.result(timeout=RESULT_TIMEOUT)
            r2 = f2.result(timeout=RESULT_TIMEOUT)
        finally:
            service.close()
        assert r1.batch_size == 1 and r2.batch_size == 1
        assert r1.frames.shape[0] != r2.frames.shape[0]


class TestResultCache:
    def test_repeat_request_is_served_from_cache(self, sim):
        with SimulationService(sim, ServeConfig(num_workers=1)) as service:
            first = service.submit(_request(sim)).result(
                timeout=RESULT_TIMEOUT)
            second = service.submit(_request(sim)).result(
                timeout=RESULT_TIMEOUT)
            assert not first.cached
            assert second.cached
            np.testing.assert_array_equal(second.frames, first.frames)
            assert service.counts["cache_hits"] == 1

    def test_cache_opt_out(self, sim):
        with SimulationService(sim, ServeConfig(num_workers=1)) as service:
            service.submit(_request(sim, cache=False)).result(
                timeout=RESULT_TIMEOUT)
            second = service.submit(_request(sim, cache=False)).result(
                timeout=RESULT_TIMEOUT)
            assert not second.cached

    def test_different_material_misses(self, sim):
        with SimulationService(sim, ServeConfig(num_workers=1)) as service:
            service.submit(_request(sim, material=30.0)).result(
                timeout=RESULT_TIMEOUT)
            other = service.submit(_request(sim, material=35.0)).result(
                timeout=RESULT_TIMEOUT)
            assert not other.cached


class TestAdmission:
    def test_queue_full_rejects(self, sim):
        cfg = ServeConfig(max_queue=1, num_workers=1, cache_capacity=0)
        service = SimulationService(sim, cfg, auto_start=False)
        try:
            future = service.submit(_request(sim))
            with pytest.raises(QueueFullError):
                service.submit(_request(sim, material=35.0))
            assert service.counts["rejected"] == 1
            service.start()
            future.result(timeout=RESULT_TIMEOUT)
        finally:
            service.close()

    def test_quota_rejects_per_tenant(self, sim):
        clock = SteppableClock()
        cfg = ServeConfig(num_workers=1, cache_capacity=0,
                          quota=QuotaConfig(rate=1.0, burst=1))
        service = SimulationService(sim, cfg, clock=clock, auto_start=False)
        try:
            service.submit(_request(sim, tenant="a"))
            with pytest.raises(QuotaExceededError) as exc:
                service.submit(_request(sim, material=35.0, tenant="a"))
            assert exc.value.tenant == "a"
            service.submit(_request(sim, tenant="b"))  # b has its own bucket
            clock.t += 1.0                             # refill: a admits again
            service.submit(_request(sim, material=40.0, tenant="a"))
        finally:
            service.close(drain=False)

    def test_unknown_checkpoint_rejected(self, sim):
        service = SimulationService(sim, ServeConfig(num_workers=1),
                                    auto_start=False)
        try:
            with pytest.raises(ValueError, match="unknown checkpoint"):
                service.submit(_request(sim, checkpoint="nope"))
        finally:
            service.close()


class TestDeadlines:
    def test_expired_work_is_shed_fresh_work_served(self, sim):
        clock = SteppableClock()
        cfg = ServeConfig(num_workers=1, cache_capacity=0)
        service = SimulationService(sim, cfg, clock=clock, auto_start=False)
        try:
            doomed = service.submit(_request(sim, timeout=5.0))
            eternal = service.submit(_request(sim, material=35.0))
            clock.t = 10.0           # past doomed's deadline before dispatch
            service.start()
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=RESULT_TIMEOUT)
            assert eternal.result(timeout=RESULT_TIMEOUT).status == "ok"
            assert service.counts["shed"] == 1
        finally:
            service.close()

    def test_future_deadline_not_shed(self, sim):
        clock = SteppableClock()
        cfg = ServeConfig(num_workers=1, cache_capacity=0)
        service = SimulationService(sim, cfg, clock=clock, auto_start=False)
        try:
            future = service.submit(_request(sim, timeout=1e9))
            service.start()
            assert future.result(timeout=RESULT_TIMEOUT).status == "ok"
        finally:
            service.close()


class TestLifecycle:
    def test_submit_after_close_raises(self, sim):
        service = SimulationService(sim, ServeConfig(num_workers=1))
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(_request(sim))

    def test_close_without_drain_fails_queued_typed(self, sim):
        service = SimulationService(sim, ServeConfig(num_workers=1),
                                    auto_start=False)
        futures = [service.submit(_request(sim, material=20.0 + i))
                   for i in range(3)]
        service.close(drain=False)
        for future in futures:
            with pytest.raises(ServiceClosedError):
                future.result(timeout=RESULT_TIMEOUT)

    def test_close_with_drain_finishes_outstanding(self, sim):
        service = SimulationService(sim,
                                    ServeConfig(num_workers=2,
                                                cache_capacity=0))
        futures = [service.submit(_request(sim, material=20.0 + i))
                   for i in range(4)]
        service.close(drain=True)
        for future in futures:
            assert future.result(timeout=1.0).status == "ok"

    def test_close_is_idempotent(self, sim):
        service = SimulationService(sim, ServeConfig(num_workers=1))
        service.close()
        service.close()

    def test_every_admitted_request_terminates(self, sim):
        """The core contract, fault-free edition: N admitted requests all
        resolve (chaos editions live in test_serve_chaos)."""
        with SimulationService(sim, ServeConfig(num_workers=2)) as service:
            futures = [service.submit(_request(sim, material=20.0 + i % 5))
                       for i in range(12)]
            done = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
        assert len(done) == 12
        assert service.counts["admitted"] == 12
        assert (service.counts["completed"] + service.counts["failed"]
                + service.counts["shed"]
                + service.counts["cache_hits"]) >= 12


class TestAsyncFacade:
    def test_submit_async_resolves(self, sim):
        async def main(service):
            responses = await asyncio.gather(
                service.submit_async(_request(sim, material=25.0)),
                service.submit_async(_request(sim, material=30.0)))
            return responses

        with SimulationService(sim, ServeConfig(num_workers=1)) as service:
            responses = asyncio.run(main(service))
        for resp in responses:
            assert resp.status == "ok"
        direct = sim.engine().rollout(synthetic_seed(sim, n=40, seed=0), 5,
                                      material=25.0)
        np.testing.assert_array_equal(responses[0].frames, direct)

    def test_submit_async_rejection_raises_in_coroutine(self, sim):
        async def main(service):
            with pytest.raises(QueueFullError):
                await service.submit_async(_request(sim, material=35.0))

        cfg = ServeConfig(max_queue=1, num_workers=1, cache_capacity=0)
        service = SimulationService(sim, cfg, auto_start=False)
        try:
            service.submit(_request(sim))
            asyncio.run(main(service))
        finally:
            service.close(drain=False)


class TestInverseRequests:
    def test_inverse_request_solves(self, sim):
        seed = synthetic_seed(sim, n=40, seed=0)
        target = 0.01
        with SimulationService(sim, ServeConfig(num_workers=1)) as service:
            resp = service.submit(InverseRequest(
                seed_frames=seed, target_runout=target, phi0=30.0,
                rollout_steps=3, max_iterations=2)).result(
                    timeout=RESULT_TIMEOUT)
        assert resp.kind == "inverse"
        assert resp.frames is None
        record = resp.inverse
        assert record.iterations >= 1
        assert len(record.parameters) >= 1
        assert np.isfinite(record.final_parameter)

    def test_inverse_requests_never_batch(self, sim):
        seed = synthetic_seed(sim, n=40, seed=0)
        cfg = ServeConfig(num_workers=1, max_batch=8)
        service = SimulationService(sim, cfg, auto_start=False)
        try:
            futures = [service.submit(InverseRequest(
                seed_frames=seed, target_runout=0.01, phi0=30.0,
                rollout_steps=2, max_iterations=1)) for _ in range(2)]
            service.start()
            responses = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
        finally:
            service.close()
        assert all(r.batch_size == 1 for r in responses)


class TestMultiCheckpoint:
    def test_requests_route_to_named_checkpoints(self):
        sims = {"a": synthetic_simulator(seed=1),
                "b": synthetic_simulator(seed=2)}
        seed = synthetic_seed(sims["a"], n=40, seed=0)
        cfg = ServeConfig(num_workers=1, cache_capacity=0)
        with SimulationService(sims, cfg) as service:
            ra = service.submit(RolloutRequest(
                seed_frames=seed, num_steps=4, material=30.0,
                checkpoint="a")).result(timeout=RESULT_TIMEOUT)
            rb = service.submit(RolloutRequest(
                seed_frames=seed, num_steps=4, material=30.0,
                checkpoint="b")).result(timeout=RESULT_TIMEOUT)
        np.testing.assert_array_equal(
            ra.frames, sims["a"].engine().rollout(seed, 4, material=30.0))
        np.testing.assert_array_equal(
            rb.frames, sims["b"].engine().rollout(seed, 4, material=30.0))
        assert not np.array_equal(ra.frames, rb.frames)


class TestAuditTrail:
    def test_audit_records_every_terminal_state(self, sim):
        with SimulationService(sim, ServeConfig(num_workers=1)) as service:
            resp = service.submit(_request(sim)).result(
                timeout=RESULT_TIMEOUT)
            cached = service.submit(_request(sim)).result(
                timeout=RESULT_TIMEOUT)
        records = list(service.audit_trail)
        assert len(records) == 2
        assert records[0]["request_id"] == resp.request_id
        assert records[0]["status"] == "ok" and not records[0]["cached"]
        assert records[1]["cached"]
        assert resp.audit["tenant"] == "default"

    def test_audit_trail_is_bounded(self, sim):
        cfg = ServeConfig(num_workers=1, audit_trail=4, cache_capacity=0)
        with SimulationService(sim, cfg) as service:
            futures = [service.submit(_request(sim, material=20.0 + i))
                       for i in range(6)]
            for f in futures:
                f.result(timeout=RESULT_TIMEOUT)
        assert len(service.audit_trail) == 4
