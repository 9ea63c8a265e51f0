"""Metrics registry: counters, gauges, histogram bucket edges, series."""

import sys
import threading

import pytest

from repro.obs import Histogram, MetricsRegistry


@pytest.fixture
def reg():
    return MetricsRegistry(enabled=True)


class TestCounterGauge:
    def test_counter_accumulates(self, reg):
        c = reg.counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_gauge_tracks_extrema(self, reg):
        g = reg.gauge("speed")
        for v in (3.0, 1.0, 7.0):
            g.set(v)
        row = g.as_row()
        assert row["value"] == 7.0
        assert row["min"] == 1.0 and row["max"] == 7.0 and row["count"] == 3

    def test_get_or_create_by_name_and_labels(self, reg):
        assert reg.counter("n") is reg.counter("n")
        assert reg.counter("n", kind="a") is not reg.counter("n", kind="b")
        assert reg.counter("n", a="1", b="2") is reg.counter("n", b="2", a="1")
        assert len(reg) == 4


    def test_concurrent_get_or_create_loses_no_update(self):
        # serve workers share the global registry: threads that create
        # the same metric at once must all land in the one registered
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                reg = MetricsRegistry()
                threads, per = 8, 20
                barrier = threading.Barrier(threads)

                def work():
                    barrier.wait()
                    for _ in range(per):
                        reg.histogram("gns.step_seconds").observe(1e-3)
                        reg.counter("gns.rollout_steps").inc()

                pool = [threading.Thread(target=work) for _ in range(threads)]
                for t in pool:
                    t.start()
                for t in pool:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in pool)
                assert reg.histogram("gns.step_seconds").count == threads * per
                assert reg.counter("gns.rollout_steps").value == threads * per
        finally:
            sys.setswitchinterval(old)


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self, reg):
        h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 2.0, 3.9, 4.0, 4.0001):
            h.observe(v)
        row = h.as_row()
        # counts are per-bucket (non-cumulative): (-inf,1], (1,2], (2,4]
        assert row["counts"] == [2, 2, 2]
        assert row["overflow"] == 1
        assert row["count"] == 7
        assert row["min"] == 0.5 and row["max"] == 4.0001

    def test_rejects_non_ascending_edges(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(2.0, 1.0))

    def test_mean_and_sum(self, reg):
        h = reg.histogram("x", buckets=(10.0,))
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        row = h.as_row()
        assert row["sum"] == pytest.approx(6.0)
        assert row["mean"] == pytest.approx(2.0)


class TestSeries:
    def test_appends_points(self, reg):
        s = reg.series("loss")
        for i in range(5):
            s.append(i, float(i * i))
        row = s.as_row()
        assert row["points"][-1] == [4, 16.0]
        assert row["last"] == 16.0

    def test_decimation_bounds_memory(self, reg):
        s = reg.series("long", max_points=64)
        for i in range(10_000):
            s.append(i, float(i))
        assert len(s.points) <= 64
        # endpoints of the decimated trace still span the data
        xs = [p[0] for p in s.points]
        assert xs == sorted(xs)
        assert xs[-1] >= 9000


class TestDisabledRegistry:
    def test_disabled_metrics_are_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("n")
        c.inc()
        assert c.value == 0.0
        g = reg.gauge("g")
        g.set(5.0)
        assert g.as_row()["count"] == 0
        h = reg.histogram("h", buckets=(1.0,))
        h.observe(0.5)
        assert h.as_row()["count"] == 0
        s = reg.series("s")
        s.append(0, 1.0)
        assert s.points == []

    def test_collect_rows_are_json_ready(self, reg):
        reg.counter("a").inc()
        reg.gauge("b", site="x").set(1.0)
        rows = reg.collect()
        assert all(r["kind"] == "metric" for r in rows)
        names = {r["name"] for r in rows}
        assert names == {"a", "b"}
        import json

        json.dumps(rows)  # must not raise


class TestHistogramPercentiles:
    def test_empty_histogram_is_zero(self, reg):
        h = reg.histogram("empty", buckets=(1.0, 2.0))
        assert h.percentile(50) == 0.0
        assert "p50" not in h.as_row()

    def test_extremes_are_exact(self, reg):
        h = reg.histogram("lat", buckets=(1.0, 10.0, 100.0))
        for v in (0.4, 2.0, 3.0, 250.0):
            h.observe(v)
        assert h.percentile(0) == 0.4
        assert h.percentile(100) == 250.0

    def test_interpolation_stays_in_bucket(self, reg):
        h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0, 8.0))
        for v in (1.5, 1.5, 1.5, 1.5):
            h.observe(v)
        # all mass in the (1, 2] bucket tightened to [1.5, 1.5]
        assert h.percentile(50) == pytest.approx(1.5, abs=0.5)
        assert 1.0 <= h.percentile(50) <= 2.0

    def test_median_approximates_true_median(self, reg):
        h = reg.histogram("lat", buckets=tuple(float(i) for i in
                                               range(1, 21)))
        values = [float(i % 10) + 0.5 for i in range(1000)]
        for v in values:
            h.observe(v)
        true_median = sorted(values)[len(values) // 2]
        assert h.percentile(50) == pytest.approx(true_median, abs=1.0)
        # monotone in q
        qs = [h.percentile(q) for q in (10, 50, 90, 99)]
        assert qs == sorted(qs)

    def test_overflow_bucket_uses_observed_max(self, reg):
        h = reg.histogram("lat", buckets=(1.0,))
        for v in (0.5, 5.0, 9.0):
            h.observe(v)
        assert h.percentile(99) <= 9.0

    def test_payload_includes_percentiles(self, reg):
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        row = h.as_row()
        assert set(row) >= {"p50", "p95", "p99"}
        assert row["p50"] <= row["p95"] <= row["p99"]

    def test_percentile_from_row_matches_live(self, reg):
        from repro.obs import percentile_from_row

        h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.3, 1.5, 1.7, 3.0, 6.0):
            h.observe(v)
        row = h.as_row()
        for q in (25, 50, 95):
            assert percentile_from_row(row, q) == pytest.approx(
                h.percentile(q))

    def test_percentile_from_row_rejects_non_histograms(self):
        from repro.obs import percentile_from_row

        assert percentile_from_row({"type": "gauge", "value": 1.0}, 50) \
            is None
        assert percentile_from_row({"type": "histogram", "count": 0}, 50) \
            is None
