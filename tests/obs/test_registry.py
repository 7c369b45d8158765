"""Tests for the metrics registry: instruments, scoping, snapshot/delta."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
)


class TestInstruments:
    def test_counter_inc_and_direct_value(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        counter.value += 2  # the hot-path form
        assert counter.value == 7

    def test_gauge_set(self):
        gauge = Gauge("g")
        gauge.set("active")
        assert gauge.value == "active"

    def test_histogram_stats(self):
        histogram = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == pytest.approx(555.5)
        assert histogram.mean == pytest.approx(138.875)
        assert histogram.min == 0.5
        assert histogram.max == 500.0
        assert histogram.bucket_counts == [1, 1, 1, 1]

    def test_histogram_quantiles(self):
        histogram = Histogram("h", bounds=(1.0, 10.0))
        for _ in range(99):
            histogram.observe(0.5)
        histogram.observe(100.0)
        assert histogram.quantile(0.50) == 1.0
        # The overflow bucket reports the observed maximum, never inf.
        assert histogram.quantile(1.0) == 100.0
        assert histogram.quantile(0.5) is not None
        assert Histogram("empty").quantile(0.5) is None

    def test_empty_histogram_quantile_and_summary(self):
        histogram = Histogram("empty")
        assert histogram.quantile(0.99) is None
        summary = histogram.summary()
        assert summary["count"] == 0
        assert summary["p50"] is None and summary["p99"] is None
        assert summary["min"] is None and summary["max"] is None
        assert summary["mean"] is None

    def test_single_sample_p99_is_the_sample(self):
        # One observation of 0.007 lands in the (0.005, 0.01] bucket;
        # the naive digest answer would be the bucket ceiling 0.01.
        histogram = Histogram("h")
        histogram.observe(0.007)
        assert histogram.quantile(0.99) == pytest.approx(0.007)
        assert histogram.quantile(0.50) == pytest.approx(0.007)
        assert histogram.summary()["p99"] == pytest.approx(0.007)

    def test_overflow_only_histogram_reports_max(self):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.observe(42.0)
        histogram.observe(17.0)
        assert histogram.quantile(0.99) == 42.0

    def test_bucket_quantile_helper_edges(self):
        assert bucket_quantile((1.0, 2.0), [0, 0, 0], 0.5) is None
        assert bucket_quantile((1.0, 2.0), [], 0.5) is None
        # No observed max known: the overflow bucket degrades to inf.
        assert bucket_quantile((1.0,), [0, 3], 0.99) == float("inf")
        # Observed max clamps both overflow and in-range buckets.
        assert bucket_quantile((1.0,), [0, 3], 0.99, observed_max=5.5) == 5.5
        assert bucket_quantile((1.0,), [3, 0], 0.99, observed_max=0.25) == 0.25

    def test_histogram_summary_keys(self):
        histogram = Histogram("h")
        histogram.observe(0.02)
        summary = histogram.summary()
        assert summary["count"] == 1
        assert set(summary) == {"count", "total", "mean", "min", "max", "p50", "p99"}

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=(1.0, 0.5))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_value_and_names(self):
        registry = MetricsRegistry()
        registry.counter("primary.tcp.sent").value += 3
        registry.histogram("primary.tcp.rtt").observe(0.01)
        assert registry.value("primary.tcp.sent") == 3
        assert registry.value("primary.tcp.rtt") == 1  # histogram: count
        assert registry.value("missing", default=None) is None
        assert registry.names("primary.tcp") == [
            "primary.tcp.rtt",
            "primary.tcp.sent",
        ]

    def test_snapshot_and_delta(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h")
        counter.value += 5
        gauge.set("up")
        histogram.observe(1.0)
        before = registry.snapshot()
        assert before["c"] == 5
        assert before["g"] == "up"
        assert before["h"]["count"] == 1

        counter.value += 2
        histogram.observe(2.0)
        histogram.observe(3.0)
        delta = registry.delta(before)
        assert delta == {"c": 2, "h": 2}  # gauge unchanged: omitted

        gauge.set("down")
        delta = registry.delta(before)
        assert delta["g"] == "down"

    def test_delta_against_empty_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").value += 4
        assert registry.delta({}) == {"c": 4}

    def test_delta_counter_reset_never_goes_negative(self):
        # A host teardown mid-interval re-creates instruments from zero;
        # the delta must report the post-reset count, not claim events
        # un-happened with a negative number.
        registry = MetricsRegistry()
        counter = registry.counter("backup.sttcp.acks_sent")
        counter.value = 100
        before = registry.snapshot()
        counter.value = 3  # reset + 3 post-reset increments
        assert registry.delta(before) == {"backup.sttcp.acks_sent": 3}

    def test_delta_histogram_reset_never_goes_negative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        histogram.observe(1.0)
        histogram.observe(2.0)
        # Baseline claims more observations than the (reset) instrument.
        delta = registry.delta({"h": {"count": 10}})
        assert delta == {"h": 2}


class TestScope:
    def test_scope_prefixes_names(self):
        registry = MetricsRegistry()
        scope = registry.scope("backup").scope("sttcp")
        counter = scope.counter("acks_sent")
        counter.value += 1
        assert registry.value("backup.sttcp.acks_sent") == 1

    def test_scope_snapshot_is_filtered(self):
        registry = MetricsRegistry()
        registry.counter("primary.tcp.sent").value += 1
        scope = registry.scope("backup")
        scope.counter("tcp.sent").value += 9
        snapshot = scope.snapshot()
        assert snapshot == {"backup.tcp.sent": 9}
        scope.counter("tcp.sent").value += 1
        assert scope.delta(snapshot) == {"backup.tcp.sent": 1}


class TestSimulatorIntegration:
    def test_layers_register_scoped_counters(self):
        from repro.apps.workload import echo_workload
        from repro.harness.runner import run_workload

        run = run_workload(echo_workload(3), seed=11).require_clean()
        metrics = run.scenario.sim.metrics
        names = metrics.names()
        assert any(name.endswith(".tcp.segments_demuxed") for name in names)
        assert any(name.endswith(".ip.delivered") for name in names)
        assert metrics.value("client.tcp.segments_demuxed") > 0
