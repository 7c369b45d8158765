"""Tests for the metrics registry: instruments, scoping, read-back."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import Counter, Gauge, MetricsRegistry


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
        registry.gauge("primary.tcp.connections_peak").set(2)
        assert registry.value("primary.tcp.sent") == 3
        assert registry.value("primary.tcp.connections_peak") == 2
        assert registry.value("missing", default=None) is None
        assert registry.names("primary.tcp") == [
            "primary.tcp.connections_peak",
            "primary.tcp.sent",
        ]


class TestScope:
    def test_scope_prefixes_names(self):
        registry = MetricsRegistry()
        scope = registry.scope("backup").scope("sttcp")
        counter = scope.counter("acks_sent")
        counter.value += 1
        assert registry.value("backup.sttcp.acks_sent") == 1


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
