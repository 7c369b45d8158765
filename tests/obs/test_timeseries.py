"""Tests for the sim-time TSDB: sampling, rings, rates, percentiles."""

import json

import pytest

from repro.obs.timeseries import (
    KIND_COUNTER,
    KIND_GAUGE,
    KIND_HISTOGRAM,
    TimeSeries,
    TimeSeriesDB,
)
from repro.sim.simulator import Simulator


def _drive(seed=1, interval=0.010, capacity=512, until=1.0, prefix=""):
    """A small scripted workload: counters, a gauge, a histogram."""
    sim = Simulator(seed=seed)
    counter = sim.metrics.counter("h0.tcp.segments")
    gauge = sim.metrics.gauge("h0.tcp.inflight")
    histogram = sim.metrics.histogram("h0.tcp.rtt", bounds=(0.01, 0.05, 0.1))
    other = sim.metrics.counter("h1.tcp.segments")

    def work():
        counter.inc(3)
        other.inc()
        gauge.set(int(sim.now * 100) % 7)
        histogram.observe(0.02 + (sim.now % 0.05))
        if sim.now < until - 0.005:
            sim.schedule(0.005, work)

    sim.schedule(0.0, work)
    tsdb = TimeSeriesDB(sim, interval=interval, capacity=capacity, prefix=prefix)
    tsdb.start()
    sim.run(until=until)
    tsdb.stop()
    return sim, tsdb


class TestSampling:
    def test_cadence_and_kinds(self):
        _sim, tsdb = _drive()
        assert tsdb.names() == [
            "h0.tcp.inflight",
            "h0.tcp.rtt",
            "h0.tcp.segments",
            "h1.tcp.segments",
        ]
        assert tsdb.series("h0.tcp.segments").kind == KIND_COUNTER
        assert tsdb.series("h0.tcp.inflight").kind == KIND_GAUGE
        assert tsdb.series("h0.tcp.rtt").kind == KIND_HISTOGRAM
        # ~1s at 10ms cadence: one sample at t=0 plus one per tick.
        assert tsdb.samples_taken == pytest.approx(101, abs=2)
        series = tsdb.series("h0.tcp.segments")
        times = [t for t, _ in series.points()]
        assert times[0] == 0.0
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(d == pytest.approx(0.010) for d in deltas)

    def test_prefix_scoping_and_hosts(self):
        _sim, tsdb = _drive(prefix="h0.")
        assert tsdb.names() == ["h0.tcp.inflight", "h0.tcp.rtt", "h0.tcp.segments"]
        assert tsdb.hosts() == ["h0"]

    def test_stop_halts_sampling(self):
        sim = Simulator(seed=1)
        sim.metrics.counter("c").inc()
        tsdb = TimeSeriesDB(sim, interval=0.010)
        tsdb.start()
        sim.run(until=0.05)
        taken = tsdb.samples_taken
        tsdb.stop()
        sim.run(until=0.5)
        assert tsdb.samples_taken == taken

    def test_sampling_costs_one_event_per_tick_and_nothing_per_event(self):
        """The TSDB's whole cost to a run, as a count: the same scripted
        5 000 events execute, plus one scheduler event per sample after
        the first (``start`` takes that one inline)."""

        def run(sampled):
            sim = Simulator(seed=1)
            counter = sim.metrics.counter("h0.tcp.segments")
            left = [5000]

            def work():
                counter.inc()
                left[0] -= 1
                if left[0]:
                    sim.schedule(1e-4, work)

            sim.schedule(0.0, work)
            tsdb = TimeSeriesDB(sim).start() if sampled else None
            sim.run(until=1.5)
            return sim.events_executed, tsdb

        bare, _ = run(sampled=False)
        sampled, tsdb = run(sampled=True)
        assert bare == 5000
        assert tsdb.samples_taken == 30  # default cadence: 50 ms
        assert sampled - bare == tsdb.samples_taken - 1

    def test_late_instruments_start_late(self):
        sim = Simulator(seed=1)
        sim.metrics.counter("early")
        tsdb = TimeSeriesDB(sim, interval=0.010)
        tsdb.start()
        sim.schedule(0.055, lambda: sim.metrics.counter("late").inc())
        sim.run(until=0.1)
        tsdb.stop()
        early = tsdb.series("early")
        late = tsdb.series("late")
        assert early.times[0] == 0.0
        assert late.times[0] >= 0.055

    def test_invalid_parameters_rejected(self):
        sim = Simulator(seed=1)
        with pytest.raises(ValueError):
            TimeSeriesDB(sim, interval=0.0)
        with pytest.raises(ValueError):
            TimeSeriesDB(sim, capacity=0)


class TestDeterminism:
    def test_same_seed_byte_identical_dump(self):
        _sim1, tsdb1 = _drive(seed=42)
        _sim2, tsdb2 = _drive(seed=42)
        doc1 = json.dumps(tsdb1.to_json(), sort_keys=True)
        doc2 = json.dumps(tsdb2.to_json(), sort_keys=True)
        assert doc1 == doc2


class TestRing:
    def test_capacity_bounds_memory_and_counts_dropped(self):
        _sim, tsdb = _drive(capacity=16)
        series = tsdb.series("h0.tcp.segments")
        assert len(series) == 16
        assert series.dropped == series.total_samples - 16
        assert series.dropped > 0
        assert tsdb.summary()["dropped"] >= series.dropped

    def test_at_or_before(self):
        series = TimeSeries("s", KIND_GAUGE, capacity=8)
        for i in range(5):
            series.add(i * 0.1, i)
        assert series.at_or_before(0.25) == (0.2, 2)
        assert series.at_or_before(-1.0) is None
        assert series.latest() == (0.4, 4)


class TestRates:
    def test_instantaneous_and_windowed_rate(self):
        _sim, tsdb = _drive()
        # 3 increments per 5ms = 600/s, sampled every 10ms.
        assert tsdb.rate("h0.tcp.segments") == pytest.approx(600.0, rel=0.35)
        assert tsdb.rate("h0.tcp.segments", window=0.5) == pytest.approx(
            600.0, rel=0.1
        )

    def test_counter_reset_never_negative(self):
        sim = Simulator(seed=1)
        tsdb = TimeSeriesDB(sim, interval=0.010)
        series = tsdb._make("c", KIND_COUNTER)
        series.add(0.00, 100)
        series.add(0.01, 3)  # reset: engine torn down and rebuilt
        rate = tsdb.rate("c")
        assert rate == pytest.approx(300.0)  # counts from zero, not -9700
        assert all(r >= 0 for _t, r in tsdb.rate_series("c"))

    def test_rate_requires_counter_with_history(self):
        _sim, tsdb = _drive()
        assert tsdb.rate("h0.tcp.inflight") is None  # gauge
        assert tsdb.rate("no.such.series") is None


class TestPercentiles:
    def test_whole_run_digest(self):
        _sim, tsdb = _drive()
        digest = tsdb.digest("h0.tcp.rtt")
        assert digest is not None
        assert digest["count"] > 0
        # Observations are 0.02..0.07: p50 lands in a mid bucket, and
        # everything is clamped to the observed max.
        assert 0.02 <= digest["p50"] <= 0.1
        assert digest["p99"] <= digest["max"] + 1e-9

    def test_windowed_percentile_subtracts_digests(self):
        sim = Simulator(seed=1)
        histogram = sim.metrics.histogram("lat", bounds=(0.01, 0.1, 1.0))
        tsdb = TimeSeriesDB(sim, interval=0.010)
        # Early observations are slow, late ones fast: a short window
        # must see only the fast tail.
        for _ in range(50):
            histogram.observe(0.5)
        sim.schedule(0.075, lambda: [histogram.observe(0.005) for _ in range(50)])
        tsdb.start()
        sim.run(until=0.1)
        tsdb.stop()
        whole = tsdb.percentile("lat", 0.99)
        recent = tsdb.percentile("lat", 0.99, window=0.02)
        assert whole == pytest.approx(0.5)
        assert recent == pytest.approx(0.01)  # fast bucket's upper bound

    def test_missing_series_is_none(self):
        _sim, tsdb = _drive()
        assert tsdb.percentile("nope", 0.99) is None
        assert tsdb.digest("nope") is None
        assert tsdb.percentile("h0.tcp.segments", 0.99) is None  # not a histogram


class TestExport:
    def test_summary_shape(self):
        _sim, tsdb = _drive()
        summary = tsdb.summary()
        assert set(summary) == {"interval", "samples", "series", "points", "dropped"}
        assert summary["series"] == 4

    def test_to_json_is_json_serialisable(self):
        _sim, tsdb = _drive()
        doc = tsdb.to_json()
        parsed = json.loads(json.dumps(doc))
        rtt = parsed["series"]["h0.tcp.rtt"]
        assert rtt["kind"] == KIND_HISTOGRAM
        assert rtt["bounds"] == [0.01, 0.05, 0.1]
        assert len(rtt["t"]) == len(rtt["v"])
