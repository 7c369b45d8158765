"""Tests for failover timeline reconstruction.

The headline invariant (the ISSUE's acceptance criterion): on a
figure5-style run, the phase durations sum to the measured
client-visible outage within one tick.
"""

import dataclasses

import pytest

from repro.obs.timeline import (
    PHASE_DETECTION,
    PHASE_RECOVERY,
    PHASE_RESUME,
    PHASE_RTO_WAIT,
    PHASE_TAKEOVER,
    reconstruct_failover,
)
from repro.sim.trace import TraceRecord

#: "Within one tick" for the phase-sum acceptance criterion.
TICK = 1e-4


def _rec(time, category, event, **fields):
    return TraceRecord(time, category, event, fields)


def _cluster_takeover_records():
    return [
        _rec(0.650, "cluster", "fence_requested", host="p0"),
        _rec(0.660, "cluster", "fenced", host="p0"),
        _rec(0.660, "cluster", "election_begin", service="s0"),
        _rec(0.660, "cluster", "elected", service="s0"),
        _rec(0.100, "tcp", "send", seq=1),  # hot-path noise, ignored
    ]


class TestReconstruction:
    def test_none_without_takeover(self):
        records = [
            _rec(0.0, "app", "client_progress", bytes=0),
            _rec(1.0, "app", "client_progress", bytes=100),
        ]
        assert reconstruct_failover(records) is None

    def test_none_with_too_few_checkpoints(self):
        records = [
            _rec(0.0, "app", "client_progress", bytes=0),
            _rec(0.2, "sttcp", "primary_suspected"),
            _rec(0.3, "sttcp", "takeover"),
        ]
        assert reconstruct_failover(records) is None

    def test_full_phase_decomposition(self):
        records = [
            _rec(0.00, "app", "client_progress", bytes=0),
            _rec(0.10, "app", "client_progress", bytes=100),
            _rec(0.12, "host", "crash", host="primary"),
            _rec(0.30, "sttcp", "primary_suspected"),
            _rec(0.31, "sttcp", "takeover"),
            _rec(0.35, "failover", "first_ack"),
            _rec(0.40, "app", "client_progress", bytes=200),
        ]
        timeline = reconstruct_failover(records)
        assert timeline.outage_start == 0.10
        assert timeline.outage_end == 0.40
        assert [p.name for p in timeline.phases] == [
            PHASE_DETECTION,
            PHASE_TAKEOVER,
            PHASE_RTO_WAIT,
            PHASE_RESUME,
        ]
        assert timeline.phase(PHASE_DETECTION).duration == pytest.approx(0.20)
        assert sum(p.duration for p in timeline.phases) == pytest.approx(
            timeline.outage
        )
        assert dict(timeline.events)[0.12] == "crash"

    def test_recovery_phase_when_first_ack_missing(self):
        records = [
            _rec(0.00, "app", "client_progress", bytes=0),
            _rec(0.10, "app", "client_progress", bytes=100),
            _rec(0.30, "sttcp", "primary_suspected"),
            _rec(0.31, "sttcp", "takeover"),
            _rec(0.40, "app", "client_progress", bytes=200),
        ]
        timeline = reconstruct_failover(records)
        assert [p.name for p in timeline.phases] == [
            PHASE_DETECTION,
            PHASE_TAKEOVER,
            PHASE_RECOVERY,
        ]

    def test_summary_and_render(self):
        records = [
            _rec(0.00, "app", "client_progress", bytes=0),
            _rec(0.10, "app", "client_progress", bytes=100),
            _rec(0.30, "sttcp", "primary_suspected"),
            _rec(0.31, "sttcp", "takeover"),
            _rec(0.40, "app", "client_progress", bytes=200),
        ]
        timeline = reconstruct_failover(records)
        summary = timeline.summary()
        assert summary["outage"] == pytest.approx(0.30)
        assert summary["phases"][PHASE_TAKEOVER] == pytest.approx(0.01)
        assert summary["events"]["takeover"] == 0.31
        text = timeline.render()
        assert "failover timeline" in text
        assert "sum of phases" in text

    def test_none_when_the_client_never_recovers(self):
        """The open counter-example's stream (ROADMAP item 1): the longest
        gap closes before the takeover, because the client's last progress
        came before it died of a RST.  Decomposed, the last phase ran
        backwards (−209.6 ms) while the phases still summed to the outage."""
        records = [
            _rec(0.100000, "app", "client_progress", bytes=0),
            _rec(0.100379, "app", "client_progress", bytes=150),
            _rec(0.102122, "host", "crash", host="primary"),
            _rec(0.300000, "sttcp", "primary_suspected", rank=0),
            _rec(0.310000, "sttcp", "takeover", connections=0, degraded=0),
        ]
        assert reconstruct_failover(records) is None

    def test_render_text_is_pinned(self):
        """Both renderers share one phase/event interleave; the text is
        the one the separate renderers printed."""
        from repro.obs.timeline import reconstruct_cluster_phases

        records = [
            _rec(0.00, "app", "client_progress", bytes=0),
            _rec(0.10, "app", "client_progress", bytes=100),
            _rec(0.12, "host", "crash", host="primary"),
            _rec(0.30, "sttcp", "primary_suspected"),
            _rec(0.31, "sttcp", "takeover"),
            _rec(0.35, "failover", "first_ack"),
            _rec(0.40, "app", "client_progress", bytes=200),
        ]
        assert reconstruct_failover(records).render() == (
            "failover timeline: client outage 300.0 ms (0.100000 → 0.400000)\n"
            "  phase detection 0.100000 → 0.300000  (  200.000 ms)\n"
            "  event crash     0.120000\n"
            "  phase takeover  0.300000 → 0.310000  (   10.000 ms)\n"
            "  event suspected 0.300000\n"
            "  phase rto_wait  0.310000 → 0.350000  (   40.000 ms)\n"
            "  event takeover  0.310000\n"
            "  phase resume    0.350000 → 0.400000  (   50.000 ms)\n"
            "  event first_ack 0.350000\n"
            "  sum of phases: 300.0 ms (= client-visible outage)"
        )
        cluster = reconstruct_cluster_phases(_cluster_takeover_records())
        assert cluster.render() == (
            "cluster phases:\n"
            "  phase fence    0.650000 → 0.660000  (   10.000 ms)\n"
            "  phase election 0.660000 → 0.660000  (    0.000 ms)\n"
            "  event fenced   0.660000\n"
            "  event elected  0.660000"
        )


class TestAgainstFigure5Run:
    @pytest.fixture(scope="class")
    def failed_run(self):
        """One figure5-style echo failover (crash at the half-way mark)."""
        from repro.apps.workload import echo_workload
        from repro.harness.runner import CLIENT_START, run_workload
        from repro.sttcp.config import STTCPConfig

        workload = echo_workload(40)
        sttcp = STTCPConfig(hb_interval=0.05)
        baseline = run_workload(workload, sttcp=sttcp, seed=7).require_clean()
        crash_at = CLIENT_START + 0.5 * baseline.total_time
        return run_workload(
            workload, sttcp=sttcp, faults=[(crash_at, "primary_crash")], seed=7, deadline=600.0
        ).require_clean()

    def test_phases_sum_to_measured_outage(self, failed_run):
        timeline = failed_run.timeline
        assert timeline is not None
        total = sum(p.duration for p in timeline.phases)
        assert abs(total - timeline.outage) <= TICK
        # ...and the outage window IS the gap-analysis measurement.
        assert abs(timeline.outage - failed_run.result.max_gap) <= TICK

    def test_phases_partition_the_window(self, failed_run):
        timeline = failed_run.timeline
        assert timeline.phases[0].start == timeline.outage_start
        assert timeline.phases[-1].end == timeline.outage_end
        for previous, current in zip(timeline.phases, timeline.phases[1:]):
            assert previous.end == current.start

    def test_detection_phase_matches_heartbeat_config(self, failed_run):
        # threshold * interval <= detection < (threshold + 1) * interval,
        # measured from the client's last progress (slightly earlier than
        # the silence start, so allow the loose lower bound).
        detection = failed_run.timeline.phase(PHASE_DETECTION)
        config = failed_run.scenario.sttcp_config
        assert detection.duration < (config.hb_miss_threshold + 2) * config.hb_interval

    def test_measure_failover_time_records_the_summary(self):
        from repro.apps.workload import echo_workload
        from repro.harness.runner import measure_failover_time
        from repro.sttcp.config import STTCPConfig

        sample = measure_failover_time(
            echo_workload(20), STTCPConfig(hb_interval=0.05), seed=9
        )
        timeline = sample["timeline"]
        assert timeline is not None
        total = sum(timeline["phases"].values())
        assert abs(total - sample["max_gap"]) <= TICK

    def test_upload_run_reaches_first_ack_phases(self):
        """Upload recovery is driven by the client's retransmission, so
        the four-phase form (incl. rto_wait) must appear."""
        from repro.apps.workload import upload_workload
        from repro.harness.runner import CLIENT_START, run_workload
        from repro.sttcp.config import STTCPConfig

        workload = upload_workload(256 * 1024)
        sttcp = STTCPConfig(hb_interval=0.05)
        baseline = run_workload(workload, sttcp=sttcp, seed=3).require_clean()
        crash_at = CLIENT_START + 0.5 * baseline.total_time
        failed = run_workload(
            workload, sttcp=sttcp, faults=[(crash_at, "primary_crash")], seed=3, deadline=600.0
        ).require_clean()
        names = [p.name for p in failed.timeline.phases]
        assert names == [PHASE_DETECTION, PHASE_TAKEOVER, PHASE_RTO_WAIT, PHASE_RESUME]
        assert abs(
            sum(p.duration for p in failed.timeline.phases)
            - failed.result.max_gap
        ) <= TICK


class TestClusterPhases:
    def test_none_without_cluster_activity(self):
        from repro.obs.timeline import reconstruct_cluster_phases

        records = [_rec(0.1, "tcp", "send"), _rec(0.2, "app", "progress")]
        assert reconstruct_cluster_phases(records) is None

    def test_fence_and_election_windows(self):
        from repro.obs.timeline import (
            PHASE_ELECTION,
            PHASE_FENCE,
            reconstruct_cluster_phases,
        )

        phases = reconstruct_cluster_phases(_cluster_takeover_records())
        assert phases is not None
        assert [p.name for p in phases.phases] == [PHASE_FENCE, PHASE_ELECTION]
        fence = phases.phase(PHASE_FENCE)
        assert (fence.start, fence.end) == (0.650, 0.660)
        summary = phases.summary()
        assert set(summary["phases"]) == {"fence", "election"}
        assert [0.660, "elected"] in [list(e) for e in summary["events"]]
        assert "phase fence" in phases.render()

    def test_fence_without_actuation_spans_requests(self):
        from repro.obs.timeline import PHASE_FENCE, reconstruct_cluster_phases

        records = [
            _rec(0.1, "cluster", "fence_requested", host="p0"),
            _rec(0.2, "cluster", "fence_requested", host="p1"),
        ]
        phases = reconstruct_cluster_phases(records)
        fence = phases.phase(PHASE_FENCE)
        assert (fence.start, fence.end) == (0.1, 0.2)
        assert phases.phase(PHASE_FENCE) is not None
        assert phases.phase("election") is None

    def test_real_cluster_run_phases_are_ordered(self):
        from repro.cluster.run import ClusterRun
        from repro.cluster.scenario import load_scenario
        from repro.obs.timeline import reconstruct_cluster_phases

        run = ClusterRun(load_scenario("configs/cluster/smoke.json"))
        record = run.execute()
        phases = reconstruct_cluster_phases(run.collector.records)
        assert phases is not None
        summary = record["cluster_phases"]
        assert summary == phases.summary()
        fence = summary["phases"]["fence"]
        election = summary["phases"]["election"]
        assert fence["start"] >= record["crash_at"]
        assert election["end"] >= election["start"] >= fence["start"]
        # The run's Chrome slices: s0's phases, then the fabric's.
        assert [p.name for p in run.phases()] == [
            "detection", "takeover", "recovery", "fence", "election"
        ]


def _lengths(value, path="result"):
    """``{path: len}`` of every container reachable from ``value``
    through dataclass fields, slots, sequences and mappings."""
    if isinstance(value, (dict, list, tuple)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        found = {path: len(value)}
    elif dataclasses.is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
        found = {}
    elif hasattr(type(value), "__slots__"):
        items = ((name, getattr(value, name)) for name in type(value).__slots__)
        found = {}
    else:
        return {}
    for name, child in items:
        found.update(_lengths(child, f"{path}.{name}"))
    return found


class TestObserverFootprint:
    """DESIGN §14: an observer keeps O(1) per client, not a record per
    exchange.  The smoke cluster at 40 and at 80 exchanges per client
    (both runs span its failover) must hold the same records and results
    of the same shape."""

    @pytest.fixture(scope="class")
    def runs(self):
        from repro.cluster.run import ClusterRun
        from repro.cluster.scenario import load_scenario

        spec = load_scenario("configs/cluster/smoke.json")
        runs = []
        for exchanges in (40, 80):
            run = ClusterRun(dataclasses.replace(spec, exchanges=exchanges))
            run.execute()
            assert run.pair_timeline("s0") is not None
            runs.append(run)
        return runs

    def test_the_collector_folds_every_progress_record(self, runs):
        for run in runs:
            assert not [r for r in run.collector.records if r.category == "app"]
            assert sorted(run.collector.progress) == ["c0", "c1"]

    def test_no_trail_grows_with_the_exchanges(self, runs):
        short, long = runs
        assert len(short.collector.records) == len(long.collector.records)
        assert [r.exchanges_done for r in long.results.values()] == [80, 80]
        for name, result in short.results.items():
            assert _lengths(result) == _lengths(long.results[name])
