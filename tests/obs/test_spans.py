"""Tests for span assembly: pairing, orphan ends, open spans."""

import pytest

from repro.obs.spans import assemble_spans, is_span_record
from repro.sim.trace import RecordingSink, Tracer


def _traced(fn):
    tracer = Tracer()
    sink = RecordingSink()
    tracer.add_sink(sink)
    fn(tracer)
    return sink.records


class TestAssembly:
    def test_begin_end_pairing(self):
        def scenario(tracer):
            sid = tracer.begin_span(1.0, "tcp", "handshake", host="client")
            tracer.end_span(1.5, "tcp", "handshake", sid, outcome="established")

        spans = assemble_spans(_traced(scenario))
        assert len(spans.spans) == 1
        (span,) = [s for s in spans.spans if s.name == "handshake"]
        assert not span.open
        assert span.duration == 0.5
        # Begin fields and extra end fields merge; reserved keys stripped.
        assert span.fields == {"host": "client", "outcome": "established"}

    def test_span_ids_are_deterministic(self):
        first = _traced(lambda t: t.begin_span(0.0, "a", "x"))
        second = _traced(lambda t: t.begin_span(0.0, "a", "x"))
        assert first == second

    def test_non_span_records_pass_through(self):
        def scenario(tracer):
            tracer.emit(0.0, "tcp", "send", seq=1)
            sid = tracer.begin_span(0.1, "tcp", "retx_burst")
            tracer.end_span(0.2, "tcp", "retx_burst", sid)

        records = _traced(scenario)
        assert [is_span_record(r) for r in records] == [False, True, True]
        assert len(assemble_spans(records).spans) == 1


class TestDegeneracies:
    def test_open_span_survives_crash(self):
        """A span begun but never closed (the host died mid-episode)
        must still appear, flagged open."""

        def scenario(tracer):
            tracer.begin_span(2.0, "sttcp", "takeover_episode", rank=0)

        spans = assemble_spans(_traced(scenario))
        (span,) = [s for s in spans.spans if s.name == "takeover_episode"]
        assert span.open
        assert span.end is None
        assert spans.open_spans == [span]

    def test_orphan_end_is_collected_not_crashed(self):
        def scenario(tracer):
            tracer.end_span(1.0, "tcp", "handshake", 999)

        spans = assemble_spans(_traced(scenario))
        assert spans.spans == []
        assert len(spans.orphan_ends) == 1

    def test_duplicate_end_first_wins(self):
        def scenario(tracer):
            sid = tracer.begin_span(0.0, "tcp", "retx_burst")
            tracer.end_span(1.0, "tcp", "retx_burst", sid)
            tracer.end_span(2.0, "tcp", "retx_burst", sid)

        spans = assemble_spans(_traced(scenario))
        assert [s.end for s in spans.spans if s.name == "retx_burst"] == [1.0]
        assert spans.orphan_ends == []  # a late duplicate is ignored

class TestRealRunSpans:
    def test_failover_run_emits_the_expected_spans(self):
        from repro.apps.workload import echo_workload
        from repro.harness.calibrate import FAST_LAN
        from repro.harness.runner import run_workload
        from repro.harness.scenario import Scenario
        from repro.sttcp.config import STTCPConfig

        scenario = Scenario(
            profile=FAST_LAN, sttcp=STTCPConfig(hb_interval=0.05), seed=7
        )
        sink = RecordingSink()
        scenario.sim.trace.add_sink(sink)
        run_workload(
            echo_workload(30), scenario=scenario, crash_at=0.102, deadline=120.0
        ).require_clean()
        spans = assemble_spans(sink.records)
        names = {span.name for span in spans.spans}
        assert {
            "handshake",
            "shadow_convergence",
            "detection",
            "takeover_episode",
            "fault_tolerant",
        } <= names
        (takeover,) = [s for s in spans.spans if s.name == "takeover_episode"]
        assert not takeover.open
        assert takeover.duration > 0
        (detection,) = [s for s in spans.spans if s.name == "detection"]
        # The detection span covers the silent interval retroactively.
        assert detection.duration > 0.05  # at least one missed heartbeat
        # Every handshake closed (client connects once; shadows mirror it).
        assert not [s for s in spans.spans if s.name == "handshake" and s.open]

    def test_smoke_record_keeps_the_takeover_instants(self):
        """The takeover's cross-host story — suspicion, fence, takeover,
        election — is told by the crashed pair's timeline and the
        fabric's phases in the run record."""
        from repro.cluster.run import ClusterRun
        from repro.cluster.scenario import load_scenario

        record = ClusterRun(load_scenario("configs/cluster/smoke.json")).execute()
        assert record["ok"]
        events = record["timelines"]["s0"]["events"]
        assert events["suspected"] == pytest.approx(0.650)
        assert events["takeover"] == pytest.approx(0.660)
        phases = record["cluster_phases"]["phases"]
        fence, election = phases["fence"], phases["election"]
        assert (fence["start"], fence["end"]) == pytest.approx((0.650, 0.660))
        assert election["start"] == pytest.approx(0.660)
        assert list(phases) == ["fence", "election"]
