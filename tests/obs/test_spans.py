"""Tests for span assembly: nesting, orphan ends, open spans, flows."""

import pytest

from repro.obs.spans import assemble_spans, causal_chains, is_span_record
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

    def test_nesting_via_parent_ids(self):
        def scenario(tracer):
            outer = tracer.begin_span(0.0, "sttcp", "takeover_episode")
            inner = tracer.begin_span(0.1, "sttcp", "shadow_convergence", parent=outer)
            tracer.end_span(0.2, "sttcp", "shadow_convergence", inner)
            tracer.end_span(0.3, "sttcp", "takeover_episode", outer)

        spans = assemble_spans(_traced(scenario))
        assert [s.name for s in spans.roots] == ["takeover_episode"]
        assert [s.name for s in spans.roots[0].children] == ["shadow_convergence"]

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

    def test_missing_parent_degrades_to_root(self):
        def scenario(tracer):
            sid = tracer.begin_span(0.0, "tcp", "child", parent=555)
            tracer.end_span(0.1, "tcp", "child", sid)

        spans = assemble_spans(_traced(scenario))
        assert [s.name for s in spans.roots] == ["child"]


class TestCausalFlows:
    def _takeover_chain(self, tracer):
        """A miniature cross-host takeover: backup → arbiter → election,
        with an instant resume marker terminating the chain."""
        flow = tracer.new_flow()
        episode = tracer.begin_span(0.5, "sttcp", "takeover_episode", flow=flow)
        fence = tracer.begin_span(0.5, "cluster", "fence", host="p0", flow=flow)
        tracer.end_span(0.51, "cluster", "fence", fence, outcome="fenced")
        tracer.emit(0.51, "cluster", "election_begin", service="s0", flow=flow)
        tracer.end_span(0.52, "sttcp", "takeover_episode", episode)
        tracer.emit(0.521, "failover", "first_ack", flow=flow)
        # Unrelated traffic must stay out of the chain.
        tracer.emit(0.522, "tcp", "send", seq=9)
        return flow

    def test_flows_group_member_spans_in_begin_order(self):
        records = _traced(self._takeover_chain)
        spans = assemble_spans(records)
        chains = spans.flows()
        assert list(chains) == [1]
        assert [s.name for s in chains[1]] == ["takeover_episode", "fence"]
        assert [s for s in spans.spans if s.flow == 1] == chains[1]

    def test_flow_ids_are_deterministic(self):
        tracer = Tracer()
        assert tracer.new_flow() == 1
        assert tracer.new_flow() == 2

    def test_causal_chains_merge_spans_and_instants_in_stream_order(self):
        records = _traced(self._takeover_chain)
        chains = causal_chains(records)
        assert list(chains) == [1]
        nodes = chains[1]
        assert [(n["kind"], n["name"]) for n in nodes] == [
            ("span", "takeover_episode"),
            ("span", "fence"),
            ("event", "election_begin"),
            ("event", "first_ack"),
        ]
        fence = nodes[1]
        assert fence["begin"] == 0.5 and fence["duration"] == pytest.approx(0.01)
        assert nodes[3]["time"] == 0.521

    def test_end_record_can_backfill_the_flow(self):
        def scenario(tracer):
            sid = tracer.begin_span(0.0, "cluster", "fence")
            tracer.end_span(0.1, "cluster", "fence", sid, flow=7)

        spans = assemble_spans(_traced(scenario))
        assert [s.flow for s in spans.spans if s.name == "fence"] == [7]

    def test_flow_key_never_leaks_into_span_fields(self):
        records = _traced(self._takeover_chain)
        for span in assemble_spans(records).spans:
            assert "flow" not in span.fields

    def test_real_cluster_run_produces_one_ordered_chain(self):
        from repro.cluster.scenario import load_scenario
        from repro.cluster.run import ClusterRun
        from repro.obs.spans import causal_chains as chains_of

        spec = load_scenario("configs/cluster/smoke.json")
        run = ClusterRun(spec)
        record = run.execute()
        assert record["ok"]
        chains = chains_of(run.collector.records)
        assert len(chains) == 1
        (nodes,) = chains.values()
        names = [n["name"] for n in nodes]
        assert names[0] == "takeover_episode"
        assert "fence" in names and "election_begin" in names
        assert names[-1] == "first_ack"
        # Stream order is causal order: node times never go backwards.
        times = [n.get("begin", n.get("time")) for n in nodes]
        assert times == sorted(times)


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
