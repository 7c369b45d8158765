"""Tests for trace export: Chrome trace-event JSON."""

import io
import json
from pathlib import Path

import pytest

from repro.obs.export import PHASES_TID, chrome_trace_events, write_chrome_trace
from repro.obs.timeline import Phase
from repro.sim.trace import RecordingSink, Tracer


def _small_stream():
    tracer = Tracer()
    sink = RecordingSink()
    tracer.add_sink(sink)
    tracer.emit(0.001, "tcp", "send", seq=1)
    tracer.emit(0.004, "sttcp", "primary_suspected", rank=0)
    tracer.emit(0.005, "sttcp", "takeover", connections=1, degraded=0)
    return sink.records


_PHASES = [Phase("detection", 0.002, 0.004), Phase("takeover", 0.004, 0.005)]


class TestChromeTrace:
    def test_event_shapes(self):
        events = chrome_trace_events(_small_stream(), _PHASES)
        by_ph = {}
        for event in events:
            by_ph.setdefault(event["ph"], []).append(event)
        assert set(by_ph) == {"M", "X", "i"}
        # Metadata: one process_name, the phases track, one per category.
        assert len(by_ph["M"]) == 4
        # Each phase is a complete event on the phases track, in µs.
        detection, takeover = by_ph["X"]
        assert (detection["name"], takeover["name"]) == ("detection", "takeover")
        assert detection["ts"] == pytest.approx(2000.0)
        assert detection["dur"] == pytest.approx(2000.0)
        assert {detection["tid"], takeover["tid"]} == {PHASES_TID}
        # Every record is one thread-scoped instant.
        assert [e["name"] for e in by_ph["i"]] == ["send", "primary_suspected", "takeover"]
        assert {e["s"] for e in by_ph["i"]} == {"t"}
        assert by_ph["i"][2]["args"] == {"connections": 1, "degraded": 0}

    def test_tids_are_stable_per_category(self):
        events = chrome_trace_events(_small_stream(), _PHASES)
        tcp_tids = {e["tid"] for e in events if e.get("cat") == "tcp"}
        sttcp_tids = {e["tid"] for e in events if e.get("cat") == "sttcp"}
        assert len(tcp_tids) == 1 and len(sttcp_tids) == 1
        assert tcp_tids != sttcp_tids
        assert PHASES_TID not in tcp_tids | sttcp_tids

    def test_write_parses_back(self):
        fh = io.StringIO()
        count = write_chrome_trace(_small_stream(), fh, _PHASES)
        document = json.loads(fh.getvalue())
        assert document["displayTimeUnit"] == "ms"
        assert len(document["traceEvents"]) == count


class TestDrillRunExport:
    def test_drill_run_export_is_valid_and_spans_pair(self):
        """Export a real cluster drill run, parse it back: its slices pair
        one-to-one with the run's phases, its instants with its records."""
        from repro.drill.runner import run_program
        from repro.drill.script import load_script

        script = (
            Path(__file__).parent.parent
            / "drill"
            / "scripts"
            / "t28_cluster_pool_promotion.py"
        )
        result, env = run_program(load_script(script))
        assert result.passed
        records = list(env.cluster.collector.records)
        phases = env.cluster.phases()
        assert {"detection", "takeover", "fence", "election"} <= {p.name for p in phases}

        fh = io.StringIO()
        write_chrome_trace(records, fh, phases)
        events = json.loads(fh.getvalue())["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert [(e["name"], e["ts"]) for e in complete] == [
            (p.name, p.start * 1e6) for p in phases
        ]
        for event in complete:
            assert event["dur"] >= 0
        assert len([e for e in events if e["ph"] == "i"]) == len(records)


class TestFlowEvents:
    def test_stream_without_flows_emits_no_arrows(self):
        events = chrome_trace_events(_small_stream(), _PHASES)
        assert not [e for e in events if e["ph"] in ("B", "E", "s", "t", "f")]


class TestCliExport:
    def test_explain_chrome_export(self, tmp_path, capsys):
        from repro.harness.cli import main

        out = tmp_path / "trace.json"
        assert main(["explain", "--exchanges", "30", "--chrome", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        slices = [e["name"] for e in events if e["ph"] == "X"]
        assert slices[:2] == ["detection", "takeover"]
        assert not [e for e in events if e["ph"] in ("B", "E")]
        assert "established" in {e["name"] for e in events if e["ph"] == "i"}
        captured = capsys.readouterr()
        assert f"trace events to {out}" in captured.err
        assert "trace events" not in captured.out  # stdout is the report only
