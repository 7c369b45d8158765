"""Tests for trace export: Chrome trace-event JSON."""

import io
import json
from pathlib import Path

import pytest

from repro.obs.export import chrome_trace_events, write_chrome_trace
from repro.obs.spans import assemble_spans
from repro.sim.trace import RecordingSink, Tracer


def _small_stream():
    tracer = Tracer()
    sink = RecordingSink()
    tracer.add_sink(sink)
    tracer.emit(0.001, "tcp", "send", seq=1)
    sid = tracer.begin_span(0.002, "tcp", "handshake", host="client")
    tracer.end_span(0.004, "tcp", "handshake", sid, outcome="established")
    tracer.begin_span(0.005, "sttcp", "takeover_episode")  # left open
    return sink.records


class TestChromeTrace:
    def test_event_shapes(self):
        events = chrome_trace_events(_small_stream())
        by_ph = {}
        for event in events:
            by_ph.setdefault(event["ph"], []).append(event)
        # Metadata: one process_name + one thread_name per category.
        assert len(by_ph["M"]) == 3
        # The closed handshake is a complete event with duration in µs.
        (complete,) = by_ph["X"]
        assert complete["name"] == "handshake"
        assert complete["ts"] == pytest.approx(2000.0)
        assert complete["dur"] == pytest.approx(2000.0)
        assert complete["args"] == {"host": "client", "outcome": "established"}
        # The open takeover episode degrades to a begin event.
        (begin,) = by_ph["B"]
        assert begin["name"] == "takeover_episode"
        # The plain record is a thread-scoped instant.
        (instant,) = by_ph["i"]
        assert instant["name"] == "send"
        assert instant["s"] == "t"

    def test_tids_are_stable_per_category(self):
        events = chrome_trace_events(_small_stream())
        tcp_tids = {e["tid"] for e in events if e.get("cat") == "tcp"}
        sttcp_tids = {e["tid"] for e in events if e.get("cat") == "sttcp"}
        assert len(tcp_tids) == 1 and len(sttcp_tids) == 1
        assert tcp_tids != sttcp_tids

    def test_write_parses_back(self):
        fh = io.StringIO()
        count = write_chrome_trace(_small_stream(), fh)
        document = json.loads(fh.getvalue())
        assert document["displayTimeUnit"] == "ms"
        assert len(document["traceEvents"]) == count


class TestDrillRunExport:
    def test_drill_run_export_is_valid_and_spans_pair(self, tmp_path):
        """Export a real drill run, parse it back, and check the span
        accounting matches the assembly on the raw records."""
        from repro.drill.runner import run_program
        from repro.drill.script import load_script

        script = (
            Path(__file__).parent.parent
            / "drill"
            / "scripts"
            / "t01_handshake_3way.py"
        )
        result, env = run_program(load_script(script))
        assert result.passed
        records = env.flight.records()
        spans = assemble_spans(records)
        assert spans.spans, "a handshake drill must produce at least one span"

        fh = io.StringIO()
        write_chrome_trace(records, fh)
        document = json.loads(fh.getvalue())
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        open_begins = [e for e in events if e["ph"] == "B"]
        closed_spans = [s for s in spans.spans if not s.open]
        assert len(complete) == len(closed_spans)
        assert len(open_begins) == len(spans.open_spans)
        for event in complete:
            assert event["dur"] >= 0
        # Timestamps are µs and non-decreasing per the source ordering.
        handshakes = [e for e in complete if e["name"] == "handshake"]
        assert handshakes
        # Every event JSON-serializable (args rendered through format_field).
        json.dumps(events)


class TestFlowEvents:
    def test_stream_without_flows_emits_no_arrows(self):
        events = chrome_trace_events(_small_stream())
        assert not [e for e in events if e["ph"] in ("s", "t", "f")]


class TestCliExport:
    def test_explain_chrome_export(self, tmp_path, capsys):
        from repro.harness.cli import main

        out = tmp_path / "trace.json"
        assert main(["explain", "--exchanges", "30", "--chrome", str(out)]) == 0
        document = json.loads(out.read_text())
        names = {e["name"] for e in document["traceEvents"]}
        assert "takeover_episode" in names
        assert "handshake" in names
        captured = capsys.readouterr()
        assert f"trace events to {out}" in captured.err
        assert "trace events" not in captured.out  # stdout is the report only
