"""Trace export: Chrome trace-event JSON (Perfetto).

The Chrome trace-event format is the lingua franca of timeline viewers —
``chrome://tracing``, Perfetto UI and speedscope all load it.  We map:

* closed spans → ``"X"`` complete events (explicit ``dur``), which keeps
  the output valid even when spans from different connections interleave
  (a ``B``/``E`` stream must nest LIFO per track; ``X`` events need not);
* spans still open at end of trace → ``"B"`` begin events (the viewer
  draws them to the end of the timeline);
* ordinary records → ``"i"`` instant events;
* track naming → one ``pid`` per trace ("repro"), one ``tid`` per record
  category, labelled via ``"M"`` metadata events.

Times are exported in microseconds (the format's unit); the simulator's
seconds are multiplied by 1e6.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List

from repro.obs.spans import assemble_spans, is_span_record
from repro.sim.trace import TraceRecord, format_field

#: Synthetic process id for all simulator tracks.
TRACE_PID = 1


def _json_fields(fields: Dict[str, Any]) -> Dict[str, Any]:
    """Render arbitrary field values JSON-safely (segments → summaries)."""
    out: Dict[str, Any] = {}
    for key, value in fields.items():
        if isinstance(value, (int, float, str, bool)) or value is None:
            out[key] = value
        else:
            out[key] = format_field(value)
    return out


def chrome_trace_events(records: List[TraceRecord]) -> List[Dict[str, Any]]:
    """Build the ``traceEvents`` array for a record stream."""
    span_set = assemble_spans(records)
    categories: List[str] = []
    for record in records:
        if record.category not in categories:
            categories.append(record.category)
    tid_of = {category: index + 1 for index, category in enumerate(categories)}

    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "args": {"name": "repro"},
        }
    ]
    for category, tid in tid_of.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"name": category},
            }
        )

    for span in span_set.spans:
        base = {
            "name": span.name,
            "cat": span.category,
            "pid": TRACE_PID,
            "tid": tid_of.get(span.category, 0),
            "ts": span.begin * 1e6,
            "args": _json_fields(span.fields),
        }
        if span.open:
            events.append({**base, "ph": "B"})
        else:
            events.append({**base, "ph": "X", "dur": (span.end - span.begin) * 1e6})

    for record in records:
        if is_span_record(record):
            continue  # represented above as slices
        events.append(
            {
                "name": record.event,
                "cat": record.category,
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "pid": TRACE_PID,
                "tid": tid_of.get(record.category, 0),
                "ts": record.time * 1e6,
                "args": _json_fields(record.fields),
            }
        )
    return events


def write_chrome_trace(records: List[TraceRecord], fh: IO[str]) -> int:
    """Write a Chrome trace-event JSON document; returns the event count."""
    events = chrome_trace_events(records)
    json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh, indent=1)
    fh.write("\n")
    return len(events)


__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
]
