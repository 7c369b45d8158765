"""Trace export: Chrome trace-event JSON (Perfetto).

The Chrome trace-event format is the lingua franca of timeline viewers —
``chrome://tracing``, Perfetto UI and speedscope all load it.  We map:

* failover phases (:class:`~repro.obs.timeline.Phase`, as the pair
  timeline and the cluster phases reconstruct them) → ``"X"`` complete
  events (explicit ``dur``) on one ``phases`` track;
* trace records → ``"i"`` instant events;
* track naming → one ``pid`` per trace ("repro"), one ``tid`` per record
  category, labelled via ``"M"`` metadata events.

Times are exported in microseconds (the format's unit); the simulator's
seconds are multiplied by 1e6.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List

from repro.obs.timeline import Phase
from repro.sim.trace import TraceRecord, format_field

#: Synthetic process id for all simulator tracks.
TRACE_PID = 1

#: The track the phase slices are drawn on (record categories count from 1).
PHASES_TID = 0


def _json_fields(fields: Dict[str, Any]) -> Dict[str, Any]:
    """Render arbitrary field values JSON-safely (segments → summaries)."""
    out: Dict[str, Any] = {}
    for key, value in fields.items():
        if isinstance(value, (int, float, str, bool)) or value is None:
            out[key] = value
        else:
            out[key] = format_field(value)
    return out


def _track_name(tid: int, name: str) -> Dict[str, Any]:
    return {"name": "thread_name", "ph": "M", "pid": TRACE_PID, "tid": tid, "args": {"name": name}}


def chrome_trace_events(
    records: List[TraceRecord], phases: List[Phase]
) -> List[Dict[str, Any]]:
    """Build the ``traceEvents`` array: ``phases`` as slices, ``records``
    as instants."""
    categories: List[str] = []
    for record in records:
        if record.category not in categories:
            categories.append(record.category)
    tid_of = {category: index + 1 for index, category in enumerate(categories)}

    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": TRACE_PID, "args": {"name": "repro"}},
        _track_name(PHASES_TID, "phases"),
        *(_track_name(tid, category) for category, tid in tid_of.items()),
    ]
    for phase in phases:
        events.append(
            {
                "name": phase.name,
                "cat": "phase",
                "ph": "X",
                "pid": TRACE_PID,
                "tid": PHASES_TID,
                "ts": phase.start * 1e6,
                "dur": phase.duration * 1e6,
            }
        )
    for record in records:
        events.append(
            {
                "name": record.event,
                "cat": record.category,
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "pid": TRACE_PID,
                "tid": tid_of[record.category],
                "ts": record.time * 1e6,
                "args": _json_fields(record.fields),
            }
        )
    return events


def write_chrome_trace(
    records: List[TraceRecord], fh: IO[str], phases: List[Phase]
) -> int:
    """Write a Chrome trace-event JSON document; returns the event count."""
    events = chrome_trace_events(records, phases)
    json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh, indent=1)
    fh.write("\n")
    return len(events)


__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
]
