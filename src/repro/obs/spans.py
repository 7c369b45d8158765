"""Span reassembly: turn the Tracer's begin/end records back into units.

The span *protocol* lives in :mod:`repro.sim.trace` (reserved field keys
``span``/``sid`` on ordinary records); this module is the post-hoc half —
given any record stream (a :class:`RecordingSink`, a flight-recorder
dump, a JSONL file read back), :func:`assemble_spans` pairs begins with
ends.

Malformed streams are data, not errors: a crash mid-span leaves an open
span (``end is None``), an end without a begin is reported as an orphan,
and both survive assembly so diagnosis tools can show exactly what the
simulation managed to record before it died.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.sim.trace import SPAN_BEGIN, SPAN_END, SPAN_ID_KEY, SPAN_KEY, TraceRecord


@dataclass
class Span:
    """One reassembled begin/end episode."""

    sid: int
    category: str
    name: str
    begin: float
    end: Optional[float] = None
    fields: Dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        """True when the span was never closed (crash mid-span)."""
        return self.end is None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.begin

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self.open else f"{self.duration:.6f}s"
        return f"<Span #{self.sid} {self.category}/{self.name} {state}>"


@dataclass
class SpanSet:
    """Assembly result: the spans plus every end that didn't pair."""

    spans: List[Span]              # every span, in begin order
    orphan_ends: List[TraceRecord]  # END records whose sid never began

    @property
    def open_spans(self) -> List[Span]:
        return [s for s in self.spans if s.open]


def is_span_record(record: TraceRecord) -> bool:
    return SPAN_KEY in record.fields


def assemble_spans(records: Iterable[TraceRecord]) -> SpanSet:
    """Pair span begin/end records from a stream, in stream order.

    Non-span records pass through untouched (they are simply skipped).
    An END whose sid has no matching BEGIN — possible when the stream is
    a ring-buffer dump whose head was overwritten — is collected into
    ``orphan_ends`` rather than dropped.  A BEGIN without an END stays
    open.  Duplicate ENDs for the same sid: the first one wins.
    """
    spans: List[Span] = []
    by_sid: Dict[int, Span] = {}
    orphan_ends: List[TraceRecord] = []

    for record in records:
        marker = record.fields.get(SPAN_KEY)
        if marker is None:
            continue
        sid = record.fields.get(SPAN_ID_KEY)
        if not isinstance(sid, int):
            orphan_ends.append(record)
            continue
        if marker == SPAN_BEGIN:
            extra = {k: v for k, v in record.fields.items() if k not in (SPAN_KEY, SPAN_ID_KEY)}
            span = Span(sid=sid, category=record.category, name=record.event, begin=record.time, fields=extra)
            spans.append(span)
            by_sid[sid] = span
        elif marker == SPAN_END:
            span = by_sid.get(sid)
            if span is None:
                orphan_ends.append(record)
                continue
            if span.end is None:
                span.end = record.time
                for k, v in record.fields.items():
                    if k not in (SPAN_KEY, SPAN_ID_KEY):
                        span.fields[k] = v
        else:
            orphan_ends.append(record)
    return SpanSet(spans=spans, orphan_ends=orphan_ends)
