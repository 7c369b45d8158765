"""Span reassembly: turn the Tracer's begin/end records back into units.

The span *protocol* lives in :mod:`repro.sim.trace` (reserved field keys
``span``/``sid``/``psid`` on ordinary records); this module is the
post-hoc half — given any record stream (a :class:`RecordingSink`, a
flight-recorder dump, a JSONL file read back), :func:`assemble_spans`
pairs begins with ends and rebuilds the parent/child tree.

Malformed streams are data, not errors: a crash mid-span leaves an open
span (``end is None``), an end without a begin is reported as an orphan,
and both survive assembly so diagnosis tools can show exactly what the
simulation managed to record before it died.

**Causal flows.**  Parent/child links only express nesting on one
emitter; a cluster takeover hops *across* hosts — the backup detects,
the arbiter fences, the coordinator elects, the client resumes.
Those spans carry the reserved ``flow`` field (one id per causal chain,
see :data:`repro.sim.trace.FLOW_KEY`); :meth:`SpanSet.flows` groups them
back into begin-ordered chains and :mod:`repro.obs.export` renders each
chain as Chrome trace-event flow arrows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.sim.trace import (
    FLOW_KEY,
    SPAN_BEGIN,
    SPAN_END,
    SPAN_ID_KEY,
    SPAN_KEY,
    SPAN_PARENT_KEY,
    TraceRecord,
)


@dataclass
class Span:
    """One reassembled begin/end episode."""

    sid: int
    category: str
    name: str
    begin: float
    end: Optional[float] = None
    parent: Optional[int] = None
    flow: Optional[int] = None
    fields: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

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
    """Assembly result: the span forest plus everything that didn't pair."""

    spans: List[Span]              # every span, in begin order
    roots: List[Span]              # spans with no (known) parent
    orphan_ends: List[TraceRecord]  # END records whose sid never began

    @property
    def open_spans(self) -> List[Span]:
        return [s for s in self.spans if s.open]

    def flows(self) -> Dict[int, List[Span]]:
        """Causal chains: flow id → member spans, in begin order.

        Each chain is one cross-host causal episode (a cluster takeover:
        detection → fence → election → resume); begin order is
        causal order because the sim is single-threaded.
        """
        chains: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.flow is not None:
                chains.setdefault(span.flow, []).append(span)
        return chains


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
            extra = {
                k: v
                for k, v in record.fields.items()
                if k not in (SPAN_KEY, SPAN_ID_KEY, SPAN_PARENT_KEY, FLOW_KEY)
            }
            span = Span(
                sid=sid,
                category=record.category,
                name=record.event,
                begin=record.time,
                parent=record.fields.get(SPAN_PARENT_KEY),
                flow=record.fields.get(FLOW_KEY),
                fields=extra,
            )
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
                    if k not in (SPAN_KEY, SPAN_ID_KEY, SPAN_PARENT_KEY, FLOW_KEY):
                        span.fields[k] = v
                if span.flow is None:
                    span.flow = record.fields.get(FLOW_KEY)
        else:
            orphan_ends.append(record)

    roots: List[Span] = []
    for span in spans:
        parent = by_sid.get(span.parent) if span.parent is not None else None
        if parent is not None and parent is not span:
            parent.children.append(span)
        else:
            roots.append(span)
    return SpanSet(spans=spans, roots=roots, orphan_ends=orphan_ends)


def causal_chains(
    records: Iterable[TraceRecord],
) -> Dict[int, List[Dict[str, Any]]]:
    """Flow id → time-ordered node summaries, spans *and* instants.

    :meth:`SpanSet.flows` covers spans only; a chain's terminal node is
    often an instant record (``failover/first_ack``, the client's stream
    resuming).  This merges both into JSON-ready node dicts — ``kind``
    ``"span"`` (with ``begin``/``end``/``duration``) or ``"event"``
    (with ``time``) — suitable for run records and drill attachments.
    """
    records = list(records)
    span_set = assemble_spans(records)
    span_of_sid = {span.sid: span for span in span_set.spans}
    chains: Dict[int, List[Dict[str, Any]]] = {}
    # One pass in stream order: the sim is single-threaded, so stream
    # order *is* causal order, including ties at the same sim time.
    for record in records:
        flow = record.fields.get(FLOW_KEY)
        if not isinstance(flow, int):
            continue
        if is_span_record(record):
            if record.fields.get(SPAN_KEY) != SPAN_BEGIN:
                continue  # the begin record already placed this span
            span = span_of_sid.get(record.fields.get(SPAN_ID_KEY))
            if span is None or span.flow != flow:
                continue
            chains.setdefault(flow, []).append(
                {
                    "kind": "span",
                    "category": span.category,
                    "name": span.name,
                    "begin": span.begin,
                    "end": span.end,
                    "duration": span.duration,
                }
            )
        else:
            chains.setdefault(flow, []).append(
                {
                    "kind": "event",
                    "category": record.category,
                    "name": record.event,
                    "time": record.time,
                }
            )
    return dict(sorted(chains.items()))

