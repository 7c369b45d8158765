"""Lightweight tracing for simulations.

Components emit structured trace records through the simulator's
:class:`Tracer`.  Tracing is off by default and costs one set lookup per
emit when disabled, so it can be left in hot paths.  Code that
must build kwargs (segment summaries, formatted addresses) guards with
the tracer's :attr:`Tracer.categories` field, so the whole call is
skipped, and no call made, when no sink subscribed to the category::

    if "tcp" in self.sim.trace.categories:
        self.sim.trace.emit(self.sim.now, "tcp", "send", seg=segment)

Records are ``(time, category, event, fields)`` tuples; sinks decide how
to render or store them.  Tests use :class:`RecordingSink` to assert on
protocol behaviour without reaching into private state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional


class TraceRecord(NamedTuple):
    time: float
    category: str
    event: str
    fields: Dict[str, Any]


Sink = Callable[[TraceRecord], None]


class _EveryCategory(frozenset):
    """The category set of a tracer with a wildcard sink: holds every
    category."""

    __slots__ = ()

    def __contains__(self, category: object) -> bool:
        return True


#: :attr:`Tracer.categories` while any wildcard sink is registered.
EVERY_CATEGORY: frozenset = _EveryCategory()


class Tracer:
    """Dispatches trace records to registered sinks, filtered by category.

    The fast-path filter, :attr:`categories`, is the union of every
    sink's categories (:data:`EVERY_CATEGORY` while any wildcard sink is
    registered); it is rebuilt from the per-sink bookkeeping whenever a
    sink is removed, so removing a filtered sink drops its categories and
    removing the last wildcard sink re-tightens the filter.
    """

    __slots__ = ("_sinks", "_sink_categories", "categories")

    def __init__(self) -> None:
        self._sinks: List[Sink] = []
        self._sink_categories: List[Optional[frozenset]] = []
        #: The categories at least one sink wants: the union of their
        #: filters, :data:`EVERY_CATEGORY` while a wildcard sink is
        #: registered, empty with no sink.  Read as a field by every guard
        #: (``"tcp" in trace.categories``); ``_rebuild_filter`` keeps it.
        self.categories: frozenset = frozenset()

    def add_sink(self, sink: Sink, categories: Optional[List[str]] = None) -> None:
        """Register a sink for ``categories`` (every category if None)."""
        self._sinks.append(sink)
        self._sink_categories.append(
            None if categories is None else frozenset(categories)
        )
        self._rebuild_filter()

    def remove_sink(self, sink: Sink) -> None:
        try:
            index = self._sinks.index(sink)
        except ValueError:
            return
        del self._sinks[index]
        del self._sink_categories[index]
        self._rebuild_filter()

    def _rebuild_filter(self) -> None:
        if any(c is None for c in self._sink_categories):
            self.categories = EVERY_CATEGORY  # a wildcard sink sees everything
        else:
            self.categories = frozenset().union(*filter(None, self._sink_categories))

    def emit(self, time: float, category: str, event: str, **fields: Any) -> None:
        categories = self.categories
        if categories is not EVERY_CATEGORY and category not in categories:
            return
        # The union filter above is only the fast path; each sink still
        # sees exclusively its own categories (a sink registered for
        # ["tcp"] must not receive "link" records merely because another
        # sink subscribed to them).  The record is built lazily, on the
        # first sink that matches.
        record: Optional[TraceRecord] = None
        for sink, categories in zip(self._sinks, self._sink_categories):
            if categories is None or category in categories:
                if record is None:
                    record = TraceRecord(time, category, event, fields)
                sink(record)


class RecordingSink:
    """Collects trace records into a list (for tests and debugging)."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def __call__(self, record: TraceRecord) -> None:
        self.records.append(record)

    def of_event(self, event: str) -> List[TraceRecord]:
        return [r for r in self.records if r.event == event]

    def of_category(self, category: str) -> List[TraceRecord]:
        return [r for r in self.records if r.category == category]


#: Rendered field values longer than this are truncated with an ellipsis
#: so a long payload repr cannot wrap a drill report or flight dump.
MAX_FIELD_WIDTH = 60


def format_field(value: Any) -> str:
    """Canonical rendering of one trace field value.

    * TCP segments render through :meth:`TCPSegment.summary` — the same
      ``flags seq:end(len) ack win`` format tcpdump and the drill
      diagnostics use, so a segment reads identically everywhere;
    * floats use ``%g`` (no ``0.30000000000000004`` noise);
    * bytes use ``repr`` (they are payload, not text);
    * everything is capped at :data:`MAX_FIELD_WIDTH` characters.
    """
    # Duck-typed so the sim layer does not import the tcp layer: only
    # TCPSegment carries both of these methods.
    if hasattr(value, "flag_string") and hasattr(value, "summary"):
        text = value.summary()
    elif isinstance(value, float):
        text = f"{value:g}"
    elif isinstance(value, (bytes, bytearray)):
        text = repr(value)
    else:
        text = str(value)
    if len(text) > MAX_FIELD_WIDTH:
        text = text[: MAX_FIELD_WIDTH - 1] + "…"
    return text


def format_record(record: TraceRecord) -> str:
    """One canonical line per record: the flight recorder's dump format."""
    fields = " ".join(
        f"{key}={format_field(value)}" for key, value in record.fields.items()
    )
    return (
        f"[{record.time:12.6f}] {record.category}/{record.event}"
        + (f" {fields}" if fields else "")
    )

