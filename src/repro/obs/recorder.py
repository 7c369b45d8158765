"""The flight recorder: a bounded ring buffer of recent trace records.

Attach one as a wildcard sink and forget about it — appending to a
preallocated ring is cheap enough to leave on for every drill and every
harness run.  When a run goes red (stack crash, drill failure, failed
assertion) the driver dumps the ring: the last N records before the
failure, rendered through the same :func:`repro.sim.trace.format_record`
as live print output, so the black box reads exactly like a trace you
would have watched.

Determinism: records are stored as-is and only rendered at dump time;
for a fixed seed the simulation emits the same records in the same
order, so two dumps of the same run are byte-identical (tested in
``tests/obs/test_recorder.py``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.trace import TraceRecord, format_record

DEFAULT_CAPACITY = 256


class FlightRecorder:
    """Ring buffer trace sink holding the last ``capacity`` records."""

    __slots__ = ("capacity", "_ring", "_next", "total_records")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._ring: List[Optional[TraceRecord]] = [None] * capacity
        self._next = 0          # next write slot
        self.total_records = 0  # lifetime count, including overwritten

    def __call__(self, record: TraceRecord) -> None:
        self._ring[self._next] = record
        self._next = (self._next + 1) % self.capacity
        self.total_records += 1

    @property
    def dropped(self) -> int:
        """Records overwritten because the ring wrapped."""
        return max(0, self.total_records - self.capacity)

    def records(self) -> List[TraceRecord]:
        """Retained records, oldest first."""
        if self.total_records < self.capacity:
            return [r for r in self._ring[: self._next] if r is not None]
        return [
            r
            for r in self._ring[self._next :] + self._ring[: self._next]
            if r is not None
        ]

    def clear(self) -> None:
        self._ring = [None] * self.capacity
        self._next = 0
        self.total_records = 0

    def dump(self, reason: str = "", header: str = "") -> str:
        """Render the ring as text (the black-box transcript); ``header``,
        if given, is a line under the title (a run's fault plan)."""
        lines = [
            "=== flight recorder dump"
            + (f": {reason}" if reason else "")
            + f" ({len(self.records())} of {self.total_records} records"
            + (f", {self.dropped} dropped" if self.dropped else "")
            + ") ==="
        ]
        if header:
            lines.append(header)
        lines.extend(format_record(r) for r in self.records())
        return "\n".join(lines) + "\n"

    def dump_to(self, path: str, reason: str = "", header: str = "") -> str:
        """Write :meth:`dump` to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dump(reason=reason, header=header))
        return path
