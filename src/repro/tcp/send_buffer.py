"""The TCP send buffer: app data awaiting transmission or acknowledgment.

Offsets are *stream offsets*: byte 0 is the first application byte on the
connection (sequence number ISS+1).  The TCB owns the seq↔offset mapping.

The buffer stores the application's spans as they come — immutable
:class:`~repro.util.bytespan.RealBytes` or O(1) synthetic spans — and
segmentation, retransmission and delivery carry slices of them.
"""

from __future__ import annotations

from repro.util.bytespan import ByteSpan, CatBytes
from repro.util.spanbuffer import SpanBuffer


class SendBuffer:
    """Bytes between ``snd_una`` (head) and the last byte the app wrote."""

    __slots__ = ("capacity", "_data", "tail_offset")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"send buffer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._data = SpanBuffer()
        #: Offset one past the last byte the application has written: the
        #: send stream's tail, read by every output pass.  A field that
        #: :meth:`append` and :meth:`fast_forward` keep equal to
        #: ``SpanBuffer.tail_offset`` (DESIGN §13 rules 2 and 7); releasing
        #: acknowledged bytes moves the head, never the tail.
        self.tail_offset = 0

    # Occupancy -----------------------------------------------------------------
    @property
    def una_offset(self) -> int:
        """Offset of the oldest unacknowledged byte."""
        return self._data.head_offset

    @property
    def free_space(self) -> int:
        return self.capacity - self._data.length

    def __len__(self) -> int:
        return self._data.length

    # Mutation -------------------------------------------------------------------
    def append(self, span: ByteSpan) -> int:
        """Append as much of ``span`` as fits; returns bytes accepted."""
        length = span.length
        accepted = self.capacity - self._data.length  # the free space
        if accepted > length:
            accepted = length
        if accepted <= 0:
            return 0
        if accepted != length:
            span = span.slice(0, accepted)
        # Concatenations (a record or reply the receiver reassembled from
        # several segments, echoed or relayed) are stored as their leaves:
        # the piece list stays flat, so a (re)transmission slice never
        # descends into a nested span.
        for part in span.parts if isinstance(span, CatBytes) else (span,):
            self._data.append(part)
        self.tail_offset += accepted
        return accepted

    def ack_to(self, offset: int) -> int:
        """Release bytes below ``offset``; returns bytes freed."""
        freed = offset - self._data.head_offset
        if freed <= 0:
            return 0
        self._data.discard_front(freed)
        return freed

    def data_range(self, start: int, stop: int) -> ByteSpan:
        """Zero-copy view of [start, stop) for (re)transmission."""
        return self._data.peek_absolute(start, stop)

    def fast_forward(self, offset: int) -> None:
        """Adopt ``offset`` as the stream position of an *empty* buffer.

        Snapshot handoff: bytes below ``offset`` were sent and acked by
        the previous endpoint; this one never carries them.
        """
        self._data.seek(offset)
        self.tail_offset = offset
