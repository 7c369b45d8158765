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

    __slots__ = ("capacity", "_data", "una_offset", "tail_offset")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"send buffer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._data = SpanBuffer()
        #: Offset of the oldest unacknowledged byte, read by every ACK: a
        #: field that :meth:`ack_to` keeps equal to ``SpanBuffer.head_offset``
        #: (DESIGN §13 rule 7).
        self.una_offset = 0
        #: Offset one past the last byte the application has written: the
        #: send stream's tail, read by every output pass.  A field that
        #: :meth:`append` keeps equal to ``SpanBuffer.tail_offset`` (DESIGN
        #: §13 rules 2 and 7); releasing
        #: acknowledged bytes moves the head, never the tail.  Free space is
        #: ``capacity - (tail_offset - una_offset)``.
        self.tail_offset = 0

    # Occupancy -----------------------------------------------------------------
    @property
    def free_space(self) -> int:
        return self.capacity - self._data.length

    def __len__(self) -> int:
        return self._data.length

    # Mutation -------------------------------------------------------------------
    def append(self, span: ByteSpan, start: int = 0) -> int:
        """Append as much of ``span[start:]`` as fits; returns bytes accepted.

        The range is handed on, not sliced: a writer that got part of a
        span in passes the same span and the offset it reached.
        """
        stop = span.length
        free = self.capacity - self.tail_offset + self.una_offset
        if stop - start > free:
            stop = start + free
        if stop <= start:
            return 0
        data = self._data
        if isinstance(span, CatBytes):
            # Concatenations (a record or reply the receiver reassembled
            # from several segments, echoed or relayed) are stored as
            # their leaves: the piece list stays flat, so a
            # (re)transmission slice never descends into a nested span.
            position = 0
            for part in span.parts:
                end = position + part.length
                if end > start:
                    data.append(
                        part,
                        start - position if start > position else 0,
                        (stop if stop < end else end) - position,
                    )
                    if end >= stop:
                        break
                position = end
        else:
            data.append(span, start, stop)
        accepted = stop - start
        self.tail_offset += accepted
        return accepted

    def ack_to(self, offset: int) -> int:
        """Release bytes below ``offset``; returns bytes freed (never more
        than the buffer holds)."""
        if offset > self.tail_offset:
            offset = self.tail_offset
        freed = offset - self.una_offset
        if freed <= 0:
            return 0
        data = self._data
        data.discard_front(freed)
        self.una_offset = data.head_offset  # the same int object: no copy kept
        return freed

    def data_range(self, start: int, stop: int) -> ByteSpan:
        """Zero-copy view of [start, stop) for (re)transmission."""
        return self._data.peek_absolute(start, stop)
