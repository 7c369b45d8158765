"""The TCP send buffer: app data awaiting transmission or acknowledgment.

Offsets are *stream offsets*: byte 0 is the first application byte on the
connection (sequence number ISS+1).  The TCB owns the seq↔offset mapping.

Under ``REPRO_DATAPATH=batch`` real payload bytes are ingested into the
shared :class:`~repro.net.segment_pool.SegmentPool` — copied once into a
slab, then carried as ``memoryview`` spans through segmentation,
retransmission and delivery with no further copies.  The object arm
keeps the fresh-:class:`~repro.util.bytespan.RealBytes` path as the
bit-exact reference (content-equal spans, so nothing observable moves).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.net.segment_pool import SegmentPool
from repro.util.bytespan import ByteSpan, CatBytes, RealBytes, as_span
from repro.util.spanbuffer import SpanBuffer


class SendBuffer:
    """Bytes between ``snd_una`` (head) and the last byte the app wrote."""

    def __init__(self, capacity: int, pool: Optional[SegmentPool] = None) -> None:
        """``pool`` is handed down by a batch-arm TCP layer; without one
        real bytes stay fresh ``RealBytes`` (the object arm)."""
        if capacity <= 0:
            raise ValueError(f"send buffer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._data = SpanBuffer()
        self._pool = pool

    # Occupancy -----------------------------------------------------------------
    @property
    def una_offset(self) -> int:
        """Offset of the oldest unacknowledged byte."""
        return self._data.head_offset

    @property
    def tail_offset(self) -> int:
        """Offset one past the last byte the application has written."""
        return self._data.tail_offset

    @property
    def free_space(self) -> int:
        return self.capacity - self._data._length

    def __len__(self) -> int:
        return self._data._length

    # Mutation -------------------------------------------------------------------
    def append(self, data: Union[ByteSpan, bytes]) -> int:
        """Append as much of ``data`` as fits; returns bytes accepted."""
        span = as_span(data)
        accepted = min(span.length, self.free_space)
        if accepted <= 0:
            return 0
        if accepted != span.length:
            span = span.slice(0, accepted)
        # Concatenations (the app protocol's RealBytes header + synthetic
        # padding) are split into their leaves on BOTH arms so the buffer
        # layout — and with it ``bytes_per_tcb`` — stays arm-invariant.
        parts = span.parts if isinstance(span, CatBytes) else (span,)
        pool = self._pool
        for part in parts:
            if pool is not None and isinstance(part, RealBytes):
                # Batch arm: real bytes go through the pool (one copy
                # into a slab; every later slice is a zero-copy
                # memoryview).  Synthetic spans are already O(1) and
                # pass through unchanged on both arms.
                part = pool.ingest(part.data)
            self._data.append(part)
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
