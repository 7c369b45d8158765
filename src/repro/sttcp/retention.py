"""The primary's second receive buffer (§4.2, Figure 4).

Standard TCP discards a received byte once the application reads it.  An
ST-TCP primary must hold it until the backup has acknowledged it over the
UDP channel, because a byte the backup missed on the tap can only be
repaired from here — the client purged it from its send buffer the moment
the primary ACKed.

The paper doubles the receive allocation and manages the extra space as a
logically separate second buffer: read-but-unacked bytes move there, and
only when the second buffer overflows do retained bytes start consuming
advertised window (the sole externally visible deviation from standard
TCP, §4.2).  The overflow is a field, set wherever it moves: a read sets
it and the receive buffer refreshes its window after the read; a release
or :meth:`SecondReceiveBuffer.disable` sets it and refreshes the window
itself, before anyone decides whether to advertise the reopened space.
"""

from __future__ import annotations

from repro.errors import FailoverError
from repro.tcp.recv_buffer import RetentionPolicy
from repro.util.bytespan import EMPTY, ByteSpan
from repro.util.spanbuffer import SpanBuffer


class SecondReceiveBuffer(RetentionPolicy):
    """Retains application-read bytes until the backup acknowledges them."""

    __slots__ = (
        "capacity", "enabled", "_store", "bytes_retained_total",
        "bytes_released_total", "peak_usage", "overflow_byte_peak",
    )

    def __init__(self, capacity: int, start_offset: int = 0) -> None:
        if capacity <= 0:
            raise ValueError(f"second buffer capacity must be positive, got {capacity}")
        super().__init__()
        self.capacity = capacity
        self.enabled = True
        #: head = oldest retained offset; the first read starts at
        #: ``start_offset``, the connection's read position when attached.
        self._store = SpanBuffer()
        self._store.head_offset = start_offset
        # Counters for the sync-strategy ablation (A1).
        self.bytes_retained_total = 0
        self.bytes_released_total = 0
        self.peak_usage = 0
        self.overflow_byte_peak = 0

    # RetentionPolicy ------------------------------------------------------------
    def on_read(self, start_offset: int, span: ByteSpan) -> None:
        if not self.enabled:
            return
        store = self._store
        if start_offset != store.head_offset + store.length:
            raise FailoverError(
                f"non-contiguous retention: read at {start_offset}, "
                f"retained through {store.tail_offset}"
            )
        store.append(span)
        self.bytes_retained_total += span.length
        usage = store.length
        if usage > self.peak_usage:
            self.peak_usage = usage
        overflow = usage - self.capacity
        if overflow > 0:  # usage only grows here: an overflow of 0 stays 0
            self.overflow = overflow
            if overflow > self.overflow_byte_peak:
                self.overflow_byte_peak = overflow

    def _set_overflow(self) -> None:
        """Recompute ``overflow`` after a change outside a read, and let the
        attached buffer count it in its window at once."""
        overflow = self._store.length - self.capacity if self.enabled else 0
        self.overflow = overflow if overflow > 0 else 0
        if self.buffer is not None:
            self.buffer.refresh_window()

    # ST-TCP engine API ------------------------------------------------------------
    @property
    def retained_bytes(self) -> int:
        return len(self._store)

    @property
    def lowest_retained_offset(self) -> int:
        return self._store.head_offset

    def backup_acked(self, offset: int) -> int:
        """Release retained bytes below ``offset``; returns bytes freed.

        The backup acks its NextByteExpected, which can run ahead of what
        the primary's application has read; the release is clamped to the
        retained range.
        """
        if not self.enabled:
            return 0
        target = min(offset, self._store.tail_offset)
        freed = target - self._store.head_offset
        if freed <= 0:
            return 0
        self._store.discard_front(freed)
        self.bytes_released_total += freed
        self._set_overflow()
        return freed

    def release_all(self) -> int:
        """Release every retained byte (the connection closed)."""
        return self.backup_acked(self._store.tail_offset)

    def fetch(self, start_offset: int, stop_offset: int) -> ByteSpan:
        """Bytes [start, stop) ∩ retained range, for recovery service."""
        lo = max(start_offset, self._store.head_offset)
        hi = min(stop_offset, self._store.tail_offset)
        if lo >= hi:
            return EMPTY
        return self._store.peek_absolute(lo, hi)

    def disable(self) -> None:
        """Backup declared failed: revert to standard-TCP semantics
        (non-fault-tolerant mode, §4.4)."""
        self.enabled = False
        self._store.clear()
        self._set_overflow()
