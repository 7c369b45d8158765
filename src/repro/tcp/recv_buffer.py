"""The TCP receive buffer: in-order data plus out-of-order reassembly.

The buffer also hosts a *retention* hook (§4.2, Figure 4): a standard TCP
discards a byte once the application has read it, but a replicated server
must keep it until its replica confirms it holds a copy.  A
:class:`RetentionPolicy` captures read bytes into a "second receive
buffer"; bytes that do not fit there keep occupying advertised window
(its ``overflow``), reproducing the paper's behaviour when the replica
falls behind.

The advertised window is a field (DESIGN §13 rule 7), kept current by
whatever changes one of its terms: ``insert`` and ``read`` inline the
formula, every other writer calls :meth:`ReceiveBuffer.refresh_window`, and
a policy whose ``overflow`` changes outside a read tells its buffer.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.util.bytespan import EMPTY, ByteSpan
from repro.util.spanbuffer import SpanBuffer


class RetentionPolicy:
    """Interface a replication engine plugs into the receive path.

    ``overflow`` holds the read-but-unreleased bytes that exceed the second
    buffer and must keep occupying the first buffer's advertised window.
    :meth:`on_read` keeps it current (the buffer refreshes its window after
    the read); anything else that moves it calls
    ``buffer.refresh_window()`` afterwards.
    """

    __slots__ = ("overflow", "buffer")

    def __init__(self) -> None:
        self.overflow = 0
        #: The receive buffer this policy is attached to, if any.
        self.buffer: Optional[ReceiveBuffer] = None

    def on_read(self, start_offset: int, span: ByteSpan) -> None:
        """Bytes [start_offset, start_offset+len) were read by the app."""
        raise NotImplementedError


class ReceiveBuffer:
    """Reassembly buffer for one direction of a connection.

    Offsets are stream offsets (byte 0 ⇔ sequence IRS+1).
    """

    __slots__ = (
        "capacity", "ready", "_out_of_order", "out_of_order_bytes", "retention",
        "bytes_duplicated", "window",
    )

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"recv buffer capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: The in-order bytes: head = read pointer, tail = rcv_nxt.  Its
        #: ``length`` is what the socket tests on every wake-up.
        self.ready = SpanBuffer()
        self._out_of_order: List[Tuple[int, ByteSpan]] = []  # sorted, disjoint
        #: Total held in ``_out_of_order``: a field, read on every segment.
        self.out_of_order_bytes = 0
        self.retention: Optional[RetentionPolicy] = None
        self.bytes_duplicated = 0  # duplicate payload discarded
        #: Advertised window: free space in the (first) receive buffer.
        #: Retained-but-overflowing bytes (second buffer full) continue to
        #: consume it, per §4.2.  Read on every segment sent and received.
        self.window = capacity

    # Pointers ---------------------------------------------------------------
    @property
    def read_offset(self) -> int:
        """Offset of the next byte the application will read."""
        return self.ready.head_offset

    @property
    def rcv_nxt_offset(self) -> int:
        """Offset of the next in-order byte expected from the network."""
        return self.ready.tail_offset

    @property
    def available(self) -> int:
        """In-order bytes ready for the application."""
        return self.ready.length

    def refresh_window(self) -> None:
        """Recompute :attr:`window` from its terms; ``insert`` and ``read``
        inline the same formula."""
        free = self.capacity - self.ready.length - self.out_of_order_bytes
        if self.retention is not None:
            free -= self.retention.overflow
        self.window = free if free > 0 else 0

    def attach_retention(self, policy: RetentionPolicy) -> None:
        """Plug ``policy`` in (replacing any other) and count its overflow."""
        self.retention = policy
        policy.buffer = self
        self.refresh_window()

    # Network side --------------------------------------------------------------
    def insert(self, start_offset: int, span: ByteSpan) -> int:
        """Insert payload at ``start_offset``; returns rcv_nxt advancement.

        Overlaps with already-received data are discarded.  The caller is
        responsible for having trimmed the segment to the advertised
        window; anything beyond ``rcv_nxt + window`` here is clipped as a
        safety net.
        """
        length = span.length
        if length == 0:
            return 0
        ready = self.ready
        rcv_nxt = ready.head_offset + ready.length
        limit = rcv_nxt + self.window
        stop_offset = start_offset + length
        # Clip below rcv_nxt (already received) and above the window.
        if stop_offset <= rcv_nxt:
            self.bytes_duplicated += length
            return 0
        if start_offset < rcv_nxt:
            self.bytes_duplicated += rcv_nxt - start_offset
            span = span.slice(rcv_nxt - start_offset, length)
            start_offset = rcv_nxt
        overflow = start_offset + span.length - limit
        if overflow > 0:
            if overflow >= span.length:
                return 0
            span = span.slice(0, span.length - overflow)
        if start_offset > rcv_nxt:
            self._stash_out_of_order(start_offset, span)
            return 0
        # In-order: append, then drain any out-of-order runs now contiguous.
        ready.append(span)
        advanced = span.length
        if self._out_of_order:
            advanced += self._drain_out_of_order()
        free = self.capacity - ready.length - self.out_of_order_bytes
        if self.retention is not None:
            free -= self.retention.overflow
        self.window = free if free > 0 else 0
        return advanced

    def _stash_out_of_order(self, start: int, span: ByteSpan) -> None:
        """Insert into the sorted, disjoint out-of-order list, clipping any
        bytes already held."""
        stop = start + span.length
        pieces: List[Tuple[int, ByteSpan]] = []
        cursor = start
        for held_start, held_span in self._out_of_order:
            held_stop = held_start + held_span.length
            if held_stop <= cursor:
                continue
            if held_start >= stop:
                break
            if held_start > cursor:
                pieces.append((cursor, span.slice(cursor - start, held_start - start)))
            overlap_stop = min(held_stop, stop)
            if overlap_stop > cursor:
                self.bytes_duplicated += overlap_stop - max(cursor, held_start)
            cursor = max(cursor, held_stop)
        if cursor < stop:
            pieces.append((cursor, span.slice(cursor - start, stop - start)))
        if not pieces:
            return
        self.out_of_order_bytes += sum(piece.length for _, piece in pieces)
        merged = self._out_of_order + pieces
        merged.sort(key=lambda item: item[0])
        self._out_of_order = merged
        self.refresh_window()

    def _drain_out_of_order(self) -> int:
        advanced = 0
        while self._out_of_order:
            start, span = self._out_of_order[0]
            rcv_nxt = self.rcv_nxt_offset
            stop = start + span.length
            if start > rcv_nxt:
                break
            self._out_of_order.pop(0)
            self.out_of_order_bytes -= span.length
            if stop <= rcv_nxt:
                self.bytes_duplicated += span.length
                continue
            if start < rcv_nxt:
                self.bytes_duplicated += rcv_nxt - start
                span = span.slice(rcv_nxt - start, span.length)
            self.ready.append(span)
            advanced += span.length
        return advanced

    def first_gap(self) -> Optional[Tuple[int, int]]:
        """The first missing range [rcv_nxt, start-of-next-ooo-run), if any
        out-of-order data is waiting behind a hole."""
        if not self._out_of_order:
            return None
        return (self.rcv_nxt_offset, self._out_of_order[0][0])

    # Application side ---------------------------------------------------------
    def read(self, max_bytes: int) -> ByteSpan:
        """Pop up to ``max_bytes`` of in-order data for the application.

        Read bytes are offered to the retention policy, if any, before
        leaving the buffer.
        """
        ready = self.ready
        count = max_bytes if max_bytes < ready.length else ready.length
        if count <= 0:
            return EMPTY
        start = ready.head_offset
        span = ready.pop_front(count)
        free = self.capacity - ready.length - self.out_of_order_bytes
        retention = self.retention
        if retention is not None:
            retention.on_read(start, span)
            free -= retention.overflow
        self.window = free if free > 0 else 0
        return span

    def fast_forward(self, offset: int) -> None:
        """Adopt ``offset`` as read pointer *and* ``rcv_nxt`` of an empty
        buffer: bytes below it were received and read elsewhere
        (:meth:`repro.tcp.tcb.TCPConnection.fast_forward`, whose
        quiescence rule guarantees the buffer holds nothing)."""
        self.ready.seek(offset)
        self.refresh_window()

    def peek_unread(self, start: int, stop: int) -> ByteSpan:
        """Zero-copy view of not-yet-read in-order bytes."""
        lo = max(start, self.ready.head_offset)
        hi = min(stop, self.ready.tail_offset)
        if lo >= hi:
            return EMPTY
        return self.ready.peek_absolute(lo, hi)
