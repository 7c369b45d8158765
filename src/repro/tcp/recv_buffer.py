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

from bisect import bisect_left
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
        #: Runs held beyond a gap, sorted and disjoint: no list until a
        #: gap appears, and none once it fills (DESIGN §14 rule 1).
        self._out_of_order: Optional[List[Tuple[int, ByteSpan]]] = None
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
        # Clip below rcv_nxt (already received) and above the window, as
        # the range [lo, hi) of ``span``.
        if stop_offset <= rcv_nxt:
            self.bytes_duplicated += length
            return 0
        lo = 0
        if start_offset < rcv_nxt:
            lo = rcv_nxt - start_offset
            self.bytes_duplicated += lo
            start_offset = rcv_nxt
        hi = length
        if stop_offset > limit:
            hi -= stop_offset - limit
            if hi <= lo:
                return 0
        if start_offset > rcv_nxt:
            self._stash_out_of_order(start_offset, span.slice(lo, hi))
            return 0
        # In-order: append, then drain any out-of-order runs now contiguous.
        ready.append(span, lo, hi)
        advanced = hi - lo
        held = self._out_of_order
        if held:
            advanced += self._drain_out_of_order(held)
        free = self.capacity - ready.length - self.out_of_order_bytes
        if self.retention is not None:
            free -= self.retention.overflow
        self.window = free if free > 0 else 0
        return advanced

    def _stash_out_of_order(self, start: int, span: ByteSpan) -> None:
        """Insert into the sorted, disjoint out-of-order list, clipping any
        bytes already held: each new piece goes in place, at the index
        of the first held run after it (DESIGN §14 rule 1)."""
        held = self._out_of_order
        if held is None:
            held = self._out_of_order = []
        stop = start + span.length
        cursor = start
        added = 0
        # The run before the first one starting at or after ``start`` may
        # still overlap it.  A 1-tuple sorts before every (start, span)
        # with the same start, so no span is ever compared.
        index = bisect_left(held, (start,))
        if index:
            index -= 1
        while index < len(held):
            held_start, held_span = held[index]
            held_stop = held_start + held_span.length
            if held_start >= stop:
                break
            if held_start > cursor:
                held.insert(index, (cursor, span.slice(cursor - start, held_start - start)))
                added += held_start - cursor
                index += 1
            if held_stop > cursor:
                overlap_stop = held_stop if held_stop < stop else stop
                self.bytes_duplicated += overlap_stop - (held_start if held_start > cursor else cursor)
                cursor = held_stop
            index += 1
        if cursor < stop:
            held.insert(index, (cursor, span.slice(cursor - start, stop - start)))
            added += stop - cursor
        if added:
            self.out_of_order_bytes += added
            self.refresh_window()

    def _drain_out_of_order(self, held: List[Tuple[int, ByteSpan]]) -> int:
        """Move the ``held`` runs now at ``rcv_nxt`` to the ready queue; the
        drained runs leave the list in one slice deletion, and an emptied
        list goes."""
        ready = self.ready
        advanced = 0
        drained = 0
        for start, span in held:
            rcv_nxt = ready.head_offset + ready.length
            if start > rcv_nxt:
                break
            drained += 1
            length = span.length
            self.out_of_order_bytes -= length
            if start + length <= rcv_nxt:
                self.bytes_duplicated += length
                continue
            lo = rcv_nxt - start if start < rcv_nxt else 0
            self.bytes_duplicated += lo
            ready.append(span, lo, length)
            advanced += length - lo
        if drained == len(held):
            self._out_of_order = None
        else:
            del held[:drained]
        return advanced

    def first_gap(self) -> Optional[Tuple[int, int]]:
        """The first missing range [rcv_nxt, start-of-next-ooo-run), if any
        out-of-order data is waiting behind a hole."""
        held = self._out_of_order
        if not held:
            return None
        return (self.rcv_nxt_offset, held[0][0])

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

    def peek_unread(self, start: int, stop: int) -> ByteSpan:
        """Zero-copy view of not-yet-read in-order bytes."""
        lo = max(start, self.ready.head_offset)
        hi = min(stop, self.ready.tail_offset)
        if lo >= hi:
            return EMPTY
        return self.ready.peek_absolute(lo, hi)
