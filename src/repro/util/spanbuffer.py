"""A FIFO byte buffer over :class:`~repro.util.bytespan.ByteSpan` pieces.

Used by the TCP send/receive paths: append spans at the tail, read or
discard from the head, and take zero-copy slices at arbitrary offsets (for
retransmission).  All operations are O(pieces touched), and a contiguous
synthetic stream is always *one* piece: ``append`` extends the tail
instead of queueing a neighbour, by the rule
(:func:`~repro.util.bytespan.join_contiguous`) that ``CatBytes`` applies
to every span read back out — so the spans handed out are the same,
found without a walk.
"""

from __future__ import annotations

from typing import List

from repro.util.bytespan import EMPTY, ByteSpan, concat, join_contiguous


class SpanBuffer:
    """FIFO of byte spans with an absolute head offset.

    ``head_offset`` tracks how many bytes have ever been popped, so callers
    can address content by absolute stream position (TCP sequence space is
    mapped onto this after subtracting the ISN).
    """

    __slots__ = ("_pieces", "length", "head_offset")

    def __init__(self) -> None:
        self._pieces: List[ByteSpan] = []
        #: Bytes held: a field the TCP buffers and the socket read on every
        #: segment and wake-up (DESIGN §13 rule 7); ``len()`` is the same.
        self.length = 0
        self.head_offset = 0

    def __len__(self) -> int:
        return self.length

    @property
    def tail_offset(self) -> int:
        """Absolute offset one past the last byte in the buffer."""
        return self.head_offset + self.length

    def append(self, span: ByteSpan) -> None:
        """Add ``span`` at the tail.  A span, not raw bytes: bytes are
        coerced once, where they enter (``TCPSocket.send``)."""
        length = span.length
        if length == 0:
            return
        pieces = self._pieces
        self.length += length
        joined = join_contiguous(pieces[-1], span) if pieces else None
        if joined is None:
            pieces.append(span)
        else:
            pieces[-1] = joined

    def pop_front(self, count: int) -> ByteSpan:
        """Remove and return the first ``count`` bytes (clamped to length)."""
        if count > self.length:
            count = self.length
        if count <= 0:
            return EMPTY
        pieces = self._pieces
        self.length -= count
        self.head_offset += count
        head = pieces[0]
        if count < head.length:
            pieces[0] = head.slice(count, head.length)
            return head.slice(0, count)
        if count == head.length:
            return pieces.pop(0)
        # Count the whole pieces first and remove them with one slice
        # deletion: a pop(0) per piece would make draining a buffer of
        # many small writes quadratic.
        whole = 0
        remaining = count
        for piece in pieces:
            piece_len = piece.length
            if piece_len > remaining:
                break
            remaining -= piece_len
            whole += 1
        taken = pieces[:whole]
        del pieces[:whole]
        if remaining > 0:
            piece = pieces[0]
            taken.append(piece.slice(0, remaining))
            pieces[0] = piece.slice(remaining, piece.length)
        return concat(taken)

    def discard_front(self, count: int) -> None:
        """Drop the first ``count`` bytes without materialising them."""
        if count > self.length:
            count = self.length
        pieces = self._pieces
        whole = 0
        remaining = count
        for piece in pieces:
            piece_len = piece.length
            if piece_len > remaining:
                break
            remaining -= piece_len
            whole += 1
        del pieces[:whole]
        if remaining > 0:
            piece = pieces[0]
            pieces[0] = piece.slice(remaining, piece.length)
        self.length -= count
        self.head_offset += count

    def peek_absolute(self, start: int, stop: int) -> ByteSpan:
        """Zero-copy slice by *absolute* offsets (within the buffer range)."""
        head_offset = self.head_offset
        if start < head_offset or stop > head_offset + self.length or start > stop:
            raise IndexError(
                f"[{start}, {stop}) outside buffered range "
                f"[{head_offset}, {self.tail_offset})"
            )
        if start == stop:
            return EMPTY
        rel_start = start - head_offset
        rel_stop = stop - head_offset
        head = self._pieces[0]
        if rel_stop <= head.length:
            return head.slice(rel_start, rel_stop)
        picked = []
        position = 0
        for piece in self._pieces:
            piece_len = piece.length
            if position + piece_len <= rel_start:
                position += piece_len
                continue
            if position >= rel_stop:
                break
            lo = max(0, rel_start - position)
            hi = min(piece_len, rel_stop - position)
            picked.append(piece.slice(lo, hi))
            position += piece_len
        return concat(picked)

    def peek_front(self, count: int) -> ByteSpan:
        """Zero-copy view of the first ``count`` bytes (clamped)."""
        count = min(count, self.length)
        return self.peek_absolute(self.head_offset, self.head_offset + count)

    def clear(self) -> None:
        self._pieces.clear()
        self.head_offset += self.length
        self.length = 0

    def seek(self, offset: int) -> None:
        """Jump an *empty* buffer's head to ``offset``.

        Lets a stream adopt a position it never carried bytes through
        (ST-TCP snapshot handoff: a fresh backup joins mid-connection at
        the primary's current offsets).  Rewinding is refused — absolute
        offsets already handed out would alias.
        """
        if self.length != 0:
            raise ValueError(f"seek on non-empty buffer ({self.length} bytes held)")
        if offset < self.head_offset:
            raise ValueError(
                f"seek backwards from {self.head_offset} to {offset}"
            )
        self.head_offset = offset
