"""A FIFO byte buffer over :class:`~repro.util.bytespan.ByteSpan` pieces.

Used by the TCP send/receive paths: append spans at the tail, read or
discard from the head, and take zero-copy slices at arbitrary offsets (for
retransmission).  All operations are O(pieces touched).

The pieces are the spans the callers appended, never rebuilt while bytes
are stored or freed: the buffer keeps its ranges over them as two ints.
``_skip`` is how many bytes of the head piece are already gone, and
``_extend`` how far the tail piece's range ends past (positive) or short of
(negative) that span's own end.  So freeing bytes, and appending the next
range of the tail's own span or the next contiguous piece of the tail's
pattern stream, changes an offset; a span is built only when one is
handed out (:meth:`pop_front`, :meth:`peek_absolute`).  An empty buffer
holds no list: the empty tuple stands in for its pieces (DESIGN §14
rule 1), and the first append makes one.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.util.bytespan import EMPTY, ByteSpan, PatternBytes, concat, extent


class SpanBuffer:
    """FIFO of byte spans with an absolute head offset.

    ``head_offset`` tracks how many bytes have ever been popped, so callers
    can address content by absolute stream position (TCP sequence space is
    mapped onto this after subtracting the ISN).
    """

    __slots__ = ("_pieces", "_skip", "_extend", "length", "head_offset")

    def __init__(self) -> None:
        #: The spans held, or ``()`` while the buffer is empty.
        self._pieces: Union[List[ByteSpan], Tuple[()]] = ()
        #: Bytes of ``_pieces[0]`` already popped or discarded.
        self._skip = 0
        #: The tail piece's range ends at ``_pieces[-1].length + _extend``:
        #: above its span's length only for a pattern extended by contiguous
        #: appends, below it for a range appended short of its span's end.
        self._extend = 0
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

    def append(self, span: ByteSpan, start: int = 0, stop: Optional[int] = None) -> None:
        """Add bytes [start, stop) of ``span`` (all of it by default) at the
        tail.  A span, not raw bytes: bytes are coerced once, where they
        enter (``TCPSocket.send``).  The buffer keeps ``span`` itself; it
        builds a span here only to close an extended tail before a piece
        that does not continue it, or for a range that starts inside
        ``span`` behind other pieces."""
        if stop is None:
            stop = span.length
        if stop <= start:
            return
        pieces = self._pieces
        self.length += stop - start
        if not pieces:
            self._pieces = [span]
            self._skip = start
            self._extend = stop - span.length
            return
        tail = pieces[-1]
        extend = self._extend
        if (
            span is tail
            and tail.length + extend == start
            or isinstance(span, PatternBytes)
            and isinstance(tail, PatternBytes)
            and tail.pattern_id == span.pattern_id
            and tail.offset + tail.length + extend == span.offset + start
        ):
            self._extend = extend + stop - start
            return
        if extend:
            pieces[-1] = extent(tail, 0, tail.length + extend)
        if start:
            pieces.append(span.slice(start, stop))
            self._extend = 0
        else:
            pieces.append(span)
            self._extend = stop - span.length

    def pop_front(self, count: int) -> ByteSpan:
        """Remove and return the first ``count`` bytes (clamped to length)."""
        length = self.length
        if count > length:
            count = length
        if count <= 0:
            return EMPTY
        pieces = self._pieces
        head = pieces[0]
        lo = self._skip
        hi = lo + count
        if hi <= head.length:
            span = head.slice(lo, hi)
            if count == length:
                self._pieces = ()
                self._skip = self._extend = 0
            elif hi < head.length or len(pieces) == 1:
                self._skip = hi  # the head span, or an extension of it, goes on
            else:
                del pieces[0]
                self._skip = 0
        elif len(pieces) == 1:
            # The head is the tail, extended past its span's end.
            span = extent(head, lo, hi)
            if count < length:
                self._skip = hi
            else:
                self._pieces = ()
                self._skip = self._extend = 0
        else:
            span = self.peek_absolute(self.head_offset, self.head_offset + count)
            self.discard_front(count)
            return span
        self.length = length - count
        self.head_offset += count
        return span

    def discard_front(self, count: int) -> None:
        """Drop the first ``count`` bytes (clamped) without building a span."""
        length = self.length
        if count >= length:
            count = length
            self._pieces = ()
            self._skip = self._extend = 0
        else:
            # Count the whole pieces first and remove them with one slice
            # deletion: a pop(0) per piece would make draining a buffer of
            # many small writes quadratic.  Positions are measured from the
            # head span's start, so the head's skip counts as consumed;
            # the tail piece outlives a count below the length.
            pieces = self._pieces
            remaining = self._skip + count
            if remaining >= pieces[0].length:
                last = len(pieces) - 1
                whole = 0
                while whole < last and pieces[whole].length <= remaining:
                    remaining -= pieces[whole].length
                    whole += 1
                if whole:
                    del pieces[:whole]
            self._skip = remaining
        self.length = length - count
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
        # Positions from here on are measured from the head span's start.
        pieces = self._pieces
        head = pieces[0]
        lo = start - head_offset + self._skip
        hi = stop - head_offset + self._skip
        if hi <= head.length:
            return head.slice(lo, hi)
        last = len(pieces) - 1
        if last == 0:
            return extent(head, lo, hi)
        picked = []
        position = 0
        for index, piece in enumerate(pieces):
            end = position + piece.length
            if index == last:
                end += self._extend
            if end > lo:
                if position >= hi:
                    break
                picked.append(
                    extent(piece, lo - position if lo > position else 0,
                           (hi if hi < end else end) - position)
                )
            position = end
        return concat(picked)

    def peek_front(self, count: int) -> ByteSpan:
        """Zero-copy view of the first ``count`` bytes (clamped)."""
        count = min(count, self.length)
        return self.peek_absolute(self.head_offset, self.head_offset + count)

    def clear(self) -> None:
        self._pieces = ()
        self._skip = self._extend = 0
        self.head_offset += self.length
        self.length = 0
