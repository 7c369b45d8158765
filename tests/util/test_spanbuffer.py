"""Tests and property checks for the FIFO span buffer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bytespan import CatBytes, PatternBytes, RealBytes
from repro.util.spanbuffer import SpanBuffer


def test_empty_buffer():
    buffer = SpanBuffer()
    assert len(buffer) == 0
    assert buffer.head_offset == 0
    assert buffer.tail_offset == 0
    assert buffer.pop_front(10).to_bytes() == b""


def test_append_and_pop_roundtrip():
    buffer = SpanBuffer()
    buffer.append(RealBytes(b"hello "))
    buffer.append(RealBytes(b"world"))
    assert len(buffer) == 11
    assert buffer.pop_front(11).to_bytes() == b"hello world"
    assert buffer.head_offset == 11


def test_pop_crosses_piece_boundaries():
    buffer = SpanBuffer()
    buffer.append(RealBytes(b"abc"))
    buffer.append(RealBytes(b"def"))
    assert buffer.pop_front(4).to_bytes() == b"abcd"
    assert buffer.pop_front(10).to_bytes() == b"ef"


def test_pop_clamps_to_length():
    buffer = SpanBuffer()
    buffer.append(RealBytes(b"xy"))
    assert buffer.pop_front(100).to_bytes() == b"xy"


def test_discard_front():
    buffer = SpanBuffer()
    buffer.append(RealBytes(b"abcdef"))
    buffer.discard_front(4)
    assert buffer.head_offset == 4
    assert buffer.pop_front(2).to_bytes() == b"ef"


def test_peek_absolute_window():
    buffer = SpanBuffer()
    buffer.append(RealBytes(b"0123456789"))
    buffer.discard_front(3)  # head now at 3
    assert buffer.peek_absolute(4, 8).to_bytes() == b"4567"
    assert buffer.peek_absolute(3, 3).to_bytes() == b""


def test_peek_absolute_out_of_range():
    buffer = SpanBuffer()
    buffer.append(RealBytes(b"abcd"))
    buffer.discard_front(2)
    with pytest.raises(IndexError):
        buffer.peek_absolute(0, 3)  # below head
    with pytest.raises(IndexError):
        buffer.peek_absolute(2, 5)  # beyond tail


def test_peek_front():
    buffer = SpanBuffer()
    buffer.append(RealBytes(b"abcdef"))
    assert buffer.peek_front(3).to_bytes() == b"abc"
    assert len(buffer) == 6  # peek does not consume


def test_offsets_survive_pattern_spans():
    buffer = SpanBuffer()
    buffer.append(PatternBytes(1000, offset=0, pattern_id=2))
    buffer.discard_front(400)
    view = buffer.peek_absolute(400, 500)
    assert view.to_bytes() == PatternBytes(100, offset=400, pattern_id=2).to_bytes()


def test_clear_advances_head():
    buffer = SpanBuffer()
    buffer.append(RealBytes(b"abcdef"))
    buffer.clear()
    assert len(buffer) == 0
    assert buffer.head_offset == 6


def test_empty_append_ignored():
    buffer = SpanBuffer()
    buffer.append(RealBytes(b""))
    assert len(buffer) == 0


def test_peek_absolute_straddles_piece_boundaries():
    buffer = SpanBuffer()
    buffer.append(RealBytes(b"abc"))
    buffer.append(RealBytes(b"defg"))
    buffer.append(RealBytes(b"hi"))
    # One slice spanning all three pieces, offset into the first and last.
    assert buffer.peek_absolute(2, 8).to_bytes() == b"cdefgh"
    buffer.pop_front(4)  # head now at 4, first remaining piece is "efg"
    assert buffer.peek_absolute(5, 8).to_bytes() == b"fgh"
    assert len(buffer) == 5  # peek does not consume


def test_peek_absolute_empty_range_at_tail():
    buffer = SpanBuffer()
    buffer.append(RealBytes(b"abcd"))
    buffer.discard_front(1)
    tail = buffer.tail_offset
    assert buffer.peek_absolute(tail, tail).to_bytes() == b""
    assert buffer.peek_absolute(buffer.head_offset, buffer.head_offset).to_bytes() == b""
    with pytest.raises(IndexError):
        buffer.peek_absolute(tail, tail + 1)
    with pytest.raises(IndexError):
        buffer.peek_absolute(tail, tail - 1)  # start > stop


def test_clear_then_reappend_keeps_absolute_addressing():
    buffer = SpanBuffer()
    buffer.append(RealBytes(b"abcdef"))
    buffer.pop_front(2)
    buffer.clear()
    assert buffer.head_offset == 6
    buffer.append(RealBytes(b"XY"))
    buffer.append(RealBytes(b"Z"))
    assert buffer.tail_offset == 9
    assert buffer.peek_absolute(6, 9).to_bytes() == b"XYZ"
    with pytest.raises(IndexError):
        buffer.peek_absolute(5, 7)  # pre-clear offsets are gone
    assert buffer.pop_front(3).to_bytes() == b"XYZ"
    assert buffer.head_offset == 9


def test_pop_front_exactly_at_piece_boundary():
    buffer = SpanBuffer()
    buffer.append(RealBytes(b"abc"))
    buffer.append(RealBytes(b"def"))
    assert buffer.pop_front(3).to_bytes() == b"abc"
    assert buffer.head_offset == 3
    assert buffer.peek_absolute(3, 6).to_bytes() == b"def"
    assert buffer.pop_front(0).to_bytes() == b""
    assert buffer.head_offset == 3


@given(st.lists(st.binary(min_size=1, max_size=20), max_size=20), st.data())
def test_prop_buffer_behaves_like_bytestring(pieces, data):
    """The buffer must behave exactly like a byte string with a moving
    head: pops return prefixes, offsets track total consumption."""
    buffer = SpanBuffer()
    reference = b""
    consumed = 0
    for piece in pieces:
        buffer.append(RealBytes(piece))
        reference += piece
        if data.draw(st.booleans()):
            count = data.draw(st.integers(0, len(reference) + 2))
            popped = buffer.pop_front(count).to_bytes()
            expected = reference[:count]
            assert popped == expected
            reference = reference[len(expected):]
            consumed += len(expected)
        assert len(buffer) == len(reference)
        assert buffer.head_offset == consumed
        assert buffer.tail_offset == consumed + len(reference)


@given(
    st.lists(st.binary(min_size=1, max_size=30), min_size=1, max_size=10),
    st.integers(0, 100),
    st.integers(0, 100),
)
def test_prop_peek_absolute_matches_reference(pieces, a, b):
    buffer = SpanBuffer()
    reference = b"".join(pieces)
    for piece in pieces:
        buffer.append(RealBytes(piece))
    lo, hi = sorted((min(a, len(reference)), min(b, len(reference))))
    assert buffer.peek_absolute(lo, hi).to_bytes() == reference[lo:hi]


# --------------------------------------- ranges over held spans (DESIGN §13)
def _piece_ranges(buffer):
    """(kind, start, stop) per piece: the range of its span the buffer holds."""
    pieces = buffer._pieces
    last = len(pieces) - 1
    return [
        (
            type(piece).__name__,
            buffer._skip if index == 0 else 0,
            piece.length + (buffer._extend if index == last else 0),
        )
        for index, piece in enumerate(pieces)
    ]


def test_contiguous_pattern_appends_extend_the_tail_piece():
    buffer = SpanBuffer()
    first = PatternBytes(100, offset=0, pattern_id=2)
    buffer.append(first)
    buffer.append(PatternBytes(50, offset=100, pattern_id=2))
    assert _piece_ranges(buffer) == [("PatternBytes", 0, 150)]
    # The caller's span is held, and neither rebuilt nor mutated: the
    # extension is an offset.
    assert buffer._pieces[0] is first and first.length == 100
    assert buffer.peek_absolute(90, 110) == PatternBytes(20, offset=90, pattern_id=2)
    # A read of exactly the held span is that span; its extension stays.
    assert buffer.pop_front(100) is first
    assert _piece_ranges(buffer) == [("PatternBytes", 100, 150)]
    buffer.discard_front(20)
    assert _piece_ranges(buffer) == [("PatternBytes", 120, 150)]
    assert buffer._pieces[0] is first
    assert buffer.pop_front(30) == PatternBytes(30, offset=120, pattern_id=2)
    assert _piece_ranges(buffer) == [] and buffer.head_offset == 150


def test_a_writer_s_successive_ranges_of_one_span_are_one_piece():
    """A partial write continued: the same span, from the offset reached."""
    buffer = SpanBuffer()
    record = RealBytes(b"0123456789")
    buffer.append(record, 0, 4)
    buffer.append(record, 4, 7)
    assert _piece_ranges(buffer) == [("RealBytes", 0, 7)]
    buffer.append(record, 7, 10)
    assert _piece_ranges(buffer) == [("RealBytes", 0, 10)]
    assert buffer._pieces[0] is record
    assert buffer.pop_front(10) is record  # the whole range is the span


def test_foreign_or_non_adjacent_pieces_are_never_merged():
    buffer = SpanBuffer()
    buffer.append(PatternBytes(100, offset=0, pattern_id=2))
    buffer.append(PatternBytes(10, offset=100, pattern_id=3))  # another stream
    buffer.append(PatternBytes(10, offset=111, pattern_id=3))  # a one-byte gap
    buffer.append(PatternBytes(10, offset=111, pattern_id=3))  # the same range again
    buffer.append(RealBytes(b"x"))
    buffer.append(PatternBytes(10, offset=131, pattern_id=3))  # adjacent to nothing
    record = RealBytes(b"abcdef")
    buffer.append(record, 0, 3)
    buffer.append(record, 4, 6)  # the same span, not where its range ended
    assert [stop - start for _kind, start, stop in _piece_ranges(buffer)] == [
        100, 10, 10, 10, 1, 10, 3, 2
    ]


def _any_span(draw):
    """A RealBytes, PatternBytes or CatBytes of 1..40 bytes."""
    kind = draw(st.sampled_from(("real", "pattern", "cat")))
    if kind == "real":
        return RealBytes(draw(st.binary(min_size=1, max_size=40)))
    pattern = PatternBytes(draw(st.integers(1, 40)), draw(st.integers(0, 300)), 3)
    if kind == "pattern":
        return pattern
    return CatBytes([RealBytes(draw(st.binary(min_size=1, max_size=8))), pattern])


@st.composite
def _appendable(draw, stream_tail):
    """A (span, start, stop) to append plus the next contiguous
    (pattern_id, offset).

    ``stream_tail`` is where the last PatternBytes append ended, so the
    strategy can produce its exact continuation as well as near misses.
    """
    pattern_id, offset = stream_tail
    length = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(
        ("contiguous", "ranged-contiguous", "gap", "overlap", "foreign", "real",
         "cat", "ranged", "empty")
    ))
    if kind == "contiguous":
        span = PatternBytes(length, offset, pattern_id)
    elif kind == "ranged-contiguous":
        # A range of a longer span that starts where the stream ended.
        skip = draw(st.integers(0, 20))
        span = PatternBytes(skip + length + draw(st.integers(0, 20)), offset - skip, pattern_id)
        if span.offset < 0:
            span = PatternBytes(length, offset, pattern_id)
            skip = 0
        return (span, skip, skip + length), (pattern_id, offset + length)
    elif kind == "gap":
        span = PatternBytes(length, offset + draw(st.integers(1, 300)), pattern_id)
    elif kind == "overlap":
        span = PatternBytes(length, max(0, offset - draw(st.integers(1, 300))), pattern_id)
    elif kind == "foreign":
        span = PatternBytes(length, offset, pattern_id + 1)
    elif kind == "real":
        return _whole(RealBytes(draw(st.binary(min_size=1, max_size=40)))), stream_tail
    elif kind == "cat":
        span = CatBytes([RealBytes(b"hdr"), PatternBytes(length, offset, pattern_id)])
        return _whole(span), stream_tail
    elif kind == "ranged":
        span = _any_span(draw)
        start = draw(st.integers(0, span.length))
        stop = draw(st.integers(start, span.length))
        return (span, start, stop), stream_tail
    else:
        return _whole(PatternBytes(0, offset, pattern_id)), stream_tail
    return _whole(span), (span.pattern_id, span.offset + span.length)


def _whole(span):
    return span, 0, span.length


def _continues(ranges, pieces, span, start):
    """Whether bytes [start, ...) of ``span`` continue the tail's range:
    the same span from where its range ends, or the next byte of the
    tail's pattern stream."""
    _kind, _lo, end = ranges[-1]
    tail = pieces[-1]
    if span is tail:
        return start == end
    return (
        isinstance(tail, PatternBytes)
        and isinstance(span, PatternBytes)
        and tail.pattern_id == span.pattern_id
        and tail.offset + end == span.offset + start
    )


@given(st.data())
def test_prop_buffer_matches_bytes_oracle_over_every_operation(data):
    """Random interleavings of every mutator and reader against a plain
    ``bytes`` oracle: content, length and both offsets agree after each
    step, whatever mix of span types, ranges and (non-)contiguity was
    appended."""
    buffer = SpanBuffer()
    oracle = b""  # the buffered bytes; oracle_head is their absolute offset
    oracle_head = 0
    stream_tail = (0, 0)
    appended = 0
    for _ in range(data.draw(st.integers(1, 25))):
        op = data.draw(st.sampled_from(
            ("append", "append", "append", "burst", "writer", "pop", "discard", "peek", "clear")
        ))
        if op == "burst":
            # Many small application writes: the pop/discard ranges drawn
            # afterwards span dozens of whole pieces (one slice deletion).
            width = data.draw(st.integers(1, 3))
            for _ in range(data.draw(st.integers(64, 96))):
                chunk = bytes([appended % 251]) * width
                buffer.append(RealBytes(chunk))
                oracle += chunk
                appended += 1
        elif op == "writer":
            # One span written in successive ranges, as a writer whose
            # buffer had room for part of it at a time.
            span = _any_span(data.draw)
            cuts = sorted(data.draw(st.lists(st.integers(0, span.length), max_size=4)))
            bounds = [0, *cuts, span.length]
            for lo, hi in zip(bounds, bounds[1:]):
                buffer.append(span, lo, hi)
                appended += 1
            oracle += span.to_bytes()
        elif op == "append":
            (span, start, stop), stream_tail = data.draw(_appendable(stream_tail))
            before = _piece_ranges(buffer)
            pieces = list(buffer._pieces)
            buffer.append(span, start, stop)
            oracle += span.to_bytes()[start:stop]
            appended += 1
            after = _piece_ranges(buffer)
            if before and stop > start and len(after) == len(before):
                # Extended in place: only ever the exact continuation.
                assert _continues(before, pieces, span, start)
                assert after[-1][2] - before[-1][2] == stop - start
        elif op == "pop":
            count = data.draw(st.integers(-1, len(oracle) + 3))
            taken = oracle[: max(count, 0)]
            assert buffer.pop_front(count).to_bytes() == taken
            oracle = oracle[len(taken):]
            oracle_head += len(taken)
        elif op == "discard":
            count = data.draw(st.integers(0, len(oracle) + 3))
            buffer.discard_front(count)
            dropped = min(count, len(oracle))
            oracle = oracle[dropped:]
            oracle_head += dropped
        elif op == "peek":
            a = data.draw(st.integers(0, len(oracle)))
            b = data.draw(st.integers(a, len(oracle)))
            view = buffer.peek_absolute(oracle_head + a, oracle_head + b)
            assert view.to_bytes() == oracle[a:b]
            assert view.length == b - a
            with pytest.raises(IndexError):
                buffer.peek_absolute(oracle_head - 1, oracle_head + b)
            with pytest.raises(IndexError):
                buffer.peek_absolute(oracle_head + a, oracle_head + len(oracle) + 1)
        else:
            buffer.clear()
            oracle_head += len(oracle)
            oracle = b""
        assert len(buffer) == buffer.length == len(oracle)
        assert buffer.head_offset == oracle_head
        assert buffer.tail_offset == oracle_head + len(oracle)
        assert buffer.peek_front(len(oracle)).to_bytes() == oracle
        ranges = _piece_ranges(buffer)
        assert sum(stop - start for _kind, start, stop in ranges) == len(oracle)
        assert all(0 <= start < stop for _kind, start, stop in ranges)
        assert len(ranges) <= appended
        pieces = buffer._pieces
        assert (pieces == ()) == (not oracle)  # an empty buffer holds no list
        if not pieces:
            assert buffer._skip == buffer._extend == 0
        elif buffer._extend > 0:
            # Only a pattern reads past its span's end.
            assert isinstance(pieces[-1], PatternBytes)


@given(st.data())
def test_prop_spans_handed_out_or_appended_never_change(data):
    """The buffer holds its callers' spans and hands out spans of its own:
    no later append, pop, discard or clear changes either kind."""
    buffer = SpanBuffer()
    seen = []

    def remember(span):
        seen.append((span, type(span), span.length, getattr(span, "offset", None), span.to_bytes()))

    stream_tail = (0, 0)
    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.sampled_from(("append", "append", "pop", "discard", "peek", "clear")))
        if op == "append":
            (span, start, stop), stream_tail = data.draw(_appendable(stream_tail))
            remember(span)
            buffer.append(span, start, stop)
        elif op == "pop":
            remember(buffer.pop_front(data.draw(st.integers(0, buffer.length + 2))))
        elif op == "discard":
            buffer.discard_front(data.draw(st.integers(0, buffer.length + 2)))
        elif op == "peek":
            a = data.draw(st.integers(0, buffer.length))
            b = data.draw(st.integers(a, buffer.length))
            remember(buffer.peek_absolute(buffer.head_offset + a, buffer.head_offset + b))
        else:
            buffer.clear()
    for span, kind, length, offset, content in seen:
        assert type(span) is kind
        assert span.length == length
        assert getattr(span, "offset", None) == offset
        assert span.to_bytes() == content
