"""Tests and property checks for the byte-span payload model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bytespan import (
    EMPTY,
    CatBytes,
    PatternBytes,
    RealBytes,
    as_span,
    concat,
    fingerprint,
    span_equal,
)


def test_real_bytes_roundtrip():
    span = RealBytes(b"hello world")
    assert len(span) == 11
    assert span.to_bytes() == b"hello world"


def test_real_bytes_slice():
    span = RealBytes(b"hello world")
    assert span[0:5].to_bytes() == b"hello"
    assert span[6:11].to_bytes() == b"world"


def test_slice_bounds_checked():
    span = RealBytes(b"abc")
    with pytest.raises(IndexError):
        span.slice(0, 4)
    with pytest.raises(IndexError):
        span.slice(2, 1)


def test_pattern_bytes_deterministic():
    a = PatternBytes(100, offset=0, pattern_id=3)
    b = PatternBytes(100, offset=0, pattern_id=3)
    assert a.to_bytes() == b.to_bytes()


def test_pattern_bytes_offset_consistency():
    """Independently produced slices of the same stream agree."""
    whole = PatternBytes(1000, offset=0, pattern_id=1)
    part = PatternBytes(300, offset=200, pattern_id=1)
    assert whole.to_bytes()[200:500] == part.to_bytes()


def test_pattern_ids_differ():
    assert PatternBytes(64, 0, 1).to_bytes() != PatternBytes(64, 0, 2).to_bytes()


def test_pattern_bytes_large_tiling():
    span = PatternBytes(100_000, offset=12345, pattern_id=5)
    data = span.to_bytes()
    assert len(data) == 100_000
    # Spot-check against direct slicing.
    assert data[5000:5100] == span.slice(5000, 5100).to_bytes()


def test_pattern_bytes_negative_length_rejected():
    with pytest.raises(ValueError):
        PatternBytes(-1)


def test_cat_bytes_concatenates():
    combined = concat([RealBytes(b"abc"), RealBytes(b"def")])
    assert combined.to_bytes() == b"abcdef"


def test_cat_bytes_slice_spans_pieces():
    combined = concat([RealBytes(b"abc"), RealBytes(b"defgh"), RealBytes(b"ij")])
    assert combined[2:7].to_bytes() == b"cdefg"


def test_cat_flattens_nested():
    inner = concat([RealBytes(b"ab"), RealBytes(b"cd")])
    outer = CatBytes([inner, RealBytes(b"ef")])
    assert all(not isinstance(part, CatBytes) for part in outer.parts)
    assert outer.to_bytes() == b"abcdef"


def test_cat_coalesces_adjacent_patterns():
    first = PatternBytes(100, offset=0, pattern_id=1)
    second = PatternBytes(50, offset=100, pattern_id=1)
    combined = CatBytes([first, second])
    assert len(combined.parts) == 1
    assert len(combined) == 150


def test_concat_drops_empties():
    combined = concat([EMPTY, RealBytes(b"x"), EMPTY])
    assert combined.to_bytes() == b"x"
    assert concat([]) is EMPTY


def test_as_span_coercion():
    assert as_span(b"abc").to_bytes() == b"abc"
    assert as_span(bytearray(b"abc")).to_bytes() == b"abc"
    span = RealBytes(b"x")
    assert as_span(span) is span
    with pytest.raises(TypeError):
        as_span(123)


def test_equality_across_representations():
    pattern = PatternBytes(20, 5, 2)
    real = RealBytes(pattern.to_bytes())
    assert span_equal(pattern, real)
    assert pattern == real
    assert pattern == pattern.to_bytes()


def test_inequality_by_length_and_content():
    assert not span_equal(RealBytes(b"ab"), RealBytes(b"abc"))
    assert not span_equal(RealBytes(b"ab"), RealBytes(b"ba"))


def test_iter_chunks_bounded():
    span = PatternBytes(200_000, 0, 1)
    chunks = list(span.iter_chunks(65536))
    assert [len(c) for c in chunks] == [65536, 65536, 65536, 3392]
    assert b"".join(chunks) == span.to_bytes()


def test_fingerprint_distinguishes_content():
    assert fingerprint(RealBytes(b"abc")) != fingerprint(RealBytes(b"abd"))
    assert fingerprint(RealBytes(b"abc")) == fingerprint(as_span(b"abc"))


# ------------------------------------------------------------------ properties
@given(st.binary(max_size=200), st.integers(0, 200), st.integers(0, 200))
def test_prop_real_slice_matches_python_slice(data, a, b):
    lo, hi = sorted((min(a, len(data)), min(b, len(data))))
    assert RealBytes(data).slice(lo, hi).to_bytes() == data[lo:hi]


@given(
    st.integers(0, 500),
    st.integers(0, 10_000),
    st.integers(0, 5),
    st.integers(0, 500),
    st.integers(0, 500),
)
def test_prop_pattern_slice_is_offset_stable(length, offset, pattern_id, a, b):
    lo, hi = sorted((min(a, length), min(b, length)))
    span = PatternBytes(length, offset, pattern_id)
    assert span.slice(lo, hi).to_bytes() == span.to_bytes()[lo:hi]


@given(st.lists(st.binary(max_size=50), max_size=8), st.integers(0, 400), st.integers(0, 400))
def test_prop_cat_slice_matches_joined_bytes(pieces, a, b):
    joined = b"".join(pieces)
    lo, hi = sorted((min(a, len(joined)), min(b, len(joined))))
    combined = concat([RealBytes(piece) for piece in pieces])
    assert combined.to_bytes() == joined
    assert combined.slice(lo, hi).to_bytes() == joined[lo:hi]


@settings(max_examples=30)
@given(st.integers(1, 3_000), st.integers(0, 1 << 40), st.integers(0, 3))
def test_prop_pattern_to_bytes_agrees_with_per_byte_definition(length, offset, pid):
    span = PatternBytes(length, offset, pid)
    data = span.to_bytes()
    # Check a few positions against the independent per-byte definition.
    from repro.util.bytespan import _TABLE_PERIOD, _pattern_table

    table = _pattern_table(pid)
    for position in {0, length // 2, length - 1}:
        assert data[position] == table[(offset + position) % _TABLE_PERIOD]


# --------------------------------------------------- length is a field (§13)
_leaf_spans = st.one_of(
    st.binary(max_size=40).map(RealBytes),
    st.builds(PatternBytes, st.integers(0, 600), st.integers(0, 5_000), st.integers(0, 3)),
)


def _sliced(span, data):
    a = data.draw(st.integers(0, span.length))
    b = data.draw(st.integers(a, span.length))
    return span.slice(a, b)


@given(st.data())
def test_prop_length_field_agrees_with_len_and_content(data):
    """Every span type, through random nested slices and concatenations:
    the ``length`` set at construction is what ``len()`` reports and what
    ``to_bytes()`` materialises."""
    spans = data.draw(st.lists(_leaf_spans, min_size=1, max_size=6))
    for _ in range(data.draw(st.integers(0, 6))):
        op = data.draw(st.sampled_from(("slice", "concat", "cat")))
        if op == "slice":
            spans.append(_sliced(data.draw(st.sampled_from(spans)), data))
        else:
            parts = data.draw(st.lists(st.sampled_from(spans), max_size=4))
            spans.append(concat(parts) if op == "concat" else CatBytes(parts))
    for span in spans:
        content = span.to_bytes()
        assert span.length == len(span) == len(content)
        part = _sliced(span, data)
        assert part.length == len(part) == len(part.to_bytes())


# ------------------------------------- a whole-range slice is the span (§13)
@given(_leaf_spans, st.data())
def test_prop_whole_range_slice_is_the_span_itself(span, data):
    """Spans are immutable and shared, so ``[0, length)`` needs no copy;
    every proper sub-range is still a fresh span of the same type with
    the sliced content."""
    assert span.slice(0, span.length) is span
    assert span[:] is span
    start = data.draw(st.integers(0, span.length))
    stop = data.draw(st.integers(start, span.length))
    part = span.slice(start, stop)
    assert part.to_bytes() == span.to_bytes()[start:stop]
    if part.length != span.length:
        assert part is not span
        assert type(part) is type(span)


def test_empty_slices_keep_their_types():
    assert EMPTY.slice(0, 0) is EMPTY
    assert CatBytes([RealBytes(b"ab"), PatternBytes(2)]).slice(1, 1) is EMPTY
    inner = RealBytes(b"abc").slice(1, 1)
    assert type(inner) is RealBytes and inner.length == 0 and inner == EMPTY
    assert type(PatternBytes(9, 4, 2).slice(3, 3)) is PatternBytes


@pytest.mark.parametrize(
    "span",
    [RealBytes(b"abcd"), PatternBytes(4), CatBytes([RealBytes(b"ab"), PatternBytes(2)])],
    ids=lambda span: type(span).__name__,
)
def test_inline_bounds_check_raises_the_same_index_error(span):
    for start, stop in ((-1, 2), (3, 2), (0, 5)):
        with pytest.raises(IndexError, match=rf"slice \[{start}, {stop}\) outside span of length 4"):
            span.slice(start, stop)
