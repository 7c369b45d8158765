"""Byte-payload modelling for the simulator.

Simulating the paper's 100 MB bulk transfer with real ``bytes`` payloads
would copy gigabytes through links, buffers and retransmission queues.
Instead, payloads are :class:`ByteSpan` objects:

* :class:`RealBytes` wraps actual bytes (used by the small-message apps so
  content correctness is checked end-to-end for real data).
* :class:`PatternBytes` describes a *deterministic synthetic* byte range —
  byte at absolute stream position ``p`` equals ``pattern_table[p % 251]``
  — in O(1) memory.  Receivers can verify any slice of the stream without
  the sender shipping the content.
* :class:`CatBytes` concatenates spans without copying.

All spans are immutable and shared: slicing returns new spans sharing
structure, and the slice of a leaf's whole range is the leaf itself.
Buffers hold the spans they are handed and keep ranges over them as
offsets; they build a span only when they hand one out.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Union

_TABLE_PERIOD = 251  # prime, so patterns don't resonate with power-of-2 MSS

_pattern_tables: dict = {}


def _pattern_table(pattern_id: int) -> bytes:
    table = _pattern_tables.get(pattern_id)
    if table is None:
        table = bytes((pattern_id * 37 + k * 101 + 7) % 256 for k in range(_TABLE_PERIOD))
        _pattern_tables[pattern_id] = table
    return table


class ByteSpan:
    """Abstract immutable byte sequence.

    Subclasses set ``length`` once at construction and implement ``slice``
    and ``to_bytes``.  ``len(span)`` is the public protocol; per-segment
    code reads ``span.length`` directly (DESIGN §13).  Slicing with
    ``span[a:b]`` is supported for convenience.
    """

    __slots__ = ()

    #: Byte count, fixed at construction (each subclass owns the slot).
    length: int

    def __len__(self) -> int:
        return self.length

    def slice(self, start: int, stop: int) -> "ByteSpan":
        raise NotImplementedError

    def to_bytes(self) -> bytes:
        raise NotImplementedError

    def iter_chunks(self, chunk_size: int = 65536) -> Iterator[bytes]:
        """Materialise the span in bounded-size pieces."""
        length = self.length
        for start in range(0, length, chunk_size):
            yield self.slice(start, min(start + chunk_size, length)).to_bytes()

    def __getitem__(self, key: slice) -> "ByteSpan":
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise TypeError("ByteSpan only supports contiguous slicing")
        start, stop, _ = key.indices(self.length)
        return self.slice(start, stop)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ByteSpan, bytes, bytearray)):
            return NotImplemented
        other_span = as_span(other) if not isinstance(other, ByteSpan) else other
        return span_equal(self, other_span)

    def __hash__(self) -> int:
        # Spans are rarely hashed; a cheap structural hash on length plus
        # first/last bytes is enough for set/dict use in tests.
        length = self.length
        if length == 0:
            return hash((0, b""))
        head = self.slice(0, min(16, length)).to_bytes()
        return hash((length, head))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} len={len(self)}>"


def _check_bounds(start: int, stop: int, length: int) -> None:
    if not 0 <= start <= stop <= length:
        raise IndexError(f"slice [{start}, {stop}) outside span of length {length}")


class RealBytes(ByteSpan):
    """A span backed by actual bytes."""

    __slots__ = ("data", "length")

    def __init__(self, data: Union[bytes, bytearray, memoryview]) -> None:
        self.data = bytes(data)
        self.length = len(self.data)

    def slice(self, start: int, stop: int) -> ByteSpan:
        if not 0 <= start <= stop <= self.length:
            _check_bounds(start, stop, self.length)
        if stop - start == self.length:
            return self
        return RealBytes(self.data[start:stop])

    def to_bytes(self) -> bytes:
        return self.data


class PatternBytes(ByteSpan):
    """A synthetic span: byte at stream offset ``p`` is a pure function of
    ``p`` and ``pattern_id``.

    ``offset`` is the absolute stream position of the first byte, so slices
    of the same logical stream produced independently by sender and
    receiver compare equal.
    """

    __slots__ = ("length", "offset", "pattern_id")

    def __init__(self, length: int, offset: int = 0, pattern_id: int = 0) -> None:
        if length < 0:
            raise ValueError(f"negative length {length}")
        self.length = length
        self.offset = offset
        self.pattern_id = pattern_id

    def slice(self, start: int, stop: int) -> ByteSpan:
        if not 0 <= start <= stop <= self.length:
            _check_bounds(start, stop, self.length)
        if stop - start == self.length:
            return self
        return PatternBytes(stop - start, self.offset + start, self.pattern_id)

    def to_bytes(self) -> bytes:
        table = _pattern_table(self.pattern_id)
        phase = self.offset % _TABLE_PERIOD
        if self.length <= _TABLE_PERIOD:
            doubled = table + table
            return doubled[phase : phase + self.length]
        # Tile the table starting at the right phase.
        repeats = (self.length + phase) // _TABLE_PERIOD + 2
        tiled = table * repeats
        return tiled[phase : phase + self.length]


class CatBytes(ByteSpan):
    """Zero-copy concatenation of spans.

    Nested ``CatBytes`` children are flattened at construction so deep
    append chains (e.g. a send buffer drained one MSS at a time) never
    build pathological trees.
    """

    __slots__ = ("parts", "length")

    def __init__(self, parts: Sequence[ByteSpan]) -> None:
        flat: List[ByteSpan] = []
        length = 0
        for part in parts:
            if isinstance(part, CatBytes):
                flat.extend(part.parts)
            elif part.length > 0:
                flat.append(part)
            length += part.length
        self.parts = _coalesce(flat)
        self.length = length

    def slice(self, start: int, stop: int) -> ByteSpan:
        if not 0 <= start <= stop <= self.length:
            _check_bounds(start, stop, self.length)
        if start == stop:
            return EMPTY
        picked: List[ByteSpan] = []
        position = 0
        for part in self.parts:
            part_len = part.length
            if position + part_len <= start:
                position += part_len
                continue
            if position >= stop:
                break
            lo = max(0, start - position)
            hi = min(part_len, stop - position)
            picked.append(part.slice(lo, hi))
            position += part_len
        if len(picked) == 1:
            return picked[0]
        return CatBytes(picked)

    def to_bytes(self) -> bytes:
        return b"".join(part.to_bytes() for part in self.parts)


def extent(span: ByteSpan, start: int, stop: int) -> ByteSpan:
    """Bytes [start, stop) of ``span``'s stream, as one span.

    Within ``span`` this is ``span.slice`` (the whole range is the span
    itself).  A :class:`PatternBytes` may also be read past its end: its
    bytes are a function of stream position, so a buffer that extended a
    pattern piece by later contiguous appends
    (:class:`~repro.util.spanbuffer.SpanBuffer`) builds its range here.
    """
    if stop > span.length and isinstance(span, PatternBytes):
        return PatternBytes(stop - start, span.offset + start, span.pattern_id)
    return span.slice(start, stop)


def _coalesce(parts: List[ByteSpan]) -> List[ByteSpan]:
    """Merge adjacent spans that are contiguous pieces of one pattern.

    A merged run is built once, at its end: ``extra`` counts the bytes the
    run has grown past ``run``, the last span kept.
    """
    merged: List[ByteSpan] = []
    run: Optional[PatternBytes] = None
    extra = 0
    for part in parts:
        if isinstance(part, PatternBytes):
            if (
                run is not None
                and run.pattern_id == part.pattern_id
                and run.offset + run.length + extra == part.offset
            ):
                extra += part.length
                continue
            next_run: Optional[PatternBytes] = part
        else:
            next_run = None
        if extra:
            merged[-1] = extent(merged[-1], 0, merged[-1].length + extra)
            extra = 0
        run = next_run
        merged.append(part)
    if extra:
        merged[-1] = extent(merged[-1], 0, merged[-1].length + extra)
    return merged


EMPTY = RealBytes(b"")


def as_span(data: Union[ByteSpan, bytes, bytearray, memoryview]) -> ByteSpan:
    """Coerce raw bytes to a span; spans pass through unchanged."""
    if isinstance(data, ByteSpan):
        return data
    if isinstance(data, (bytes, bytearray, memoryview)):
        return RealBytes(data) if len(data) else EMPTY
    raise TypeError(f"cannot treat {type(data).__name__} as bytes")


def concat(parts: Sequence[ByteSpan]) -> ByteSpan:
    """Concatenate spans, returning the cheapest representation."""
    live = [part for part in parts if part.length]
    if not live:
        return EMPTY
    if len(live) == 1:
        return live[0]
    return CatBytes(live)


#: Bytes :func:`span_equal` materialises per side at a time.
_COMPARE_CHUNK = 65536


def span_equal(a: ByteSpan, b: ByteSpan) -> bool:
    """Content equality, materialising at most 64 KiB at a time."""
    length = a.length
    if length != b.length:
        return False
    for start in range(0, length, _COMPARE_CHUNK):
        stop = start + _COMPARE_CHUNK
        if stop > length:
            stop = length
        if a.slice(start, stop).to_bytes() != b.slice(start, stop).to_bytes():
            return False
    return True


def fingerprint(span: ByteSpan) -> int:
    """A cheap order-sensitive content fingerprint (FNV-1a over chunks)."""
    value = 0xCBF29CE484222325
    for chunk in span.iter_chunks():
        for byte in chunk:
            value ^= byte
            value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value
