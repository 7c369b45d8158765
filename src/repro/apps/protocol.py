"""The request/response wire protocol shared by the paper's applications.

Every request is a fixed-size (150-byte, §6) record::

    magic(2) | kind(1) | reserved(1) | response_size(4) | request_id(4) | padding

The server answers with either an echo of the request (Echo application)
or ``response_size`` bytes of deterministic pattern data (Interactive and
Bulk applications).  Responses are a pure function of the request and the
connection's response-stream position, so a primary and a backup running
the same server produce byte-identical output — the determinism assumption
of §3 under which ST-TCP shadows state without a consistency protocol.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.util.bytespan import ByteSpan, PatternBytes, RealBytes, span_equal

#: Fixed request size used by all three applications (§6).
REQUEST_SIZE = 150

_HEADER = struct.Struct(">HBBII")
MAGIC = 0x5354  # "ST"

KIND_ECHO = 1
KIND_DATA = 2
KIND_UPLOAD = 3

#: Pattern id for server response payloads (client verifies content).
RESPONSE_PATTERN = 7
#: Pattern id for request padding.
REQUEST_PATTERN = 11
#: Pattern id for client upload payloads (server verifies content).
UPLOAD_PATTERN = 13


class Request(NamedTuple):
    kind: int
    response_size: int
    request_id: int


def encode_request(kind: int, response_size: int, request_id: int) -> ByteSpan:
    """Build a 150-byte request record, as one flat span (DESIGN §13 rule 5).

    For ``KIND_UPLOAD``, ``response_size`` carries the upload length; the
    server's 150-byte *receipt* reuses the same record shape with
    ``response_size`` set to the number of verified upload bytes.
    """
    if kind not in (KIND_ECHO, KIND_DATA, KIND_UPLOAD):
        raise ValueError(f"unknown request kind {kind}")
    if response_size < 0:
        raise ValueError(f"negative response size {response_size}")
    header = _HEADER.pack(MAGIC, kind, 0, response_size, request_id & 0xFFFFFFFF)
    padding = PatternBytes(REQUEST_SIZE - len(header), request_id * REQUEST_SIZE, REQUEST_PATTERN)
    return RealBytes(header + padding.to_bytes())


def decode_request(data: ByteSpan) -> Request:
    """Parse a 150-byte request record."""
    if data.length != REQUEST_SIZE:
        raise ValueError(f"request must be {REQUEST_SIZE} bytes, got {data.length}")
    magic, kind, _, response_size, request_id = _HEADER.unpack_from(data.to_bytes())
    if magic != MAGIC:
        raise ValueError(f"bad request magic {magic:#06x}")
    return Request(kind, response_size, request_id)


def response_payload(response_size: int, stream_offset: int) -> ByteSpan:
    """Deterministic response bytes for a DATA request.

    ``stream_offset`` is the connection's cumulative response-stream
    position, making the payload identical no matter which replica
    generates it and letting the client verify content by offset alone.
    """
    return PatternBytes(response_size, stream_offset, RESPONSE_PATTERN)


def verify_response(data: ByteSpan, stream_offset: int) -> bool:
    """Check that received response bytes match the deterministic pattern."""
    return span_equal(data, PatternBytes(data.length, stream_offset, RESPONSE_PATTERN))


def upload_payload(size: int, stream_offset: int) -> ByteSpan:
    """Deterministic client upload bytes (server verifies by offset)."""
    return PatternBytes(size, stream_offset, UPLOAD_PATTERN)


def verify_upload(data: ByteSpan, stream_offset: int) -> bool:
    """Server-side content check of uploaded bytes."""
    return span_equal(data, PatternBytes(data.length, stream_offset, UPLOAD_PATTERN))
