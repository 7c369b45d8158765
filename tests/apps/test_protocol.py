"""Tests for the application wire protocol."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.protocol import (
    _HEADER,
    KIND_DATA,
    KIND_ECHO,
    KIND_UPLOAD,
    MAGIC,
    REQUEST_PATTERN,
    REQUEST_SIZE,
    decode_request,
    encode_request,
    response_payload,
    upload_payload,
    verify_response,
    verify_upload,
)
from repro.util.bytespan import PatternBytes, RealBytes


def test_request_roundtrip():
    record = encode_request(KIND_DATA, 10240, 7)
    assert len(record) == REQUEST_SIZE
    request = decode_request(record)
    assert request.kind == KIND_DATA
    assert request.response_size == 10240
    assert request.request_id == 7


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        encode_request(99, 0, 0)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        encode_request(KIND_DATA, -1, 0)


def test_decode_validates_length_and_magic():
    with pytest.raises(ValueError):
        decode_request(encode_request(KIND_ECHO, 0, 0).slice(0, 100))
    with pytest.raises(ValueError):
        decode_request(RealBytes(b"\x00" * REQUEST_SIZE))


def test_response_payload_is_offset_deterministic():
    whole = response_payload(1000, 0)
    tail = response_payload(500, 500)
    assert whole.slice(500, 1000) == tail


def test_verify_response():
    payload = response_payload(256, 1024)
    assert verify_response(payload, 1024)
    assert not verify_response(payload, 1025)


def test_upload_payload_distinct_from_response():
    assert upload_payload(100, 0).to_bytes() != response_payload(100, 0).to_bytes()
    assert verify_upload(upload_payload(64, 10), 10)
    assert not verify_upload(upload_payload(64, 10), 11)


def test_requests_with_same_id_are_identical():
    assert encode_request(KIND_ECHO, 0, 3) == encode_request(KIND_ECHO, 0, 3)


@given(
    st.sampled_from([KIND_ECHO, KIND_DATA, KIND_UPLOAD]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)
def test_prop_encode_decode_roundtrip(kind, size, request_id):
    request = decode_request(encode_request(kind, size, request_id))
    assert request.kind == kind
    assert request.response_size == size
    assert request.request_id == request_id & 0xFFFFFFFF


@given(
    st.sampled_from([KIND_ECHO, KIND_DATA, KIND_UPLOAD]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**40),
)
def test_prop_record_is_flat_and_byte_for_byte_the_two_piece_record(kind, size, request_id):
    """A request is one ``RealBytes`` (DESIGN §13 rule 5) holding exactly
    the bytes the header + synthetic-padding concatenation put on the wire."""
    record = encode_request(kind, size, request_id)
    assert type(record) is RealBytes
    assert record.length == REQUEST_SIZE
    header = _HEADER.pack(MAGIC, kind, 0, size, request_id & 0xFFFFFFFF)
    padding = PatternBytes(
        REQUEST_SIZE - _HEADER.size, request_id * REQUEST_SIZE, REQUEST_PATTERN
    )
    assert record.to_bytes() == header + padding.to_bytes()
    assert decode_request(record) == (kind, size, request_id & 0xFFFFFFFF)
