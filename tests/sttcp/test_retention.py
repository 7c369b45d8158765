"""Tests for the primary's second receive buffer (§4.2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FailoverError
from repro.sttcp.retention import SecondReceiveBuffer
from repro.tcp.recv_buffer import ReceiveBuffer
from repro.util.bytespan import PatternBytes, RealBytes


def test_retains_read_bytes():
    buffer = SecondReceiveBuffer(100)
    buffer.on_read(0, RealBytes(b"abcdef"))
    assert buffer.retained_bytes == 6
    assert buffer.lowest_retained_offset == 0


def test_backup_ack_releases():
    buffer = SecondReceiveBuffer(100)
    buffer.on_read(0, RealBytes(b"abcdef"))
    assert buffer.backup_acked(4) == 4
    assert buffer.retained_bytes == 2
    assert buffer.lowest_retained_offset == 4


def test_backup_ack_clamped_to_retained_range():
    buffer = SecondReceiveBuffer(100)
    buffer.on_read(0, RealBytes(b"abc"))
    # The backup's NextByteExpected can run ahead of the primary's reads.
    assert buffer.backup_acked(1000) == 3
    assert buffer.retained_bytes == 0


def test_backup_ack_backwards_is_noop():
    buffer = SecondReceiveBuffer(100)
    buffer.on_read(0, RealBytes(b"abcdef"))
    buffer.backup_acked(5)
    assert buffer.backup_acked(2) == 0


def test_overflow_counts_beyond_capacity():
    buffer = SecondReceiveBuffer(10)
    buffer.on_read(0, RealBytes(b"x" * 10))
    assert buffer.overflow == 0
    buffer.on_read(10, RealBytes(b"y" * 5))
    assert buffer.overflow == 5  # second buffer full → pinches window
    buffer.backup_acked(8)
    assert buffer.overflow == 0


def test_release_and_disable_reopen_the_attached_window_at_once():
    """The overflow is a field: a release or a disable outside a read
    updates it and the attached receive buffer's window in the same call."""
    window = ReceiveBuffer(100)
    buffer = SecondReceiveBuffer(10)
    window.attach_retention(buffer)
    window.insert(0, PatternBytes(40, 0, 9))
    window.read(40)
    assert (buffer.overflow, window.window) == (30, 70)
    buffer.backup_acked(20)
    assert (buffer.overflow, window.window) == (10, 90)
    buffer.disable()
    assert (buffer.overflow, window.window) == (0, 100)


def test_fetch_serves_recovery_ranges():
    buffer = SecondReceiveBuffer(100)
    buffer.on_read(0, RealBytes(b"0123456789"))
    assert buffer.fetch(2, 6).to_bytes() == b"2345"
    assert buffer.fetch(50, 60).to_bytes() == b""  # outside retained range
    buffer.backup_acked(5)
    assert buffer.fetch(0, 10).to_bytes() == b"56789"  # clipped at head


def test_non_contiguous_read_rejected():
    buffer = SecondReceiveBuffer(100)
    buffer.on_read(0, RealBytes(b"abc"))
    with pytest.raises(FailoverError):
        buffer.on_read(10, RealBytes(b"zzz"))


def test_disable_reverts_to_standard_tcp():
    buffer = SecondReceiveBuffer(10)
    buffer.on_read(0, RealBytes(b"x" * 20))
    buffer.disable()
    assert buffer.overflow == 0
    assert buffer.retained_bytes == 0
    buffer.on_read(20, RealBytes(b"more"))  # silently ignored now
    assert buffer.retained_bytes == 0


def test_counters_track_pressure():
    buffer = SecondReceiveBuffer(8)
    buffer.on_read(0, RealBytes(b"x" * 12))
    assert buffer.peak_usage == 12
    assert buffer.overflow_byte_peak == 4
    assert buffer.bytes_retained_total == 12
    buffer.backup_acked(12)
    assert buffer.bytes_released_total == 12


def test_retention_starts_at_the_read_position_it_is_built_for():
    """A promoted backup's former shadow gains its second buffer mid-stream."""
    buffer = SecondReceiveBuffer(100, 40)
    assert buffer.lowest_retained_offset == 40
    buffer.on_read(40, RealBytes(b"abc"))
    assert buffer.fetch(0, 100).to_bytes() == b"abc"
    with pytest.raises(FailoverError):
        buffer.on_read(50, RealBytes(b"d"))  # a read must continue the last one


def test_capacity_validated():
    with pytest.raises(ValueError):
        SecondReceiveBuffer(0)


@given(st.data())
def test_prop_retention_invariants(data):
    """Retained range is always [acked, read-high); fetch serves exactly
    the intersection of the request and the retained range."""
    capacity = data.draw(st.integers(1, 64))
    buffer = SecondReceiveBuffer(capacity)
    offset = 0
    acked = 0
    for _ in range(data.draw(st.integers(1, 10))):
        if data.draw(st.booleans()):
            length = data.draw(st.integers(1, 32))
            buffer.on_read(offset, PatternBytes(length, offset, 9))
            offset += length
        else:
            target = data.draw(st.integers(0, offset + 10))
            buffer.backup_acked(target)
            acked = max(acked, min(target, offset))
        assert buffer.lowest_retained_offset == acked
        assert buffer.retained_bytes == offset - acked
        assert buffer.overflow == max(0, (offset - acked) - capacity)
        lo = data.draw(st.integers(0, offset + 5))
        hi = data.draw(st.integers(lo, offset + 5))
        got = buffer.fetch(lo, hi)
        expected_lo, expected_hi = max(lo, acked), min(hi, offset)
        if expected_lo < expected_hi:
            assert got == PatternBytes(expected_hi - expected_lo, expected_lo, 9)
        else:
            assert len(got) == 0
