"""Tests for the TCP send and receive buffers (incl. reassembly)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sttcp.retention import SecondReceiveBuffer
from repro.tcp.recv_buffer import ReceiveBuffer, RetentionPolicy
from repro.tcp.send_buffer import SendBuffer
from repro.util.bytespan import PatternBytes, RealBytes, concat


# ---------------------------------------------------------------- send buffer
def test_send_buffer_accepts_up_to_capacity():
    buffer = SendBuffer(100)
    assert buffer.append(RealBytes(b"x" * 60)) == 60
    assert buffer.append(RealBytes(b"y" * 60)) == 40
    assert buffer.free_space == 0
    assert len(buffer) == 100


def test_send_buffer_ack_frees_space():
    buffer = SendBuffer(100)
    buffer.append(RealBytes(b"a" * 100))
    assert buffer.ack_to(30) == 30
    assert buffer.free_space == 30
    assert buffer.una_offset == 30
    assert buffer.ack_to(20) == 0  # going backwards is a no-op


def test_send_buffer_data_range_for_retransmit():
    buffer = SendBuffer(100)
    buffer.append(RealBytes(b"0123456789"))
    assert buffer.data_range(2, 6).to_bytes() == b"2345"
    buffer.ack_to(4)
    assert buffer.data_range(4, 8).to_bytes() == b"4567"


def test_send_buffer_capacity_validated():
    with pytest.raises(ValueError):
        SendBuffer(0)


@given(st.data())
def test_prop_send_tail_matches_head_plus_length_after_every_step(data):
    """``una_offset`` and ``tail_offset`` are fields their writers keep
    current; after every append (whole, partial, refused, a
    concatenation, from an offset into the span) and release they equal
    the head of a plain ``bytes`` oracle and the
    from-scratch ``una_offset + len``, and a release returns the bytes it
    freed — never more than were held, however far past the tail the
    acknowledgment reaches."""
    capacity = data.draw(st.integers(1, 200))
    buffer = SendBuffer(capacity)
    oracle = b""  # the held bytes; oracle_head is their offset
    oracle_head = 0
    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.integers(0, 2))
        if op in (0, 1):
            if op == 0:
                span = PatternBytes(data.draw(st.integers(1, 120)), buffer.tail_offset, 3)
            else:
                span = concat([RealBytes(b"ab"), PatternBytes(data.draw(st.integers(1, 50)), 0, 3)])
            start = data.draw(st.integers(0, span.length))
            accepted = buffer.append(span, start)
            assert accepted == min(span.length - start, capacity - len(oracle))
            oracle += span.to_bytes()[start:start + accepted]
        else:
            offset = data.draw(st.integers(0, buffer.tail_offset + 10))
            freed = min(max(offset - oracle_head, 0), len(oracle))
            assert buffer.ack_to(offset) == freed
            oracle = oracle[freed:]
            oracle_head += freed
        assert buffer.una_offset == oracle_head
        assert len(buffer) == len(oracle)
        assert buffer.tail_offset == buffer.una_offset + len(buffer)
        assert buffer.data_range(oracle_head, oracle_head + len(oracle)).to_bytes() == oracle


# ----------------------------------------------------------------- recv buffer
def test_in_order_insert_and_read():
    buffer = ReceiveBuffer(1000)
    assert buffer.insert(0, RealBytes(b"hello")) == 5
    assert buffer.rcv_nxt_offset == 5
    assert buffer.available == 5
    assert buffer.read(5).to_bytes() == b"hello"
    assert buffer.read_offset == 5


def test_out_of_order_held_until_gap_fills():
    buffer = ReceiveBuffer(1000)
    assert buffer.insert(5, RealBytes(b"world")) == 0
    assert buffer.available == 0
    assert buffer.out_of_order_bytes == 5
    assert buffer.first_gap() == (0, 5)
    assert buffer.insert(0, RealBytes(b"hell o"[:5])) == 10  # gap fill drains
    assert buffer.available == 10
    assert buffer.first_gap() is None


def test_duplicate_data_discarded():
    buffer = ReceiveBuffer(1000)
    buffer.insert(0, RealBytes(b"abcde"))
    assert buffer.insert(0, RealBytes(b"abcde")) == 0
    assert buffer.bytes_duplicated == 5
    # Partial overlap: only the new tail is kept.
    assert buffer.insert(3, RealBytes(b"defgh")) == 3
    assert buffer.read(8).to_bytes() == b"abcdefgh"


def test_overlapping_out_of_order_segments_clipped():
    buffer = ReceiveBuffer(1000)
    buffer.insert(10, RealBytes(b"KLMNO"))  # [10,15)
    buffer.insert(8, RealBytes(b"IJKLMNOP"))  # [8,16) overlaps
    assert buffer.out_of_order_bytes == 8  # [8,16) held once
    buffer.insert(0, RealBytes(b"ABCDEFGH"))
    assert buffer.read(16).to_bytes() == b"ABCDEFGHIJKLMNOP"


def test_window_shrinks_with_buffered_data():
    buffer = ReceiveBuffer(100)
    buffer.insert(0, RealBytes(b"x" * 30))
    assert buffer.window == 70
    buffer.insert(50, RealBytes(b"y" * 10))  # out of order counts too
    assert buffer.window == 60
    buffer.read(30)
    assert buffer.window == 90


def test_data_beyond_window_clipped():
    buffer = ReceiveBuffer(10)
    assert buffer.insert(0, RealBytes(b"a" * 20)) == 10
    assert buffer.window == 0


def test_window_zero_rejects_new_data():
    buffer = ReceiveBuffer(10)
    buffer.insert(0, RealBytes(b"a" * 10))
    assert buffer.insert(10, RealBytes(b"b")) == 0


def test_peek_unread_serves_recovery_ranges():
    buffer = ReceiveBuffer(100)
    buffer.insert(0, RealBytes(b"0123456789"))
    buffer.read(4)
    assert buffer.peek_unread(4, 8).to_bytes() == b"4567"
    assert buffer.peek_unread(0, 4).to_bytes() == b""  # already read


class RecordingRetention(RetentionPolicy):
    def __init__(self):
        super().__init__()
        self.reads = []

    def on_read(self, start_offset, span):
        self.reads.append((start_offset, span.to_bytes()))


def test_retention_hook_sees_read_bytes():
    buffer = ReceiveBuffer(100)
    retention = RecordingRetention()
    buffer.attach_retention(retention)
    buffer.insert(0, RealBytes(b"abcdef"))
    buffer.read(4)
    assert retention.reads == [(0, b"abcd")]


def test_retention_overflow_consumes_window():
    buffer = ReceiveBuffer(100)
    retention = RecordingRetention()
    retention.overflow = 25
    buffer.attach_retention(retention)
    assert buffer.window == 75


# -------------------------------------------------------------------- property
@settings(max_examples=50)
@given(st.data())
def test_prop_reassembly_matches_reference_stream(data):
    """Random segment arrival order must reassemble the exact stream."""
    stream = PatternBytes(data.draw(st.integers(1, 400)), 0, 3)
    total = len(stream)
    # Split into random segments.
    cuts = sorted(data.draw(st.sets(st.integers(1, total - 1), max_size=8))) if total > 1 else []
    bounds = [0] + cuts + [total]
    segments = [
        (bounds[i], stream.slice(bounds[i], bounds[i + 1]))
        for i in range(len(bounds) - 1)
    ]
    order = data.draw(st.permutations(segments))
    buffer = ReceiveBuffer(1000)
    advanced_total = 0
    for start, span in order:
        advanced_total += buffer.insert(start, span)
    assert advanced_total == total
    assert buffer.read(total).to_bytes() == stream.to_bytes()
    assert buffer.out_of_order_bytes == 0


@given(st.data())
def test_prop_counters_match_recomputed_sums_after_every_step(data):
    """``out_of_order_bytes``, ``window`` and the retention ``overflow`` are
    fields kept by their writers; after every insert (overlapping,
    duplicate, out of window), read, release, disable and re-attach of a
    real second buffer they equal the from-scratch formulas."""
    capacity = data.draw(st.integers(20, 120))
    second_capacity = data.draw(st.integers(1, 40))
    stream = PatternBytes(400, 0, 5)
    reference = stream.to_bytes()
    buffer = ReceiveBuffer(capacity)
    retention = None
    read_back = b""
    for _ in range(data.draw(st.integers(1, 30))):
        step = data.draw(st.sampled_from(["insert", "insert", "read", "retention"]))
        if step == "insert":
            # Anywhere from before the read pointer to past the window.
            start = data.draw(st.integers(max(0, buffer.read_offset - 20), 340))
            length = data.draw(st.integers(1, 60))
            before = buffer.rcv_nxt_offset
            advanced = buffer.insert(start, stream.slice(start, start + length))
            assert buffer.rcv_nxt_offset == before + advanced
        elif step == "read":
            read_back += buffer.read(data.draw(st.integers(0, 80))).to_bytes()
        elif retention is not None and data.draw(st.booleans()):
            if data.draw(st.booleans()):
                low = retention.lowest_retained_offset
                retention.backup_acked(data.draw(st.integers(low - 5, buffer.read_offset + 10)))
            else:
                retention.disable()
        else:
            # Attach, or replace with a fresh buffer starting at the read
            # position, as a promoted backup's primary engine does.
            retention = SecondReceiveBuffer(second_capacity, buffer.read_offset)
            buffer.attach_retention(retention)
        held = buffer._out_of_order
        assert held is None or held  # a list only while a gap holds runs
        held = held or []
        assert buffer.out_of_order_bytes == sum(len(span) for _start, span in held)
        assert all(
            held[i][0] + len(held[i][1]) <= held[i + 1][0] for i in range(len(held) - 1)
        )
        used = len(buffer.ready) + sum(len(span) for _start, span in held)
        if retention is not None:
            expected = retention.retained_bytes - second_capacity if retention.enabled else 0
            assert retention.overflow == max(expected, 0)
            used += retention.overflow
        assert buffer.window == max(capacity - used, 0)
        assert buffer.available == len(buffer.ready)
    assert read_back == reference[: len(read_back)]
    assert buffer.peek_unread(0, 400).to_bytes() == reference[
        buffer.read_offset : buffer.rcv_nxt_offset
    ]
