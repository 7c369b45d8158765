"""The TIME_WAIT record answers as a TCB in TIME_WAIT answered (DESIGN §14).

On the engine tests' fake clock and stub layer: each class of segment a
TCB in TIME_WAIT can receive, what the record sends back, and whether it
closes.  Then, on a real pair, the socket hand-over: bytes the
application has not read yet stay readable, and a socket that starts
waiting for the close during the wait is told at expiry.
"""

import gc

import pytest

from repro.errors import ConnectionClosed, ConnectionReset
from repro.sim.events import SimEvent
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.tcp.constants import FLAG_ACK, FLAG_FIN, FLAG_RST, FLAG_SYN, TCPState
from repro.tcp.segment import TCPSegment
from repro.tcp.seqspace import wrap
from repro.tcp.socket import TCPSocket
from repro.tcp.timewait import TimeWait
from repro.util.bytespan import EMPTY, PatternBytes

from tests.conftest import LanPair
from tests.tcp.test_engines import ack_from_peer, establish, make_conn


def enter_time_wait(**overrides):
    """A connection that closed actively and received the peer's FIN:
    (its record, the stub layer, the clock, segments sent so far)."""
    conn, layer, clock = make_conn(**overrides)
    establish(conn)
    conn.app_close()
    conn.on_segment(ack_from_peer(conn, conn.snd_nxt))
    conn.on_segment(from_peer(conn, conn.rcv_nxt, FLAG_ACK | FLAG_FIN))
    record = layer.record
    assert isinstance(record, TimeWait) and record.state is TCPState.TIME_WAIT
    return record, layer, clock, len(layer.sent)


def from_peer(conn, seq_abs, flags, ack_abs=None, payload=EMPTY, ts_val=None):
    ack_abs = conn.snd_nxt if ack_abs is None else ack_abs
    return TCPSegment(
        conn.remote_port, conn.local_port, wrap(seq_abs), wrap(ack_abs), flags, 65535,
        payload, ts_val=ts_val,
    )


def answers(layer, since):
    return [segment for _t, segment in layer.sent[since:]]


def test_an_in_window_ack_draws_nothing_and_the_wait_ends_on_time():
    record, layer, clock, sent = enter_time_wait()
    record.on_segment(from_peer(record, record.rcv_nxt, FLAG_ACK))
    assert answers(layer, sent) == []
    clock.advance(0.999)
    assert record.state is TCPState.TIME_WAIT
    clock.advance(0.002)
    assert record.state is TCPState.CLOSED and record.error is None
    assert clock.pending_count == 0


def test_a_retransmitted_fin_draws_at_most_five_challenge_acks_per_100_ms():
    record, layer, clock, sent = enter_time_wait()
    fin = from_peer(record, record.rcv_nxt - 1, FLAG_ACK | FLAG_FIN)
    for _ in range(7):
        record.on_segment(fin)
    acks = answers(layer, sent)
    assert len(acks) == 5
    assert {(ack.flags, ack.seq, ack.ack) for ack in acks} == {
        (FLAG_ACK, wrap(record.snd_nxt), wrap(record.rcv_nxt))
    }
    clock.advance(0.2)
    record.on_segment(fin)
    assert len(answers(layer, sent)) == 6


def test_an_ack_for_data_never_sent_is_challenged_unless_an_extension_clamps_it():
    record, layer, _clock, sent = enter_time_wait()
    ahead = from_peer(record, record.rcv_nxt, FLAG_ACK, ack_abs=record.snd_nxt + 10)
    record.on_segment(ahead)
    assert [ack.flags for ack in answers(layer, sent)] == [FLAG_ACK]

    class Clamping:
        def on_segment_in(self, _conn, _segment):
            return False

    record.extension = Clamping()
    record.on_segment(ahead)
    assert len(answers(layer, sent)) == 1


def test_payload_and_a_fin_at_rcv_nxt_are_acked_and_dropped():
    record, layer, _clock, sent = enter_time_wait()
    rcv_nxt = record.rcv_nxt
    record.on_segment(from_peer(record, rcv_nxt + 5, FLAG_ACK, payload=PatternBytes(10, 0, 1)))
    record.on_segment(from_peer(record, rcv_nxt, FLAG_ACK | FLAG_FIN))
    assert [ack.ack for ack in answers(layer, sent)] == [wrap(rcv_nxt)] * 2
    assert record.rcv_nxt == rcv_nxt and record.inject_receive_data(rcv_nxt, PatternBytes(4, 0, 1)) == 0


def test_a_rst_closes_and_a_syn_in_the_window_is_reset():
    record, layer, _clock, sent = enter_time_wait()
    record.on_segment(from_peer(record, record.rcv_nxt, FLAG_RST))
    assert record.state is TCPState.CLOSED and isinstance(record.error, ConnectionReset)
    assert answers(layer, sent) == []

    record, layer, _clock, sent = enter_time_wait()
    record.on_segment(from_peer(record, record.rcv_nxt, FLAG_SYN))
    (rst,) = answers(layer, sent)
    assert rst.flags == FLAG_RST | FLAG_ACK and rst.seq == wrap(record.snd_nxt)
    assert record.state is TCPState.CLOSED and "SYN" in str(record.error)


def test_an_output_inhibited_record_answers_nothing():
    record, layer, _clock, sent = enter_time_wait()
    record.output_inhibited = True
    record.on_segment(from_peer(record, record.rcv_nxt - 1, FLAG_ACK | FLAG_FIN))
    record.ack_now()
    record.app_abort()
    assert answers(layer, sent) == [] and record.state is TCPState.CLOSED


def test_timestamps_are_echoed_from_the_latest_segment():
    record, layer, clock, sent = enter_time_wait()
    record.ts_recent = 0.25  # as the TCB left it when it used timestamps
    clock.advance(0.5)
    record.on_segment(from_peer(record, record.rcv_nxt, FLAG_ACK | FLAG_FIN, ts_val=0.4))
    (ack,) = answers(layer, sent)
    assert (ack.ts_val, ack.ts_ecr) == (clock.now, 0.4)


def test_the_application_and_the_stack_see_a_finished_connection():
    record, layer, clock, sent = enter_time_wait()
    with pytest.raises(ConnectionClosed):
        record.app_write(PatternBytes(1, 0, 1))
    assert record.app_read(100).length == 0
    record.app_close()
    assert record.state is TCPState.TIME_WAIT and answers(layer, sent) == []
    assert record.rcv_offset(record.irs + 1) == 0 and record.flight_size == 0
    record.cancel_timers()  # a crash: the record stays, its expiry goes
    assert clock.pending_count == 0
    clock.advance(5.0)
    assert record.state is TCPState.TIME_WAIT

    record, layer, clock, sent = enter_time_wait()
    record.app_abort()
    (rst,) = answers(layer, sent)
    assert rst.flags == FLAG_RST | FLAG_ACK and isinstance(record.error, ConnectionReset)
    record.app_close()  # closing a closed connection closes it again, as on a TCB
    assert record.error is None and clock.pending_count == 0


def test_unread_bytes_stay_readable_and_a_late_close_waiter_is_told_at_expiry():
    """The client closes first and reads the reply only once it waits in
    TIME_WAIT; then it starts waiting for the close."""
    lan = LanPair(Simulator(seed=155))
    seen = {}

    def server():
        conn = yield lan.b.tcp.listen(8000).accept()
        yield conn.recv_exactly(3)
        yield conn.send(b"reply")
        conn.close()

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        yield sock.send(b"req")
        sock.close()
        yield lan.sim.timeout(0.5)  # reply and FIN arrived, no reader waiting
        seen["state"] = sock.state
        seen["record"] = isinstance(sock.tcb, TimeWait)
        seen["reply"] = (yield sock.recv_exactly(5)).to_bytes()
        seen["eof"] = (yield sock.recv(10)).length
        yield sock.wait_closed()
        seen["closed_at"] = lan.sim.now

    lan.b.spawn(server())
    started = lan.sim.now
    lan.sim.run_until_complete(lan.a.spawn(client()), deadline=30.0)
    assert seen["state"] is TCPState.TIME_WAIT and seen["record"]
    assert seen["reply"] == b"reply" and seen["eof"] == 0
    assert started + 1.0 < seen["closed_at"] < started + 1.5


@pytest.mark.parametrize("reads_first", [True, False], ids=["all_read", "unread"])
def test_a_record_reports_where_the_received_stream_ends(reads_first):
    """Less the SYN and the FIN: the 5-byte reply, whether the client read
    it before the wait or the record still holds it unread.  A record
    that holds nothing unread keeps no buffer for it."""
    lan = LanPair(Simulator(seed=158))
    seen = {}

    def server():
        conn = yield lan.b.tcp.listen(8000).accept()
        yield conn.recv_exactly(3)
        yield conn.send(b"reply")
        conn.close()

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        yield sock.send(b"req")
        if reads_first:
            yield sock.recv_exactly(5)
        sock.close()
        yield lan.sim.timeout(0.5)
        record = sock.tcb
        buffer = record.recv_buffer
        seen["offsets"] = (buffer.rcv_nxt_offset, buffer.read_offset, buffer.available)
        seen["kept"] = record._unread is not None

    lan.b.spawn(server())
    lan.sim.run_until_complete(lan.a.spawn(client()), deadline=30.0)
    assert seen["offsets"] == ((5, 5, 0) if reads_first else (5, 0, 5))
    assert seen["kept"] is not reads_first


def test_a_reset_before_the_expiry_lets_go_at_once_though_the_entry_waits():
    """The record is its own expiry's queue token.  A RST in the wait
    retires that entry, which stays queued — a binary heap drops it when
    it surfaces — and holds the record; so the closed record lets go of
    what it held (the socket waiting for the close, the extension), and
    with the collector off the socket and its events are gone at once."""
    lan = LanPair(Simulator(seed=157))
    seen = {}

    def server():
        conn = yield lan.b.tcp.listen(8000).accept()
        yield conn.recv(10)  # EOF
        conn.close()

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        sock.close()
        try:
            yield sock.wait_closed()
        finally:
            seen["error"] = sock.tcb.error

    enabled = gc.isenabled()
    gc.disable()
    try:
        lan.b.spawn(server())
        lan.a.spawn(client())
        lan.sim.run(until=0.5)
        (record,) = lan.a.tcp.connections
        assert isinstance(record, TimeWait) and record.socket is not None
        (entry,) = [entry for entry in lan.sim._scheduler._heap if entry[2] is record]
        # The client process wakes inside the reset and ends.  No event
        # runs after it: a dead entry on top of the heap goes at the next.
        record.on_segment(from_peer(record, record.rcv_nxt, FLAG_RST))
        assert record.state is TCPState.CLOSED and isinstance(seen["error"], ConnectionReset)
        assert entry in lan.sim._scheduler._heap and record.seq == -1  # dead, still queued
        assert record.socket is None and record.extension is None
        objects = gc.get_objects()
        left = [obj for obj in objects if isinstance(obj, (TCPSocket, SimEvent)) and obj.sim is lan.sim]
    finally:
        if enabled:
            gc.enable()
    assert [(type(obj).__name__, obj.name) for obj in left if not isinstance(obj, Process)] == []
