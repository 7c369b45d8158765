"""Engine-isolation tests: each engine driven directly on a fake clock.

No simulator, no hosts, no wire — a hand-cranked clock and a stub IP
layer are enough to pin down the output engine's send-policy decision
table, the retransmit engine's RFC 6298 backoff bounds, the TCB's
sequence-space translation across the 2^32 wrap, the repair section's
receive-data injection, the extension slot's dispatch, and output
inhibition (an inhibited TCB keeps a sent
segment's bookkeeping and builds nothing).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConnectionTimeout
from repro.net.addresses import IPAddress
from repro.tcp.config import TCPConfig
from repro.tcp.constants import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    PERSIST_TIMEOUT_MIN,
    SEQ_SPACE,
    TCPState,
)
from repro.tcp.input import InputEngine
from repro.tcp.segment import TCPSegment
from repro.tcp.seqspace import wrap
from repro.tcp.tcb import TCPConnection
from repro.util.bytespan import PatternBytes

from tests.tcp.test_seqspace import pin_cases, unwrap_or_error, wire_and_reference


# -- fake clock + stub layer --------------------------------------------------
class _Handle:
    """What ``schedule_at`` returns: a token owning its callback."""

    __slots__ = ("time", "fn", "seq", "_clock")

    def __init__(self, time, fn, clock):
        self.time, self.fn, self.seq, self._clock = time, fn, -1, clock

    def _fire(self):
        self.fn()

    def cancel(self):
        self._clock.retire(self)


class _NoTrace:
    enabled = False
    categories = frozenset()


class FakeClock:
    """Hand-cranked event clock satisfying the RestartableTimer contract:
    ``now``, ``arm(time, token, fn)`` and ``retire(token)`` — the
    scheduler's token protocol: an entry runs as ``fn(token)`` while
    ``token.seq`` is its seq — and ``schedule_at(time, fn)``, which arms
    a handle with ``time`` and ``cancel()``."""

    def __init__(self):
        self.now = 0.0
        self.trace = _NoTrace()
        self._queue = []
        self._seq = 0

    def arm(self, time, token, fn):
        token.seq = self._seq
        self._seq += 1
        self._queue.append((time, token.seq, token, fn))

    def retire(self, token):
        token.seq = -1

    def schedule_at(self, time, fn):
        handle = _Handle(time, fn, self)
        self.arm(time, handle, _Handle._fire)
        return handle

    def _live(self):
        return [entry for entry in self._queue if entry[2].seq == entry[1]]

    @property
    def pending_count(self):
        return len(self._live())

    def advance(self, dt):
        """Move time forward, firing due callbacks in schedule order."""
        deadline = self.now + dt
        while True:
            due = [entry for entry in self._live() if entry[0] <= deadline]
            if not due:
                break
            head = min(due, key=lambda entry: entry[:2])
            self._queue.remove(head)
            time, _, token, fn = head
            self.now = time
            token.seq = -1
            fn(token)
        self._queue = self._live()
        self.now = deadline


class FakeLayer:
    """Stub IP layer: records transmissions instead of delivering them."""

    def __init__(self, clock):
        self.sim = clock
        self.sent = []

        class _Host:
            name = "unit"
            is_up = True

        self.host = _Host()

    def send_segment(self, _conn, segment):
        self.sent.append((self.sim.now, segment))

    def generate_isn(self):
        return 1000

    def time_wait(self, _tcb, record):
        self.record = record

    def connection_closed(self, conn):
        pass


def make_conn(**overrides):
    clock = FakeClock()
    layer = FakeLayer(clock)
    config = TCPConfig(**overrides)
    conn = TCPConnection(
        layer, IPAddress("10.0.0.1"), 8000, IPAddress("10.0.0.2"), 40000, config
    )
    return conn, layer, clock


def establish(conn, iss=1000, irs=5000, wnd=65535, cwnd=10**6):
    """Put a connection straight into ESTABLISHED with known anchors."""
    conn.state = TCPState.ESTABLISHED
    conn.iss = iss
    conn.snd_una = conn.snd_nxt = conn.snd_max = iss + 1
    conn.irs = irs
    conn.rcv_nxt = irs + 1
    conn.snd_wnd = wnd
    conn.cc.cwnd = cwnd


def ack_from_peer(conn, ack_abs, wnd=65535, seq_abs=None):
    seq_abs = conn.rcv_nxt if seq_abs is None else seq_abs
    return TCPSegment(
        conn.remote_port, conn.local_port, wrap(seq_abs), wrap(ack_abs), FLAG_ACK, wnd
    )


def payloads(layer):
    return [seg.payload_length for _t, seg in layer.sent]


# -- output engine: the send-policy decision table ----------------------------
class TestOutputDecisionTable:
    def test_segments_at_mss_with_push_on_tail(self):
        conn, layer, _ = make_conn()
        establish(conn)
        conn.app_write(PatternBytes(3000, 0, 3))
        assert payloads(layer) == [1460, 1460, 80]
        assert all(seg.flags & FLAG_ACK for _t, seg in layer.sent)
        assert layer.sent[-1][1].flags & FLAG_PSH
        assert conn.snd_nxt == conn.iss + 1 + 3000

    def test_flow_window_limits_transmission(self):
        conn, layer, _ = make_conn()
        establish(conn, wnd=1000)
        conn.app_write(PatternBytes(3000, 0, 3))
        assert payloads(layer) == [1000]
        # Window opens: the rest flows out.
        conn.snd_wnd = 65535
        conn.try_output()
        assert payloads(layer) == [1000, 1460, 540]

    def test_congestion_window_limits_transmission(self):
        conn, layer, _ = make_conn()
        establish(conn, cwnd=1460)
        conn.app_write(PatternBytes(3000, 0, 3))
        assert payloads(layer) == [1460]

    def test_nagle_holds_subsize_segment_while_data_in_flight(self):
        conn, layer, _ = make_conn(nagle=True)
        establish(conn)
        conn.app_write(PatternBytes(1560, 0, 3))
        assert payloads(layer) == [1460]  # the 100-byte tail waits
        conn.on_segment(ack_from_peer(conn, conn.iss + 1 + 1460))
        assert payloads(layer)[-1] == 100  # flight drained: tail released

    def test_nagle_off_sends_subsize_immediately(self):
        conn, layer, _ = make_conn(nagle=False)
        establish(conn)
        conn.app_write(PatternBytes(1560, 0, 3))
        assert payloads(layer) == [1460, 100]

    def test_fin_piggybacks_on_final_data_segment(self):
        conn, layer, _ = make_conn()
        establish(conn, wnd=0)  # hold the data until the close is queued
        conn.app_write(PatternBytes(100, 0, 3))
        conn.app_close()
        assert payloads(layer) == []
        conn.snd_wnd = 65535
        conn.try_output()
        last = layer.sent[-1][1]
        assert last.flags & FLAG_FIN and last.payload_length == 100
        assert conn.snd_nxt == conn.iss + 1 + 101  # FIN consumed one seq
        assert conn.state is TCPState.FIN_WAIT_1

    def test_zero_window_arms_persist_and_probes_one_byte(self):
        conn, layer, clock = make_conn()
        establish(conn, wnd=0)
        conn.app_write(PatternBytes(500, 0, 3))
        assert payloads(layer) == []
        assert conn.retransmit.persist_timer.running
        clock.advance(PERSIST_TIMEOUT_MIN + 0.001)
        assert payloads(layer) == [1]  # the window probe
        # Exponential probe spacing.
        assert conn.retransmit.persist_interval == 2 * PERSIST_TIMEOUT_MIN

    def test_window_update_stops_the_persist_timer_it_finds(self):
        conn, layer, clock = make_conn()
        establish(conn, wnd=0)
        conn.on_segment(ack_from_peer(conn, conn.snd_una, wnd=1000))
        assert conn.retransmit.persist_timer is None  # none armed, none built
        conn.on_segment(ack_from_peer(conn, conn.snd_una, wnd=0))
        conn.app_write(PatternBytes(500, 0, 3))
        clock.advance(PERSIST_TIMEOUT_MIN + 0.001)  # one probe, interval doubled
        timer = conn.retransmit.persist_timer
        assert timer.running and conn.retransmit.persist_interval == 2 * PERSIST_TIMEOUT_MIN
        conn.on_segment(ack_from_peer(conn, conn.snd_una, wnd=65535))
        assert not timer.running
        assert conn.retransmit.persist_interval == PERSIST_TIMEOUT_MIN

    def test_persist_re_arms_after_a_stop_that_left_its_event_queued(self):
        """``arm_persist`` returns early while ``persist_timer.running``: that
        must read the deadline, not the still-queued kernel event."""
        conn, _, clock = make_conn()
        establish(conn, wnd=0)
        conn.retransmit.arm_persist()
        conn.retransmit.persist_timer.stop()
        assert clock.pending_count == 1 and not conn.retransmit.persist_timer.running
        conn.retransmit.arm_persist()
        assert conn.retransmit.persist_timer.deadline == clock.now + PERSIST_TIMEOUT_MIN

    def test_delayed_ack_waits_then_timer_fires(self):
        conn, layer, clock = make_conn()
        establish(conn)
        conn.output.schedule_ack(1)
        assert payloads(layer) == []
        clock.advance(conn.config.delack_timeout + 0.001)
        assert payloads(layer) == [0]  # the delayed pure ACK

    def test_delayed_ack_second_segment_forces_immediate_ack(self):
        conn, layer, _ = make_conn()
        establish(conn)
        conn.output.schedule_ack(1)
        conn.output.schedule_ack(1)
        assert payloads(layer) == [0]
        assert not conn.output.delack_timer.running


# -- retransmit engine: RFC 6298 bounds ---------------------------------------
class TestRetransmitBackoff:
    def test_backoff_doubles_from_the_clamped_floor(self):
        conn, layer, clock = make_conn()
        establish(conn)
        # A LAN-fast sample pins the base RTO at the 200 ms floor.
        conn.retransmit.rtt.on_measurement(0.001)
        assert conn.retransmit.rtt.rto == pytest.approx(conn.config.rto_min)
        conn.app_write(PatternBytes(1460, 0, 3))
        fire_times = []
        deadline = conn.retransmit.rto_timer.deadline
        for _ in range(4):
            clock.advance(deadline - clock.now + 1e-9)
            fire_times.append(clock.now)
            deadline = conn.retransmit.rto_timer.deadline
        gaps = [b - a for a, b in zip(fire_times, fire_times[1:])]
        # 200 ms, 400 ms, 800 ms: the paper's §6.2 client-side progression.
        assert gaps == pytest.approx([0.4, 0.8, 1.6], rel=1e-6)
        assert conn.retransmissions == 4
        # Karn: the timed range was abandoned on the first timeout.
        assert conn.retransmit.timing is None

    def test_rto_clamped_to_min_and_max(self):
        conn, _, _ = make_conn()
        rtt = conn.retransmit.rtt
        rtt.on_measurement(0.0001)
        assert rtt.rto == conn.config.rto_min
        for _ in range(64):
            rtt.on_timeout()
        assert rtt.rto == conn.config.rto_max

    def test_retransmission_resends_head_not_tail(self):
        conn, layer, clock = make_conn()
        establish(conn)
        conn.app_write(PatternBytes(2920, 0, 3))
        assert payloads(layer) == [1460, 1460]
        clock.advance(conn.retransmit.rtt.rto + 0.001)
        _t, head = layer.sent[-1]
        assert head.seq == wrap(conn.snd_una)
        assert head.payload_length == 1460
        assert conn.retransmit.recovery_point == conn.snd_max

    def test_too_many_retransmissions_time_out_the_connection(self):
        conn, _, clock = make_conn(max_retransmits=2, rto_max=0.4)
        establish(conn)
        conn.app_write(PatternBytes(100, 0, 3))
        clock.advance(60.0)
        assert conn.state is TCPState.CLOSED
        assert isinstance(conn.error, ConnectionTimeout)

    def test_force_go_back_n_restarts_from_head(self):
        conn, layer, _ = make_conn()
        establish(conn)
        conn.app_write(PatternBytes(2920, 0, 3))
        sent_before = len(layer.sent)
        conn.retransmit.force_go_back_n()
        _t, head = layer.sent[sent_before]
        assert head.seq == wrap(conn.snd_una)
        assert conn.retransmit.recovery_point == conn.snd_max
        assert conn.retransmit.rto_timer.running


    def test_fin_in_time_wait_draws_an_ack_and_restarts_the_wait(self):
        """Entering TIME_WAIT cancels the TCB's timers and hands the wait to
        a record with one expiry event.  A retransmitted FIN sits left of
        the window: the record answers it with the challenge ACK and, as
        RFC 793 has it, restarts the 2 MSL wait from the FIN's arrival."""
        conn, layer, clock = make_conn()
        establish(conn)
        conn.app_close()  # FIN_WAIT_1, our FIN sent
        conn.on_segment(ack_from_peer(conn, conn.snd_nxt))
        assert conn.state is TCPState.FIN_WAIT_2
        fin = TCPSegment(
            conn.remote_port, conn.local_port, wrap(conn.rcv_nxt), wrap(conn.snd_nxt),
            FLAG_ACK | FLAG_FIN, 65535,
        )
        conn.on_segment(fin)
        record = layer.record
        assert record.state is TCPState.TIME_WAIT and clock.pending_count == 1
        clock.advance(conn.config.time_wait / 2)
        sent = len(layer.sent)
        record.on_segment(fin)
        (_t, ack), = layer.sent[sent:]
        assert ack.flags == FLAG_ACK and ack.seq == wrap(record.snd_nxt) and ack.ack == wrap(record.rcv_nxt)
        clock.advance(conn.config.time_wait / 2)
        assert record.state is TCPState.TIME_WAIT  # the first wait would end here
        clock.advance(conn.config.time_wait / 2 - 0.001)
        assert record.state is TCPState.TIME_WAIT
        clock.advance(0.002)
        assert record.state is TCPState.CLOSED and clock.pending_count == 0


# -- stream offsets: sequence-space translation across the wrap ---------------
class TestBufferSeqspaceWrap:
    WRAP_ISS = 2**32 - 5  # the first data bytes straddle the 2^32 boundary

    def test_offset_seq_roundtrip_across_wrap(self):
        conn, _, _ = make_conn()
        establish(conn, iss=self.WRAP_ISS, irs=self.WRAP_ISS)
        for offset in (0, 3, 4, 5, 1000):
            seq_abs = self.WRAP_ISS + 1 + offset
            assert conn.snd_offset(seq_abs) == offset
            assert conn.rcv_offset(seq_abs) == offset
        # Offset 4 is absolute seq 2^32 exactly: past the wire wrap.
        assert conn.snd_offset(2**32) == 4
        assert wrap(2**32) == 0

    def test_wire_sequence_numbers_wrap_mid_transfer(self):
        conn, layer, _ = make_conn()
        establish(conn, iss=self.WRAP_ISS)
        conn.app_write(PatternBytes(2920, 0, 3))
        first, second = (seg for _t, seg in layer.sent)
        assert first.seq == wrap(self.WRAP_ISS + 1) == 2**32 - 4
        assert second.seq == wrap(self.WRAP_ISS + 1 + 1460) == 1456
        # Cumulative ACK for everything lands cleanly across the wrap.
        conn.on_segment(ack_from_peer(conn, self.WRAP_ISS + 1 + 2920))
        assert conn.snd_una == conn.snd_max == self.WRAP_ISS + 1 + 2920
        assert conn.flight_size == 0

    def test_inject_receive_data_across_wrap(self):
        conn, _, _ = make_conn()
        establish(conn, irs=2**32 - 3)
        advanced = conn.inject_receive_data(conn.irs + 1, PatternBytes(10, 0, 3))
        assert advanced == 10
        assert conn.rcv_nxt == conn.irs + 11
        assert conn.readable_bytes == 10
        # A gap stalls rcv_nxt; filling it drains the stash.
        assert conn.inject_receive_data(conn.irs + 16, PatternBytes(5, 15, 3)) == 0
        assert conn.rcv_nxt == conn.irs + 11
        assert conn.inject_receive_data(conn.irs + 11, PatternBytes(5, 10, 3)) == 10
        assert conn.rcv_nxt == conn.irs + 21


# -- the extension slot ---------------------------------------------------------
class _Recorder:
    """A duck-typed slot occupant: logs every hook, consumes nothing."""

    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def on_segment_in(self, conn, segment):
        self.log.append((self.tag, "in"))
        return False

    def on_ack(self, conn, segment, ack_abs):
        self.log.append((self.tag, "ack", ack_abs))
        return ack_abs

    def after_output(self, conn):
        pass

    def on_rcv_advance(self, conn):
        pass


class TestExtensionSlot:
    def test_a_consumed_segment_skips_core_processing(self):
        log = []

        class Consumer(_Recorder):
            def on_segment_in(self, conn, segment):
                log.append((self.tag, "in"))
                return True

        conn, _, _ = make_conn()
        establish(conn)
        conn.extension = Consumer(log, "eat")
        data = TCPSegment(
            conn.remote_port,
            conn.local_port,
            wrap(conn.rcv_nxt),
            wrap(conn.snd_una),
            FLAG_ACK,
            65535,
            PatternBytes(100, 0, 3),
        )
        conn.on_segment(data)
        assert log == [("eat", "in")]
        # Consumed: core processing skipped, nothing buffered.
        assert conn.readable_bytes == 0
        assert conn.rcv_nxt == conn.irs + 1


# -- output inhibition: a sent segment's bookkeeping, nothing built -----------
_INHIBITION_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(1, 5000)),
        st.tuples(st.just("receive"), st.integers(1, 5000)),
        st.tuples(st.just("read"), st.integers(1, 5000)),
        st.tuples(st.just("peer_window"), st.sampled_from([0, 1, 1000, 65535])),
        st.tuples(st.just("tick"), st.integers(0, 500)),
        st.tuples(st.just("try_output"), st.none()),
        st.tuples(st.just("ack_now"), st.none()),
        st.tuples(st.just("schedule_ack"), st.integers(1, 3)),
        st.tuples(st.just("retransmit_head"), st.none()),
        st.tuples(st.just("go_back_n"), st.none()),
    ),
    max_size=40,
)


def _apply(op, arg, conn, clock):
    if op == "write":
        conn.app_write(PatternBytes(arg, conn.send_buffer.tail_offset, 3))
    elif op == "receive":
        conn.inject_receive_data(conn.rcv_nxt, PatternBytes(arg, conn.rcv_offset(conn.rcv_nxt), 3))
    elif op == "read":
        conn.app_read(arg)
    elif op == "peer_window":
        conn.snd_wnd = arg
    elif op == "tick":
        # Microseconds, and at most 20 ms over a whole example: time moves
        # (so the send timestamps differ) but no timer of the twin is due.
        clock.now += arg * 1e-6
    elif op == "try_output":
        conn.try_output()
    elif op == "ack_now":
        conn.ack_now()
    elif op == "schedule_ack":
        conn.output.schedule_ack(arg)
    elif op == "retransmit_head":
        conn.retransmit.retransmit_head()
    else:
        conn.retransmit.force_go_back_n()


def _output_bookkeeping(conn):
    output = conn.output
    return (
        conn.snd_nxt, conn.snd_max, conn.retransmissions,
        output.segments_since_ack, output.ack_scheduled,
        output.last_advertised_window, output.last_data_send_time,
    )


class TestOutputInhibition:
    @settings(max_examples=150, deadline=None)
    @given(ops=_INHIBITION_OPS)
    def test_inhibited_twin_keeps_the_bookkeeping_and_builds_nothing(self, ops):
        sender, sender_layer, sender_clock = make_conn()
        shadow, shadow_layer, shadow_clock = make_conn()
        establish(sender)
        establish(shadow)
        shadow.output_inhibited = True
        for op, arg in ops:
            _apply(op, arg, sender, sender_clock)
            _apply(op, arg, shadow, shadow_clock)
            assert _output_bookkeeping(shadow) == _output_bookkeeping(sender), op
            # The delayed ACK is owed on both; only the sender arms a
            # timer for it, and the shadow arms none that would transmit.
            # The timer runs only while an ACK is scheduled: ``emit``
            # stops it only then (DESIGN §13 rule 7).
            for conn in (sender, shadow):
                assert conn.output.ack_scheduled or not conn.output.delack_timer.running
            assert sender.output.delack_timer.running == sender.output.ack_scheduled
            assert not shadow.output.delack_timer.running
            assert not shadow.retransmit.rto_timer.running
            assert shadow.retransmit.persist_timer is None  # never armed, never built
        assert shadow_layer.sent == [] and shadow.segments_sent == 0
        assert shadow.output._template is None  # no segment was ever built
        assert sender.segments_sent == len(sender_layer.sent)


# -- the inline unwraps: exactly what unwrap gives ----------------------------
class _AcceptedSeq(InputEngine):
    """Records the unwrapped sequence number of a segment that passed the
    acceptability test, and stops there."""

    __slots__ = ("seen",)

    def _process_ack(self, segment, seq_abs):
        self.seen = seq_abs
        return False


def _observe(deliver, read):
    try:
        deliver()
    except ValueError:
        return ValueError
    return read()


@settings(max_examples=300)
@pin_cases
@given(case=wire_and_reference())
def test_prop_input_unwraps_inline_exactly_as_unwrap(case):
    """``_segment_in_general`` and ``_process_ack`` unwrap the sequence and
    ACK fields without a call when the value is within half the space;
    every result, fallback and refusal equals ``seqspace.unwrap``'s."""
    value, reference = case
    expected = unwrap_or_error(value, reference)

    # Sequence field against rcv_nxt.  A window of the whole space admits
    # every result at or past rcv_nxt; one behind it draws a challenge ACK.
    conn, _, _ = make_conn()
    establish(conn, irs=reference - 1)
    engine = conn.input = _AcceptedSeq(conn)
    engine.seen = None
    conn.recv_buffer.window = SEQ_SPACE
    segment = TCPSegment(conn.remote_port, conn.local_port, 0, wrap(conn.snd_una), FLAG_ACK, 65535)
    segment.seq = value  # past the constructor's range check, as a bad header would be
    observed = _observe(lambda: conn.on_segment(segment), lambda: engine.seen)
    if expected is ValueError or expected >= reference:
        assert observed == expected
    else:
        assert observed is None

    # ACK field against snd_una, as the on_ack hook receives it.
    conn, _, _ = make_conn()
    establish(conn)
    conn.snd_una = conn.snd_nxt = conn.snd_max = reference
    log = []
    conn.extension = _Recorder(log, "ack")
    segment = TCPSegment(conn.remote_port, conn.local_port, wrap(conn.rcv_nxt), 0, FLAG_ACK, 65535)
    segment.ack = value
    observed = _observe(lambda: conn.on_segment(segment), lambda: log[-1][2])
    assert observed == expected
