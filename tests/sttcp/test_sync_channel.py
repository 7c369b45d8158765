"""UDP-channel tests (§4.2–4.3): tap-loss repair, messages, backup failure."""

import pytest
from hypothesis import given, settings

from repro.apps.workload import bulk_workload, upload_workload
from repro.faults.injection import FaultPlan
from repro.harness.runner import run_workload
from repro.harness.scenario import SERVICE_IP, SERVICE_PORT
from repro.ip.datagram import PROTO_TCP, IPDatagram
from repro.sttcp.messages import (
    AckReply,
    BackupAck,
    Heartbeat,
    RetxData,
    RetxRequest,
    SMALL_MESSAGE_SIZE,
    conn_key,
)
from repro.tcp.constants import FLAG_ACK, TCPState
from repro.tcp.segment import TCPSegment
from repro.tcp.seqspace import wrap
from repro.util.bytespan import PatternBytes, RealBytes
from repro.util.units import KB

from tests.sttcp.conftest import make_scenario
from tests.tcp.test_seqspace import pin_cases, unwrap_or_error, wire_and_reference


# ------------------------------------------------------------------- messages
def test_small_messages_cost_128_bytes_on_the_wire():
    """§4.3: 'the total length (including all header overheads down to
    Ethernet) of an ack packet is 128 bytes'."""
    from repro.net.frame import ETHERNET_OVERHEAD
    from repro.ip.datagram import IP_HEADER_SIZE
    from repro.udp.datagram import UDP_HEADER_SIZE

    ack = BackupAck((1, 2), 12345)
    total = ack.wire_size + UDP_HEADER_SIZE + IP_HEADER_SIZE + ETHERNET_OVERHEAD
    assert total == 128
    for message in (Heartbeat("primary", 1), AckReply((1, 2), 5), RetxRequest((1, 2), 0, 9)):
        assert message.wire_size == SMALL_MESSAGE_SIZE


def test_retx_data_sizes_by_payload():
    message = RetxData((1, 2), 0, RealBytes(b"x" * 100))
    assert message.wire_size == 132


def test_conn_key_is_value_based():
    from repro.net.addresses import ip

    assert conn_key(ip("10.0.0.10"), 5000) == conn_key(ip("10.0.0.10"), 5000)
    assert conn_key(ip("10.0.0.10"), 5000) != conn_key(ip("10.0.0.10"), 5001)


# ---------------------------------------------------------- tap-loss recovery
def test_random_tap_loss_repaired_over_channel():
    """Frames the backup's tap drops are repaired by RETX_REQUEST —
    invisible to the client, and the shadow ends with the full stream."""
    scenario = make_scenario(seed=90, retx_request_timeout=0.02)
    run = run_workload(
        upload_workload(256 * KB),
        scenario=scenario,
        faults=[(0.0, "tap_loss", {"rate": 0.05})],
        deadline=120.0,
    )
    assert run.result.error is None and run.result.verified
    (shadow,) = scenario.pair.backup_engine.shadow_connections
    scenario.sim.run(until=scenario.sim.now + 1.0)  # let repairs finish
    assert scenario.sim.metrics.value("backup.sttcp.retx_requests_sent") > 0
    assert scenario.sim.metrics.value("backup.sttcp.retx_bytes_recovered") > 0
    assert shadow.recv_buffer.rcv_nxt_offset >= 256 * KB


def test_a_shadow_whose_tap_lost_the_clients_fin_takes_it_from_the_primary_and_closes():
    """The tap lost the client's FIN, and the ACKs after it fell outside
    the lagging shadow's window.  The primary's reply to the request that
    reaches the FIN carries it, with how far the client acked: the shadow
    closes through LAST_ACK, and the requests stop."""
    scenario = make_scenario(seed=90, retx_request_timeout=0.02)
    run = run_workload(
        upload_workload(256 * KB),
        scenario=scenario,
        faults=[(0.0, "tap_loss", {"rate": 0.05})],
        deadline=120.0,
    )
    assert run.result.error is None and run.result.verified
    sim, backup = scenario.sim, scenario.pair.backup_engine
    (shadow,) = backup.shadow_connections
    sim.run(until=sim.now + 1.0)
    requests = sim.metrics.value("backup.sttcp.retx_requests_sent")
    assert shadow.state is TCPState.CLOSED and shadow.error is None
    assert shadow.fin_received and shadow.recv_buffer.rcv_nxt_offset == 256 * KB + 150
    assert backup.shadow_connections == [] and scenario.pair.primary_engine._connections == {}
    sim.run(until=sim.now + 5.0)
    assert sim.metrics.value("backup.sttcp.retx_requests_sent") == requests


@pytest.mark.parametrize("backup_dies", [False, True], ids=["acked", "backup_dies"])
def test_a_closed_connection_is_held_while_its_backup_recovers(backup_dies):
    """The primary's end closes (LAST_ACK, then CLOSED) while the backup
    still asks for bytes its tap lost: the per-connection record and its
    retained bytes stay past the close, and go with the backup's ack that
    covers them, or with the backup itself once it is declared dead."""
    scenario = make_scenario(seed=90, retx_request_timeout=0.02)
    run = run_workload(
        upload_workload(256 * KB),
        scenario=scenario,
        faults=[(0.0, "tap_loss", {"rate": 0.05})],
        deadline=120.0,
    )
    assert run.result.error is None and run.result.verified
    sim, primary = scenario.sim, scenario.pair.primary_engine
    sim.run(until=sim.now + 0.01)
    (state,) = primary._connections.values()
    assert state.tcb.state is TCPState.CLOSED and scenario.primary.tcp.connections == []
    assert state.retention.retained_bytes > 0
    if backup_dies:
        scenario.backup.crash()
    sim.run(until=sim.now + 1.0)
    assert primary._connections == {} and primary.retention_states_reaped == 1
    assert state.retention.retained_bytes == 0
    assert primary.fault_tolerant is not backup_dies


def test_tap_outage_repaired_when_primary_survives():
    scenario = make_scenario(seed=91, retx_request_timeout=0.02)
    run = run_workload(
        upload_workload(256 * KB),
        scenario=scenario,
        faults=[(0.12, "tap_outage", {"duration": 0.04})],
        deadline=120.0,
    )
    assert run.result.error is None and run.result.verified
    scenario.sim.run(until=scenario.sim.now + 1.0)
    assert scenario.sim.metrics.value("backup.sttcp.retx_bytes_recovered") > 0
    assert scenario.sim.metrics.value("primary.sttcp.retx_requests_served") > 0


def test_tap_loss_on_download_workload_recovers_ack_stream():
    """Even for downloads the backup must keep its (tiny) client receive
    stream complete; heavy tap loss must not wedge the shadow."""
    scenario = make_scenario(seed=92, retx_request_timeout=0.02)
    shadows = []
    scenario.backup.tcp.connection_observers.append(shadows.append)
    run = run_workload(
        bulk_workload(128 * KB),
        scenario=scenario,
        faults=[(0.0, "tap_loss", {"rate": 0.10})],
        deadline=120.0,
    )
    assert run.result.error is None and run.result.verified
    scenario.sim.run(until=scenario.sim.now + 1.0)
    # The shadow followed the server's close out of the table (LAST_ACK,
    # then CLOSED) and holds the single 150-byte request record.
    (shadow,) = shadows
    assert scenario.pair.backup_engine.shadow_connections == []
    assert shadow.state is TCPState.CLOSED and shadow.error is None
    assert shadow.recv_buffer.rcv_nxt_offset >= 150


@pytest.mark.parametrize("retention_off", [False, True], ids=["released_below", "disabled"])
def test_retx_data_is_labelled_by_the_offset_it_really_starts_at(retention_off):
    """A request reaching below what the primary still holds is served
    from the first held byte, and the reply says so: a reply labelled
    with the requested start would splice later bytes in early.  The
    primary holds less than asked for once retention released past the
    start, or once it is off (non-fault-tolerant mode, §4.4)."""
    from repro.apps.client import run_client

    scenario = make_scenario(seed=94)
    scenario.start_service()
    run_client(scenario.client, scenario.service_addr, upload_workload(512 * KB))
    primary = scenario.pair.primary_engine
    state = None
    while state is None or state.retention.lowest_retained_offset < 2000 or not state.retention.retained_bytes:
        scenario.sim.run(until=scenario.sim.now + 0.001)
        state = next(iter(primary._connections.values()), None)
    tcb, held = state.tcb, state.retention.lowest_retained_offset
    if retention_off:
        state.retention.disable()
        # Only bytes the server has not read yet remain: 500 arrive unseen.
        held = tcb.recv_buffer.read_offset
        tcb.socket = None
        tcb.inject_receive_data(tcb.rcv_nxt, PatternBytes(500, held, 9))
    sent = []
    primary._send = lambda message, _target: sent.append(message)
    key = conn_key(tcb.remote_ip, tcb.remote_port)
    start, stop = tcb.irs + 1 + held - 1000, tcb.irs + 1 + held + 500
    primary._handle_retx_request(RetxRequest(key, wrap(start), wrap(stop)), scenario.backup.interfaces[0].ip)
    (reply,) = sent
    assert reply.seq == wrap(tcb.irs + 1 + held)
    assert len(reply.payload) == 500


def test_retention_only_released_after_backup_ack():
    """Bytes the backup missed must still be fetchable from the primary
    until acknowledged — the §4.2 guarantee."""
    scenario = make_scenario(seed=93, sync_time=10.0, ack_threshold_fraction=1.0)
    # Backup drops everything in a window and acks almost never.
    run = run_workload(
        upload_workload(64 * KB),
        scenario=scenario,
        faults=[(0.12, "tap_outage", {"duration": 0.02})],
        deadline=120.0,
    )
    assert run.result.error is None
    state = list(scenario.pair.primary_engine._connections.values())[0]
    retention = state.retention
    # Whatever the backup has not acked is still here (or was served).
    backup_acked = scenario.sim.metrics.value("backup.sttcp.acks_sent")
    assert retention.retained_bytes > 0 or backup_acked > 0


def test_backup_ack_reopens_a_pinched_window_at_once():
    """§4.2: read bytes the second buffer cannot hold pinch the advertised
    window; the BackupAck that releases them reopens it before the primary
    decides, inside the same call, to send the window update."""
    scenario = make_scenario(seed=12, second_buffer_size=2 * KB)
    run = run_workload(upload_workload(16 * KB), scenario=scenario, deadline=60.0)
    assert run.result.error is None and run.result.verified
    primary = scenario.pair.primary_engine
    (key, state), = primary._connections.items()
    tcb, retention, source = state.tcb, state.retention, primary.backup_ips[0]
    # The test is the application now: it reads while the backup
    # acknowledges nothing.
    tcb.socket = None
    offset = tcb.recv_buffer.rcv_nxt_offset
    while tcb.recv_buffer.window >= 2 * tcb.mss:
        chunk = tcb.recv_buffer.window
        tcb.inject_receive_data(tcb.irs + 1 + offset, PatternBytes(chunk, offset, 3))
        offset += chunk
        tcb.app_read(chunk)
    tcb.ack_now()
    pinched = tcb.output.last_advertised_window
    assert retention.overflow > 0
    assert pinched == tcb.recv_buffer.capacity - retention.overflow < 2 * tcb.mss
    sent = tcb.segments_sent
    primary._handle_backup_ack(BackupAck(key, wrap(tcb.rcv_nxt)), source)
    assert retention.retained_bytes == retention.overflow == 0
    assert tcb.segments_sent == sent + 1  # the window update, at once
    assert tcb.output.last_advertised_window == tcb.recv_buffer.capacity


# ------------------------------------------------------------- backup failure
def test_backup_crash_switches_primary_to_non_fault_tolerant_mode():
    scenario = make_scenario(hb_interval=0.05)
    scenario.start_service()
    FaultPlan([(0.1, "backup_crash")]).arm(scenario)
    scenario.sim.run(until=1.0)
    primary_engine = scenario.pair.primary_engine
    assert not primary_engine.fault_tolerant
    assert primary_engine.backup_failed_at is not None
    # Detection took 3–4 heartbeat intervals.
    latency = primary_engine.backup_failed_at - 0.1
    assert 0.15 <= latency <= 0.25


def test_service_continues_after_backup_failure():
    """Losing the backup costs fault tolerance, not service."""
    scenario = make_scenario(hb_interval=0.05)
    run = run_workload(
        upload_workload(128 * KB),
        scenario=scenario,
        faults=[(0.05, "backup_crash")],
        deadline=120.0,
    )
    assert run.result.error is None and run.result.verified
    # Retention disabled: nothing accumulates on the primary any more.
    for state in scenario.pair.primary_engine._connections.values():
        assert not state.retention.enabled
        assert state.retention.retained_bytes == 0


def test_backup_failure_does_not_pinch_primary_window():
    """Without the backup, the second buffer must stop consuming window
    (otherwise a dead backup would throttle the service forever)."""
    scenario = make_scenario(hb_interval=0.05, second_buffer_size=2 * KB)
    run = run_workload(
        upload_workload(256 * KB),
        scenario=scenario,
        faults=[(0.05, "backup_crash")],
        deadline=120.0,
    )
    assert run.result.error is None and run.result.verified
    for state in scenario.pair.primary_engine._connections.values():
        assert state.retention.overflow == 0
        assert state.tcb.recv_buffer.window == state.tcb.recv_buffer.capacity


# ------------------------------------------------- inline unwraps on the channel
@pytest.fixture(scope="module")
def pair_after_upload():
    """One ST-TCP pair whose connection is still ESTABLISHED on both
    servers after a short upload; the property below rewrites its
    sequence anchors freely and never runs the simulation again."""
    scenario = make_scenario(seed=12)
    run = run_workload(upload_workload(16 * KB), scenario=scenario, deadline=60.0)
    assert run.result.error is None and run.result.verified
    return scenario.pair.primary_engine, scenario.pair.backup_engine


def _observe(deliver, read):
    try:
        deliver()
    except ValueError:
        return ValueError
    return read()


@settings(max_examples=200)
@pin_cases
@given(case=wire_and_reference())
def test_prop_channel_unwraps_inline_exactly_as_unwrap(pair_after_upload, case):
    """The primary's BackupAck and the backup's tapped ACK field unwrap
    without a call within half the space; every result, fallback and
    refusal equals ``seqspace.unwrap``'s."""
    value, reference = case
    expected = unwrap_or_error(value, reference)
    primary, backup = pair_after_upload

    # BackupAck against the primary's rcv_nxt, as the offset it records.
    (key, state), = primary._connections.items()
    tcb, source = state.tcb, primary.backup_ips[0]
    tcb.rcv_nxt = reference
    state.acked_by[source.value] = -(1 << 62)  # any offset is progress
    observed = _observe(
        lambda: primary._handle_backup_ack(BackupAck(key, value), source),
        lambda: tcb.irs + 1 + state.acked_by[source.value],
    )
    assert observed == expected

    # The tapped primary→client ACK field against the shadow's rcv_nxt.
    (shadow,) = backup._connections.values()
    tcb = shadow.tcb

    def tap():
        segment = TCPSegment(SERVICE_PORT, tcb.remote_port, 0, 0, FLAG_ACK, 1000, RealBytes(b""))
        segment.ack = value  # past the constructor's range check
        datagram = IPDatagram(SERVICE_IP, tcb.remote_ip, PROTO_TCP, segment, 20)
        shadow.primary_rcv_nxt = shadow.pending_retx = None
        backup._on_tapped_datagram(datagram, None)

    tcb.rcv_nxt = reference
    observed = _observe(tap, lambda: shadow.primary_rcv_nxt)
    assert observed == expected
