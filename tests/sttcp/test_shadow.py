"""Failure-free shadowing tests (§4.1–4.3): ISN sync, suppression,
state tracking, backup acknowledgments, retention release."""

import sys
from collections import Counter

from repro.apps.protocol import KIND_DATA, encode_request
from repro.apps.workload import bulk_workload, echo_workload, upload_workload
from repro.harness.runner import run_workload
from repro.sttcp.backup import ROLE_PASSIVE
from repro.tcp.constants import TCPState
from repro.tcp.segment import SegmentTemplate, TCPSegment
from repro.tcp.tcb import TCPConnection
from repro.util.units import KB

from tests.sttcp.conftest import make_scenario


def run_on(scenario, workload, **kwargs):
    return run_workload(workload, scenario=scenario, deadline=120.0, **kwargs)


def _count_segments_built_by_host(monkeypatch):
    """Count every segment a TCB builds, by the name of its host: the
    template builds of ``OutputEngine.emit`` and the checked constructions
    of ``send_rst_for`` (both have the building TCB as local ``conn``)."""
    built = Counter()

    def note_building_tcb():
        conn = sys._getframe(2).f_locals.get("conn")
        if isinstance(conn, TCPConnection):
            built[conn.layer.host.name] += 1

    build, construct = SegmentTemplate.build, TCPSegment.__init__

    def counted_build(self, *args, **kwargs):
        note_building_tcb()
        return build(self, *args, **kwargs)

    def counted_construct(self, *args, **kwargs):
        note_building_tcb()
        construct(self, *args, **kwargs)

    monkeypatch.setattr(SegmentTemplate, "build", counted_build)
    monkeypatch.setattr(TCPSegment, "__init__", counted_construct)
    return built


def test_backup_is_silent_during_failure_free_run(monkeypatch):
    """Transparency: while it shadows, the backup builds no TCP segment
    at all — its connections are output-inhibited, so the replies its
    server produces never become segments, let alone frames."""
    built = _count_segments_built_by_host(monkeypatch)
    scenario = make_scenario()
    run_on(scenario, echo_workload(10)).require_clean()
    # Everything the backup sent is UDP channel traffic — no TCP segments.
    assert scenario.backup.tcp.connections  # shadow exists
    for tcb in scenario.backup.tcp.connections:
        assert tcb.output_inhibited
        assert tcb.segments_sent == 0
    assert built[scenario.primary.name] > 0  # the count sees real builds
    assert built[scenario.backup.name] == 0


def test_shadow_rebases_to_primary_isn():
    scenario = make_scenario()
    run_on(scenario, echo_workload(5)).require_clean()
    shadow = scenario.pair.backup_engine.shadow_connections[0]
    primary_tcb = scenario.primary.tcp.connections[0]
    assert shadow.extension.isn_rebased
    assert shadow.iss == primary_tcb.iss or (
        # Absolute epochs may differ; wire (32-bit) ISNs must agree.
        shadow.iss & 0xFFFFFFFF == primary_tcb.iss & 0xFFFFFFFF
    )


def test_shadow_tracks_receive_stream_exactly():
    scenario = make_scenario()
    run_on(scenario, upload_workload(64 * KB)).require_clean()
    shadow = scenario.pair.backup_engine.shadow_connections[0]
    primary_tcb = scenario.primary.tcp.connections[0]
    assert shadow.state is TCPState.ESTABLISHED
    assert shadow.recv_buffer.rcv_nxt_offset == primary_tcb.recv_buffer.rcv_nxt_offset
    assert shadow.bytes_received >= 64 * KB


def test_shadow_send_state_follows_client_acks():
    scenario = make_scenario()
    run_on(scenario, bulk_workload(64 * KB)).require_clean()
    shadow = scenario.pair.backup_engine.shadow_connections[0]
    primary_tcb = scenario.primary.tcp.connections[0]
    # Everything the client acknowledged is released on both replicas.
    assert shadow.snd_una - shadow.iss == primary_tcb.snd_una - primary_tcb.iss
    assert shadow.send_buffer.una_offset == primary_tcb.send_buffer.una_offset


def test_backup_engine_stays_passive_without_failure():
    scenario = make_scenario()
    run_on(scenario, echo_workload(10)).require_clean()
    assert scenario.pair.backup_engine.role is ROLE_PASSIVE
    assert scenario.pair.backup_engine.detection_time is None
    assert not scenario.pair.failed_over


def acks_sent(scenario):
    return scenario.sim.metrics.value("backup.sttcp.acks_sent")


def test_backup_acks_release_primary_retention():
    scenario = make_scenario()
    run_on(scenario, upload_workload(128 * KB)).require_clean()
    primary_engine = scenario.pair.primary_engine
    state = list(primary_engine._connections.values())[0]
    # The run is over and acks flowed: nearly everything was released.
    assert state.retention.bytes_released_total > 0
    assert state.retention.retained_bytes < state.retention.capacity
    assert acks_sent(scenario) > 0
    assert scenario.sim.metrics.value("primary.sttcp.acks_received") == acks_sent(scenario)


def test_x_threshold_controls_ack_rate():
    """Smaller X → more BackupAcks for the same upload (§4.3)."""
    few = make_scenario(seed=78, ack_threshold_fraction=1.0)
    run_on(few, upload_workload(128 * KB)).require_clean()
    many = make_scenario(seed=78, ack_threshold_fraction=0.25)
    run_on(many, upload_workload(128 * KB)).require_clean()
    assert acks_sent(many) > acks_sent(few)


def test_sync_time_acks_when_idle():
    """With no client traffic at all, acks still flow every SyncTime and
    serve as backup→primary heartbeats (§4.3): over a connection that
    made one exchange and then sits idle, held open (a closed one leaves
    the backup nothing to ack)."""
    scenario = make_scenario(sync_time=0.02)
    scenario.start_service()
    sim = scenario.sim
    idle = {}

    def client():
        sock = scenario.client.tcp.connect(scenario.service_addr)
        yield sock.wait_connected()
        yield sock.send(encode_request(KIND_DATA, 512, 1))
        yield sock.recv_exactly(512)
        idle["before"] = acks_sent(scenario)
        yield sim.timeout(1.0)  # idle period
        idle["after"] = acks_sent(scenario)
        sock.close()

    sim.run_until_complete(scenario.client.spawn(client()), deadline=30.0)
    assert idle["after"] - idle["before"] >= 40  # ~one per 20 ms of idle time


def test_shadow_handles_client_ack_ahead_of_slow_application():
    """If the backup's server produces its response after the client has
    already acknowledged the primary's copy, the early ACK must apply
    once the data materialises (§4.2 determinism)."""
    scenario = make_scenario()
    # Slow the backup's NIC so tapped traffic (and thus its app) lags.
    scenario.backup.nics[0].processing_delay = 0.0005
    # The shadow is reaped from the engine once it closes, so capture the
    # TCB at attach time to inspect it post-hoc.
    shadows = []
    scenario.backup.tcp.connection_observers.append(shadows.append)
    run_on(scenario, bulk_workload(64 * KB)).require_clean()
    primary_tcb = scenario.primary.tcp.connections[0]
    primary_final_offset = primary_tcb.snd_una - primary_tcb.iss
    # Let the lagging backup drain its receive queue and catch up.
    scenario.sim.run(until=scenario.sim.now + 2.0)
    (shadow,) = shadows
    assert shadow.snd_una - shadow.iss >= primary_final_offset


def test_multiple_concurrent_connections_all_shadowed():
    scenario = make_scenario()
    scenario.start_service()
    results = []

    def client_runner():
        from repro.apps.client import client_session

        result = yield scenario.client.spawn(
            client_session(scenario.client, scenario.service_addr, echo_workload(5))
        )
        results.append(result)

    def all_clients():
        processes = [
            scenario.client.spawn(client_runner(), f"runner-{i}") for i in range(3)
        ]
        for process in processes:
            yield process

    driver = scenario.client.spawn(all_clients(), "driver")
    scenario.sim.run_until_complete(driver, deadline=60.0)
    assert len(results) == 3
    assert all(r.verified and r.error is None for r in results)
    assert len(scenario.pair.backup_engine.shadow_connections) == 3


def test_primary_window_pinches_when_backup_acks_lag():
    """With a tiny second buffer and rare acks, retained bytes overflow
    and consume the advertised window — the paper's only visible
    deviation from standard TCP (§4.2)."""
    scenario = make_scenario(
        seed=79,
        second_buffer_size=2 * KB,
        ack_threshold_fraction=1.0,
        sync_time=5.0,
    )
    run_on(scenario, upload_workload(64 * KB)).require_clean()
    state = list(scenario.pair.primary_engine._connections.values())[0]
    assert state.retention.overflow_byte_peak > 0
