"""Failover tests (§4.4, §5, §6.2): detection, takeover, transparency."""

import pytest

from repro.apps.workload import (
    bulk_workload,
    echo_workload,
    interactive_workload,
    upload_workload,
)
from repro.errors import ConnectionReset
from repro.faults.injection import FaultPlan
from repro.harness.runner import run_workload
from repro.ip.datagram import PROTO_TCP
from repro.net.frame import ETHERTYPE_IPV4
from repro.net.loss import ScriptedLoss
from repro.sttcp.backup import ROLE_ACTIVE
from repro.sttcp.shadow import ShadowExtension
from repro.tcp.constants import FLAG_ACK, FLAG_SYN, TCPState
from repro.tcp.timewait import TimeWait
from repro.util.units import KB

from tests.sttcp.conftest import make_scenario


def failover_run(workload, seed=77, crash_fraction=0.5, deadline=300.0, **scenario_kwargs):
    """Measure the failure-free run, then re-run with a mid-run crash.

    Returns (scenario, failed_run, baseline_run).
    """
    baseline = run_workload(
        workload, scenario=make_scenario(seed=seed, **scenario_kwargs), deadline=deadline
    ).require_clean()
    scenario = make_scenario(seed=seed, **scenario_kwargs)
    crash_at = 0.1 + crash_fraction * baseline.total_time
    faults = [(crash_at, "primary_crash")]
    run = run_workload(workload, scenario=scenario, faults=faults, deadline=deadline)
    return scenario, run, baseline


@pytest.mark.parametrize(
    "workload",
    [echo_workload(20), interactive_workload(10), bulk_workload(256 * KB), upload_workload(256 * KB)],
    ids=["echo", "interactive", "bulk", "upload"],
)
def test_client_completes_and_verifies_through_failover(workload):
    scenario, run, _ = failover_run(workload)
    assert run.result.error is None
    assert run.result.verified
    assert scenario.pair.failed_over
    assert not scenario.primary.is_up


def test_detection_latency_within_three_to_four_heartbeats():
    scenario, run, _ = failover_run(echo_workload(30), hb_interval=0.05)
    metrics = run.failover
    assert metrics.detection_latency is not None
    assert 3 * 0.05 <= metrics.detection_latency <= 4 * 0.05 + 0.01


def test_takeover_includes_stonith_delay():
    scenario, run, _ = failover_run(
        echo_workload(30), hb_interval=0.05, stonith_delay=0.02
    )
    metrics = run.failover
    assert metrics.takeover_latency - metrics.detection_latency >= 0.02


def test_failover_time_scales_with_heartbeat_interval():
    """The paper's central Table 2 relationship."""
    times = {}
    for hb in (0.05, 0.4):
        _scenario, failed, baseline = failover_run(
            echo_workload(30), seed=81, hb_interval=hb
        )
        assert failed.result.verified
        times[hb] = failed.total_time - baseline.total_time
    assert times[0.4] > times[0.05] * 3


def test_client_never_learns_about_the_failover():
    """The client's TCP sees no RST and no address change — only a pause."""
    scenario, run, _ = failover_run(bulk_workload(256 * KB))
    assert run.result.error is None
    # Exactly one client connection existed for the whole run.
    assert run.result.exchanges_done == 1
    assert scenario.sim.metrics.value("client.tcp.resets_sent") == 0


def test_backup_answers_arp_after_takeover():
    scenario, _run, _ = failover_run(echo_workload(20))
    from repro.harness.scenario import SERVICE_IP

    assert SERVICE_IP.value not in scenario.backup.arp.suppressed_ip_values


def test_new_connections_served_by_backup_after_failover():
    scenario, _run, _ = failover_run(echo_workload(20))
    assert scenario.pair.backup_engine.role is ROLE_ACTIVE
    # A brand-new client connection must now be served by the backup.
    late = run_workload(echo_workload(5), scenario=scenario, deadline=60.0)
    assert late.result.error is None
    assert late.result.verified
    # And it is a regular (non-shadow) connection on the backup.
    new_conns = [
        t for t in scenario.backup.tcp.connections if not isinstance(t.extension, ShadowExtension)
    ]
    assert new_conns or scenario.sim.metrics.value("backup.tcp.segments_demuxed") > 0


def test_crash_before_any_connection_still_fails_over():
    scenario = make_scenario()
    scenario.start_service()
    FaultPlan([(0.05, "primary_crash")]).arm(scenario)
    scenario.sim.run(until=2.0)
    assert scenario.pair.failed_over
    # A client arriving after the takeover is served by the backup.
    run = run_workload(echo_workload(5), scenario=scenario, deadline=60.0)
    assert run.result.error is None and run.result.verified


def test_crash_during_handshake_window():
    """Crash right around connection establishment: the shadow holds the
    connection even if the primary dies within the first exchanges."""
    scenario = make_scenario()
    run = run_workload(
        echo_workload(20), scenario=scenario, faults=[(0.101, "primary_crash")], deadline=300.0
    )
    assert run.result.error is None
    assert run.result.verified


def _tap_loses_the_client_syn(scenario):
    """The backup's tap drops the client's SYN and no other frame; returns
    the loss model and the list of shadows late adoption built."""

    def client_syn(frame):
        if frame.ethertype != ETHERTYPE_IPV4 or frame.payload.protocol != PROTO_TCP:
            return False
        return frame.payload.payload.flags & (FLAG_SYN | FLAG_ACK) == FLAG_SYN

    loss = ScriptedLoss(predicate=client_syn)
    scenario.backup.nics[0].rx_loss_model = loss
    engine = scenario.pair.backup_engine
    adopt, adopted = engine._adopt_missed_connection, []

    def recording_adopt(client_ip, synack):
        state = adopt(client_ip, synack)
        adopted.append((synack, state))
        return state

    engine._adopt_missed_connection = recording_adopt
    return loss, adopted


def test_late_shadow_is_built_from_the_tapped_synack():
    """A tap that missed the client's SYN still shadows the connection:
    the primary's SYN/ACK carries both ISNs (§4.1)."""
    scenario = make_scenario()
    loss, adopted = _tap_loses_the_client_syn(scenario)
    run = run_workload(echo_workload(20), scenario=scenario, deadline=60.0).require_clean()
    assert loss.dropped == 1
    assert len(adopted) == 1
    synack, state = adopted[0]
    assert synack.flags & (FLAG_SYN | FLAG_ACK) == FLAG_SYN | FLAG_ACK
    (shadow,) = scenario.pair.backup_engine.shadow_connections
    assert state.tcb is shadow
    assert shadow.remote_port == synack.dst_port
    assert state.isn_rebased  # re-anchored on the primary's ISN
    assert run.result.exchanges_done == 20


def test_crash_after_late_shadow_adoption_is_transparent():
    """The late shadow takes the connection over like any other: the
    client never learns that the tap lost its SYN or that the primary
    died."""
    baseline_scenario = make_scenario()
    _tap_loses_the_client_syn(baseline_scenario)
    baseline = run_workload(
        echo_workload(20), scenario=baseline_scenario, deadline=60.0
    ).require_clean()
    scenario = make_scenario()
    loss, adopted = _tap_loses_the_client_syn(scenario)
    crash_at = 0.1 + 0.5 * baseline.total_time  # after the first exchange
    faults = [(crash_at, "primary_crash")]
    run = run_workload(echo_workload(20), scenario=scenario, faults=faults, deadline=300.0)
    assert loss.dropped == 1 and len(adopted) == 1
    assert scenario.pair.failed_over
    assert run.result.error is None
    assert run.result.verified
    assert run.result.exchanges_done == 20
    assert scenario.sim.metrics.value("client.tcp.resets_sent") == 0


def test_upload_failover_uses_backup_receive_state():
    """For an upload, the backup must continue the *receive* stream where
    its tap left off — the client retransmits only what nobody acked."""
    scenario, run, _ = failover_run(upload_workload(512 * KB))
    assert run.result.error is None
    assert run.result.verified  # server-side receipt confirmed all bytes


def test_shadow_suppression_lifted_on_all_connections():
    scenario, _run, _ = failover_run(echo_workload(20))
    for tcb in scenario.pair.backup_engine.shadow_connections:
        assert not tcb.output_inhibited


def test_force_failover_for_planned_maintenance():
    scenario = make_scenario()
    scenario.start_service()
    scenario.sim.run(until=0.1)
    scenario.pair.backup_engine.force_failover()
    scenario.sim.run(until=0.5)
    assert scenario.pair.failed_over
    assert not scenario.primary.is_up  # STONITH made the suspicion true


def test_wrong_suspicion_made_safe_by_stonith():
    """Partition the UDP channel while the primary is healthy: the backup
    wrongly suspects, but the power switch kills the primary *before* the
    takeover, so the client never sees two servers (§3.2, §4.4)."""
    scenario = make_scenario(hb_interval=0.05)
    run = run_workload(
        echo_workload(50), scenario=scenario, faults=[(0.0, "channel_partition")], deadline=120.0
    )
    assert run.result.error is None and run.result.verified
    # Let the (wrong) suspicion mature, then verify it was made safe.
    scenario.sim.run(until=scenario.sim.now + 1.0)
    assert scenario.pair.failed_over
    assert not scenario.primary.is_up
    # Takeover strictly after the primary was powered off.
    assert scenario.pair.backup_engine.takeover_time >= scenario.primary.crashed_at
    # Service continues: a fresh client run is served by the new primary.
    late = run_workload(echo_workload(5), scenario=scenario, deadline=60.0)
    assert late.result.error is None and late.result.verified


@pytest.mark.parametrize("healed", [True, False], ids=["healed", "standing"])
def test_a_one_way_partition_suspects_only_once_it_outlasts_the_miss_threshold(healed):
    """The primary's heartbeats vanish while the backup's still arrive.
    Healed after two heartbeat intervals, the backup suspects nothing;
    left standing, it suspects a healthy primary and STONITH makes that
    safe.  The client sees neither."""
    faults = [(0.0, "channel_partition_oneway", {"sender": "primary"})]
    if healed:
        faults.append((0.1, "channel_heal"))
    scenario = make_scenario(hb_interval=0.05)
    run = run_workload(echo_workload(50), scenario=scenario, faults=faults, deadline=120.0)
    assert run.result.error is None and run.result.verified
    scenario.sim.run(until=scenario.sim.now + 1.0)
    assert scenario.pair.failed_over is not healed
    assert scenario.primary.is_up is healed


def test_failover_in_switched_topology():
    scenario, run, _ = failover_run(bulk_workload(128 * KB), topology="switched")
    assert run.result.error is None
    assert run.result.verified
    assert scenario.pair.failed_over


def test_multiple_connections_all_survive_failover():
    scenario = make_scenario()
    scenario.start_service()
    results = []

    def client_runner():
        from repro.apps.client import client_session

        result = yield scenario.client.spawn(
            client_session(scenario.client, scenario.service_addr, echo_workload(40))
        )
        results.append(result)

    def all_clients():
        processes = [
            scenario.client.spawn(client_runner(), f"runner-{i}") for i in range(3)
        ]
        for process in processes:
            yield process

    FaultPlan([(0.12, "primary_crash")]).arm(scenario)
    driver = scenario.client.spawn(all_clients(), "driver")
    scenario.sim.run_until_complete(driver, deadline=120.0)
    assert len(results) == 3
    assert all(r.error is None and r.verified for r in results)
    assert len(scenario.pair.backup_engine.shadow_connections) == 3


def test_engines_re_arm_a_timer_whose_stopped_event_is_still_queued(scenario):
    """``_adopt_new_primary`` and ``replace_backup`` guard their re-arm with
    ``if not timer.running``.  A stopped ``RestartableTimer`` keeps its
    kernel event queued; ``running`` must read the deadline, or heartbeats
    and sync ticks would never resume."""
    scenario.start_service()
    scenario.sim.run(until=0.01)
    primary, backup = scenario.pair.primary_engine, scenario.pair.backup_engine
    for timer in (primary._hb_timer, backup._hb_timer, backup._sync_timer):
        timer.stop()
        assert timer.seq >= 0 and not timer.running
    backup._adopt_new_primary(backup.primary_ip)
    assert backup._hb_timer.running and backup._sync_timer.running
    (backup_ip,) = primary.backup_ips
    primary.replace_backup(backup_ip, backup_ip, backup.host)
    assert primary._hb_timer.running


@pytest.mark.parametrize(
    "isn_known, filled, cause",
    [(False, False, "isn_unknown"), (True, False, "hole"), (True, True, None)],
    ids=["hole-and-no-isn", "hole", "hole-filled"],
)
def test_a_degraded_connection_is_listed_once(isn_known, filled, cause):
    """The takeover's one walk finds a hole (the tapped ACK stream ran
    ahead of the shadow) and an unknown ISN: a shadow with both is listed
    once, as ``isn_unknown``, and reset; one with a hole only is listed
    as ``hole`` and still taken over; a hole filled before the takeover
    is not listed.  Without STONITH the takeover runs inside
    ``force_failover``, so no client byte arrives in between."""
    from repro.apps.client import run_client
    from repro.apps.protocol import KIND_ECHO, encode_request

    scenario = make_scenario(stonith=False)
    scenario.start_service()
    run_client(scenario.client, scenario.service_addr, echo_workload(2000))
    scenario.sim.run(until=0.05)
    engine = scenario.pair.backup_engine
    (state,) = engine._connections.values()
    tcb = state.tcb
    assert tcb.state is TCPState.ESTABLISHED
    state.isn_rebased = isn_known
    state.primary_rcv_nxt = tcb.rcv_nxt + 150
    if filled:
        assert tcb.inject_receive_data(tcb.rcv_nxt, encode_request(KIND_ECHO, 0, 0)) == 150
    fate = []
    engine.on_takeover = lambda _engine: fate.append((state.closed, tcb.output_inhibited))
    engine.force_failover()
    assert engine.degraded_connections == ({} if cause is None else {state.key: cause})
    reset = cause == "isn_unknown"
    assert fate == [(reset, reset)]


def test_a_server_that_closes_first_waits_on_both_replicas_and_a_takeover_answers_for_it():
    """A server that closes first is the active closer on the primary and
    the shadow alike: both ends wait in TIME_WAIT as records that the
    engines' per-connection state follows, while the client, the passive
    closer, is gone.  A takeover during the wait announces the server
    from the shadow's record with a pure ACK, and the client's stack,
    holding nothing for it, resets the record."""
    scenario = make_scenario(seed=81)
    sim, pair = scenario.sim, scenario.pair
    port = scenario.service_addr[1]
    seen = {}

    def server(host):
        conn = yield host.tcp.listen(port).accept()
        yield conn.recv_exactly(3)
        yield conn.send(b"bye")
        conn.close()  # the server closes first

    def client():
        sock = scenario.client.tcp.connect(scenario.service_addr)
        yield sock.wait_connected()
        yield sock.send(b"req")
        seen["reply"] = yield sock.recv_exactly(3)
        seen["eof"] = (yield sock.recv(10)).length
        sock.close()

    for host in (scenario.primary, scenario.backup):
        host.spawn(server(host))
    pair.primary_engine.start()
    pair.backup_engine.start()
    sim.run_until_complete(scenario.client.spawn(client()), deadline=5.0)
    sim.run(until=sim.now + 0.05)
    assert seen == {"reply": b"bye", "eof": 0}
    assert scenario.client.tcp.connections == []
    (primary_state,) = pair.primary_engine._connections.values()
    (shadow,) = pair.backup_engine._connections.values()
    record = shadow.tcb
    for host, endpoint in ((scenario.primary, primary_state.tcb), (scenario.backup, record)):
        assert isinstance(endpoint, TimeWait) and host.tcp.connections == [endpoint]
    resets = sim.metrics.value("client.tcp.resets_sent")
    pair.backup_engine.force_failover()
    sim.run(until=sim.now + 0.1)
    assert pair.failed_over and not record.output_inhibited
    assert sim.metrics.value("client.tcp.resets_sent") == resets + 1
    assert record.state is TCPState.CLOSED and isinstance(record.error, ConnectionReset)
    assert scenario.backup.tcp.connections == [] and pair.backup_engine._connections == {}
