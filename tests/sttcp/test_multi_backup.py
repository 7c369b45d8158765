"""Multi-backup ST-TCP tests (§3: "one or more backup servers"):
ranked takeover, promotion, cascading failover, min-ack retention."""

import pytest

from repro.apps.workload import bulk_workload, echo_workload, upload_workload
from repro.faults.injection import FaultPlan
from repro.harness.calibrate import FAST_LAN
from repro.harness.runner import run_workload
from repro.harness.scenario import Scenario
from repro.sttcp.backup import ROLE_ACTIVE, ROLE_PASSIVE, TAKEOVER_GRACE
from repro.sttcp.config import STTCPConfig
from repro.util.units import KB

from tests.sttcp.conftest import make_scenario


def make_group(backups=2, seed=120, **config_kwargs):
    config = STTCPConfig(hb_interval=0.05, **config_kwargs)
    return Scenario(profile=FAST_LAN, sttcp=config, backups=backups, seed=seed)


def test_failure_free_run_with_two_backups():
    scenario = make_group()
    run = run_workload(upload_workload(128 * KB), scenario=scenario, deadline=120.0)
    assert run.result.error is None and run.result.verified
    # Both backups shadowed the connection and acked.
    for engine in scenario.pair.backup_engines:
        assert len(engine.shadow_connections) == 1
        assert scenario.sim.metrics.value(f"{engine.host.name}.sttcp.acks_sent") > 0
    assert not scenario.pair.failed_over


def test_two_backups_cost_matches_one_backup():
    """Adding a backup must not slow the client (it only taps)."""
    one = run_workload(
        echo_workload(30), scenario=make_scenario(seed=121), deadline=120.0
    ).require_clean()
    two = run_workload(
        echo_workload(30), scenario=make_group(seed=121), deadline=120.0
    ).require_clean()
    assert two.total_time == pytest.approx(one.total_time, rel=0.02)


def test_retention_waits_for_slowest_backup():
    """A byte is only discarded when every live backup acked it (min)."""
    scenario = make_group(sync_time=10.0, ack_threshold_fraction=0.25)
    # Slow the second backup's tap so its acks trail the first backup's.
    scenario.extra_backups[0].nics[0].processing_delay = 0.0004
    run = run_workload(upload_workload(128 * KB), scenario=scenario, deadline=120.0)
    assert run.result.error is None
    state = list(scenario.pair.primary_engine._connections.values())[0]
    acked = state.acked_by
    fast = scenario.backup.interfaces[0].ip.value
    slow = scenario.extra_backups[0].interfaces[0].ip.value
    assert acked.get(fast, 0) > acked.get(slow, 0)
    # Retained floor equals the slow backup's ack point.
    assert state.retention.lowest_retained_offset <= acked.get(fast, 0)


def test_rank0_takes_over_and_rank1_adopts():
    scenario = make_group()
    run = run_workload(
        bulk_workload(256 * KB), scenario=scenario, faults=[(0.11, "primary_crash")], deadline=300.0
    )
    assert run.result.error is None and run.result.verified
    rank0, rank1 = scenario.pair.backup_engines
    scenario.sim.run(until=scenario.sim.now + 1.0)
    assert rank0.role is ROLE_ACTIVE
    assert rank0.promoted_primary is not None
    # Rank 1 stood down and now shadows the new primary.
    assert rank1.role is ROLE_PASSIVE
    assert rank1.primary_ip == scenario.backup.interfaces[0].ip


def test_promoted_primary_keeps_fault_tolerance():
    """After the first failover the service is *still* fault-tolerant:
    the new primary retains bytes for the remaining backup."""
    scenario = make_group()
    run = run_workload(
        upload_workload(256 * KB), scenario=scenario, faults=[(0.11, "primary_crash")], deadline=300.0
    )
    assert run.result.error is None and run.result.verified
    scenario.sim.run(until=scenario.sim.now + 1.0)
    promoted = scenario.pair.backup_engines[0].promoted_primary
    assert promoted is not None
    assert promoted.fault_tolerant
    # Rank 1 acks the new primary.
    assert scenario.sim.metrics.value(f"{promoted.host.name}.sttcp.acks_received") > 0


def test_promoted_primary_retains_its_former_shadow_from_its_read_position():
    """Rank 1 shadowed the connection from its SYN, so the promoted rank 0
    keeps it protected: a second buffer starting mid-stream, at the read
    position of the moment it took over, released by rank 1's acks."""
    scenario = make_group()
    shadows = []
    scenario.backup.tcp.connection_observers.append(shadows.append)
    run = run_workload(
        upload_workload(256 * KB), scenario=scenario, faults=[(0.11, "primary_crash")], deadline=300.0
    )
    assert run.result.error is None and run.result.verified
    (tcb,) = shadows
    retention = tcb.recv_buffer.retention
    assert retention is not None and retention.enabled
    started_at = tcb.recv_buffer.read_offset - retention.bytes_retained_total
    assert 0 < started_at < tcb.recv_buffer.read_offset
    assert retention.bytes_released_total > 0


def test_cascading_failover_two_crashes():
    """Primary dies, rank 0 takes over; then rank 0 dies too and rank 1
    carries the same client connection to completion."""
    scenario = make_group(seed=122)
    scenario.start_service()
    # A run long enough (~1.6 s) that both crashes land mid-stream.
    from repro.apps.client import run_client

    process = None

    def launch():
        nonlocal process
        process = run_client(
            scenario.client, scenario.service_addr, echo_workload(10000)
        )

    scenario.sim.schedule_at(0.1, launch)
    # The backup crashes after its takeover.
    FaultPlan([(0.15, "primary_crash"), (1.2, "backup_crash")]).arm(scenario)
    scenario.sim.run(until=0.1)
    result = scenario.sim.run_until_complete(process, deadline=300.0)
    assert result.error is None
    assert result.verified
    assert result.exchanges_done == 10000
    rank1 = scenario.pair.backup_engines[1]
    assert rank1.role is ROLE_ACTIVE
    assert scenario.pair.active_host is scenario.extra_backups[0]
    assert not scenario.primary.is_up and not scenario.backup.is_up


def test_simultaneous_primary_and_rank0_crash():
    """If rank 0 dies with the primary, rank 1's deferred takeover fires
    after its grace period and serves the client."""
    scenario = make_group(seed=123)
    run = run_workload(
        bulk_workload(256 * KB),
        scenario=scenario,
        faults=[(0.119, "backup_crash"), (0.12, "primary_crash")],
        deadline=300.0,
    )
    assert run.result.error is None and run.result.verified
    rank1 = scenario.pair.backup_engines[1]
    assert rank1.role is ROLE_ACTIVE
    # Rank 1 waited at least its grace period beyond detection.
    assert rank1.takeover_time - rank1.detection_time >= TAKEOVER_GRACE


def test_three_replica_group():
    scenario = make_group(backups=3, seed=124)
    run = run_workload(
        bulk_workload(128 * KB), scenario=scenario, faults=[(0.11, "primary_crash")], deadline=300.0
    )
    assert run.result.error is None and run.result.verified
    assert len(scenario.pair.backup_engines) == 3
    assert scenario.pair.failed_over


def test_group_validates_configuration():
    from repro.errors import ConfigurationError
    from repro.sttcp.group import STTCPServerGroup
    from repro.harness.scenario import SERVICE_IP, SERVICE_PORT

    scenario = make_group()
    with pytest.raises(ConfigurationError):
        STTCPServerGroup(scenario.primary, [], SERVICE_IP, SERVICE_PORT)
    with pytest.raises(ConfigurationError):
        Scenario(sttcp=STTCPConfig(), backups=5)


def test_switched_topology_group_failover():
    """Multi-backup also works behind a switch: SME/GME multicast groups
    deliver both directions to every backup."""
    config = STTCPConfig(hb_interval=0.05)
    scenario = Scenario(
        profile=FAST_LAN, topology="switched", sttcp=config, backups=2, seed=125
    )
    run = run_workload(
        bulk_workload(256 * KB), scenario=scenario, faults=[(0.12, "primary_crash")], deadline=300.0
    )
    assert run.result.error is None and run.result.verified
    assert scenario.pair.failed_over
    scenario.sim.run(until=scenario.sim.now + 1.0)
    rank0, rank1 = scenario.pair.backup_engines
    assert rank0.role is ROLE_ACTIVE
    assert rank1.role is ROLE_PASSIVE  # adopted the new primary
