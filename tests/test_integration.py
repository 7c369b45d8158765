"""Whole-system integration tests: mixed workloads, concurrent clients,
failover under combined load, switched-topology parity."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.client import client_session
from repro.apps.workload import (
    bulk_workload,
    echo_workload,
    interactive_workload,
    upload_workload,
)
from repro.faults.injection import FaultPlan
from repro.harness.calibrate import FAST_LAN
from repro.harness.runner import run_workload
from repro.harness.scenario import Scenario
from repro.sttcp.config import STTCPConfig
from repro.util.units import KB


def run_mixed_clients(scenario, workloads, deadline=300.0):
    """Run several client sessions concurrently; returns their results."""
    scenario.start_service()
    results = []

    def one(workload):
        result = yield scenario.client.spawn(
            client_session(scenario.client, scenario.service_addr, workload)
        )
        results.append(result)

    def driver():
        processes = [
            scenario.client.spawn(one(workload), f"mixed-{index}")
            for index, workload in enumerate(workloads)
        ]
        for process in processes:
            yield process

    handle = scenario.client.spawn(driver(), "driver")
    scenario.sim.run_until_complete(handle, deadline=deadline)
    return results


MIXED = [
    echo_workload(200),
    interactive_workload(20),
    bulk_workload(256 * KB),
    upload_workload(256 * KB),
]


def test_mixed_workloads_standard_tcp():
    scenario = Scenario(profile=FAST_LAN, sttcp=None, seed=160)
    results = run_mixed_clients(scenario, MIXED)
    assert len(results) == 4
    assert all(r.error is None and r.verified for r in results)


def test_mixed_workloads_with_failover():
    """Four concurrent connections of different characters all survive one
    mid-run primary crash."""
    scenario = Scenario(profile=FAST_LAN, sttcp=STTCPConfig(hb_interval=0.05), seed=161)
    # Clients start at t=0 here (no runner offset); the joint run lasts
    # ~90 ms, so crash a third of the way in.
    FaultPlan([(0.03, "primary_crash")]).arm(scenario)
    results = run_mixed_clients(scenario, MIXED)
    assert len(results) == 4
    assert all(r.error is None and r.verified for r in results)
    assert scenario.pair.failed_over
    # The four were shadowed, taken over and closed: once the last
    # client's FIN is in, every server end has left through LAST_ACK, and
    # none is left waiting in TIME_WAIT.
    scenario.sim.run(until=scenario.sim.now + 0.1)
    assert scenario.pair.backup_engine.shadow_connections == []
    assert scenario.sim.metrics.value("backup.sttcp.shadows_reaped") == 4


def test_mixed_workloads_failover_switched_topology():
    scenario = Scenario(
        profile=FAST_LAN,
        topology="switched",
        sttcp=STTCPConfig(hb_interval=0.05),
        seed=162,
    )
    FaultPlan([(0.03, "primary_crash")]).arm(scenario)
    results = run_mixed_clients(scenario, MIXED)
    assert all(r.error is None and r.verified for r in results)
    assert scenario.pair.failed_over


def test_hub_and_switched_topologies_agree_on_failover_cost():
    """The tapping mechanism (promiscuous hub vs multicast-MAC switch)
    must not change failover behaviour materially."""
    costs = {}
    for topology in ("hub", "switched"):
        baseline = run_workload(
            echo_workload(50),
            profile=FAST_LAN,
            topology=topology,
            sttcp=STTCPConfig(hb_interval=0.05),
            seed=163,
            deadline=120.0,
        ).require_clean()
        scenario = Scenario(
            profile=FAST_LAN, topology=topology, sttcp=STTCPConfig(hb_interval=0.05), seed=163
        )
        failed = run_workload(
            echo_workload(50),
            scenario=scenario,
            faults=[(0.1 + baseline.total_time / 2, "primary_crash")],
            deadline=120.0,
        ).require_clean()
        costs[topology] = failed.total_time - baseline.total_time
    assert costs["switched"] == pytest.approx(costs["hub"], abs=0.15)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    crash_fraction=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**16),
    clients=st.integers(2, 4),
)
def test_prop_concurrent_clients_all_survive_any_crash_time(
    crash_fraction, seed, clients
):
    """N concurrent echo clients; primary crashes at a random point of the
    joint run; every client completes verified."""
    scenario = Scenario(profile=FAST_LAN, sttcp=STTCPConfig(hb_interval=0.05), seed=seed)
    # Clients start at t=0; the joint run lasts ~20 ms per client.
    FaultPlan([(0.002 + crash_fraction * 0.02 * clients, "primary_crash")]).arm(scenario)
    results = run_mixed_clients(
        scenario, [echo_workload(60) for _ in range(clients)], deadline=300.0
    )
    assert len(results) == clients
    assert all(r.error is None and r.verified for r in results)
