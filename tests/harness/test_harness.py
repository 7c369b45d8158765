"""Tests for the experiment harness: scenario wiring, runner, tables."""

import pytest

from repro.apps.workload import bulk_workload, echo_workload
from repro.harness.calibrate import (
    FAST_LAN,
    PAPER_TESTBED,
    expected_bulk_throughput,
    expected_echo_exchange_time,
)
from repro.harness.runner import measure_failover_time, run_workload
from repro.harness.scenario import SERVICE_IP, Scenario
from repro.harness.tables import format_table, rows_from_records
from repro.sttcp.config import STTCPConfig
from repro.util.units import KB


def test_hub_scenario_wiring_standard():
    scenario = Scenario(profile=FAST_LAN, sttcp=None, seed=1)
    assert scenario.backup is None
    assert scenario.pair is None
    assert scenario.hub is not None
    assert SERVICE_IP.value in scenario.primary.local_ip_values


def test_hub_scenario_wiring_sttcp():
    scenario = Scenario(profile=FAST_LAN, sttcp=STTCPConfig(), seed=1)
    assert scenario.backup is not None
    assert scenario.backup.nics[0].promiscuous
    assert SERVICE_IP.value in scenario.backup.local_ip_values
    assert SERVICE_IP.value in scenario.backup.arp.suppressed_ip_values
    assert scenario.pair is not None
    assert not scenario.backup.tcp.reset_on_unmatched


def test_switched_scenario_wiring():
    scenario = Scenario(profile=FAST_LAN, topology="switched", sttcp=STTCPConfig(), seed=1)
    assert scenario.switch is not None
    assert scenario.gateway is not None
    assert scenario.gateway.ip_layer.forwarding
    # The gateway pins SVI to a multicast MAC (§3.1).
    sme = scenario.gateway.arp.lookup(SERVICE_IP)
    assert sme is not None and sme.is_multicast
    # The backup is NOT promiscuous in the switched architecture.
    assert not scenario.backup.nics[0].promiscuous


def test_unknown_topology_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        Scenario(topology="ring")


def test_run_workload_produces_clean_result():
    run = run_workload(echo_workload(5), profile=FAST_LAN, seed=2, deadline=60.0)
    run.require_clean()
    assert run.failover is None  # standard TCP run


def test_require_clean_raises_on_error():
    from repro.errors import ReproError
    from repro.apps.workload import RunResult
    from repro.harness.runner import ExperimentRun

    bad = ExperimentRun(
        result=RunResult(echo_workload(1), 0, 1, 0, 0, False, error="boom"),
        failover=None,
        scenario=None,
    )
    with pytest.raises(ReproError):
        bad.require_clean()


@pytest.mark.parametrize(
    "faults, why",
    [
        ([(0.3, "primary_crsh")], "unknown fault 'primary_crsh'"),
        ([(0.0, "tap_loss", {"rate": 0.1})], "this topology has no 'backup'"),
    ],
)
def test_a_bad_plan_fails_before_the_simulation_runs(faults, why):
    """A plain-TCP scenario has no backup to tap: a plan that says
    otherwise, or names no fault at all, is a configuration error before
    the first event."""
    from repro.errors import ConfigurationError

    scenario = Scenario(profile=FAST_LAN, sttcp=None, seed=1)
    with pytest.raises(ConfigurationError, match=f"fault .*: {why}"):
        run_workload(echo_workload(5), scenario=scenario, faults=faults)
    assert scenario.sim.events_executed == 0


def test_measure_failover_time_structure():
    sample = measure_failover_time(
        echo_workload(20), STTCPConfig(hb_interval=0.05), profile=FAST_LAN, seed=3
    )
    assert sample["failure_time"] > sample["no_failure_time"]
    assert sample["failover_time"] == pytest.approx(
        sample["failure_time"] - sample["no_failure_time"]
    )
    assert sample["detection_latency"] >= 3 * 0.05


def test_calibration_analytics_close_to_simulation():
    echo_estimate = expected_echo_exchange_time(PAPER_TESTBED)
    run = run_workload(echo_workload(50), profile=PAPER_TESTBED, seed=4, deadline=120.0)
    measured = run.total_time / 50
    assert measured == pytest.approx(echo_estimate, rel=0.15)
    bulk_estimate = expected_bulk_throughput(PAPER_TESTBED)
    run = run_workload(bulk_workload(512 * KB), profile=PAPER_TESTBED, seed=4, deadline=120.0)
    measured_rate = 512 * KB / run.total_time
    assert measured_rate == pytest.approx(bulk_estimate, rel=0.30)


def test_format_table_alignment():
    text = format_table(
        ["name", "value"], [["echo", 1.5], ["interactive", 20.25]], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert "1.500" in text and "20.250" in text


def test_rows_from_records_projection():
    records = [{"a": 1, "b": 2}, {"a": 3}]
    assert rows_from_records(records, ["a", "b"]) == [[1, 2], [3, "-"]]


def test_same_seed_reproduces_exact_times():
    first = run_workload(echo_workload(10), profile=FAST_LAN, seed=5, deadline=60.0)
    second = run_workload(echo_workload(10), profile=FAST_LAN, seed=5, deadline=60.0)
    assert first.total_time == second.total_time


def test_different_seeds_differ():
    first = run_workload(
        echo_workload(10), profile=FAST_LAN, sttcp=STTCPConfig(), seed=6, deadline=60.0
    )
    second = run_workload(
        echo_workload(10), profile=FAST_LAN, sttcp=STTCPConfig(), seed=7, deadline=60.0
    )
    # ISNs and hence exact timings differ across seeds.
    assert first.scenario.sim.metrics.value("primary.tcp.segments_demuxed") > 0
    assert second.scenario.sim.metrics.value("primary.tcp.segments_demuxed") > 0
