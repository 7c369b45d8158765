"""Tests for the FT-TCP restart-and-replay baseline (paper §2)."""

import pytest

from repro.apps.workload import bulk_workload, echo_workload, upload_workload
from repro.ftcp.baseline import FTCPConfig
from repro.harness.calibrate import FAST_LAN
from repro.harness.runner import run_workload
from repro.harness.scenario import Scenario
from repro.sttcp.config import STTCPConfig
from repro.util.units import KB, MB


def make_ftcp_scenario(seed=85, **config_kwargs):
    config = FTCPConfig(hb_interval=0.05, **config_kwargs)
    return Scenario(profile=FAST_LAN, sttcp=config, seed=seed)


def failover_pair(workload, seed=85, **config_kwargs):
    baseline = run_workload(
        workload, scenario=make_ftcp_scenario(seed, **config_kwargs), deadline=600.0
    ).require_clean()
    scenario = make_ftcp_scenario(seed, **config_kwargs)
    crash_at = 0.1 + baseline.total_time / 2
    run = run_workload(workload, scenario=scenario, faults=[(crash_at, "primary_crash")], deadline=600.0)
    return scenario, run, baseline


def test_config_requires_ftcp_type():
    from repro.ftcp.baseline import FTCPBackup
    from repro.host.host import Host
    from repro.sim.simulator import Simulator
    from repro.net.addresses import ip

    sim = Simulator()
    host = Host(sim, "b")
    nic = host.add_nic()
    host.configure_ip(nic, ip("10.0.0.2"), 24)
    with pytest.raises(TypeError):
        FTCPBackup(host, ip("10.0.0.100"), 8000, ip("10.0.0.1"), STTCPConfig())


def test_client_survives_ftcp_failover():
    scenario, run, _baseline = failover_pair(echo_workload(20))
    assert run.result.error is None
    assert run.result.verified
    assert scenario.pair.failed_over


def test_recovery_delay_includes_restart_and_replay():
    scenario, run, _ = failover_pair(
        upload_workload(256 * KB), restart_delay=0.2, replay_rate=1.0 * MB
    )
    backup = scenario.pair.backup_engine
    assert backup.replay_bytes > 0
    expected = 0.2 + backup.replay_bytes / (1.0 * MB)
    assert backup.recovery_delay == pytest.approx(expected)
    takeover_gap = backup.takeover_time - backup.detection_time
    assert takeover_gap >= expected


def test_replay_cost_grows_with_history():
    """The paper's critique: FT-TCP recovery time grows with connection
    history; ST-TCP's does not."""
    replay_bytes = {}
    delays = {}
    for fraction in (0.2, 0.8):
        baseline = run_workload(
            upload_workload(512 * KB),
            scenario=make_ftcp_scenario(86, replay_rate=1.0 * MB),
            deadline=600.0,
        ).require_clean()
        scenario = make_ftcp_scenario(86, replay_rate=1.0 * MB)
        crash_at = 0.1 + fraction * baseline.total_time
        run_workload(
            upload_workload(512 * KB),
            scenario=scenario,
            faults=[(crash_at, "primary_crash")],
            deadline=600.0,
        )
        backup = scenario.pair.backup_engine
        replay_bytes[fraction] = backup.replay_bytes
        delays[fraction] = backup.recovery_delay
    assert replay_bytes[0.8] > replay_bytes[0.2] * 2
    # The delay difference is exactly the extra replay time.
    extra = (replay_bytes[0.8] - replay_bytes[0.2]) / (1.0 * MB)
    assert delays[0.8] - delays[0.2] == pytest.approx(extra)


def test_sttcp_beats_ftcp_failover():
    """Head-to-head on the same workload, seed, and detection settings."""
    workload = bulk_workload(256 * KB)
    # ST-TCP.
    st_baseline = run_workload(
        workload, scenario=Scenario(profile=FAST_LAN, sttcp=STTCPConfig(hb_interval=0.05), seed=87),
        deadline=600.0,
    ).require_clean()
    st_scenario = Scenario(profile=FAST_LAN, sttcp=STTCPConfig(hb_interval=0.05), seed=87)
    st_run = run_workload(
        workload,
        scenario=st_scenario,
        faults=[(0.1 + st_baseline.total_time / 2, "primary_crash")],
        deadline=600.0,
    ).require_clean()
    st_failover = st_run.total_time - st_baseline.total_time
    # FT-TCP.
    ft_scenario, ft_run, ft_baseline = failover_pair(workload, seed=87)
    ft_failover = ft_run.total_time - ft_baseline.total_time
    assert ft_run.result.verified
    assert ft_failover > st_failover + 0.3  # at least the restart delay


def test_keepalives_flow_during_recovery():
    scenario, run, _ = failover_pair(
        upload_workload(256 * KB), restart_delay=0.5, keepalive_interval=0.05
    )
    assert run.result.error is None
    # The keepalive timer fired repeatedly during the recovery window.
    assert scenario.pair.backup_engine._keepalive_timer.fired_count >= 3
