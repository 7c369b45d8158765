"""Tests for the packet logger node and its client (§3.2)."""


from repro.apps.workload import upload_workload
from repro.harness.runner import run_workload
from repro.logger.packet_logger import _StreamLog
from repro.util.bytespan import RealBytes
from repro.util.units import KB

from tests.sttcp.conftest import make_scenario

#: A 256 KB upload spans roughly t=0.1..0.124 on this profile: the tap
#: blacks out mid-upload and the primary crashes inside the outage.
DOUBLE_FAILURE = [(0.105, "tap_outage", {"duration": 0.01}), (0.114, "primary_crash")]

# --------------------------------------------------------------- stream log
def test_stream_log_records_and_collects():
    log = _StreamLog(isn_abs=1000)
    log.record(1.0, 1001, RealBytes(b"abcde"))
    log.record(1.1, 1006, RealBytes(b"fghij"))
    pieces = log.collect(1001, 1011)
    assert [(seq, span.to_bytes()) for seq, span in pieces] == [
        (1001, b"abcde"),
        (1006, b"fghij"),
    ]


def test_stream_log_collect_clips_to_range():
    log = _StreamLog(isn_abs=0)
    log.record(1.0, 1, RealBytes(b"abcdefghij"))
    pieces = log.collect(4, 8)
    assert [(seq, span.to_bytes()) for seq, span in pieces] == [(4, b"defg")]


def test_stream_log_prunes_by_time():
    log = _StreamLog(isn_abs=0)
    log.record(1.0, 1, RealBytes(b"old"))
    log.record(10.0, 4, RealBytes(b"new"))
    log.prune(horizon=5.0)
    assert log.collect(1, 10) == [(4, RealBytes(b"new").slice(0, 3))] or [
        (seq, span.to_bytes()) for seq, span in log.collect(1, 10)
    ] == [(4, b"new")]


def test_stream_log_handles_wraparound_sequences():
    isn = (1 << 32) - 100
    log = _StreamLog(isn_abs=isn)
    log.record(1.0, (isn + 1) & 0xFFFFFFFF, RealBytes(b"a" * 99))
    log.record(1.1, 0, RealBytes(b"b" * 50))  # wrapped past 2^32
    pieces = log.collect(isn + 1, isn + 150)
    assert sum(len(span) for _seq, span in pieces) == 149


# -------------------------------------------------------------- end to end
def test_logger_records_client_stream_of_live_run():
    scenario = make_scenario(seed=95, with_logger=True)
    run = run_workload(upload_workload(64 * KB), scenario=scenario, deadline=120.0)
    assert run.result.error is None
    logger = scenario.logger
    # All upload payload plus the request record crossed the logger's tap.
    assert logger.total_bytes_logged >= 64 * KB


def test_double_failure_masked_by_logger():
    """Tap outage + primary crash inside it: only the logger can repair
    the missing client bytes (§3.2)."""
    scenario = make_scenario(seed=96, with_logger=True, hb_interval=0.05)
    run = run_workload(
        upload_workload(256 * KB), scenario=scenario, faults=DOUBLE_FAILURE, deadline=600.0
    )
    assert run.result.error is None
    assert run.result.verified
    assert scenario.sim.metrics.value("backup.sttcp.logger_bytes_recovered") > 0
    assert not scenario.pair.backup_engine.degraded_connections
    assert scenario.logger.queries_served >= 1


def test_double_failure_without_logger_degrades():
    """The same double failure without a logger loses the connection —
    the case the paper says the logger exists to mask."""
    from repro.errors import SimulationError

    scenario = make_scenario(seed=96, with_logger=False, hb_interval=0.05)
    try:
        run = run_workload(
            upload_workload(256 * KB), scenario=scenario, faults=DOUBLE_FAILURE, deadline=1500.0
        )
        completed = run.result.error is None
    except SimulationError:
        completed = False
    assert not completed


def test_logger_client_times_out_on_dead_logger():
    scenario = make_scenario(seed=97, with_logger=True, hb_interval=0.05)
    scenario.logger_host.crash()
    run = run_workload(
        upload_workload(64 * KB),
        scenario=scenario,
        faults=[(0.105, "primary_crash")],
        deadline=600.0,
    )
    assert run.result.error is None
    # Takeover must not deadlock on the dead logger; it proceeds after
    # the recovery timeout.
    scenario.sim.run(until=scenario.sim.now + 1.0)
    assert scenario.pair.failed_over
    assert scenario.pair.backup_engine.logger_client.recoveries_timed_out >= 0


def test_logger_bounded_memory():
    scenario = make_scenario(seed=98, with_logger=True)
    scenario.logger.retain_seconds = 0.005  # tiny horizon
    run = run_workload(upload_workload(256 * KB), scenario=scenario, deadline=120.0)
    assert run.result.error is None
    # Far less than the full stream is retained under a small horizon.
    assert scenario.logger.retained_bytes < 256 * KB // 2


def test_redundant_loggers_survive_one_logger_crash():
    """§3.2: two loggers remove the logger as a single point of failure.
    A second logger host joins the hub; the first logger dies before the
    double failure, and recovery still succeeds from the survivor."""
    from repro.harness.scenario import SERVICE_IP, SERVICE_PORT
    from repro.host.host import Host
    from repro.logger.client import LoggerClient
    from repro.logger.packet_logger import PacketLogger
    from repro.net.addresses import ip

    scenario = make_scenario(seed=99, with_logger=True, hb_interval=0.05)
    # Second logger on the hub.
    second_host = Host(scenario.sim, "logger2", tcp_config=scenario.profile.tcp_config())
    nic = second_host.add_nic()
    nic.promiscuous = True
    scenario.hub.attach(nic)
    second_host.configure_ip(nic, ip("10.0.0.6"), 24)
    second_logger = PacketLogger(second_host, SERVICE_IP, SERVICE_PORT)
    # Re-point the backup's client at both loggers.
    backup = scenario.pair.backup_engine
    backup.logger_client = LoggerClient(
        scenario.backup, [scenario.logger.address, second_logger.address]
    )
    # Kill the first logger before the faults begin.
    scenario.logger_host.crash()
    run = run_workload(
        upload_workload(256 * KB), scenario=scenario, faults=DOUBLE_FAILURE, deadline=600.0
    )
    assert run.result.error is None
    assert run.result.verified
    assert scenario.sim.metrics.value("backup.sttcp.logger_bytes_recovered") > 0
    assert second_logger.queries_served >= 1
