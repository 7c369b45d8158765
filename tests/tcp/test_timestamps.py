"""Tests for the TCP timestamp option (disabled in the paper's runs, §6,
but implemented and negotiable)."""


from repro.sim.simulator import Simulator
from repro.tcp.config import TCPConfig
from repro.util.bytespan import PatternBytes
from repro.util.units import KB

from tests.conftest import LanPair


def run_transfer(lan, size=64 * KB, port=8000):
    outcome = {}

    def server():
        listener = lan.b.tcp.listen(port)
        conn = yield listener.accept()
        yield conn.send(PatternBytes(size, 0, 4))
        outcome["server_tcb"] = conn.tcb
        conn.close()

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, port))
        yield sock.wait_connected()
        got = 0
        while got < size:
            piece = yield sock.recv(65536)
            got += len(piece)
        outcome["client_tcb"] = sock.tcb
        outcome["ok"] = got == size
        sock.close()

    lan.b.spawn(server())
    process = lan.a.spawn(client())
    lan.sim.run_until_complete(process, deadline=120.0)
    return outcome


def test_timestamps_negotiated_when_both_sides_enable():
    config = TCPConfig(timestamps=True)
    lan = LanPair(Simulator(seed=101), tcp_config=config)
    outcome = run_transfer(lan)
    assert outcome["ok"]
    assert outcome["client_tcb"].use_timestamps
    assert outcome["server_tcb"].use_timestamps


def test_timestamps_off_when_client_disables():
    sim = Simulator(seed=102)
    lan = LanPair(sim, tcp_config=TCPConfig(timestamps=False))
    # Server would accept timestamps, but the client never offers.
    lan.b.tcp.config = TCPConfig(timestamps=True)
    outcome = run_transfer(lan)
    assert outcome["ok"]
    assert not outcome["server_tcb"].use_timestamps


def test_timestamps_add_header_overhead():
    plain = LanPair(Simulator(seed=103), tcp_config=TCPConfig(timestamps=False))
    run_transfer(plain)
    stamped = LanPair(Simulator(seed=103), tcp_config=TCPConfig(timestamps=True))
    run_transfer(stamped)
    # Same seed, same payload: the timestamped run moves more wire bytes.
    assert stamped.nic_b.tx_bytes > plain.nic_b.tx_bytes


def test_timestamps_feed_rtt_estimation():
    config = TCPConfig(timestamps=True)
    lan = LanPair(Simulator(seed=104), tcp_config=config, hub_delay=0.002)
    outcome = run_transfer(lan)
    server_tcb = outcome["server_tcb"]
    assert server_tcb.retransmit.rtt.has_sample
    # SRTT reflects the 2 ms one-way (≈4 ms round-trip) hub latency.
    assert 0.003 < server_tcb.retransmit.rtt.srtt < 0.02


def test_sttcp_run_with_timestamps_enabled():
    """The paper disabled timestamps; ST-TCP must nevertheless work with
    them on (shadow segments carry the same option)."""
    from repro.apps.workload import echo_workload
    from repro.harness.calibrate import FAST_LAN
    from repro.harness.runner import run_workload
    from repro.harness.scenario import Scenario
    from repro.sttcp.config import STTCPConfig
    import dataclasses

    profile = dataclasses.replace(FAST_LAN, name="fast-lan-ts")
    scenario = Scenario(profile=profile, sttcp=STTCPConfig(hb_interval=0.05), seed=105)
    for host in (scenario.client, scenario.primary, scenario.backup):
        host.tcp.config = host.tcp.config.copy(timestamps=True)
    faults = [(0.101, "primary_crash")]
    run = run_workload(echo_workload(20), scenario=scenario, faults=faults, deadline=120.0)
    assert run.result.error is None
    assert run.result.verified
    assert scenario.pair.failed_over
