"""A crashed host is silent: nothing it armed runs after ``Host.crash``.

``Host.crash`` powers the NICs off, kills the processes, halts TCP and
ARP and runs the crash observers (the ST-TCP engines, the logger client,
FT-TCP), so no timer callback has to ask whether its host is up.  The
check is ``tools/crash_silence.py``, shared with ``tools/event_census.py``:
it charges every dispatched callback to the host that armed it.  The
lossy-tap crash property (``tests/test_invariants.py``) and the drill
corpus (``tests/drill/test_conformance.py``) run inside it too.
"""

import pytest

import repro.harness.experiments  # noqa: F401 - registers the "scale" spec
from repro.apps.workload import failed_sessions
from repro.cluster.run import ClusterRun
from repro.harness.executor import run_experiment
from repro.harness.experiments import churn
from repro.harness.experiments.cluster import resolve_scenario
from repro.tcp.constants import TCPState
from repro.tcp.layer import TCPLayer
from repro.sim.simulator import Simulator
from repro.tcp.tcb import TCPConnection
from repro.tcp.timewait import TimeWait

from tests.conftest import LanPair
from tools.crash_silence import crash_silence


def run_scenario(name, prepare=None):
    """(run, record, silence) of one shipped cluster scenario, checked."""
    with crash_silence() as silence:
        run = ClusterRun(resolve_scenario(name))
        if prepare is not None:
            prepare(run)
        record = run.execute()
    return run, record, silence


@pytest.mark.parametrize("name", ["smoke", "trio", "storm"])
def test_shipped_scenarios_keep_crashed_hosts_silent(name):
    run, record, silence = run_scenario(name)
    assert record["ok"]
    assert [host.name for host in run.fabric.server_hosts if not host.is_up]
    assert not silence.breaches, silence.report()


def test_a_lone_primary_crash_suspects_nobody_falsely():
    """Before the halt, the dead primary's own backup monitor went on
    counting: 7 missed heartbeats, 2 suspicions, 1 of them a false
    suspicion of its live backup, on a run with one crash and no partition."""
    run, _, _ = run_scenario("smoke")
    metrics = run.sim.metrics
    assert metrics.value("sttcp.hb.false_suspicions") == 0
    assert metrics.value("sttcp.hb.suspicions") == 1


def test_without_the_tcp_halt_the_checker_names_the_timer(monkeypatch):
    monkeypatch.setattr(TCPLayer, "halt", lambda self: None)
    _, _, silence = run_scenario("smoke")
    assert "p0: RetransmitEngine._on_rto[rto]" in silence.breaches, silence.report()


def test_an_engine_left_off_the_crash_observers_is_named():
    def unregister(run):
        service = run.fabric.services[0]
        service.primary.crash_observers.remove(service.engine.stop)

    _, _, silence = run_scenario("smoke", unregister)
    assert "p0: STTCPPrimary._send_heartbeat[primary-hb]" in silence.breaches, silence.report()


def test_the_dead_primary_is_frozen(monkeypatch):
    """Crash a primary that, once its killed handlers have closed, has a
    FIN in flight on each held connection and no TIME_WAIT (its churned
    ends closed passively, through LAST_ACK): after the crash nothing is
    reaped and nothing is retransmitted.  A crashed host's TIME_WAIT
    records are the next test's."""
    at_crash = {}

    def retransmissions(host):
        """Per TCB: a TIME_WAIT record has nothing left to retransmit."""
        return {t: t.retransmissions for t in host.tcp.connections if isinstance(t, TCPConnection)}

    class Watched(churn.Scenario):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            primary = self.primary

            def snapshot():
                at_crash["retransmissions"] = retransmissions(primary)
                at_crash["states"] = [t.state for t in primary.tcp.connections]
                at_crash["in_flight"] = sum(1 for t in primary.tcp.connections if t.flight_size)
                at_crash["reaped"] = self.sim.metrics.value("primary.tcp.tcbs_reaped")

            primary.crash_observers.append(snapshot)
            at_crash["scenario"] = self

    monkeypatch.setattr(churn, "Scenario", Watched)
    (record,) = run_experiment("scale", ladder=(40,), store=None, base_seed=12).rows
    assert failed_sessions(record["outcomes"]) == []
    assert at_crash["states"] == [TCPState.FIN_WAIT_1] * 40 and at_crash["in_flight"] == 40
    primary = at_crash["scenario"].primary
    assert primary.sim.metrics.value("primary.tcp.tcbs_reaped") == at_crash["reaped"]
    assert retransmissions(primary) == at_crash["retransmissions"]


def test_a_crashed_host_keeps_its_time_wait_records():
    """``TCPLayer.halt`` retires a TIME_WAIT record's expiry: the end that
    closed first waits on a host that then crashes, and the record is
    never reaped (its expiry used to run on the dead host)."""
    lan = LanPair(Simulator(seed=407))

    def server():
        conn = yield lan.b.tcp.listen(8000).accept()
        conn.close()  # the server closes first: its end waits

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        yield sock.recv(10)  # EOF
        sock.close()

    with crash_silence() as silence:
        lan.b.spawn(server())
        lan.a.spawn(client())
        lan.sim.run(until=0.5)
        (record,) = lan.b.tcp.connections
        assert isinstance(record, TimeWait) and record.state is TCPState.TIME_WAIT
        reaped = lan.sim.metrics.value("host-b.tcp.tcbs_reaped")
        lan.b.crash()
        lan.sim.run(until=5.0)  # well past the 1 s wait
    assert lan.b.tcp.connections == [record] and record.state is TCPState.TIME_WAIT
    assert lan.sim.metrics.value("host-b.tcp.tcbs_reaped") == reaped
    assert not silence.breaches, silence.report()
