"""Two independent ST-TCP pairs sharing one hub must stay isolated.

On a hub every backup NIC is promiscuous, so each backup *sees* the
other pair's segments, heartbeats and channel traffic.  Isolation rests
entirely on the engines filtering by their own service identity — these
tests drive that filter under the nastiest overlap hypothesis can
produce: both clients using the *same* ephemeral port and the *same*
ISN, both primaries choosing the same server ISN, and both pairs
sharing one UDP channel port number.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.client import run_client
from repro.apps.workload import echo_workload
from repro.harness.calibrate import FAST_LAN
from repro.host.host import Host
from repro.net.addresses import ip
from repro.net.medium import Hub
from repro.sim.simulator import Simulator
from repro.sttcp.backup import ROLE_ACTIVE, ROLE_PASSIVE
from repro.sttcp.config import STTCPConfig
from repro.sttcp.group import STTCPServerGroup
from repro.sttcp.messages import conn_key
from repro.sttcp.power_switch import PowerSwitch

SERVICE_PORT = 8000
SYNC_TIME = 0.0002


@dataclasses.dataclass
class PairNodes:
    """One primary/backup/client trio on the shared hub."""

    client: Host
    primary: Host
    backup: Host
    pair: STTCPServerGroup
    service_ip: object
    client_ip: object
    #: The extension of every connection the backup host opened (its
    #: shadows) and the primary engine's record of every connection it
    #: retained, kept as they open: a closed connection leaves both
    #: engines' tables.
    shadows: list = dataclasses.field(default_factory=list)
    primary_states: list = dataclasses.field(default_factory=list)

    @property
    def backup_ip(self):
        return self.backup.interfaces[0].ip


class TwoPairHub:
    """Two complete ST-TCP groups, one shared broadcast domain."""

    def __init__(
        self,
        seed: int = 77,
        client_port: int | None = None,
        client_isn: int | None = None,
        server_isn: int | None = None,
        hb_interval: float = 0.05,
    ) -> None:
        self.sim = Simulator(seed=seed)
        self.hb_interval = hb_interval
        profile = FAST_LAN
        self.hub = Hub(self.sim, profile.link_rate_bps, delay=profile.hub_delay)
        self.pairs: list[PairNodes] = []
        base = profile.tcp_config()
        client_cfg = (
            dataclasses.replace(base, isn=client_isn)
            if client_isn is not None
            else base
        )
        server_cfg = (
            dataclasses.replace(base, isn=server_isn)
            if server_isn is not None
            else base
        )
        for index in range(2):
            client = Host(self.sim, f"client{index}", tcp_config=client_cfg)
            primary = Host(self.sim, f"primary{index}", tcp_config=server_cfg)
            backup = Host(self.sim, f"backup{index}", tcp_config=server_cfg)
            client_ip = ip(f"10.0.0.{10 + index}")
            service_ip = ip(f"10.0.0.{100 + index}")
            self._join(client, client_ip)
            primary_nic = self._join(primary, ip(f"10.0.0.{1 + 2 * index}"))
            primary.add_vnic("svi", service_ip, primary_nic.mac, primary_nic)
            backup_nic = self._join(backup, ip(f"10.0.0.{2 + 2 * index}"))
            backup_nic.promiscuous = True  # the hub tap (§6)
            backup.add_vnic("svi", service_ip, backup_nic.mac, backup_nic)
            if client_port is not None:
                # Both clients draw the same first ephemeral port: the
                # 4-tuples then differ only in the client's address.
                client.tcp.ephemeral_start = client_port
                client.tcp._next_ephemeral = client_port
            # Shared channel port.  A SyncTime far below the few
            # milliseconds a session lasts makes acks flow while it is
            # open: a connection that closed leaves nothing to ack.
            config = STTCPConfig(hb_interval=hb_interval, sync_time=SYNC_TIME)
            pair = STTCPServerGroup(
                primary,
                [backup],
                service_ip,
                SERVICE_PORT,
                config=config,
                power_switch=PowerSwitch(self.sim, config.stonith_delay),
            )
            pair.start_service()
            nodes = PairNodes(client, primary, backup, pair, service_ip, client_ip)
            backup.tcp.connection_observers.append(
                lambda tcb, seen=nodes.shadows: seen.append(tcb.extension)
            )
            primary.tcp.connection_observers.append(
                lambda tcb, engine=pair.primary_engine, seen=nodes.primary_states: seen.append(
                    engine._connections[conn_key(tcb.remote_ip, tcb.remote_port)]
                )
            )
            self.pairs.append(nodes)
        self.crashed_at: float | None = None

    def _join(self, host: Host, address):
        nic = host.add_nic()
        self.hub.attach(nic)
        host.configure_ip(nic, address, 24)
        return nic

    def run_clients(self, exchanges: int = 8, deadline: float = 120.0):
        processes = [
            run_client(
                nodes.client, (nodes.service_ip, SERVICE_PORT), echo_workload(exchanges)
            )
            for nodes in self.pairs
        ]
        results = [
            self.sim.run_until_complete(process, deadline=deadline)
            for process in processes
        ]
        # Short runs finish between sync ticks; settle a few heartbeat
        # periods so the backups' periodic acks have fired.
        self.sim.run(until=self.sim.now + 5 * self.hb_interval)
        return results

    def assert_isolated(self) -> None:
        """Each backup shadowed exactly its own pair; acks never crossed."""
        for nodes in self.pairs:
            shadows = nodes.shadows
            assert len(shadows) == 1, (
                f"{nodes.backup.name} shadowed {len(shadows)} connections"
            )
            (state,) = shadows
            assert state.engine is nodes.pair.backup_engine
            tcb = state.tcb
            assert tcb.local_ip == nodes.service_ip
            assert tcb.remote_ip == nodes.client_ip, (
                f"{nodes.backup.name} cross-tapped a foreign client "
                f"{tcb.remote_ip}"
            )
            assert self.sim.metrics.value(f"{nodes.backup.name}.sttcp.acks_sent") > 0
            assert len(nodes.primary_states) == 1
            for state in nodes.primary_states:
                assert set(state.acked_by) <= {nodes.backup_ip.value}, (
                    f"{nodes.primary.name} acked by a foreign backup: "
                    f"{sorted(state.acked_by)}"
                )


@given(
    port=st.integers(32768, 60999),
    client_isn=st.integers(0, 2**32 - 1),
    server_isn=st.integers(0, 2**32 - 1),
)
@settings(max_examples=10, deadline=None)
def test_pairs_stay_isolated_under_port_and_isn_overlap(
    port, client_isn, server_isn
):
    cluster = TwoPairHub(
        client_port=port, client_isn=client_isn, server_isn=server_isn
    )
    results = cluster.run_clients()
    for result in results:
        assert result.error is None
        assert result.verified
        assert result.exchanges_done == 8
    cluster.assert_isolated()
    for nodes in cluster.pairs:
        assert not nodes.pair.failed_over


def test_crash_in_one_pair_leaves_the_other_untouched():
    """Crashing primary 0 mid-run fails pair 0 over; pair 1 — whose
    heartbeats ride the *same* channel port number on the same hub —
    must neither mask the detection nor get dragged into a takeover."""
    cluster = TwoPairHub(seed=91, client_port=40000, client_isn=5000, server_isn=5000)
    victim, bystander = cluster.pairs
    cluster.sim.schedule_at(0.12, victim.primary.crash)
    results = cluster.run_clients(exchanges=2000, deadline=300.0)
    for result in results:
        assert result.error is None
        assert result.verified
        assert result.exchanges_done == 2000
    # Pair 0 failed over despite pair 1's heartbeats on the shared port.
    assert victim.pair.failed_over
    assert victim.pair.backup_engine.role is ROLE_ACTIVE
    assert victim.pair.backup_engine.detection_time is not None
    # Pair 1 never suspected anything and kept its roles.
    assert bystander.primary.is_up
    assert not bystander.pair.failed_over
    assert bystander.pair.backup_engine.role is ROLE_PASSIVE
    assert bystander.pair.backup_engine.detection_time is None
    # The surviving pair's ack bookkeeping is still single-sourced.
    (state,) = bystander.primary_states
    assert set(state.acked_by) <= {bystander.backup_ip.value}


def test_bystander_backup_taps_nothing_foreign():
    """Stronger than 'shadows match': the bystander's engine never even
    *requests* recovery for the other pair's stream (no cross retx)."""
    cluster = TwoPairHub(seed=92, client_port=40000, client_isn=7, server_isn=7)
    results = cluster.run_clients(exchanges=50)
    for result in results:
        assert result.error is None and result.verified
    cluster.assert_isolated()
    for nodes in cluster.pairs:
        # Every shadow's key belongs to this pair's client.
        for state in nodes.shadows:
            assert state.tcb.remote_ip == nodes.client_ip
