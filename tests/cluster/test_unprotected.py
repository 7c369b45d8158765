"""A replacement backup protects only what it saw, and names the rest.

A pool backup elected after a takeover joins mid-stream.  It never saw
the connections already open on the primary it now shadows (§3: a
replica sees its connection from the SYN), so it cannot carry them
through a second crash.  The election record names them unprotected;
the primary stops retaining their bytes for an ack that will never come;
a second crash resets their clients instead of leaving them waiting.
"""

import functools

import pytest

from repro.apps.client import client_session
from repro.apps.workload import echo_workload, failed_sessions
from repro.cluster import ClusterRun, run_cluster, spec_from_dict
from repro.cluster.topology import SERVICE_PORT
from repro.harness.experiments.cluster import resolve_scenario
from repro.tcp.constants import TCPState


def _relapse(name, service, at):
    """``name``'s run with its spec's crash and a second crash of
    ``service``'s acting primary at ``at``."""
    spec = resolve_scenario(name)
    crashed = spec.service_names()[spec.crash_primary]
    return ClusterRun(
        spec,
        faults=[
            (spec.crash_at, "cluster_crash", {"service": crashed}),
            (at, "cluster_crash", {"service": service}),
        ],
    )


@functools.lru_cache(maxsize=None)
def _first_election(name):
    """The crashed service and the time of its takeover election."""
    record = run_cluster(resolve_scenario(name))
    service = record["crashed_service"]
    (election,) = [e for e in record["elections"] if e["service"] == service]
    return service, election["at"]


@pytest.mark.parametrize("delay", [0.05, 0.2])
@pytest.mark.parametrize("name", ["smoke", "trio", "storm"])
def test_a_relapse_resets_the_unprotected_client_well_before_the_deadline(name, delay):
    service, elected_at = _first_election(name)
    relapse_at = elected_at + delay
    run = _relapse(name, service, relapse_at)
    node = run.fabric.service_by_name[service]
    record = run.execute()

    first = next(e for e in record["elections"] if e["service"] == service)
    assert first["kind"] == "takeover" and first["at"] == elected_at
    client_ip = str(node.client.interfaces[0].ip)
    assert [entry.split(":")[0] for entry in first["unprotected"]] == [client_ip]
    result = run.results[service]
    assert result.error is not None and result.error.startswith("ConnectionReset")
    assert result.end_time < relapse_at + 1.0 < run.spec.deadline / 10
    assert failed_sessions(record["outcomes"]) == [result.outcome(service)]
    assert result.outcome(service)["outcome"] == "ConnectionReset"
    assert record["invariants"]["no_dual_primary"]


@pytest.mark.parametrize("delay", [0.05, 0.2])
def test_an_orphan_relapse_resets_its_unprotected_client(delay):
    """Storm's takeover orphans s2: the orphan election names s2's open
    connection, and when s2's primary crashes its replacement, which
    never saw that connection, resets the client."""
    _service, elected_at = _first_election("storm")
    run = _relapse("storm", "s2", elected_at + delay)
    node = run.fabric.service_by_name["s2"]
    record = run.execute()
    orphan = next(e for e in record["elections"] if e["service"] == "s2")
    assert orphan["kind"] == "orphan"
    assert [entry.split(":")[0] for entry in orphan["unprotected"]] == [
        str(node.client.interfaces[0].ip)
    ]
    result = run.results["s2"]
    assert result.error is not None and result.error.startswith("ConnectionReset")
    assert result.end_time < elected_at + delay + 1.0
    assert record["invariants"]["no_dual_primary"]


def test_a_connection_opened_after_the_election_survives_the_relapse():
    """The replacement protects what it saw: a session opened on smoke's
    s0 after its re-election is carried through the second crash, while
    the session that was already open is reset."""
    service_name, elected_at = _first_election("smoke")
    run = _relapse("smoke", service_name, elected_at + 0.2)
    node = run.fabric.service_by_name[service_name]
    late = {}

    def late_session():
        late["result"] = yield from client_session(
            node.client, (node.service_ip, SERVICE_PORT), echo_workload(60)
        )

    run.sim.post(elected_at + 0.05, node.client.spawn, late_session(), "late.session")
    run.execute()
    run.sim.run(until=run.sim.now + 2.0)
    assert run.results[service_name].error.startswith("ConnectionReset")
    assert late["result"].verified and late["result"].error is None
    second = [e for e in run.coordinator.report.records if e.service == service_name][1]
    assert second.kind == "takeover" and second.consumed_backup == "pool1"


def test_explain_names_an_exhausted_pool():
    """A 1:1 cluster has no spare to elect: the election line says so and
    the bounded-election invariant is violated, not silently held."""
    from repro.harness.explain import explain

    run = ClusterRun(
        spec_from_dict(
            {
                "name": "unit-pair",
                "primaries": 1,
                "backups": 1,
                "workload": {"exchanges": 60, "service_time": 0.005},
                "crash": {"at": 0.25},
                "deadline": 10.0,
            }
        )
    )
    record = run.execute()
    assert not record["invariants"]["bounded_election"]
    report = explain(run)
    assert "  s0 (takeover) → pool exhausted; unprotected: none" in report.splitlines()
    assert "  bounded_election      VIOLATED" in report.splitlines()


def test_an_unprotected_connection_never_pins_its_window():
    """s2's client keeps sending well past the second buffer plus the
    receive buffer after its backup is replaced: were its bytes still
    retained for the new backup's ack, the window would close for good."""
    # pool0 shadows s0 and s2: s0's takeover consumes it and orphans s2.
    run = ClusterRun(
        spec_from_dict(
            {
                "name": "unit-unprotected",
                "primaries": 3,
                "backups": 3,
                "capacity": 2,
                "assignment": {"pool0": ["s0", "s2"], "pool1": ["s1"], "pool2": []},
                "sttcp": {"second_buffer_size": 2048},
                "workload": {"exchanges": 300, "service_time": 0.005},
                "crash": {"primary": 0, "at": 0.25},
                "deadline": 20.0,
            }
        )
    )
    opened = []
    run.fabric.service_by_name["s2"].primary.tcp.connection_observers.append(opened.append)
    record = run.execute()
    orphan = next(e for e in record["elections"] if e["kind"] == "orphan")
    assert orphan["service"] == "s2" and len(orphan["unprotected"]) == 1
    result = run.results.get("s2")
    assert result is not None, "s2: client never finished (its window closed)"
    assert result.verified and result.error is None
    (tcb,) = opened
    retention = tcb.recv_buffer.retention
    assert not retention.enabled
    # Retention stopped at the election; the client sent this much after it.
    assert tcb.recv_buffer.read_offset - retention.bytes_retained_total > 2048 + 16 * 1024
    assert record["ok"]


@pytest.mark.parametrize("backup_suspected", [True, False], ids=["non_fault_tolerant", "fault_tolerant"])
def test_replace_backup_protects_only_connections_opened_after_it(backup_suspected):
    """A backup put in by ``replace_backup`` protects only connections
    opened after it joined; the one already open stays unprotected, its
    retention off.  Out of non-fault-tolerant mode (§4.4: the only
    backup died and was suspected first) the primary re-enters
    fault-tolerant mode; otherwise it swaps the backup in the instant
    the old one goes, as an orphan election does."""
    run = ClusterRun(
        spec_from_dict(
            {
                "name": "unit-reprotect",
                "primaries": 1,
                "backups": 2,
                "assignment": {"pool0": ["s0"], "pool1": []},
                "workload": {"exchanges": 150, "service_time": 0.005},
                "deadline": 10.0,
            }
        ),
        faults=[],
    )
    sim, fabric = run.sim, run.fabric
    service = fabric.services[0]
    old, new = fabric.backup_by_name["pool0"], fabric.backup_by_name["pool1"]
    engine = service.engine
    opened = []
    service.primary.tcp.connection_observers.append(opened.append)
    run.begin()
    swap_at = 0.5 if backup_suspected else 0.3
    sim.post(0.2 if backup_suspected else swap_at, old.host.crash)
    sim.run(until=swap_at)
    (before,) = opened
    assert before.state is TCPState.ESTABLISHED
    assert engine.fault_tolerant is not backup_suspected
    assert before.recv_buffer.retention.enabled is not backup_suspected

    unprotected = engine.replace_backup(old.channel_ip, new.channel_ip, new_host=new.host)
    fabric.attach_shadow(new, service)
    assert unprotected == [before]
    assert engine.fault_tolerant and engine.retained_connection_count == 0
    assert not before.recv_buffer.retention.enabled

    late = {}

    def late_session():
        late["result"] = yield from client_session(
            service.client, (service.service_ip, SERVICE_PORT), echo_workload(40)
        )

    service.client.spawn(late_session(), "late.session")
    sim.run(until=3.0)
    assert run.results["s0"].verified and late["result"].verified
    after = opened[1]
    retention = after.recv_buffer.retention
    assert retention.enabled and retention.bytes_retained_total > 0
    # Freed by the new backup's acks, none left waiting.
    assert retention.bytes_released_total == retention.bytes_retained_total
    assert sim.metrics.value("pool1.sttcp.acks_sent") > 0
