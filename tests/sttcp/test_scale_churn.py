"""Engine-level lifecycle under churn: per-connection state is reaped.

The historical leak: backup shadows and primary retention records lived
in engine dicts that only ever grew — N short-lived connections left N
dead entries.  These tests churn real connections through a full
scenario and assert the dicts (and the TCP tables beneath them) shrink
back to zero once TIME_WAIT drains."""

from __future__ import annotations

from repro.apps.protocol import KIND_DATA, encode_request, verify_response

from tests.sttcp.conftest import SERVICE, make_scenario

#: TIME_WAIT is 1 s in the simulator; this drains it with margin.
TIME_WAIT_DRAIN = 2.5


def test_churned_shadows_and_retention_states_are_reaped():
    scenario = make_scenario(seed=91)
    sim = scenario.sim
    scenario.start_service()
    client = scenario.client
    backup = scenario.pair.backup_engine
    primary = scenario.pair.primary_engine
    churn = 12
    verified = []

    def session(request_id):
        sock = client.tcp.connect(SERVICE)
        yield sock.wait_connected()
        yield sock.send(encode_request(KIND_DATA, 256, request_id))
        chunk = yield sock.recv_exactly(256)
        verified.append(verify_response(chunk, 0))
        sock.close()

    sim.run(until=0.05)
    for request_id in range(churn):
        process = client.spawn(session(request_id), f"session-{request_id}")
        sim.run_until_complete(process, deadline=sim.now + 30.0)
    assert verified == [True] * churn
    assert sim.metrics.value("backup.sttcp.shadows_reaped") + backup.shadow_count == churn

    sim.run(until=sim.now + TIME_WAIT_DRAIN)

    # Engine dicts shrank back to empty...
    assert backup.shadow_count == 0
    assert sim.metrics.value("backup.sttcp.shadows_reaped") == churn
    assert primary.retained_connection_count == 0
    assert primary.retention_states_reaped == churn
    # ...the index views carry no leftovers...
    sizes = backup.index_sizes()
    assert sizes["pending_rebase"] == 0
    assert sizes["retx_pending"] == 0
    # ...and the TCP tables beneath were reaped too.
    assert scenario.primary.tcp.connection_count == 0
    assert scenario.backup.tcp.connection_count == 0
    assert scenario.client.tcp.connection_count == 0
    assert sim.metrics.value("backup.tcp.tcbs_reaped") == churn
