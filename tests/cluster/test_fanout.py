"""Per-service gateway identities: a pool host taps only what it shadows.

Every service has its own GVI/GME on the gateway (paper §3.1, once per
service), so the switch copies a server→client frame to the gateway and to
the one pool host shadowing that service.  What a pool host receives per
exchange then depends on the services it shadows, not on how many services
the fabric runs; and a host that stops shadowing a service keeps no part of
that service's tap.
"""

import pytest

from repro.apps.workload import failed_sessions
from repro.cluster.run import ClusterRun
from repro.cluster.scenario import spec_from_dict
from repro.net.addresses import MAC_BROADCAST

EXCHANGES = 60


def _quiet_run(primaries):
    """A crash-free fabric of ``primaries`` services on four pool hosts,
    driven until every client is done; each pool NIC counts broadcasts."""
    run = ClusterRun(spec_from_dict({
        "name": f"fanout-{primaries}", "primaries": primaries, "backups": 4, "capacity": 3,
        "workload": {"exchanges": EXCHANGES, "service_time": 0.002}, "seed": 5,
    }), faults=[])
    broadcasts = {}
    for node in run.fabric.backups:
        broadcasts[node.name] = 0

        def count(frame, _nic, name=node.name):
            broadcasts[name] += frame.dst.value == MAC_BROADCAST.value

        node.nic.add_observer(count)
    run.begin()
    while len(run.results) < primaries:
        run.sim.run(until=run.sim.now + 0.05)
    assert all(r.verified and r.exchanges_done == EXCHANGES for r in run.results.values())
    return run, broadcasts


@pytest.fixture(scope="module")
def fabrics():
    return {primaries: _quiet_run(primaries) for primaries in (6, 3)}


def test_a_pool_host_drops_exactly_the_replies_of_its_own_services(fabrics):
    """The only datagrams a pool host receives that are not its own are the
    tapped server→client frames of the services it shadows: one per
    datagram its clients were delivered."""
    for run, _ in fabrics.values():
        value = run.sim.metrics.value
        for node in run.fabric.backups:
            shadowed = [run.fabric.service_by_name[name] for name in node.shadows]
            assert value(f"{node.name}.ip.dropped_not_local") == sum(
                value(f"{service.client.name}.ip.delivered") for service in shadowed
            ), node.name


def test_frames_per_exchange_grow_with_the_services_shadowed_not_with_the_fabric(fabrics):
    """Apart from broadcasts (ARP), a pool host's receives per exchange of
    each service it shadows are the same on a 6 × 4 and a 3 × 4 fabric; a
    host shadowing nothing hears only broadcasts."""
    per_service = {}
    for primaries, (run, broadcasts) in fabrics.items():
        for node in run.fabric.backups:
            shadowed = len(node.shadows)
            heard = node.nic.rx_frames - broadcasts[node.name]
            if shadowed == 0:
                assert heard == 0, (primaries, node.name)
            else:
                per_service[primaries, node.name] = heard / (shadowed * EXCHANGES)
    rates = sorted(per_service.values())
    assert len(rates) == 7 and rates[-1] / rates[0] < 1.05, per_service


def test_a_consumed_pool_host_keeps_no_tap_of_the_service_it_retired():
    """pool0 shadows s0 and s3; s0's takeover consumes it and retires s3.
    It then holds neither s3's GME (NIC filter, switch group) nor a route
    or flow for s3's service address, while the host elected for s3 holds
    them; for s0, now its own, it keeps the route via s0's GVI."""
    run = ClusterRun(spec_from_dict({
        "name": "retire", "primaries": 4, "backups": 3, "capacity": 2,
        "workload": {"exchanges": 40, "service_time": 0.005},
        "crash": {"primary": 0, "at": 0.2}, "deadline": 10.0, "seed": 3,
    }))
    record = run.execute()
    assert record["ok"] and not failed_sessions(record["outcomes"])
    fabric = run.fabric
    s0, s3 = fabric.service_by_name["s0"], fabric.service_by_name["s3"]
    pool0 = fabric.backup_by_name["pool0"]
    elected = {r["service"]: r["new_backup"] for r in record["elections"]}
    assert record["pool"]["consumed"] == ["pool0"] and elected["s3"] not in (None, "pool0")
    heir = fabric.backup_by_name[elected["s3"]]

    def taps(node, service):
        routes = node.host.ip_layer.routes
        return (
            service.gme.value in node.nic.accepted,
            node.port in fabric.switch._multicast_groups.get(service.gme.value, []),
            routes.lookup(service.client.interfaces[0].ip, service.service_ip) is not None,
            node.host.arp.lookup(service.gvi) is not None,
        )

    assert taps(pool0, s3) == (False, False, False, False)
    assert [key for key in pool0.host.ip_layer._flows if key[1] == s3.service_ip.value] == []
    assert taps(heir, s3) == (True, True, True, True)
    route = pool0.host.ip_layer.routes.lookup(s0.client.interfaces[0].ip, s0.service_ip)
    assert route is not None and route.next_hop == s0.gvi
