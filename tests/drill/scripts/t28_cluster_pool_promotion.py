# Cluster backup-pool promotion: when a primary crashes, its pool
# backup takes over the service, the election coordinator promotes the
# consumed pool host to full primary, and a replacement backup from the
# pool shadows every connection opened from then on — while the healthy
# pair's client never notices.  The replacement never saw the crashed
# service's open connection, so the election names it unprotected.
use(
    mode="cluster",
    cluster={
        "name": "t28",
        "primaries": 2,
        "backups": 2,
        "capacity": 2,
        "workload": {"exchanges": 80, "service_time": 0.005},
        "deadline": 5.0,
    },
)

fault(0.250, "cluster_crash", service="s0")


def promoted(env):
    run = env.cluster
    record = run.coordinator.report.for_service("s0")
    assert record is not None, "no election ran for s0"
    assert record.kind == "takeover", f"expected takeover election, got {record.kind}"
    assert record.consumed_backup == "pool0", f"wrong consumed backup: {record}"
    assert record.new_backup == "pool1", f"wrong replacement: {record.new_backup}"
    owner = run.fabric.service_by_name["s0"].primary_host.name
    assert owner == "pool0", f"s0 should be owned by the promoted pool0, not {owner}"
    assert "pool0" in run.pool.consumed, "pool0 not marked consumed"
    assert run.fabric.arbiter.cuts_performed == 1, "takeover without a fence"


probe(0.700, promoted, label="pool host promoted, replacement elected")


def unprotected(env):
    run = env.cluster
    record = run.coordinator.report.for_service("s0")
    client_ip = str(run.fabric.service_by_name["s0"].client.interfaces[0].ip)
    assert [name.split(":")[0] for name in record.unprotected] == [client_ip], (
        f"unprotected: {record.unprotected}"
    )


probe(1.000, unprotected, label="open connection named unprotected")


def verified(env):
    run = env.cluster
    for entry in run.outcomes():
        assert entry["outcome"] == "completed", f"{entry['client']}: {entry}"
    assert not run.monitor.violations, f"dual primary: {run.monitor.violations[:3]}"


probe(1.500, verified, label="both byte streams exactly-once")
