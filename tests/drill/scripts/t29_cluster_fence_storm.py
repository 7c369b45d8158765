# Fence storm: two primaries crash in the same instant, two backups
# suspect at the same heartbeat tick, and both fence through the ONE
# cluster arbiter — which must serialize the cuts and still land both
# takeovers, the cascaded elections, and every client's byte stream.
use(
    mode="cluster",
    cluster={
        "name": "t29",
        "primaries": 3,
        "backups": 3,
        "capacity": 3,
        "workload": {"exchanges": 80, "service_time": 0.005},
        "deadline": 5.0,
    },
)

fault(0.250, "cluster_crash", service="s0")
fault(0.250, "cluster_crash", service="s1")


def both_fenced(env):
    run = env.cluster
    arbiter = run.fabric.arbiter
    assert arbiter.fence_requests == 2, f"{arbiter.fence_requests} fence requests"
    assert arbiter.cuts_performed == 2, f"{arbiter.cuts_performed} cuts performed"
    for service in ("s0", "s1"):
        assert service in run.coordinator.takeover_engines, f"{service} never taken over"


probe(1.000, both_fenced, label="serialized arbiter landed both takeovers")


def reshadowed(env):
    # The storm cascades: s0's first replacement may itself be consumed
    # by s1's takeover an actuation later, so the *final* election per
    # service must have a live backup.  Each service's open connection is
    # named unprotected once, by its takeover: no later backup saw it.
    run = env.cluster
    for service in ("s0", "s1"):
        records = [r for r in run.coordinator.report.records if r.service == service]
        assert records[-1].new_backup is not None, f"{service}: pool exhausted"
        client_ip = str(run.fabric.service_by_name[service].client.interfaces[0].ip)
        named = [name.split(":")[0] for r in records for name in r.unprotected]
        assert named == [client_ip], f"{service}: unprotected {named}"


probe(1.600, reshadowed, label="final replacements name the open connections")


def verified(env):
    run = env.cluster
    for entry in run.outcomes():
        assert entry["outcome"] == "completed", f"{entry['client']}: {entry}"
    assert not run.monitor.violations, f"dual primary: {run.monitor.violations[:3]}"


probe(1.800, verified, label="all three byte streams exactly-once")
