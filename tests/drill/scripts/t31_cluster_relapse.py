# Relapse: a service crashes, its pool backup takes over and a
# replacement backup is elected (t=0.46); 100 ms later the same service
# crashes again.  The replacement joined after the client's connection
# opened, so it never saw that connection (§3: a replica sees its
# connection from the SYN) and cannot carry it.  The election record
# names it unprotected, and the client ends in a typed reset well before
# the deadline.  A replica adopted mid-stream from a snapshot taken while
# the server application held a read request would instead answer the
# wrong request: the client would wait, silently, until the deadline.
# The other pair never notices.
use(
    mode="cluster",
    cluster={
        "name": "t31",
        "primaries": 2,
        "backups": 2,
        "capacity": 2,
        "workload": {"exchanges": 80, "service_time": 0.005},
        "deadline": 5.0,
    },
)

fault(0.250, "cluster_crash", service="s0")


def unprotected(env):
    run = env.cluster
    record = run.coordinator.report.for_service("s0")
    assert record is not None and record.kind == "takeover", f"no takeover election: {record}"
    assert record.new_backup == "pool1", f"wrong replacement: {record.new_backup}"
    client = run.fabric.service_by_name["s0"].client
    assert len(record.unprotected) == 1, f"unprotected: {record.unprotected}"
    assert record.unprotected[0].startswith(str(client.interfaces[0].ip) + ":"), (
        f"unprotected names {record.unprotected}, not s0's client"
    )


probe(0.500, unprotected, label="re-election names the open connection unprotected")

fault(0.560, "cluster_crash", service="s0")


def reset_not_hung(env):
    run = env.cluster
    s0, s1 = run.outcomes()
    assert s0["outcome"] == "ConnectionReset", f"s0 ended without a reset: {s0}"
    assert s1["outcome"] == "completed", f"s1: {s1}"
    assert not run.monitor.violations, f"dual primary: {run.monitor.violations[:3]}"


probe(1.500, reset_not_hung, label="relapsed client reset, other pair exactly-once")
