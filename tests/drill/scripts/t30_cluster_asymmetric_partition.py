# Asymmetric partition, the classic dual-primary recipe: s0's primary
# stays alive and keeps serving, but its outbound UDP-channel frames
# (heartbeats included) are dropped, so the backup sees a dead primary.
# The arbiter must fence the LIVE primary before the takeover goes
# active — at no simulated instant may two live hosts own the service.
# tests/cluster/test_mutation.py reruns this drill with a sabotaged
# arbiter and asserts it FAILS, proving the invariant check has teeth.
use(
    mode="cluster",
    cluster={
        "name": "t30",
        "primaries": 2,
        "backups": 2,
        "capacity": 2,
        "workload": {"exchanges": 80, "service_time": 0.005},
        "deadline": 5.0,
    },
)

fault(0.250, "cluster_partition_oneway", service="s0")


def fenced_alive_primary(env):
    run = env.cluster
    original = run.fabric.services[0].primary
    assert not original.is_up, "the partitioned (live) primary was never fenced"
    assert run.fabric.arbiter.cuts_performed == 1, "no fence actuated"
    assert "s0" in run.coordinator.takeover_engines, "s0 never taken over"
    owner = run.fabric.service_by_name["s0"].primary_host.name
    assert owner == "pool0", f"s0 should be owned by pool0, not {owner}"


probe(0.800, fenced_alive_primary, label="STONITH killed the live primary")


def never_dual(env):
    run = env.cluster
    assert run.monitor.polls > 0, "dual-primary monitor never polled"
    assert not run.monitor.violations, (
        f"dual primary observed: {run.monitor.violations[:3]}"
    )


probe(1.000, never_dual, label="no dual-primary at any instant")


def verified(env):
    run = env.cluster
    for entry in run.outcomes():
        assert entry["outcome"] == "completed", f"{entry['client']}: {entry}"
    assert not run.monitor.violations, f"dual primary: {run.monitor.violations[:3]}"


probe(1.500, verified, label="streams exactly-once despite partition")
