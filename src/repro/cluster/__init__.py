"""repro.cluster — backup pools, N:K shadowing, and a failover fabric.

Scales the paper's one-primary/one-backup pair to a cluster: N primaries
share a pool of M backup hosts (each shadowing up to K services), a
fabric-level arbiter serializes STONITH, and an election coordinator
re-establishes shadowing after a takeover consumes a pool host.  See
``docs/CLUSTER.md``.
"""

from repro.cluster.arbiter import ClusterArbiter
from repro.cluster.election import ElectionCoordinator, ElectionRecord, ElectionReport
from repro.cluster.invariants import (
    DualPrimaryMonitor,
    DualPrimaryViolation,
    InvariantReport,
    takeover_budget,
)
from repro.cluster.pool import BackupPool, plan_assignment
from repro.cluster.run import ClusterRun, run_cluster
from repro.cluster.scenario import (
    ClusterSpec,
    load_scenario,
    spec_from_dict,
    spec_from_params,
)
from repro.cluster.topology import SERVICE_PORT, ClusterFabric, PoolNode, ServiceNode

__all__ = [
    "BackupPool",
    "ClusterArbiter",
    "ClusterFabric",
    "ClusterRun",
    "ClusterSpec",
    "DualPrimaryMonitor",
    "DualPrimaryViolation",
    "ElectionCoordinator",
    "ElectionRecord",
    "ElectionReport",
    "InvariantReport",
    "PoolNode",
    "SERVICE_PORT",
    "ServiceNode",
    "load_scenario",
    "plan_assignment",
    "run_cluster",
    "spec_from_dict",
    "spec_from_params",
    "takeover_budget",
]
