"""The four reference workloads: build, run, verify, summarise.

Each workload is a function ``prepare(seed, scale)`` that does the
set-up a user would not pay per run (topology build) and returns a
zero-argument ``timed`` callable plus a ``summarise(raw)`` that turns
the timed call's return value into an :class:`Outcome`.  ``scale`` is
1.0 for a measured run, 1/16 for the warm-up and 1/8 under ``--quick``.

Only stable public entry points of ``repro`` are driven (see README):
nothing here reaches into a layer, so a refactor below these calls
cannot break the benchmark, only move its numbers.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.harness.experiments  # noqa: F401 - registers the "scale" spec
from repro.apps.protocol import REQUEST_SIZE
from repro.apps.workload import bulk_workload, upload_workload
from repro.cluster.run import ClusterRun
from repro.cluster.scenario import spec_from_dict
from repro.errors import ReproError
from repro.harness.executor import run_experiment
from repro.harness.runner import run_workload
from repro.harness.scenario import Scenario
from repro.obs.registry import Counter
from repro.sttcp.config import STTCPConfig
from repro.util.units import MB

#: Full-scale sizes (recorded in BENCHMARK.json's workload rationales
#: and in every result's metadata).  Each timed call costs about
#: 1.6 - 1.9 s of CPU on the seed commit.
SIZES = {
    "bulk_bytes": 16 * MB,
    "churn_connections": 600,
    "cluster_exchanges": 550,
}

#: Registry counters of these layers are simulated outcomes: they go
#: into the digest.  (``sim.*`` is excluded on purpose - see digest().)
_SIMULATED_LAYERS = {"tcp", "ip", "sttcp"}

#: Rung-record fields that describe the host, not the simulation.
_CHURN_HOST_FIELDS = {"sim_events", "bytes_per_tcb"}


@dataclasses.dataclass
class Outcome:
    """What one timed call simulated, and whether it was correct."""

    #: The size this run was built at, by its name in :data:`SIZES`.
    size: Dict[str, int]
    attempted: int
    failures: List[str]
    #: Client operations that failed; at least 1 when any gate failed.
    failed: int
    segments: int
    events: int
    sim_time_s: float
    #: Simulated crash -> takeover-complete latency; None without a crash.
    sim_failover_ms: Optional[float]
    #: Application payload bytes moved; None where the run does not say.
    app_bytes: Optional[int]
    #: Exact work counters by metric name; None where not exposed.
    counters: Dict[str, Optional[int]]
    #: Everything simulated, for the digest.
    simulated: Dict[str, Any]

    @property
    def sim_digest(self) -> str:
        """sha256 of the canonical JSON of the simulated outcome.

        ``sim.events`` is deliberately absent: fusing events may change
        the count without changing anything a modelled host can observe.
        A digest that differs between two commits means simulated
        behaviour changed, whatever the timings say.
        """
        blob = json.dumps(self.simulated, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


Prepared = Tuple[Callable[[], Any], Callable[[Any], Outcome]]


def _failed_ops(failed_ops: int, failures: List[str]) -> int:
    """Any failed gate counts as at least one failed operation."""
    return max(failed_ops, 1) if failures else 0


def _registry_view(sim: Any) -> Tuple[Dict[str, int], Dict[str, Optional[int]], int]:
    """(simulated counters, work counters, delivered segments) of one
    simulator's metrics registry."""
    registry = sim.metrics
    simulated = {
        name: registry.value(name)
        for name in registry.names()
        if isinstance(registry.get(name), Counter)
        and _SIMULATED_LAYERS & set(name.split("."))
    }

    def total(suffix: str) -> int:
        return sum(v for k, v in simulated.items() if k.endswith(suffix))

    work = {
        "tcp.tcbs_peak": max(
            registry.value(name)
            for name in registry.names()
            if name.endswith(".tcp.connections_peak")
        ),
        "sttcp.backup_acks": total(".sttcp.acks_sent"),
        "sttcp.retx_requests": total(".sttcp.retx_requests_sent"),
        "sttcp.hb_sent": total("sttcp.hb.heartbeats_sent"),
    }
    return simulated, work, total(".tcp.segments_demuxed")


# ------------------------------------------------------------------ bulk
def _prepare_bulk(upload: bool, seed: int, scale: float) -> Prepared:
    size = max(1, int(SIZES["bulk_bytes"] * scale))
    workload = (upload_workload if upload else bulk_workload)(size)
    config = STTCPConfig(hb_interval=0.05)
    scenario = Scenario(sttcp=config, seed=seed)

    def timed() -> Any:
        return run_workload(workload, sttcp=config, seed=seed, scenario=scenario)

    def summarise(run: Any) -> Outcome:
        failures: List[str] = []
        try:
            run.require_clean()
        except ReproError as exc:
            failures.append(str(exc))
        result = run.result
        moved = result.bytes_sent if upload else result.bytes_received
        if moved != size:
            failures.append(f"moved {moved} of {size} bytes")
        sim = run.scenario.sim
        counters, work, segments = _registry_view(sim)
        return Outcome(
            size={"bulk_bytes": size},
            attempted=1,
            failures=failures,
            failed=_failed_ops(1, failures),
            segments=segments,
            events=sim.events_executed,
            sim_time_s=run.total_time,
            sim_failover_ms=None,
            app_bytes=moved,
            counters=work,
            simulated={
                "sim_time": run.total_time,
                "bytes_received": result.bytes_received,
                "bytes_sent": result.bytes_sent,
                "verified": result.verified,
                "error": result.error,
                "counters": counters,
            },
        )

    return timed, summarise


# ----------------------------------------------------------------- churn
def prepare_churn_failover(seed: int, scale: float) -> Prepared:
    connections = max(8, int(SIZES["churn_connections"] * scale))

    def timed() -> Any:
        # The scale spec builds its own Scenario per rung; there is no
        # public way to hand one in, so topology build is timed here.
        return run_experiment(
            "scale", ladder=(connections,), store=None, base_seed=seed
        ).rows[0]

    def summarise(record: Dict[str, Any]) -> Outcome:
        failures = list(record["failures"])
        if not record["verified"] and not failures:
            failures.append("rung not verified")
        for field in ("degraded", "leftover_client_tcbs", "leftover_backup_tcbs", "leftover_shadows"):
            if record[field] != 0:
                failures.append(f"{field} = {record[field]}")
        takeover = record["takeover_latency"]
        if math.isnan(takeover):
            failures.append("takeover never completed")
        return Outcome(
            size={"churn_connections": connections},
            # Every open carries one verified flow; every holder adds a
            # verified post-takeover flow.
            attempted=record["total_opens"] + record["connections"],
            failures=failures,
            failed=_failed_ops(len(record["failures"]), failures),
            segments=record["sim_segments"],
            events=record["sim_events"],
            sim_time_s=record["sim_seconds"],
            sim_failover_ms=takeover * 1e3,
            app_bytes=None,
            counters={
                "tcp.tcbs_peak": max(record["peak_tcbs_client"], record["peak_tcbs_backup"]),
                # run_experiment does not expose the rung's simulator.
                "sttcp.backup_acks": None,
                "sttcp.retx_requests": None,
                "sttcp.hb_sent": None,
            },
            simulated={
                k: v for k, v in record.items() if k not in _CHURN_HOST_FIELDS
            },
        )

    return timed, summarise


# --------------------------------------------------------------- cluster
def prepare_cluster_failover(seed: int, scale: float) -> Prepared:
    # Fewer exchanges at proportionally longer service time keeps the
    # crash mid-run and the election inside its budget at every scale.
    exchanges = max(8, int(SIZES["cluster_exchanges"] * scale))
    service_time = 0.001 * SIZES["cluster_exchanges"] / exchanges
    run = ClusterRun(
        spec_from_dict(
            {
                "name": "bench",
                "primaries": 6,
                "backups": 4,
                "capacity": 3,
                "profile": "fast_lan",
                "sttcp": {"hb_interval": 0.04, "hb_jitter": 0.25},
                "workload": {"exchanges": exchanges, "service_time": service_time},
                "crash": {"primary": 0, "at": 0.4},
                "arbiter": {"actuation_delay": 0.015},
                "deadline": 60,
                "seed": seed,
            }
        )
    )

    def summarise(record: Dict[str, Any]) -> Outcome:
        failures = list(record["client_failures"])
        if not record["clients_verified"] and not failures:
            failures.append("clients not verified")
        if not record["ok"]:
            broken = [
                name
                for name, holds in record["invariants"].items()
                if holds is False
            ]
            failures.append(f"invariants broken: {broken}")
        pairs = record["pairs"]
        failed_ops = sum(
            exchanges - (pair.get("exchanges", 0) if pair.get("verified") else 0)
            for pair in pairs
        )
        counters, work, segments = _registry_view(run.sim)
        done_exchanges = sum(pair.get("exchanges", 0) for pair in pairs)
        return Outcome(
            size={"cluster_exchanges": exchanges},
            attempted=len(pairs) * exchanges,
            failures=failures,
            failed=_failed_ops(failed_ops, failures),
            segments=segments,
            events=record["sim_events"],
            sim_time_s=max(pair.get("total_time", math.inf) for pair in pairs),
            sim_failover_ms=record["takeover_latency"] * 1e3,
            # Echo: every request goes out and comes back.
            app_bytes=done_exchanges * REQUEST_SIZE * 2,
            counters=work,
            simulated={
                "detection_latency": record["detection_latency"],
                "takeover_latency": record["takeover_latency"],
                "degraded": record["degraded"],
                "elections": record["elections"],
                "invariants": record["invariants"],
                "pairs": pairs,
                "counters": counters,
            },
        )

    return run.execute, summarise


WORKLOADS: Dict[str, Callable[[int, float], Prepared]] = {
    "bulk_download": functools.partial(_prepare_bulk, False),
    "bulk_upload": functools.partial(_prepare_bulk, True),
    "churn_failover": prepare_churn_failover,
    "cluster_failover": prepare_cluster_failover,
}
