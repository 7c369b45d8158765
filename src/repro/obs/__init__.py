"""repro.obs — what the simulation did, in sim time.

Four pieces (see docs/OBSERVABILITY.md, which also lists who reads each):

* :mod:`repro.obs.registry` — named counters and gauges with O(1)
  hot-path increments and per-host scoping: the one store of simulated
  measurements, read when the run ends;
* :mod:`repro.obs.recorder` — the flight recorder: an always-cheap
  bounded ring buffer of the last N trace records, dumped automatically
  when a run goes red;
* :mod:`repro.obs.timeline` / :mod:`repro.obs.export` — the paper's
  failover phase decomposition (per-pair and cluster-level), plus
  Chrome trace-event (Perfetto) export: the phases as slices, the trace
  records as instants;
* :mod:`repro.obs.slo` — the SLIs a run record is held to, with burn
  rates, and the one A/B/C/F grade the ``cluster`` and ``scale`` tables
  print per record.

What the *host* spent running it (wall clock, collector passes, calls
by layer) is :mod:`repro.metrics`.
"""

from repro.obs.registry import Counter, Gauge, MetricsRegistry
from repro.obs.timeline import (
    ClusterPhases,
    FailoverTimeline,
    TimelineCollector,
    reconstruct_cluster_phases,
    reconstruct_failover,
)

__all__ = [
    "ClusterPhases",
    "Counter",
    "FailoverTimeline",
    "Gauge",
    "MetricsRegistry",
    "TimelineCollector",
    "reconstruct_cluster_phases",
    "reconstruct_failover",
]
