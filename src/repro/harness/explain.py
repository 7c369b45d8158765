"""One failover run, explained: the report behind ``repro explain``.

:func:`explain` turns a finished :class:`ExperimentRun` or an executed
:class:`ClusterRun` into one text report whose sections always come in
the same order:

1. **run** — workload, profile, heartbeat interval, seed and fault
   plan (one ``repr`` that pastes back into ``faults=``), plus the
   paper's failover time (§6.2: the run with the crash minus the
   failure-free run) when the failure-free run is given;
2. **phases** — the paper's decomposition of the client's outage
   (detection → takeover → first retransmission accepted).  A cluster
   run shows every pair, the fabric's fence → election windows, each
   election's unprotected connections and the invariant verdicts;
3. **anomalies** — evidence that something went wrong, read the same way
   for every run: client sessions that did not complete (the run's
   outcome ledger), connections the takeover did not carry, connections
   it found degraded (one with a hole, which it still takes over, or one
   that never learned the primary's ISN, which it resets), segments a
   backup could not match or answered with a RST, frames its tap lost.  A clean run prints ``anomalies: none``;
4. **work** — every nonzero counter of the run's registry;
5. **work by layer** — when the run was profiled
   (:func:`repro.metrics.layers.profile_layers`, as ``repro explain``
   does): Python calls per delivered segment in each layer, most first;
6. one **VERDICT** line.

It reads only what the run already holds: the timeline collector's
records, ``sim.metrics``, the failover metrics, the cluster record and
the profile.  Call counts are exact, so a fixed seed gives the same
bytes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from repro.apps.workload import describe_outcome, failed_sessions
from repro.cluster.invariants import INVARIANTS
from repro.cluster.run import ClusterRun
from repro.errors import ReproError
from repro.harness.runner import ExperimentRun
from repro.net.tcpdump import format_frame
from repro.obs.registry import Counter
from repro.obs.timeline import reconstruct_cluster_phases
from repro.sim.trace import TraceRecord

#: What the phases section says when the markers bracket no recovered outage.
_NO_PHASES = "no phase decomposition: no takeover, or no client progress after it"


def explain(
    run: Union[ExperimentRun, ClusterRun],
    baseline: Optional[ExperimentRun] = None,
    layers: Optional[Dict[str, int]] = None,
) -> str:
    """The report of one finished run; ``baseline`` is the same workload
    without the crash, for the paper's failover time; ``layers`` is the
    run's calls by layer (:func:`repro.metrics.layers.profile_layers`)."""
    if isinstance(run, ClusterRun):
        if run.record is None:
            raise ReproError("explain needs an executed ClusterRun")
        head, phases = _cluster_sections(run, run.record)
        outcomes = run.record["outcomes"]
        backups = [node.host for node in run.fabric.backups]
        crashed = 1  # the scenario's one scripted crash; one client per pair
        failed = [name for name, holds in _invariants(run.record) if not holds]
        metrics = run.sim.metrics
    else:
        head, phases = _single_sections(run, baseline)
        outcomes = run.outcomes
        scenario = run.scenario
        backups = [scenario.backup, *scenario.extra_backups] if scenario.backup else []
        crashed = int(run.failover is not None and run.failover.primary_crashed_at is not None)
        failed = []
        metrics = scenario.sim.metrics
    clients = [describe_outcome(entry) for entry in failed_sessions(outcomes)]
    anomalies = clients + _anomalies(run.collector.records, metrics, backups, crashed)
    lines = [*head, "", *phases, ""]
    if anomalies:
        lines.append(f"anomalies: {len(anomalies)}")
        lines.extend(f"  {text}" for text in anomalies)
    else:
        lines.append("anomalies: none")
    lines += ["", "work (nonzero registry counters):", *_work(metrics), ""]
    if layers is not None:
        lines += [*_work_by_layer(layers, metrics), ""]
    lines.append(_verdict(clients, failed, len(anomalies)))
    return "\n".join(lines)


# Sections 1 and 2 ---------------------------------------------------------------
def _single_sections(
    run: ExperimentRun, baseline: Optional[ExperimentRun]
) -> Tuple[List[str], List[str]]:
    scenario = run.scenario
    config = scenario.sttcp_config
    head = (
        f"run: {run.result.workload.name}, {run.result.workload.exchanges} exchanges, "
        f"profile {scenario.profile.name}"
        + (f", HB {config.hb_interval:g} s" if config is not None else "")
        + f", seed {scenario.sim.random.master_seed}, faults {run.faults!r}"
    )
    failover = run.failover
    lines = [head]
    if baseline is not None:
        with_crash, without = run.total_time, baseline.total_time
        lines.append(
            f"failover time: {(with_crash - without) * 1e3:.1f} ms "
            f"(total {with_crash:.6f} s with the crash − {without:.6f} s without)"
        )
    if failover is not None and failover.takeover_latency is not None:
        lines.append(
            f"after the crash: suspected +{failover.detection_latency * 1e3:.1f} ms, "
            f"took over +{failover.takeover_latency * 1e3:.1f} ms"
        )
    if run.timeline is None:
        phases = [_NO_PHASES]
    else:
        phases = [
            run.timeline.render(),
            f"measured client-visible outage (RunResult.max_gap): "
            f"{run.result.max_gap * 1e3:.1f} ms",
        ]
    return lines, phases


def _cluster_sections(run: ClusterRun, record: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    spec = run.spec
    crashed = record["crashed_service"]
    config = run.fabric.service_by_name[crashed].config
    head = [
        f"run: cluster scenario '{record['scenario']}' "
        f"({spec.primaries} primaries / {spec.backups} pool hosts), profile {spec.profile}, "
        f"HB {config.hb_interval:g} s, seed {spec.seed}, faults {run.faults!r}"
    ]
    if record["takeover_latency"] == record["takeover_latency"]:  # not nan
        head.append(
            f"after the crash: suspected +{record['detection_latency'] * 1e3:.1f} ms, "
            f"took over +{record['takeover_latency'] * 1e3:.1f} ms"
        )
    phases: List[str] = []
    for service in run.fabric.services:
        phases += ["", f"{service.name}:"] if phases else [f"{service.name}:"]
        timeline = run.pair_timeline(service.name) if service.name == crashed else None
        if timeline is not None:
            phases += [f"  {line}" for line in timeline.render().splitlines()]
        elif service.name == crashed:
            phases.append(f"  {_NO_PHASES}")
        else:
            gap = (record["timelines"].get(service.name) or {}).get("max_gap")
            gap_text = f"{gap * 1e3:.1f} ms" if gap is not None else "unknown"
            phases.append(f"  no takeover on this pair; max progress gap {gap_text}")
    cluster_phases = reconstruct_cluster_phases(run.collector.records)
    if cluster_phases is not None:
        phases += ["", cluster_phases.render()]
    phases += ["", "elections:"]
    for election in record["elections"]:
        unprotected = ", ".join(election["unprotected"]) or "none"
        phases.append(
            f"  {election['service']} ({election['kind']}) → "
            f"{election['new_backup'] or 'pool exhausted'}; unprotected: {unprotected}"
        )
    phases += ["", "invariants:"]
    phases += [
        f"  {name:<21} {'holds' if holds else 'VIOLATED'}"
        for name, holds in _invariants(record)
    ]
    return head, phases


def _invariants(record: Dict[str, Any]) -> List[Tuple[str, bool]]:
    return [(name, bool(record["invariants"][name])) for name in INVARIANTS]


# Section 3 ------------------------------------------------------------------------
def _anomalies(
    records: List[TraceRecord], metrics: Any, backups: List[Any], crashed: int
) -> List[str]:
    found = []
    if crashed:
        takeovers = [
            r.fields for r in records if r.category == "sttcp" and r.event == "takeover"
        ]
        taken = sum(fields["taken_over"] for fields in takeovers)
        reset = sum(fields["reset"] for fields in takeovers)
        # Only an unknown ISN resets a shadow; any other degraded one was
        # taken over with a hole.
        holes = sum(fields["degraded"] for fields in takeovers) - reset
        if taken != crashed or reset or holes:
            found.append(
                f"{taken} of {crashed} client connections taken over"
                + (f", {holes} with a hole" if holes else "")
                + (f", {reset} reset (isn_unknown)" if reset else "")
            )
    host_of = {nic: host for host in backups for nic in host.nics}
    for host in backups:
        unmatched = metrics.value(f"{host.name}.tcp.segments_unmatched")
        resets = metrics.value(f"{host.name}.tcp.resets_sent")
        if unmatched or resets:
            found.append(
                f"{host.name}: {unmatched} tapped segments unmatched, {resets} RST(s) sent"
            )
    for record in records:
        if record.category != "nic" or record.fields["nic"] not in host_of:
            continue
        nic = record.fields["nic"]
        found.append(
            f"{host_of[nic].name}/{nic.name} lost on the tap at "
            f"{record.time:.6f}: {format_frame(record.fields['frame'])}"
        )
    return found


# Sections 4 and 5 -----------------------------------------------------------------
def _work(metrics: Any) -> List[str]:
    counters = [
        (name, metrics.value(name))
        for name in metrics.names()
        if isinstance(metrics.get(name), Counter) and metrics.value(name)
    ]
    width = max((len(name) for name, _ in counters), default=0)
    return [f"  {name:<{width}} {value}" for name, value in counters]


def _work_by_layer(layers: Dict[str, int], metrics: Any) -> List[str]:
    """Calls per delivered segment, by layer."""
    segments = sum(
        metrics.value(name) for name in metrics.names() if name.endswith(".tcp.segments_demuxed")
    )
    if not segments:
        return ["work by layer: no segment delivered"]
    rows = sorted(layers.items(), key=lambda item: (-item[1], item[0]))
    rows.append(("total", sum(calls for _, calls in rows)))
    return [
        f"work by layer (Python calls per delivered segment, {segments} segments):",
        *(f"  {layer:<8} {calls / segments:8.2f}" for layer, calls in rows),
    ]


def _verdict(clients: List[str], failed: List[str], anomalies: int) -> str:
    if clients or failed:
        reasons = clients + [f"invariant {name} violated" for name in failed]
        return "VERDICT: FAIL — " + "; ".join(reasons)
    noted = f" ({anomalies} {'anomaly' if anomalies == 1 else 'anomalies'} above)"
    return "VERDICT: PASS — every client stream verified" + (noted if anomalies else "")
