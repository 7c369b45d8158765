"""The ``scale`` experiment: connection churn on one primary/backup pair.

Every paper artefact drives a handful of connections; the claim that a
backup can shadow a primary *closely enough to take over* only matters
under load.  This workload fills that gap (ROADMAP: "Massive-concurrency
failover"): a **concurrency ladder** where each rung

1. ramps up ``connections`` simultaneous long-lived ST-TCP connections
   (*holders*) while *churners* storm the listener with extra short
   open/flow/close cycles, flow sizes drawn from a heavy-tailed
   (Pareto) distribution;
2. waits for every shadow to converge on the primary's ISN and samples
   the backup's per-TCB memory footprint;
3. crashes the primary and measures detection/takeover latency with all
   rung connections simultaneously alive;
4. continues every holder over the taken-over connections (content
   verified end-to-end), drains, and checks that the churned TCBs were
   actually reaped — on the client, on the backup's TCP layer, and in
   the backup engine's shadow table.

Per rung the record reports takeover latency, shadow-convergence lag,
opened connections/sec, sampled bytes/TCB, peak TCB counts, and the
reap accounting — the scale story of docs/SCALE.md.  The table grades
each rung against :data:`repro.obs.slo.SCALE_SLOS`.
"""

from __future__ import annotations

import random
import sys
from collections import deque
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.apps.protocol import KIND_DATA, encode_request, verify_response
from repro.apps.workload import Outcome, session_outcome, write_bench_keys
from repro.errors import ConnectionRefused
from repro.harness.calibrate import FAST_LAN, NetworkProfile
from repro.harness.scenario import Scenario
from repro.harness.spec import (
    ExperimentSpec,
    GridCell,
    Record,
    profile_from_params,
    profile_params,
    register,
    sttcp_from_params,
    sttcp_params,
)
from repro.metrics import perf
from repro.sttcp.config import STTCPConfig
from repro.tcp.tcb import TCPConnection

#: Read granularity for flow responses.
RECV_CHUNK = 65536

#: The client starts this long after the service comes up.
CLIENT_START = 0.05

#: Size of the post-takeover continuity flow every holder runs.
POST_TAKEOVER_FLOW = 1024

#: Grid a holder's resumption instant lies on: its initial flow's end plus
#: a whole number of these (it used to poll at this period).
HOLD_STEP = 0.025

#: Default concurrency ladder; the top rung is the acceptance bar
#: (≥ 2,000 simultaneous ST-TCP connections on one pair).
DEFAULT_LADDER: Tuple[int, ...] = (100, 500, 2000)

#: Small ladder for CI smoke runs (seconds, not minutes).
SMOKE_LADDER: Tuple[int, ...] = (25, 100)


# ------------------------------------------------------------ memory probe
#: Attribute names the walk does not follow.
_ESCAPE_ATTRS = frozenset(
    {
        # Back-references out of the per-connection object graph;
        # following them would charge the whole simulator to one TCB.
        "sim",
        "layer",
        "host",
        "conn",
        "tcb",
        "engine",  # a shadow record's owning backup engine
        "socket",
        "_sched",  # the scheduler behind a pending event handle
        # A cache that restates fields the walk already counts: the
        # output engine's header template (the two ports).
        "_template",
    }
)

_FLAT_TYPES = (str, bytes, bytearray, int, float, bool, complex)


def owned_objects(root: Any) -> List[Any]:
    """Every object in one connection's object graph, each once.

    Follows ``__slots__``, instance ``__dict__``s and builtin containers;
    skips callables, classes and the attributes that point back into the
    simulator (``_ESCAPE_ATTRS``).  An instance ``__dict__`` is itself an
    owned object — :func:`sys.getsizeof` of the instance stops at the
    object header — but is walked by attribute name, not as a container,
    so the escape rules apply to it.
    """
    seen: Dict[int, Any] = {}
    stack: List[Any] = [root]
    while stack:
        obj = stack.pop()
        if obj is None or callable(obj) or isinstance(obj, type):
            continue
        key = id(obj)
        if key in seen:
            continue
        seen[key] = obj
        if isinstance(obj, _FLAT_TYPES):
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        else:
            names: List[str] = []
            for klass in type(obj).__mro__:
                names.extend(getattr(klass, "__slots__", ()))
            instance_dict = getattr(obj, "__dict__", None)
            if instance_dict is not None:
                seen[id(instance_dict)] = instance_dict
                names.extend(instance_dict)
            for name in names:
                if name in _ESCAPE_ATTRS or name.startswith("__"):
                    continue
                stack.append(getattr(obj, name, None))
    return list(seen.values())


def deep_size(root: Any) -> int:
    """Deterministic footprint of one connection's object graph in bytes.

    :func:`sys.getsizeof` summed over :func:`owned_objects`.  Not an exact
    RSS figure — a *comparable* per-TCB cost that scales with buffered
    data, so the per-rung trend (bytes/TCB vs connection count) is
    meaningful and machine-stable.
    """
    total = 0
    for obj in owned_objects(root):
        try:
            total += sys.getsizeof(obj)
        except TypeError:  # pragma: no cover - exotic objects only
            continue
    return total


# ------------------------------------------------------------ grid builder
def _heavy_tailed_sizes(
    rng: random.Random, count: int, base: int, cap: int, alpha: float
) -> List[int]:
    """Pareto-distributed flow sizes: many small flows, a fat tail."""
    return [min(cap, int(base * rng.paretovariate(alpha))) for _ in range(count)]


def _build_cells(
    scale: Any = None,
    ladder: Optional[Sequence[int]] = None,
    churn_fraction: float = 0.25,
    churn_flows: int = 3,
    flow_base: int = 512,
    flow_cap: int = 64 * 1024,
    pareto_alpha: float = 1.3,
    open_rate: float = 2000.0,
    hb: float = 0.1,
    profile: NetworkProfile = FAST_LAN,
    topology: str = "hub",
    base_seed: int = 900,
) -> List[GridCell]:
    rungs = tuple(ladder) if ladder is not None else DEFAULT_LADDER
    return [
        GridCell(
            experiment="scale",
            cell_id=f"conns{connections}",
            params={
                "connections": connections,
                "churn_fraction": churn_fraction,
                "churn_flows": churn_flows,
                "flow_base": flow_base,
                "flow_cap": flow_cap,
                "pareto_alpha": pareto_alpha,
                "open_rate": open_rate,
                "sttcp": sttcp_params(STTCPConfig(hb_interval=hb)),
                "profile": profile_params(profile),
                "topology": topology,
            },
            seed=base_seed + index,
        )
        for index, connections in enumerate(rungs)
    ]


#: Connect attempts before a client gives up on a refused service.
CONNECT_RETRIES = 8


# ------------------------------------------------------------ rung runner
def _connect_with_retry(sim: Any, host: Any, addr: Any) -> Generator:
    """Active open with backoff-and-retry on a full listener backlog.

    During an open storm the listener legitimately deflects SYNs
    (``<host>.tcp.syns_deflected``); a real client sees ECONNREFUSED
    and tries again.  Deterministic: fixed exponential backoff.
    """
    delay = 0.01
    for attempt in range(CONNECT_RETRIES):
        sock = host.tcp.connect(addr)
        try:
            yield sock.wait_connected()
            return sock
        except ConnectionRefused:
            if attempt == CONNECT_RETRIES - 1:
                raise
            yield sim.timeout(delay)
            delay = min(0.16, delay * 2)
    raise AssertionError("unreachable")


def holder_wake_time(t0: float, final_at: float) -> float:
    """When a holder idle since ``t0`` starts its post-takeover flow: the
    first of ``t0, t0 + HOLD_STEP, (t0 + HOLD_STEP) + HOLD_STEP, …`` that
    is ``>= final_at``.

    Summed left to right, one step at a time, because that is the float a
    holder re-sleeping ``HOLD_STEP`` until ``now >= final_at`` arrives at;
    ``t0 + k * HOLD_STEP`` is a different one.  It keeps the holders
    staggered by their ``t0``s instead of starting 2 000 flows at once.
    """
    wake = t0
    while wake < final_at:
        wake += HOLD_STEP
    return wake


def _flow(sock: Any, request_id: int, size: int, stream_offset: int) -> Generator:
    """Issue one DATA request and verify the sized response; returns
    (ok, new_stream_offset)."""
    yield sock.send(encode_request(KIND_DATA, size, request_id))
    ok = True
    remaining = size
    while remaining > 0:
        chunk = yield sock.recv_exactly(min(RECV_CHUNK, remaining))
        if not verify_response(chunk, stream_offset):
            ok = False
        stream_offset += chunk.length
        remaining -= chunk.length
    return ok, stream_offset


def _run_cell(cell: GridCell) -> Record:
    params = cell.params
    n = int(params["connections"])
    rng = random.Random(cell.seed)
    scenario = Scenario(
        profile=profile_from_params(params["profile"]),
        topology=params["topology"],
        sttcp=sttcp_from_params(params["sttcp"]),
        seed=cell.seed,
    )
    sim = scenario.sim
    scenario.start_service()
    backup_engine = scenario.pair.backup_engine
    backup_host = scenario.backup
    client = scenario.client
    service_addr = scenario.service_addr

    churn_count = int(n * params["churn_fraction"])
    churn_flows = int(params["churn_flows"])
    holder_sizes = _heavy_tailed_sizes(
        rng, n, params["flow_base"], params["flow_cap"], params["pareto_alpha"]
    )
    churn_sizes = [
        _heavy_tailed_sizes(
            rng, churn_flows, params["flow_base"], params["flow_cap"], params["pareto_alpha"]
        )
        for _ in range(churn_count)
    ]
    ramp = max(n, churn_count) / float(params["open_rate"])

    ready = [0]  # holders whose initial flow completed
    # The outcome ledger by session index: an entry when a session ends,
    # or ``unfinished`` when it is still running at its phase deadline.
    holders: Dict[int, Outcome] = {}
    churners: Dict[int, Outcome] = {}
    #: Succeeds, once the takeover is over, with the instant from which
    #: holders may run their post-takeover flow.
    released = sim.event("holders-released")

    def holder(index: int, size: int) -> Generator:
        yield sim.timeout((index * ramp) / max(1, n))
        counted = False
        corrupt, error = "", None
        try:
            sock = yield from _connect_with_retry(sim, client, service_addr)
            ok, offset = yield from _flow(sock, 0, size, 0)
            if not ok:
                corrupt = "initial flow"
            counted = True
            ready[0] += 1
            # Hold the connection across the crash, then prove it still
            # works on the taken-over endpoint.
            held_since = sim.now
            final_at = released.value if released.triggered else (yield released)
            wake = holder_wake_time(held_since, final_at)
            if wake > sim.now:
                resume = sim.event("holder-wake")
                sim.post(wake, resume.succeed)
                yield resume
            ok, _ = yield from _flow(sock, 1, POST_TAKEOVER_FLOW, offset)
            if not ok and not corrupt:
                corrupt = "post-takeover flow"
            sock.close()
        except Exception as exc:  # noqa: BLE001 - recorded in the ledger
            error = f"{type(exc).__name__}: {exc}"
            if not counted:
                ready[0] += 1  # do not deadlock the ramp barrier
        holders.setdefault(index, session_outcome(f"holder-{index}", sim.now, error, corrupt))

    def churner(index: int, sizes: List[int]) -> Generator:
        yield sim.timeout((index * ramp) / max(1, churn_count))
        corrupt, error = "", None
        try:
            for flow_id, size in enumerate(sizes):
                sock = yield from _connect_with_retry(sim, client, service_addr)
                ok, _ = yield from _flow(sock, flow_id, size, 0)
                if not ok and not corrupt:
                    corrupt = f"flow {flow_id}"
                sock.close()
        except Exception as exc:  # noqa: BLE001 - recorded in the ledger
            error = f"{type(exc).__name__}: {exc}"
        churners.setdefault(index, session_outcome(f"churner-{index}", sim.now, error, corrupt))

    def give_up(ledger: Dict[int, Outcome], kind: str, count: int) -> None:
        for index in range(count):
            ledger.setdefault(index, session_outcome(f"{kind}-{index}", sim.now, finished=False))

    sim.run(until=CLIENT_START)
    for index in range(n):
        client.spawn(holder(index, holder_sizes[index]), f"holder-{index}")
    for index in range(churn_count):
        client.spawn(churner(index, churn_sizes[index]), f"churner-{index}")

    def run_until(predicate: Any, deadline: float, step: float) -> None:
        while not predicate() and sim.now < deadline:
            sim.run(until=sim.now + step)

    # Phase 1: ramp — all holders connected + flowed, all churners done.
    run_until(
        lambda: ready[0] >= n and len(churners) >= churn_count,
        deadline=CLIENT_START + ramp + 120.0,
        step=0.005,
    )
    give_up(churners, "churner", churn_count)
    ramp_done = sim.now

    # Phase 2: shadow convergence (every live shadow rebased on the
    # primary's ISN) — the backup-side lag behind the open storm.
    run_until(
        lambda: backup_engine.pending_rebase_count == 0,
        deadline=ramp_done + 30.0,
        step=0.001,
    )
    convergence_lag = sim.now - ramp_done
    shadows_at_crash = backup_engine.shadow_count
    # TCBs only: a shadow already in TIME_WAIT is a record, not a TCB.
    sample = [tcb for tcb in backup_engine.shadow_connections if isinstance(tcb, TCPConnection)][:32]
    bytes_per_tcb = (
        sum(deep_size(tcb) for tcb in sample) / len(sample) if sample else 0.0
    )

    # Phase 3: crash the primary with the full rung simultaneously alive.
    crash_time = sim.now + 0.05
    scenario.crash_primary_at(crash_time)
    run_until(
        lambda: backup_engine.takeover_time is not None,
        deadline=crash_time + 60.0,
        step=0.005,
    )
    detection_latency = (
        backup_engine.detection_time - crash_time
        if backup_engine.detection_time is not None
        else float("nan")
    )
    takeover_latency = (
        backup_engine.takeover_time - crash_time
        if backup_engine.takeover_time is not None
        else float("nan")
    )

    # Phase 4: continue every holder on the taken-over connections.
    released.succeed(sim.now + 0.1)
    run_until(
        lambda: len(holders) >= n,
        deadline=sim.now + 120.0,
        step=0.01,
    )
    give_up(holders, "holder", n)
    finished = sim.now
    # Drain TIME_WAIT (1 s in the simulator) so reaping can complete.
    sim.run(until=sim.now + 1.5)
    perf.note_simulation(sim)

    total_opens = n + churn_count * churn_flows
    count = sim.metrics.value
    record = {
        "connections": n,
        "total_opens": total_opens,
        "conns_per_sec": total_opens / max(1e-9, finished - CLIENT_START),
        "convergence_lag": convergence_lag,
        "detection_latency": detection_latency,
        "takeover_latency": takeover_latency,
        "bytes_per_tcb": bytes_per_tcb,
        "shadows_at_crash": shadows_at_crash,
        "peak_tcbs_client": count("client.tcp.connections_peak"),
        "peak_tcbs_backup": count("backup.tcp.connections_peak"),
        "reaped_client": count("client.tcp.tcbs_reaped"),
        "reaped_backup": count("backup.tcp.tcbs_reaped"),
        "shadows_reaped": count("backup.sttcp.shadows_reaped"),
        "leftover_client_tcbs": client.tcp.connection_count,
        "leftover_backup_tcbs": backup_host.tcp.connection_count,
        "leftover_shadows": backup_engine.shadow_count,
        "degraded": len(backup_engine.degraded_connections),
        "syns_deflected": count("primary.tcp.syns_deflected"),
        "ports_exhausted": count("client.tcp.ephemeral_ports_exhausted"),
        "sim_events": sim.events_executed,
        "sim_segments": sum(
            count(f"{host}.tcp.segments_demuxed")
            for host in ("client", "primary", "backup")
        ),
        "sim_seconds": sim.now,
        "outcomes": [holders[i] for i in range(n)] + [churners[i] for i in range(churn_count)],
    }
    write_bench_keys(record)
    return record


# ------------------------------------------------------------ presentation
def format_scale(records: List[Dict[str, Any]]) -> str:
    # Imported here: a run that only measures pays for neither.
    from repro.harness.tables import graded_table
    from repro.obs.slo import SCALE_SLOS, grade_record

    rows = [
        [
            r["connections"],
            f"{r['conns_per_sec']:.0f}",
            f"{r['convergence_lag'] * 1e3:.1f}",
            f"{r['detection_latency'] * 1e3:.1f}",
            f"{r['takeover_latency'] * 1e3:.1f}",
            f"{r['bytes_per_tcb'] / 1024:.1f}",
            r["peak_tcbs_backup"],
            r["shadows_reaped"],
            r["leftover_shadows"],
        ]
        for r in records
    ]
    return graded_table(
        [
            "conns",
            "opens/s",
            "converge (ms)",
            "detect (ms)",
            "takeover (ms)",
            "KB/TCB",
            "peak TCBs",
            "reaped",
            "leftover",
        ],
        rows,
        [f"scale-{r['connections']}" for r in records],
        [grade_record(r, SCALE_SLOS) for r in records],
        title="scale: churn ladder on one primary/backup pair",
    )


SPEC = register(
    ExperimentSpec(
        name="scale",
        title="scale: connection-churn ladder with mid-ladder failover",
        build_cells=_build_cells,
        run_cell=_run_cell,
        format=format_scale,
    )
)
