"""Command-line interface: ``python -m repro <experiment> [options]``.

Subcommands regenerate the paper's artefacts and the ablations::

    python -m repro table1                 # quick grid
    python -m repro table2 --paper-scale   # the full Table 2 grid
    python -m repro figure5 --app interactive
    python -m repro figure6 --json out.json
    python -m repro ablations --csv out.csv
    python -m repro demo                   # one narrated failover run

Execution: ``--jobs N`` fans cells out over N worker processes (results
are bit-identical to ``--jobs 1``).  Completed cells are cached in the
result store (``results/results.jsonl`` by default; ``--store PATH`` to
relocate, ``--no-store`` to disable) and skipped on re-runs.

Exports: ``--json PATH`` / ``--csv PATH`` write the raw records.

Profiling: ``--profile`` samples wall time per simulator layer and writes
``profile_<experiment>.json`` next to the result store (docs/HARNESS.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.harness.executor import ExperimentResult, run_experiment
from repro.harness.experiments import PAPER_SCALE, QUICK_SCALE
from repro.harness.experiments.churn import DEFAULT_LADDER, SMOKE_LADDER
from repro.harness.experiments.cluster import DEFAULT_SCENARIOS
from repro.harness.experiments.figure5 import format_figure5
from repro.harness.results import ResultStore, default_store_path
from repro.harness.runner import FLIGHT_DUMP_ENV
from repro.harness.tables import format_table
from repro.metrics.report import records_to_csv, records_to_json


def _store_from_args(args: argparse.Namespace) -> Optional[ResultStore]:
    if getattr(args, "no_store", False):
        return None
    path = getattr(args, "store", None) or default_store_path()
    return ResultStore(path)


def _profile_path(name: str, args: argparse.Namespace, store: Optional[ResultStore]):
    """Report destination for ``--profile``: next to the result store."""
    if not getattr(args, "profile", False):
        return None
    base = store.path.parent if store is not None else default_store_path().parent
    return base / f"profile_{name}.json"


def _run(name: str, args: argparse.Namespace, **options: Any) -> ExperimentResult:
    if getattr(args, "flight_dump", None):
        # The env var (not a parameter) so --jobs N worker processes
        # inherit it; every red cell then leaves a dump in the directory.
        os.environ[FLIGHT_DUMP_ENV] = args.flight_dump
    store = _store_from_args(args)
    profile_path = _profile_path(name, args, store)
    result = run_experiment(
        name,
        jobs=getattr(args, "jobs", 1),
        store=store,
        profile_path=profile_path,
        **options,
    )
    print(result.grid.summary(), file=sys.stderr)
    if profile_path is not None:
        report = json.loads(profile_path.read_text())
        layers = ", ".join(
            f"{layer} {info['fraction']:.0%}"
            for layer, info in report["layers"].items()
        )
        print(
            f"profile: {report['samples']} samples -> {profile_path} ({layers})",
            file=sys.stderr,
        )
    return result


def _export(records: List[Dict[str, Any]], args: argparse.Namespace) -> None:
    if getattr(args, "json", None):
        path = records_to_json(records, args.json)
        print(f"wrote {path}")
    if getattr(args, "csv", None):
        path = records_to_csv(records, args.csv)
        print(f"wrote {path}")


def _build_scorecard(
    records: List[Dict[str, Any]],
    name_of: Any,
    slo_source: Any,
    title: str,
):
    """Grade each record against the SLO spec; returns the Scorecard."""
    from repro.obs.scorecard import Scorecard, score_record
    from repro.obs.slo import evaluate_slos, load_slo_spec

    spec = load_slo_spec(slo_source)
    card = Scorecard(title=title)
    for record in records:
        report = evaluate_slos(spec, record)
        card.scores.append(score_record(name_of(record), record, report))
    return spec, card


def _publish_scorecard(card: Any, out_dir: str) -> None:
    from pathlib import Path

    from repro.obs.scorecard import write_scorecard

    md_path, json_path = write_scorecard(card, Path(out_dir))
    print(f"wrote {md_path} and {json_path}", file=sys.stderr)


def _grid_options(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "scale": PAPER_SCALE if args.paper_scale else QUICK_SCALE,
        "topology": args.topology,
        "base_seed": args.seed,
    }


def _figure5_options(args: argparse.Namespace) -> Dict[str, Any]:
    return {**_grid_options(args), "application": args.app}


def _scale_options(args: argparse.Namespace) -> Dict[str, Any]:
    if args.rungs:
        ladder = tuple(int(rung) for rung in args.rungs.split(","))
    else:
        ladder = SMOKE_LADDER if args.quick else DEFAULT_LADDER
    return {"ladder": ladder, "topology": args.topology, "base_seed": args.seed}


def _cluster_options(args: argparse.Namespace) -> Dict[str, Any]:
    return {"scenarios": args.scenario or list(DEFAULT_SCENARIOS)}


class _Verb(NamedTuple):
    """One experiment verb: the registered specs it runs, in order, and
    the ``run_experiment`` options it takes from the command line."""

    help: str
    specs: Tuple[str, ...]
    options: Callable[[argparse.Namespace], Dict[str, Any]] = lambda args: {}


EXPERIMENT_VERBS: Dict[str, _Verb] = {
    "table1": _Verb(
        "Table 1: failure-free ST-TCP vs standard TCP", ("table1",), _grid_options
    ),
    "table2": _Verb(
        "Table 2: failover time vs heartbeat interval", ("table2",), _grid_options
    ),
    "figure5": _Verb(
        "Figure 5: echo/interactive vs HB interval", ("figure5",), _figure5_options
    ),
    "figure6": _Verb(
        "Figure 6: bulk transfers with/without failover", ("figure6",), _grid_options
    ),
    # Each ablation's sweep is fixed by its spec: no scale, topology or seed.
    "ablations": _Verb(
        "Ablations A1–A5",
        (
            "ablation_sync",
            "ablation_ftcp",
            "ablation_logger",
            "ablation_overhead",
            "ablation_detection",
        ),
    ),
    "scale": _Verb(
        "connection-churn ladder with failover at each rung (docs/SCALE.md)",
        ("scale",),
        _scale_options,
    ),
    "cluster": _Verb(
        "N-pair fabric with backup pool, election + STONITH (docs/CLUSTER.md)",
        ("cluster",),
        _cluster_options,
    ),
}


def _run_verb(args: argparse.Namespace) -> List[Dict[str, Any]]:
    """Run, print and export every spec of an experiment verb; its records."""
    verb = EXPERIMENT_VERBS[args.command]
    options = verb.options(args)
    records: List[Dict[str, Any]] = []
    for name in verb.specs:
        result = _run(name, args, **options)
        if name == "figure5":  # the title names the application; no row does
            print(format_figure5(result.rows, args.app))
        else:
            print(result.spec.format(result.rows))
        if len(verb.specs) > 1:  # ablations: exported records say which one
            print()
            for record in result.rows:
                record["ablation"] = result.spec.title.split(":")[0]
        records.extend(result.rows)
    _export(records, args)
    return records


def _cmd_experiment(args: argparse.Namespace) -> int:
    _run_verb(args)
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    """Connection-churn ladder: rungs of simultaneous ST-TCP connections
    with a mid-ladder primary crash (docs/SCALE.md)."""
    records = _run_verb(args)
    if args.scorecard:
        _spec, card = _build_scorecard(
            records,
            name_of=lambda r: f"scale-{r['connections']}",
            slo_source=args.slo or "configs/slo/scale.json",
            title="repro scale scorecard",
        )
        _publish_scorecard(card, args.scorecard)
    clean = all(
        record["verified"]
        and not record["degraded"]
        and record["leftover_shadows"] == 0
        for record in records
    )
    return 0 if clean else 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    """N primary/backup pairs on one fabric: pooled backups, fenced
    takeover, replacement-backup election (docs/CLUSTER.md)."""
    records = _run_verb(args)
    if args.timelines:
        for record in records:
            print(f"\n{record['scenario']}: per-pair timelines")
            for pair, timeline in sorted(record["timelines"].items()):
                print(f"  {pair}: {timeline}")
    if args.scorecard:
        _spec, card = _build_scorecard(
            records,
            name_of=lambda r: r["scenario"],
            slo_source=args.slo or "configs/slo/cluster.json",
            title="repro cluster scorecard",
        )
        _publish_scorecard(card, args.scorecard)
    return 0 if all(record["ok"] for record in records) else 1


def _cmd_health(args: argparse.Namespace) -> int:
    """Run cluster scenarios, grade them against an SLO spec, and publish
    the Markdown + JSON scorecard (docs/OBSERVABILITY.md)."""
    from repro.harness.results import cell_key
    from repro.harness.spec import GridCell

    records = _run("cluster", args, **_cluster_options(args)).rows
    slo_spec, card = _build_scorecard(
        records,
        name_of=lambda r: r["scenario"],
        slo_source=args.slo,
        title=f"repro health scorecard — SLO spec '{args.slo}'",
    )
    print(card.render_markdown())
    _publish_scorecard(card, args.out)
    store = _store_from_args(args)
    if store is not None:
        # Content-hash each scenario's score into the store: the params
        # carry the full SLO spec, so editing an objective (or the code
        # version changing) re-keys the entry instead of serving a stale
        # verdict.
        slo_params = [
            {
                "name": s.name,
                "sli": s.sli,
                "objective": s.objective,
                "window": s.window,
            }
            for s in slo_spec.slos
        ]
        for score in card.scores:
            cell = GridCell(
                experiment="health",
                cell_id=f"health[{score.name}]",
                params={"slo_spec": slo_spec.name, "slos": slo_params,
                        "scenario": score.name},
                seed=0,
            )
            key = cell_key(cell)
            if store.get(key) is None:
                store.append(cell, score.to_record(), key=key)
    return 0 if card.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """A traced failover run: tcpdump at the client's NIC (``wire``) or
    a Chrome trace-event export of the full record stream (``export``)."""
    from repro.apps.workload import echo_workload
    from repro.harness.calibrate import FAST_LAN
    from repro.harness.runner import run_workload
    from repro.harness.scenario import Scenario
    from repro.net.frame import ETHERTYPE_IPV4
    from repro.net.tcpdump import PacketDump
    from repro.sttcp.config import STTCPConfig

    scenario = Scenario(
        profile=FAST_LAN, sttcp=STTCPConfig(hb_interval=0.05), seed=args.seed
    )
    dump = recording = None
    if args.action == "wire":
        dump = PacketDump(
            scenario.sim,
            predicate=lambda frame: frame.ethertype == ETHERTYPE_IPV4,
        )
        dump.attach_nic(scenario.client.nics[0], label="client")
    else:
        from repro.sim.trace import RecordingSink

        recording = RecordingSink()
        scenario.sim.trace.add_sink(recording)
    run = run_workload(
        echo_workload(args.exchanges),
        scenario=scenario,
        crash_at=0.102,
        deadline=120.0,
    )
    if dump is not None:
        print(
            f"\n{dump.lines_emitted} frames at the client; "
            f"run verified={run.result.verified}; the takeover at "
            f"t≈{scenario.pair.backup_engine.takeover_time:.3f}s is invisible above."
        )
    else:
        from repro.obs.export import write_chrome_trace

        with open(args.out, "w") as handle:
            count = write_chrome_trace(recording.records, handle)
        print(
            f"wrote {count} trace events to {args.out} "
            f"(load in chrome://tracing or ui.perfetto.dev)"
        )
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    """Phase decomposition of one failover (detection → takeover →
    first-retransmission-accepted → resume), Figure 5-style run — or,
    with --scenario, per-service timelines plus the cluster-level
    fence → election → resync phases of one scenario."""
    if getattr(args, "scenario", None):
        return _cmd_timeline_cluster(args)
    from repro.apps.workload import echo_workload
    from repro.harness.runner import CLIENT_START, DEFAULT_CRASH_FRACTION, run_workload
    from repro.sttcp.config import STTCPConfig

    workload = echo_workload(args.exchanges)
    sttcp = STTCPConfig(hb_interval=args.hb)
    baseline = run_workload(workload, sttcp=sttcp, seed=args.seed).require_clean()
    crash_time = CLIENT_START + DEFAULT_CRASH_FRACTION * baseline.total_time
    failed = run_workload(
        workload,
        sttcp=sttcp,
        crash_at=crash_time,
        seed=args.seed,
        deadline=3600.0 + sttcp.detection_timeout() * 4,
    ).require_clean()
    if failed.timeline is None:
        print("no failover observed (takeover or client-progress markers missing)")
        return 1
    print(failed.timeline.render())
    print(
        f"measured client-visible outage (RunResult.max_gap): "
        f"{failed.result.max_gap * 1e3:.1f} ms"
    )
    return 0


def _cmd_timeline_cluster(args: argparse.Namespace) -> int:
    """Per-service timelines + cluster phases for one scenario run."""
    from repro.cluster.run import ClusterRun
    from repro.harness.experiments.cluster import resolve_scenario

    spec = resolve_scenario(args.scenario)
    run = ClusterRun(spec)
    record = run.execute()
    print(
        f"cluster scenario '{record['scenario']}' "
        f"({spec.primaries} primaries / {spec.backups} pool hosts): "
        f"crashed {record['crashed_service']} at t={record['crash_at']:g}"
    )
    for service in run.fabric.services:
        print(f"\n{service.name}:")
        timeline = (
            run.pair_timeline(service.name)
            if service.name == record["crashed_service"]
            else None
        )
        if timeline is not None:
            for line in timeline.render().splitlines():
                print(f"  {line}")
        else:
            summary = record["timelines"].get(service.name) or {}
            gap = summary.get("max_gap")
            gap_text = f"{gap * 1e3:.1f} ms" if gap is not None else "unknown"
            print(f"  no takeover on this pair; max progress gap {gap_text}")
    phases = run.collector.reconstruct_cluster()
    if phases is not None:
        print()
        print(phases.render())
    return 0 if record["ok"] else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.apps.workload import bulk_workload
    from repro.harness.calibrate import PAPER_TESTBED
    from repro.harness.runner import measure_failover_time
    from repro.sttcp.config import STTCPConfig
    from repro.util.units import MB

    sample = measure_failover_time(
        bulk_workload(1 * MB),
        STTCPConfig(hb_interval=args.hb),
        profile=PAPER_TESTBED,
        seed=args.seed,
    )
    rows = [[key, value] for key, value in sample.items()]
    print(format_table(["metric", "value"], rows, title="one failover run (bulk 1 MB)"))
    return 0


def _cmd_drill(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.drill import format_report, results_to_json, run_drill_path
    from repro.drill.report import format_failures

    results = run_drill_path(args.path, flight_dump=args.flight_dump)
    print(format_report(results))
    failures = format_failures(results)
    if failures:
        print()
        print(failures)
    if args.json:
        with open(args.json, "w") as handle:
            json_module.dump(results_to_json(results), handle, indent=2)
        print(f"\nJSON report written to {args.json}")
    return 0 if all(result.passed for result in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ST-TCP reproduction: regenerate the paper's evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--paper-scale", action="store_true", help="the full paper grid")
        p.add_argument(
            "--quick",
            action="store_true",
            help="the quick grid (the default); for scale, the smoke ladder",
        )
        p.add_argument("--topology", choices=["hub", "switched"], default="hub")
        p.add_argument("--seed", type=int, default=100)
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="run cells on N worker processes (results identical to N=1)",
        )
        p.add_argument(
            "--store",
            metavar="PATH",
            help="result store path (default results/results.jsonl, or $REPRO_STORE)",
        )
        p.add_argument(
            "--no-store",
            action="store_true",
            help="do not read or write the result store",
        )
        p.add_argument(
            "--profile",
            action="store_true",
            help="sample wall time per layer; JSON report lands next to the "
            "result store (sampling sees this process only: not with --jobs N > 1)",
        )
        p.add_argument("--json", metavar="PATH", help="export records as JSON")
        p.add_argument("--csv", metavar="PATH", help="export records as CSV")
        p.add_argument(
            "--flight-dump",
            metavar="DIR",
            help="dump the flight recorder (last trace records) of any red "
            "run into DIR (CI uploads it as an artifact)",
        )

    verbs = {}
    for name, verb in EXPERIMENT_VERBS.items():
        verbs[name] = sub.add_parser(name, help=verb.help)
        common(verbs[name])
        verbs[name].set_defaults(fn=_cmd_experiment)
    verbs["figure5"].add_argument(
        "--app", choices=["echo", "interactive"], default="echo"
    )

    scale = verbs["scale"]
    scale.add_argument(
        "--rungs",
        metavar="N,N,...",
        help="comma-separated ladder of simultaneous connections "
        f"(default {','.join(map(str, DEFAULT_LADDER))}; "
        f"--quick uses {','.join(map(str, SMOKE_LADDER))})",
    )
    scale.add_argument(
        "--scorecard",
        metavar="DIR",
        help="grade the rungs against an SLO spec and write the "
        "Markdown+JSON scorecard into DIR",
    )
    scale.add_argument(
        "--slo",
        metavar="PATH",
        default=None,
        help="SLO spec for --scorecard (default configs/slo/scale.json)",
    )
    scale.set_defaults(fn=_cmd_scale)

    cluster = verbs["cluster"]
    cluster.add_argument(
        "--scenario",
        action="append",
        metavar="NAME_OR_PATH",
        help="scenario to run: a shipped name "
        f"({', '.join(DEFAULT_SCENARIOS)}) or a JSON file path; "
        "repeatable (default: all shipped scenarios)",
    )
    cluster.add_argument(
        "--timelines",
        action="store_true",
        help="print the per-pair failover timelines after the table",
    )
    cluster.add_argument(
        "--scorecard",
        metavar="DIR",
        help="grade the scenarios against an SLO spec and write the "
        "Markdown+JSON scorecard into DIR",
    )
    cluster.add_argument(
        "--slo",
        metavar="PATH",
        default=None,
        help="SLO spec for --scorecard (default configs/slo/cluster.json)",
    )
    cluster.set_defaults(fn=_cmd_cluster)

    health = sub.add_parser(
        "health",
        help="scenario scorecard: SLO verdicts, grades, phase breakdowns "
        "(docs/OBSERVABILITY.md)",
    )
    common(health)
    health.add_argument(
        "--scenario",
        action="append",
        metavar="NAME_OR_PATH",
        help="scenario to grade: a shipped name "
        f"({', '.join(DEFAULT_SCENARIOS)}) or a JSON file path; "
        "repeatable (default: all shipped scenarios)",
    )
    health.add_argument(
        "--slo",
        metavar="PATH",
        default="configs/slo/cluster.json",
        help="SLO spec to evaluate (default configs/slo/cluster.json)",
    )
    health.add_argument(
        "--out",
        metavar="DIR",
        default="health",
        help="directory for scorecard.md / scorecard.json (default health/)",
    )
    health.set_defaults(fn=_cmd_health)

    trace = sub.add_parser(
        "trace", help="a traced failover: client tcpdump or Chrome trace export"
    )
    trace.add_argument(
        "action",
        nargs="?",
        default="wire",
        choices=["wire", "export"],
        help="wire: tcpdump at the client (default); export: Chrome trace JSON",
    )
    # 30 exchanges outlive the scripted crash on FAST_LAN, so the default
    # run always contains the takeover the command exists to show.
    trace.add_argument("--exchanges", type=int, default=30)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument(
        "--out", metavar="PATH", default="trace.json", help="export destination"
    )
    trace.set_defaults(fn=_cmd_trace)

    timeline = sub.add_parser(
        "timeline", help="phase decomposition of one failover (paper §6.2)"
    )
    timeline.add_argument("--exchanges", type=int, default=40)
    timeline.add_argument("--hb", type=float, default=0.05, help="heartbeat interval (s)")
    timeline.add_argument("--seed", type=int, default=7)
    timeline.add_argument(
        "--scenario",
        metavar="NAME_OR_PATH",
        help="decompose a cluster scenario instead: per-service timelines "
        "plus the fence → election → resync phases",
    )
    timeline.set_defaults(fn=_cmd_timeline)

    demo = sub.add_parser("demo", help="one measured failover, as a table")
    demo.add_argument("--hb", type=float, default=0.05, help="heartbeat interval (s)")
    demo.add_argument("--seed", type=int, default=1)
    demo.set_defaults(fn=_cmd_demo)

    drill = sub.add_parser(
        "drill", help="run scripted conformance drills (a script or a directory)"
    )
    drill.add_argument("path", help="a drill script, or a directory of *.py scripts")
    drill.add_argument("--json", metavar="PATH", help="write the result table as JSON")
    drill.add_argument(
        "--flight-dump",
        metavar="DIR",
        help="write each failing drill's flight-recorder dump into DIR",
    )
    drill.set_defaults(fn=_cmd_drill)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "profile", False) and args.jobs > 1:
        parser.error("--profile samples this process only; use it with --jobs 1")
    start = time.time()
    status = args.fn(args)
    print(f"({time.time() - start:.1f} s wall clock)", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
