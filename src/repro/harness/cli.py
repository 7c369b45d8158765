"""Command-line interface: ``python -m repro <experiment> [options]``.

Subcommands regenerate the paper's artefacts and the ablations::

    python -m repro table1                 # quick grid
    python -m repro table2 --paper-scale   # the full Table 2 grid
    python -m repro figure5 --app interactive
    python -m repro figure6 --json out.json
    python -m repro ablations --csv out.csv
    python -m repro explain                # one failover, explained

Execution: ``--jobs N`` fans cells out over N worker processes (results
are bit-identical to ``--jobs 1``).  Completed cells are cached in the
result store (``results/results.jsonl`` by default; ``--store PATH`` to
relocate, ``--no-store`` to disable) and skipped on re-runs.

Exports: ``--json PATH`` / ``--csv PATH`` write the raw records.

Profiling: ``repro explain`` ends with the explained run's calls per
segment by layer; wall time per layer is the benchmark's (``bench/``).
"""

from __future__ import annotations

import argparse
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
from repro.metrics.report import records_to_csv, records_to_json


def _store_from_args(args: argparse.Namespace) -> Optional[ResultStore]:
    if getattr(args, "no_store", False):
        return None
    path = getattr(args, "store", None) or default_store_path()
    return ResultStore(path)


def _run(name: str, args: argparse.Namespace, **options: Any) -> ExperimentResult:
    if getattr(args, "flight_dump", None):
        # The env var (not a parameter) so --jobs N worker processes
        # inherit it; every red cell then leaves a dump in the directory.
        os.environ[FLIGHT_DUMP_ENV] = args.flight_dump
    result = run_experiment(
        name,
        jobs=getattr(args, "jobs", 1),
        store=_store_from_args(args),
        **options,
    )
    print(result.grid.summary(), file=sys.stderr)
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


def _cmd_explain(args: argparse.Namespace) -> int:
    """Run one failover and print its report (``repro.harness.explain``):
    a Figure 5-style echo run, or with ``--scenario`` a cluster scenario."""
    from repro.harness.explain import explain
    from repro.metrics.layers import profile_layers
    from repro.net.frame import ETHERTYPE_IPV4
    from repro.net.tcpdump import PacketDump
    from repro.sim.trace import RecordingSink

    baseline = None
    if args.scenario:
        from repro.cluster.run import ClusterRun
        from repro.harness.experiments.cluster import resolve_scenario

        run: Any = ClusterRun(resolve_scenario(args.scenario))
        sim = run.sim
        client = run.fabric.services[run.spec.crash_primary].client
    else:
        from repro.apps.workload import echo_workload
        from repro.harness.runner import CLIENT_START, DEFAULT_CRASH_FRACTION, run_workload
        from repro.harness.scenario import Scenario
        from repro.sttcp.config import STTCPConfig

        workload = echo_workload(args.exchanges)
        sttcp = STTCPConfig(hb_interval=args.hb)
        baseline = run_workload(workload, sttcp=sttcp, seed=args.seed).require_clean()
        scenario = Scenario(sttcp=sttcp, seed=args.seed)
        sim, client = scenario.sim, scenario.client
    if args.wire:
        dump = PacketDump(sim, predicate=lambda frame: frame.ethertype == ETHERTYPE_IPV4)
        dump.attach_nic(client.nics[0], label="client")
    recording = RecordingSink()
    if args.chrome:
        sim.trace.add_sink(recording)
    # One cProfile pass around the explained run: the work-by-layer section.
    if baseline is None:
        _, layers = profile_layers(run.execute)
    else:
        run, layers = profile_layers(
            lambda: run_workload(
                workload,
                scenario=scenario,
                crash_at=CLIENT_START + DEFAULT_CRASH_FRACTION * baseline.total_time,
                seed=args.seed,
                deadline=3600.0 + sttcp.detection_timeout() * 4,
            )
        )
    if args.chrome:
        from repro.obs.export import write_chrome_trace

        with open(args.chrome, "w") as handle:
            count = write_chrome_trace(recording.records, handle)
        print(
            f"wrote {count} trace events to {args.chrome} "
            f"(load in chrome://tracing or ui.perfetto.dev)",
            file=sys.stderr,
        )
    if args.wire:
        print()
    report = explain(run, baseline, layers)
    print(report)
    return 0 if report.splitlines()[-1].startswith("VERDICT: PASS") else 1


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

    explain = sub.add_parser(
        "explain",
        help="one failover, explained: phases, anomalies, work, verdict "
        "(docs/OBSERVABILITY.md)",
    )
    explain.add_argument("--exchanges", type=int, default=40)
    explain.add_argument("--hb", type=float, default=0.05, help="heartbeat interval (s)")
    explain.add_argument("--seed", type=int, default=7)
    explain.add_argument(
        "--scenario",
        metavar="NAME_OR_PATH",
        help="explain a cluster scenario instead (a shipped name or a JSON "
        "file): every pair, the fence → election phases, the causal "
        "chain, each election's unprotected connections and the invariants",
    )
    explain.add_argument(
        "--wire", action="store_true", help="print the client's tcpdump first"
    )
    explain.add_argument(
        "--chrome",
        metavar="PATH",
        help="also write the run's full record stream as a Chrome trace",
    )
    explain.set_defaults(fn=_cmd_explain)

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
    start = time.time()
    status = args.fn(args)
    print(f"({time.time() - start:.1f} s wall clock)", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
