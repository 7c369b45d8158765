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

Verdict: ``cluster`` and ``scale`` grade every record A/B/C/F
(:func:`repro.obs.slo.grade_record`), print one line under the table per
missed SLO, violated invariant or failed client, and exit 1 unless every
record grades A or B.

Profiling: ``repro explain`` ends with the explained run's calls per
segment by layer; wall time per layer is the benchmark's (``bench/``).

Errors: a :class:`~repro.errors.ReproError` (a malformed scenario, say)
prints as one ``error: …`` line on stderr, and the exit status is 2.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ReproError
from repro.harness.executor import ExperimentResult, run_experiment
from repro.harness.experiments import PAPER_SCALE, QUICK_SCALE
from repro.harness.experiments.churn import DEFAULT_LADDER, SMOKE_LADDER
from repro.harness.experiments.cluster import DEFAULT_SCENARIOS
from repro.harness.experiments.figure5 import format_figure5
from repro.harness.results import ResultStore, default_store_path
from repro.harness.runner import FLIGHT_DUMP_ENV
from repro.metrics.report import records_to_csv, records_to_json
from repro.obs.slo import CLUSTER_SLOS, SCALE_SLOS, Objectives, grade_record


def _run(name: str, args: argparse.Namespace, **options: Any) -> ExperimentResult:
    if getattr(args, "flight_dump", None):
        # The env var (not a parameter) so --jobs N worker processes
        # inherit it; every red cell then leaves a dump in the directory.
        os.environ[FLIGHT_DUMP_ENV] = args.flight_dump
    result = run_experiment(
        name,
        jobs=args.jobs,
        store=None if args.no_store else ResultStore(args.store or default_store_path()),
        **options,
    )
    print(result.grid.summary(), file=sys.stderr)
    return result


def _export(records: List[Dict[str, Any]], args: argparse.Namespace) -> None:
    if args.json:
        path = records_to_json(records, args.json)
        print(f"wrote {path}")
    if args.csv:
        path = records_to_csv(records, args.csv)
        print(f"wrote {path}")


# Each verb takes the grid flags its options function reads, and no other.
def _seed_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", choices=["hub", "switched"], default="hub")
    parser.add_argument("--seed", type=int, default=100)


def _grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--paper-scale", action="store_true", help="the full paper grid")
    parser.add_argument(
        "--quick",
        dest="paper_scale",
        action="store_false",
        default=False,
        help="the quick grid (the default)",
    )
    _seed_flags(parser)


def _grid_options(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "scale": PAPER_SCALE if args.paper_scale else QUICK_SCALE,
        "topology": args.topology,
        "base_seed": args.seed,
    }


def _figure5_flags(parser: argparse.ArgumentParser) -> None:
    _grid_flags(parser)
    parser.add_argument("--app", choices=["echo", "interactive"], default="echo")


def _figure5_options(args: argparse.Namespace) -> Dict[str, Any]:
    return {**_grid_options(args), "application": args.app}


def _scale_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quick", action="store_true", help="the smoke ladder")
    parser.add_argument(
        "--rungs",
        metavar="N,N,...",
        help="comma-separated ladder of simultaneous connections "
        f"(default {','.join(map(str, DEFAULT_LADDER))}; "
        f"--quick uses {','.join(map(str, SMOKE_LADDER))})",
    )
    _seed_flags(parser)


def _scale_options(args: argparse.Namespace) -> Dict[str, Any]:
    if args.rungs:
        ladder = tuple(int(rung) for rung in args.rungs.split(","))
    else:
        ladder = SMOKE_LADDER if args.quick else DEFAULT_LADDER
    return {"ladder": ladder, "topology": args.topology, "base_seed": args.seed}


def _cluster_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME_OR_PATH",
        help="scenario to run: a shipped name "
        f"({', '.join(DEFAULT_SCENARIOS)}) or a JSON file path; "
        "repeatable (default: all shipped scenarios)",
    )


def _cluster_options(args: argparse.Namespace) -> Dict[str, Any]:
    return {"scenarios": args.scenario or list(DEFAULT_SCENARIOS)}


class _Verb(NamedTuple):
    """One experiment verb: the registered specs it runs, in order, the
    flags it adds, the ``run_experiment`` options it reads from them, the
    SLOs its records are graded against (exit 1 below grade B), and
    whether its cells run through ``run_workload``, the one run that
    honours ``--flight-dump``."""

    help: str
    specs: Tuple[str, ...]
    flags: Callable[[argparse.ArgumentParser], None] = lambda parser: None
    options: Callable[[argparse.Namespace], Dict[str, Any]] = lambda args: {}
    slos: Optional[Objectives] = None
    flight_dump: bool = True


EXPERIMENT_VERBS: Dict[str, _Verb] = {
    "table1": _Verb(
        "Table 1: failure-free ST-TCP vs standard TCP",
        ("table1",),
        _grid_flags,
        _grid_options,
    ),
    "table2": _Verb(
        "Table 2: failover time vs heartbeat interval",
        ("table2",),
        _grid_flags,
        _grid_options,
    ),
    "figure5": _Verb(
        "Figure 5: echo/interactive vs HB interval",
        ("figure5",),
        _figure5_flags,
        _figure5_options,
    ),
    "figure6": _Verb(
        "Figure 6: bulk transfers with/without failover",
        ("figure6",),
        _grid_flags,
        _grid_options,
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
        _scale_flags,
        _scale_options,
        SCALE_SLOS,
        flight_dump=False,
    ),
    # Each scenario names its own seed and fabric.
    "cluster": _Verb(
        "N-pair fabric with backup pool, election + STONITH (docs/CLUSTER.md)",
        ("cluster",),
        _cluster_flags,
        _cluster_options,
        CLUSTER_SLOS,
        flight_dump=False,
    ),
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Run, print and export every spec of an experiment verb; exit 1 if
    a graded verb has a record below grade B (the table names why)."""
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
    if verb.slos is None:
        return 0
    return 0 if all(grade_record(record, verb.slos).ok for record in records) else 1


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
                faults=[
                    (CLIENT_START + DEFAULT_CRASH_FRACTION * baseline.total_time, "primary_crash")
                ],
                seed=args.seed,
                deadline=3600.0 + sttcp.detection_timeout() * 4,
            )
        )
    if args.chrome:
        from repro.obs.export import write_chrome_trace

        if args.scenario:
            phases = run.phases()
        else:
            phases = run.timeline.phases if run.timeline is not None else []
        with open(args.chrome, "w") as handle:
            count = write_chrome_trace(recording.records, handle, phases)
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

    for name, verb in EXPERIMENT_VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        verb.flags(p)
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
        if verb.flight_dump:
            p.add_argument(
                "--flight-dump",
                metavar="DIR",
                help="dump the flight recorder (last trace records) of any red "
                "run into DIR (CI uploads it as an artifact)",
            )
        p.set_defaults(fn=_cmd_experiment)

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
        "file): every pair, the fence → election phases, each "
        "election's unprotected connections and the invariants",
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
    try:
        status = args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"({time.time() - start:.1f} s wall clock)", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
