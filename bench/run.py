#!/usr/bin/env python3
"""Run the reference workloads and print every metric by name and unit.

Two ways in, one protocol underneath:

``python3 bench/run.py [--seed S] [--quick] [--out FILE]``
    the ledger: all four workloads, samples interleaved round-robin
    (w1 w2 w3 w4, w1 w2 ...), then one traced sample per workload.

``python3 bench/run.py --workload W --seed N --seconds T --trace 0|1``
    one workload for about T seconds; the last line of stdout is the
    result object BENCHMARK.json's contract asks for (end-to-end metrics
    with ``--trace 0``, per-layer metrics with ``--trace 1``).

Every sample is a fresh ``bench/worker.py`` process, run strictly one
after another, so that what one sample leaves in the allocator, the
caches or the interpreter cannot reach the next.  Exit status is
non-zero when any verification fails.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Ledger mode: interleaved rounds of untraced samples per workload.
ROUNDS = 9
QUICK_ROUNDS = 3
#: ``--quick`` runs every workload at this fraction of its size.
QUICK_SCALE = 1 / 8

#: Environment switches that select alternative code paths or write
#: files; a sample never inherits them, so every commit is measured on
#: its defaults.
SCRUBBED_ENV = (
    "REPRO_DATAPATH",
    "REPRO_SCHED_BACKEND",
    "REPRO_FLIGHT_DUMP",
    "REPRO_STORE",
    "REPRO_PAPER_SCALE",
)

#: A sample that has not finished by then is killed (seed: 3 - 10 s).
SAMPLE_TIMEOUT_S = 150

#: Sample fields that must not differ between samples of one workload:
#: the simulator is deterministic, so a difference is a bug.
EXACT_FIELDS = (
    "sim_digest", "segments", "events", "sim_time_s", "sim_failover_ms",
    "attempted", "failed", "app_bytes", "counters",
)

#: Reported for a per-layer metric that does not exist on a workload (no
#: failover in a bulk transfer) or whose source is gone (a renamed span
#: function): absent is not zero.
MISSING = -1

Sample = Dict[str, Any]
Sampler = Callable[[str, int, float, bool], Sample]


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to: ran and failed)."""


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_sample(workload: str, seed: int, scale: float, traced: bool) -> Sample:
    """One fresh worker process; returns the sample it printed."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--trace", str(int(traced)),
    ]
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: sample exceeded {SAMPLE_TIMEOUT_S} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"{workload}: worker exited {done.returncode}\n{done.stderr.strip()}"
        )
    return json.loads(lines[-1])


# ------------------------------------------------------------ statistics
def sampled(
    values: Sequence[float], best: Callable[[Sequence[float]], float] = statistics.median
) -> Dict[str, Any]:
    """Samples of one host-side metric -> its value and how they spread.

    The value is the median, with q1, q3 and n beside it.  A raw host
    time (one the host probe has not corrected) passes ``min`` instead:
    a neighbour on the host can only add time, in stretches that last
    longer than a whole run, so the floor moves least (README, "Noise").
    """
    if len(values) > 1:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": best(values), "median": statistics.median(values),
        "q1": q1, "q3": q3, "n": len(values),
    }


def exact(value: Optional[float]) -> Dict[str, Any]:
    """A count or simulated quantity: repeats exactly for one commit and seed."""
    return {"value": MISSING if value is None else value, "exact": True}


def traced_time(value: Optional[float]) -> Dict[str, Any]:
    """A host time from the single traced sample: no quartiles to give."""
    return {"value": MISSING if value is None else value}


def end_to_end_metrics(samples: List[Sample]) -> Dict[str, Dict[str, Any]]:
    """The untraced, user-visible numbers of one workload."""
    return {
        "cpu_s": sampled([s["cpu_s"] for s in samples]),
        "setup_s": sampled([s["setup_s"] for s in samples], min),
        "peak_rss_mb": sampled([s["peak_rss_mb"] for s in samples]),
        "segs_per_cpu_s": sampled([s["segments"] / s["cpu_s"] for s in samples]),
    }


def per_layer_metrics(samples: List[Sample], traced: Sample) -> Dict[str, Dict[str, Any]]:
    """The traced ledger plus exact counters and run-level host times."""
    ledger = traced["trace"]
    segments = traced["segments"]
    out: Dict[str, Dict[str, Any]] = {}
    for layer, cost in ledger["layers"].items():
        out[f"{layer}.self_s"] = traced_time(cost["self_s"])
        out[f"{layer}.calls_per_seg"] = exact(cost["calls"] / segments)
    for stem, span in ledger["spans"].items():
        out[f"{stem}.cum_s"] = traced_time(span and span["cum_s"])
        out[f"{stem}.calls"] = exact(span and span["calls"])

    scheduled = [
        out[f"span.sim.{name}.calls"]["value"] for name in ("call_later", "schedule_at")
    ]
    out["sim.events"] = exact(traced["events"])
    out["sim.events_per_seg"] = exact(traced["events"] / segments)
    out["sim.scheduled_per_seg"] = exact(
        None if MISSING in scheduled else sum(scheduled) / segments
    )
    out["tcp.segments"] = exact(segments)
    for name, value in traced["counters"].items():
        out[name] = exact(value)
    out["py_calls_m"] = exact(ledger["py_calls"] / 1e6)
    out["run.py_calls_per_seg"] = exact(ledger["py_calls"] / segments)
    out["run.traced_self_s"] = traced_time(ledger["total_self_s"])
    out["sim_time_s"] = exact(traced["sim_time_s"])
    out["sim_failover_ms"] = exact(traced["sim_failover_ms"])
    out["ops_failed_frac"] = exact(traced["failed"] / traced["attempted"])

    # Of the untraced samples (cProfile allocates, so the traced one
    # collects more often).  Nearly exact: it differed between processes
    # on one seed of one workload, so it is sampled, not asserted.
    out["run.gc_collections"] = sampled([s["gc_collections"] for s in samples])
    cpu = [s["cpu_s"] for s in samples]
    cpu_raw = [s["cpu_raw_s"] for s in samples]
    out["run.cpu_raw_s"] = sampled(cpu_raw, min)
    out["run.wall_s"] = sampled([s["wall_s"] for s in samples], min)
    out["run.host_slowdown_x"] = sampled([s["host_slowdown"] for s in samples])
    out["run.ns_per_seg"] = sampled([c * 1e9 / segments for c in cpu])
    out["run.events_per_cpu_s"] = sampled([traced["events"] / c for c in cpu])
    app_bytes = traced["app_bytes"]
    out["run.app_mb_per_cpu_s"] = (
        traced_time(None)
        if app_bytes is None
        else sampled([app_bytes / 1e6 / c for c in cpu])
    )
    # Raw against raw: the traced sample carries no probe.  Both sides
    # may sit in a slow stretch, so the ratio is indicative only.
    out["run.trace_overhead_x"] = traced_time(traced["cpu_raw_s"] / min(cpu_raw))
    return out


def workload_report(
    contract: Dict[str, Any], samples: List[Sample], traced: Optional[Sample]
) -> Dict[str, Any]:
    """Fold one workload's samples into its block of the result document."""
    every = samples + ([traced] if traced else [])
    first = every[0]
    failures = [f for s in every for f in s["failures"]]
    for field in EXACT_FIELDS:
        if any(s[field] != first[field] for s in every):
            failures.append(f"nondeterministic: {field} differs between samples")
    report: Dict[str, Any] = {
        "correct": not failures,
        "attempted": first["attempted"],
        "failed": max(s["failed"] for s in every) or int(bool(failures)),
        "failures": sorted(set(failures)),
        "sim_digest": first["sim_digest"],
        "size": first["size"],
    }
    families = {"end_to_end": end_to_end_metrics(samples)}
    if traced:
        families["per_layer"] = per_layer_metrics(samples, traced)
    for family, metrics in families.items():
        declared = {m["name"]: m["unit"] for m in contract[family]}
        if set(metrics) != set(declared):
            raise BenchError(
                f"{family} metrics differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ set(declared))}"
            )
        report[family] = {
            name: {**metrics[name], "unit": unit} for name, unit in declared.items()
        }
    report["samples"] = {
        key: [s[key] for s in samples]
        for key in ("cpu_s", "cpu_raw_s", "host_slowdown", "wall_s", "setup_s", "peak_rss_mb")
    }
    return report


# ------------------------------------------------------------- execution
def plan(
    args: argparse.Namespace, names: List[str], durations: List[float]
) -> Iterator[Tuple[str, bool]]:
    """Yield (workload, traced) for every sample to take, in order."""
    if args.workload is None:
        for _ in range(QUICK_ROUNDS if args.quick else ROUNDS):
            for name in names:
                yield name, False
        for name in names:
            yield name, True
        return
    deadline = time.monotonic() + args.seconds
    if args.trace:
        yield args.workload, True
    yield args.workload, False
    # Stop when another sample like the last would end past the deadline.
    while time.monotonic() + durations[-1] <= deadline:
        yield args.workload, False


def metadata(
    args: argparse.Namespace,
    reports: Dict[str, Dict[str, Any]],
    load_at_start: Tuple[float, ...],
) -> Dict[str, Any]:
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a bare checkout, as the driver makes
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_at_start,
        "loadavg_end": os.getloadavg(),
        "seed": args.seed,
        "scale": QUICK_SCALE if args.quick else 1.0,
        "sizes": {k: v for report in reports.values() for k, v in report["size"].items()},
        "rounds": None if args.workload else (QUICK_ROUNDS if args.quick else ROUNDS),
        "seconds": args.seconds if args.workload else None,
        "scrubbed_env": {name: name in os.environ for name in SCRUBBED_ENV},
    }


def print_report(name: str, report: Dict[str, Any]) -> None:
    verdict = "verified" if report["correct"] else "FAILED"
    print(
        f"\n== {name}: {verdict}, {report['attempted']} operations attempted, "
        f"{report['failed']} failed, sim_digest {report['sim_digest'][:16]}"
    )
    for failure in report["failures"]:
        print(f"   FAILURE: {failure}")
    for family in ("end_to_end", "per_layer"):
        if family not in report:
            continue
        print(f"  {family:<34}{'value':>12}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}  unit")
        for metric, cell in report[family].items():
            if cell["value"] == MISSING:
                print(f"  {metric:<34}{'missing':>12}")
                continue
            quartiles = (
                f"{cell['median']:>12.6g}{cell['q1']:>12.6g}{cell['q3']:>12.6g}{cell['n']:>4}"
                if "n" in cell
                else " " * 40
            )
            print(f"  {metric:<34}{cell['value']:>12.6g}{quartiles}  {cell['unit']}")


def main(argv: Optional[Sequence[str]] = None, sampler: Sampler = run_sample) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="measure only this workload")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="with --workload: how long to keep sampling")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="sizes/8 and 3 rounds: a smoke test, not a measurement")
    parser.add_argument("--out", type=Path, help="write the full result document here")
    args = parser.parse_args(argv)

    load_at_start = os.getloadavg()
    scale = QUICK_SCALE if args.quick else 1.0
    untraced: Dict[str, List[Sample]] = {}
    traced: Dict[str, Sample] = {}
    durations: List[float] = []
    try:
        for name, with_trace in plan(args, names, durations):
            started = time.monotonic()
            sample = sampler(name, args.seed, scale, with_trace)
            durations.append(time.monotonic() - started)
            if with_trace:
                traced[name] = sample
            else:
                untraced.setdefault(name, []).append(sample)
        reports = {
            name: workload_report(contract, samples, traced.get(name))
            for name, samples in untraced.items()
        }
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    for name, report in reports.items():
        print_report(name, report)
    correct = all(report["correct"] for report in reports.values())
    document = {
        "meta": metadata(args, reports, load_at_start),
        "correct": correct,
        "workloads": reports,
        "claim": None,
    }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n")

    if args.workload:
        report = reports[args.workload]
        family = "per_layer" if args.trace else "end_to_end"
        last_line: Dict[str, Any] = {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                metric: {"value": cell["value"], "unit": cell["unit"]}
                for metric, cell in report[family].items()
            },
        }
    else:
        last_line = {
            "correct": correct,
            "workloads": {
                name: {m: cell["value"] for m, cell in report["end_to_end"].items()}
                for name, report in reports.items()
            },
            "claim": None,
        }
    print()
    print(json.dumps(last_line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
