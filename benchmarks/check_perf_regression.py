#!/usr/bin/env python
"""Fail when sim-kernel benchmark throughput regresses past tolerance.

Compares the ``events_per_sec`` figures a pytest-benchmark run attached to
``extra_info`` (``BENCH_simcore.json``) against the committed baseline in
``benchmarks/BENCH_baseline.json``::

    PYTHONPATH=src python -m pytest benchmarks/bench_simcore.py \
        --benchmark-json=BENCH_simcore.json
    python benchmarks/check_perf_regression.py BENCH_simcore.json

Exit status is non-zero if any benchmark present in both files dropped by
more than the tolerance (default 20%; override with ``--tolerance`` or the
``BENCH_TOLERANCE`` env var — useful on slow shared runners, where absolute
numbers are noisy).  Benchmarks missing from the baseline only warn, so
adding a benchmark does not break CI; refresh the baseline afterwards with
``--update`` (on a quiet machine) and commit it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).parent / "BENCH_baseline.json"
DEFAULT_TOLERANCE = 0.20


#: Gated ``extra_info`` metrics.  ``events_per_sec`` keeps the bare
#: benchmark name (the historical key shape); further metrics get a
#: ``name[metric]`` key so one benchmark can gate several rates —
#: ``bench_scale.py`` gates simulator, segment, and connection
#: throughput and ``bench_cluster.py`` adds completed failover pairs
#: per second.
METRICS = (
    "events_per_sec",
    "segments_per_sec",
    "connections_per_sec",
    "pairs_per_sec",
)


def load_throughputs(bench_json: Path) -> dict:
    """``{benchmark name[metric]: rate}`` from a pytest-benchmark JSON."""
    data = json.loads(bench_json.read_text())
    throughputs = {}
    for bench in data.get("benchmarks", []):
        extra = bench.get("extra_info", {})
        for metric in METRICS:
            value = extra.get(metric)
            if value is not None:
                key = (
                    bench["name"]
                    if metric == "events_per_sec"
                    else f"{bench['name']}[{metric}]"
                )
                throughputs[key] = float(value)
    return throughputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json", type=Path, help="pytest-benchmark JSON output")
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE, help="committed baseline"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_TOLERANCE", DEFAULT_TOLERANCE)),
        help="allowed fractional drop (default 0.20, env BENCH_TOLERANCE)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from this run instead of checking",
    )
    args = parser.parse_args(argv)

    current = load_throughputs(args.bench_json)
    if not current:
        print(f"error: no events_per_sec extra_info in {args.bench_json}")
        return 2

    if args.update:
        baseline = {
            "note": "events/sec floor for check_perf_regression.py; "
            "refresh with --update on a quiet machine",
            "benchmarks": {name: round(value) for name, value in sorted(current.items())},
        }
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"error: baseline {args.baseline} not found (run with --update first)")
        return 2
    reference = json.loads(args.baseline.read_text())["benchmarks"]

    failures = []
    for name, value in sorted(current.items()):
        base = reference.get(name)
        if base is None:
            print(f"warn: {name}: no baseline entry ({value:,.0f} events/s now)")
            continue
        change = value / base - 1.0
        status = "ok"
        if change < -args.tolerance:
            status = "REGRESSION"
            failures.append(name)
        print(
            f"{status:>10}  {name}: {value:,.0f} events/s "
            f"vs baseline {base:,.0f} ({change:+.1%})"
        )

    if failures:
        print(
            f"\n{len(failures)} benchmark(s) regressed more than "
            f"{args.tolerance:.0%}: {', '.join(failures)}"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
