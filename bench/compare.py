#!/usr/bin/env python3
"""Compare two result documents of bench/run.py: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric) with both values (the best
sample of a host time, see run.sampled), both sides' sample medians
and interquartile ranges as a share of the median, the bound fixed in
BENCHMARK.json and a verdict for B against A:

``unresolved``  either side's IQR is wider than the bound, so a
                difference that size could not be told from noise;
``worse``       B's value is worse than A's by more than the bound;
``better``      B's value is better than A's by more than the bound;
``same``        anything in between.

Counts and simulated quantities repeat exactly, so any difference in
one - or in a ``sim_digest`` - is flagged: simulated behaviour or the
amount of work changed.  Exit status is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def relative_iqr(cell: Dict[str, Any]) -> float:
    return (cell["q3"] - cell["q1"]) / abs(cell["median"])


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    if relative_iqr(a) > bound or relative_iqr(b) > bound:
        return "unresolved"
    # Signed so that positive means B is worse than A.
    worsening = (b["value"] - a["value"]) / abs(a["value"])
    if better == "higher":
        worsening = -worsening
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "same"


def exact_mismatches(name: str, a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Every exactly repeatable quantity of one workload that differs."""
    found = [
        f"{name}: {field} {a[field]!r} -> {b[field]!r}"
        for field in ("sim_digest", "attempted", "failed", "size")
        if a[field] != b[field]
    ]
    layers_a, layers_b = a.get("per_layer", {}), b.get("per_layer", {})
    for metric in layers_a.keys() & layers_b.keys():
        cell_a, cell_b = layers_a[metric], layers_b[metric]
        if cell_a.get("exact") and cell_a["value"] != cell_b["value"]:
            found.append(f"{name}: {metric} {cell_a['value']!r} -> {cell_b['value']!r}")
    return found


def main(argv: Optional[Sequence[str]] = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(path).read_text()) for path in paths)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())

    print(
        f"{'workload':<18}{'metric':<16}{'A value':>10}{'A median':>10}{'A iqr':>7}"
        f"{'B value':>10}{'B median':>10}{'B iqr':>7}{'B/A':>7}{'bound':>6}  verdict"
    )
    verdicts: List[str] = []
    mismatches: List[str] = []
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            mismatches.append(f"{name}: missing from {paths[1]}")
            continue
        mismatches += exact_mismatches(name, a, b)
        for metric in contract["end_to_end"]:
            cell_a, cell_b = (side["end_to_end"][metric["name"]] for side in (a, b))
            row = verdict(cell_a, cell_b, metric["better"], metric["bound"])
            verdicts.append(row)
            print(
                f"{name:<18}{metric['name']:<16}"
                f"{cell_a['value']:>10.5g}{cell_a['median']:>10.5g}{relative_iqr(cell_a):>7.1%}"
                f"{cell_b['value']:>10.5g}{cell_b['median']:>10.5g}{relative_iqr(cell_b):>7.1%}"
                f"{cell_b['value'] / cell_a['value']:>7.3f}{metric['bound']:>6.0%}  {row}"
            )
    print()
    if mismatches:
        print("EXACT QUANTITIES DIFFER - simulated behaviour or the work done changed:")
        for line in sorted(mismatches):
            print(f"  !! {line}")
    else:
        print("every sim_digest and every exact count is identical")
    print(", ".join(f"{verdicts.count(v)} {v}" for v in ("better", "same", "worse", "unresolved")))
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
