#!/usr/bin/env python
"""What CPython's cyclic collector costs one rung of ``repro scale``.

Every open connection is some 140 GC-tracked objects times three TCBs
(``tools/conn_footprint.py``), so the collector's young generation fills
once per handful of connections, and every full pass re-walks a heap
that grows with the rung: its share of the CPU grows with scale where
every layer's cost per segment is flat.  The recipe uses the public API
only: one rung through ``run_experiment("scale", ...)`` under a
``gc.callbacks`` clock.

Prints per rung the CPU seconds of the call, the seconds of them spent
inside the collector, its passes by generation, the objects those passes
freed while the rung ran, and the peak RSS.  Each rung runs in a fresh
interpreter, because peak RSS is a high-water mark of the process and a
previous rung's heap changes what a pass walks (DESIGN §14 rule 4,
docs/SCALE.md "The collector's share").

Usage::

    PYTHONPATH=src python tools/collector_share.py [--rungs 100,500,2000]
"""

from __future__ import annotations

import argparse
import gc
import resource
import subprocess
import sys
import time
from typing import Any, Dict, List, NamedTuple, Tuple

import repro.harness.experiments  # noqa: F401 — registers the "scale" spec
from repro.apps.workload import failed_sessions
from repro.harness.executor import run_experiment

#: The seed the reference benchmark's ``churn_failover`` runs at.
BASE_SEED = 12


class CollectorShare(NamedTuple):
    """The collector's part in one rung."""

    connections: int
    cpu_s: float
    collector_s: float
    #: Passes by generation (young, middle, full).
    passes: Tuple[int, ...]
    #: Objects the passes freed while the rung ran.
    freed: int
    peak_rss_mb: float


class _CollectorClock:
    """A ``gc.callbacks`` entry: CPU time, passes and objects freed."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.passes = [0, 0, 0]
        self.freed = 0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.process_time()
            return
        self.seconds += time.process_time() - self._started
        self.passes[info["generation"]] += 1
        self.freed += info["collected"]


def measure(connections: int) -> CollectorShare:
    """Run one rung of ``connections`` held connections under the clock."""
    clock = _CollectorClock()
    gc.collect()  # the rung starts from empty allocation counters
    gc.callbacks.append(clock)
    started = time.process_time()
    try:
        (record,) = run_experiment(
            "scale", ladder=(connections,), store=None, base_seed=BASE_SEED
        ).rows
    finally:
        cpu_s = time.process_time() - started
        gc.callbacks.remove(clock)
    failed = failed_sessions(record["outcomes"])
    if failed:
        raise AssertionError(f"rung {connections}: {len(failed)} sessions failed, first {failed[0]}")
    return CollectorShare(
        connections,
        cpu_s,
        clock.seconds,
        tuple(clock.passes),
        clock.freed,
        # Linux reports ru_maxrss in KiB.
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )


def format_share(share: CollectorShare) -> str:
    young, middle, full = share.passes
    return (
        f"rung {share.connections}: {share.cpu_s:.2f} CPU s, collector "
        f"{share.collector_s:.2f} s ({share.collector_s / share.cpu_s:.0%}) in "
        f"{young} / {middle} / {full} passes (gen 0 / 1 / 2), "
        f"{share.freed:,} objects freed in-run, peak RSS {share.peak_rss_mb:.1f} MB"
    )


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--rungs",
        default="100,500,2000",
        help="held connections per rung, comma-separated (default %(default)s)",
    )
    args = parser.parse_args(argv)
    rungs: List[int] = [int(rung) for rung in args.rungs.split(",")]
    if len(rungs) == 1:
        print(format_share(measure(rungs[0])), flush=True)
        return 0
    for rung in rungs:
        subprocess.run([sys.executable, __file__, "--rungs", str(rung)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
