"""One benchmark sample: set-up, one timed call, verification.

Run as a fresh process per sample by ``bench/run.py`` (never imported by
it): the process does the set-up - imports, topology build, one warm-up
run of the same workload at 1/16 size, ``gc.collect()`` - then exactly
one timed call, and prints one JSON object describing it.  A host
probe (``hostprobe.py``) runs reference bursts inside the timed call,
so that its CPU time can be corrected for how slow the host was at that
moment.  With ``--trace 1`` the identical call runs under cProfile
instead, and unprobed: the profile must hold nothing but the call.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from the first statement

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

#: The warm-up runs the same workload at this fraction of its size.
WARMUP_FRACTION = 1 / 16


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from hostprobe import HostProbe
    from layers import traced_call
    from workloads import WORKLOADS

    prepare = WORKLOADS[args.workload]
    warm_timed, warm_summarise = prepare(args.seed, args.scale * WARMUP_FRACTION)
    warm_summarise(warm_timed())
    timed, summarise = prepare(args.seed, args.scale)
    probe = HostProbe()
    gc.collect()
    collections_before = _gc_collections()

    setup_s = time.perf_counter() - _STARTED
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    if args.trace:
        raw, ledger = traced_call(timed)
    else:
        with probe:
            raw, ledger = timed(), None
    # The bursts are CPU-bound: their CPU time is also their wall time.
    cpu_raw_s = time.process_time() - cpu_started - probe.burst_cpu_s
    wall_s = time.perf_counter() - wall_started - probe.burst_cpu_s
    if args.trace:
        cpu_s, host_slowdown = cpu_raw_s, None
    else:
        cpu_s, host_slowdown = probe.corrected(cpu_raw_s), probe.slowdown

    collections = _gc_collections() - collections_before
    outcome = summarise(raw)
    sample = dataclasses.asdict(outcome)
    del sample["simulated"]
    sample.update(
        workload=args.workload,
        seed=args.seed,
        scale=args.scale,
        cpu_s=cpu_s,
        cpu_raw_s=cpu_raw_s,
        host_slowdown=host_slowdown,
        wall_s=wall_s,
        setup_s=setup_s,
        # Linux reports ru_maxrss in KiB.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        gc_collections=collections,
        sim_digest=outcome.sim_digest,
        trace=ledger,
    )
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
