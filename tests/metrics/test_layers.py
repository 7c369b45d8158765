"""One layer map: the benchmark ledger's and the package's agree.

``bench/layers.py`` keeps its own copy of the map until it imports
:mod:`repro.metrics.layers`; this test loads it by path, unedited, and
holds the two equal, so ``repro explain``'s work by layer and the ledger
name the same layers.
"""

import importlib.util
from pathlib import Path

from repro.metrics import layers

BENCH_LAYERS = Path(__file__).resolve().parents[2] / "bench" / "layers.py"


def _bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_ledger_has_the_same_layers_and_folding_rule():
    bench = _bench_layers()
    assert bench.LAYERS == layers.LAYERS
    assert bench._FOLDED_INTO_HARNESS == layers.FOLDED_INTO_HARNESS


def test_every_source_file_lands_in_the_same_layer():
    bench = _bench_layers()
    root = Path(layers.PACKAGE_ROOT)
    sources = sorted(root.rglob("*.py"))
    assert len(sources) > 100
    for path in sources:
        code = compile("", str(path), "exec")  # a code object from that file
        assert bench._layer_of(code, str(root)) == layers.layer_of(str(path)), path
        assert layers.layer_of(str(path)) in layers.LAYERS


def test_profile_layers_charges_builtin_callees_to_the_calling_layer():
    from repro.metrics.layers import profile_layers
    from repro.sim.scheduler import Scheduler

    def drive():
        sched = Scheduler()
        seen = []
        for time in range(5):
            sched.post(float(time), seen.append, time)
        sched.run_until()
        return seen

    seen, work = profile_layers(drive)
    assert seen == [0, 1, 2, 3, 4]
    # __init__ + run_until, and per post: post, heappush, heappop and the
    # callback (a C method, so the dispatch loop's own work).  The driver
    # itself is test code: no layer.
    assert set(work) == {"sim"}
    assert work == {"sim": 2 + 4 * 5}


def test_profile_layers_charges_no_finalizer_of_earlier_garbage():
    import gc

    from repro.metrics.layers import profile_layers
    from repro.sim.scheduler import Scheduler

    def suspended():
        try:
            yield
        finally:
            Scheduler()  # repro work, run when the generator is finalized

    class Cycle:
        pass

    threshold = gc.get_threshold()
    gc.set_threshold(100)
    try:
        for _ in range(20):
            cycle = Cycle()
            cycle.me = cycle
            cycle.generator = suspended()
            next(cycle.generator)
        del cycle
        _, work = profile_layers(lambda: [[] for _ in range(10_000)])
    finally:
        gc.set_threshold(*threshold)
    assert work == {}
