"""One layer map: the benchmark ledger's and the package's agree.

``bench/layers.py`` keeps its own copy of the map until it imports
:mod:`repro.metrics.layers`; this test loads it by path, unedited, and
holds the two equal, so ``--profile`` and the ledger name the same
layers.
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
