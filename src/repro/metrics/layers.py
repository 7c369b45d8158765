"""The layer map: which layer of the simulator a source file belongs to.

A layer is a package under ``src/repro/``.  Twelve of them are reported
on their own; the small packages that only the harness drives, and the
top-level modules (``errors``, ``__main__``), are counted with the
harness.  Code outside the package (stdlib, builtins, the benchmark
itself) belongs to no layer.  The benchmark ledger (``bench/layers.py``)
and the *work by layer* section of ``repro explain``
(:func:`profile_layers`) attribute work through this one map.
"""

from __future__ import annotations

import cProfile
import gc
import os
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, TypeVar

T = TypeVar("T")

LAYERS = (
    "sim", "net", "ip", "udp", "tcp", "sttcp",
    "apps", "host", "util", "obs", "cluster", "harness",
)

#: Small packages that only the harness drives are counted with it.
FOLDED_INTO_HARNESS = frozenset({"metrics", "faults", "logger", "ftcp", "drill"})

#: The directory of the ``repro`` package.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def layer_of(filename: str) -> Optional[str]:
    """The layer owning source file ``filename``, or None outside ``repro``."""
    if not filename.startswith(PACKAGE_ROOT + os.sep):
        return None
    head = filename[len(PACKAGE_ROOT) + 1:].split(os.sep)[0]
    if head in LAYERS:
        return head
    if head in FOLDED_INTO_HARNESS or head.endswith(".py"):
        return "harness"
    return None


def fold(entries: Iterable[Any]) -> Dict[str, int]:
    """Fold a profiler's own entries (``cProfile.Profile.getstats()``) into
    ``{layer: calls}`` for the layers that made any call.

    The benchmark ledger's rule: an entry is charged to its code's layer,
    and a callee that belongs to no layer (a builtin, a C method, stdlib)
    is the caller's own work, so its calls are charged to the caller's
    layer too.  One entry per code object, not the ``pstats`` table,
    which is keyed by (file, line, name).
    """
    work: Dict[str, int] = {}
    for entry in entries:
        layer = layer_of(getattr(entry.code, "co_filename", ""))
        if layer is None:
            continue
        calls = entry.callcount
        for callee in entry.calls or ():
            if layer_of(getattr(callee.code, "co_filename", "")) is None:
                calls += callee.callcount
        work[layer] = work.get(layer, 0) + calls
    return work


def profile_layers(call: Callable[[], T]) -> Tuple[T, Dict[str, int]]:
    """Run ``call()`` under one cProfile pass: (its result, :func:`fold`
    of the calls it made).  The counts are exact for a given interpreter
    and tree.

    The collector is emptied before and held off during the call: a
    collection inside it would run the finalizers (a suspended
    generator's ``finally``) of whatever earlier runs left behind, and
    charge their calls to this one.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        profiler = cProfile.Profile()
        result = profiler.runcall(call)
    finally:
        if enabled:
            gc.enable()
    return result, fold(profiler.getstats())
