"""The layer map: which layer of the simulator a source file belongs to.

A layer is a package under ``src/repro/``.  Twelve of them are reported
on their own; the small packages that only the harness drives, and the
top-level modules (``errors``, ``__main__``), are counted with the
harness.  Code outside the package (stdlib, builtins, the benchmark
itself) belongs to no layer.  The benchmark ledger (``bench/layers.py``)
and the ``--profile`` sampler (:mod:`repro.metrics.profile`) attribute
work through this one map.
"""

from __future__ import annotations

import os
from typing import Optional

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
