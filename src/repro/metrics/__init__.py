"""What the host spent running a simulation: wall clock and collector
passes per cell (:mod:`~repro.metrics.perf`), the layer map that the
benchmark ledger and ``repro explain``'s *work by layer* share
(:mod:`~repro.metrics.layers`) and the CSV/JSON record writers
(:mod:`~repro.metrics.report`).  What the simulation itself did, in sim
time, is :mod:`repro.obs`."""

from repro.metrics import perf
from repro.metrics.perf import PerfProbe

__all__ = [
    "PerfProbe",
    "perf",
]
