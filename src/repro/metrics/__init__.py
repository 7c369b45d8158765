"""What the host spent running a simulation: wall clock and collector
passes per cell (:mod:`~repro.metrics.perf`), the ``--profile`` sampler
(:mod:`~repro.metrics.profile`) and the CSV/JSON record writers
(:mod:`~repro.metrics.report`).  What the simulation itself did, in sim
time, is :mod:`repro.obs`."""

from repro.metrics import perf, profile
from repro.metrics.perf import PerfProbe
from repro.metrics.profile import SamplingProfiler

__all__ = [
    "PerfProbe",
    "SamplingProfiler",
    "perf",
    "profile",
]
