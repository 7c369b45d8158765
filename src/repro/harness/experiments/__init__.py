"""Paper artefacts as declarative :class:`~repro.harness.spec.ExperimentSpec`s.

Each module registers one spec (Table 1/2, Figure 5/6, ablations A1–A5,
``scale``, ``cluster``); :func:`repro.harness.executor.run_experiment`
runs one by name.  Importing this package populates the spec registry —
worker processes do exactly that before running a cell.
"""

from repro.harness.experiments import (  # noqa: F401 — each import registers a spec
    ablation_detection,
    ablation_ftcp,
    ablation_logger,
    ablation_overhead,
    ablation_sync,
    churn,
    cluster,
    figure5,
    figure6,
    table1,
    table2,
)
from repro.harness.experiments.scale import PAPER_SCALE, QUICK_SCALE, ExperimentScale

__all__ = ["PAPER_SCALE", "QUICK_SCALE", "ExperimentScale"]
