"""Paper artefacts as declarative :class:`~repro.harness.spec.ExperimentSpec`s.

Each module registers one spec (Table 1/2, Figure 5/6, ablations A1–A5,
``scale``, ``cluster``); :func:`repro.harness.executor.run_experiment`
runs one by name.  Importing this package names every spec's module, and
:func:`repro.harness.spec.get_spec` imports a module the first time its
spec is asked for — worker processes import the package before running a
cell, and pay only for the specs they run.
"""

from repro.harness.experiments.scale import PAPER_SCALE, QUICK_SCALE, ExperimentScale
from repro.harness.spec import declare

_NAMES = (
    "ablation_detection", "ablation_ftcp", "ablation_logger", "ablation_overhead", "ablation_sync",
    "cluster", "figure5", "figure6", "scale", "table1", "table2",
)
#: Each spec's module bears its name, but for ``scale``: churn's.
declare({name: "repro.harness.experiments." + ("churn" if name == "scale" else name) for name in _NAMES})

__all__ = ["PAPER_SCALE", "QUICK_SCALE", "ExperimentScale"]
