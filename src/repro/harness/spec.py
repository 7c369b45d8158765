"""Declarative experiment model: grids as data, execution elsewhere.

Every paper artefact (Table 1, Table 2, Figures 5–6, ablations A1–A5) is
an :class:`ExperimentSpec`: a *builder* that expands parameters into a
list of :class:`GridCell` (pure data — picklable, hashable-by-content),
a *runner* that executes one cell in a fresh deterministic simulation,
and an optional *aggregator* that folds cell records into the paper's
row shapes.  Specs register themselves by name when their module is imported;
:mod:`repro.harness.experiments` names each spec's module, and
:func:`get_spec` imports it on first use, so executor worker processes
can look a spec up by name and rebuild everything a cell needs from its
``params`` alone, paying only for the specs they run.

The separation buys three things:

* **parallelism** — cells are independent, so the executor can fan them
  out across processes with bit-identical results (each worker builds
  its own :class:`~repro.sim.simulator.Simulator` from the cell's seed);
* **resumability** — a cell's identity is a content hash of its params
  (see :mod:`repro.harness.results`), so completed cells are skipped on
  re-runs;
* **provenance** — every record in the store carries the exact grid
  coordinates, calibration profile, and seed that produced it.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Callable, Dict, List, Optional

from repro.apps.workload import AppWorkload
from repro.harness.calibrate import NetworkProfile
from repro.sttcp.config import STTCPConfig

Record = Dict[str, Any]


@dataclasses.dataclass(frozen=True)
class GridCell:
    """One point of an experiment grid, as pure JSON-able data.

    ``params`` must contain everything the spec's ``run_cell`` needs to
    rebuild the scenario — workload, ST-TCP config, network profile,
    topology — because workers reconstruct from the cell alone.
    """

    experiment: str
    cell_id: str
    params: Dict[str, Any]
    seed: int


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """A paper artefact: how to enumerate, run, and fold its grid."""

    name: str
    title: str
    #: ``build_cells(scale=None, **options) -> List[GridCell]``
    build_cells: Callable[..., List[GridCell]]
    #: ``run_cell(cell) -> Record`` — one deterministic simulation bundle.
    run_cell: Callable[[GridCell], Record]
    #: Fold per-cell records into paper-shaped rows (None: records as-is).
    aggregate: Optional[Callable[[List[GridCell], List[Record]], List[Record]]] = None
    #: Render aggregated rows as the paper's ASCII table (None: generic).
    format: Optional[Callable[[List[Record]], str]] = None


_REGISTRY: Dict[str, ExperimentSpec] = {}
#: Spec name → the module that registers it, imported by :func:`get_spec`.
_MODULES: Dict[str, str] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register a spec under its name (idempotent re-registration wins)."""
    _REGISTRY[spec.name] = spec
    return spec


def declare(modules: Dict[str, str]) -> None:
    """Name the module that registers each spec, for :func:`get_spec`."""
    _MODULES.update(modules)


def get_spec(name: str) -> ExperimentSpec:
    if name not in _REGISTRY and name in _MODULES:
        importlib.import_module(_MODULES[name])
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: {experiment_names()}"
        ) from None


def experiment_names() -> List[str]:
    return sorted(_REGISTRY.keys() | _MODULES.keys())


# ------------------------------------------------------------- param codecs
# Cells carry dataclasses as plain dicts so they stay JSON-able (for the
# content hash) and picklable (for worker processes).

def workload_params(workload: AppWorkload) -> Dict[str, Any]:
    return dataclasses.asdict(workload)


def workload_from_params(params: Dict[str, Any]) -> AppWorkload:
    return AppWorkload(**params)


def profile_params(profile: NetworkProfile) -> Dict[str, Any]:
    return dataclasses.asdict(profile)


def profile_from_params(params: Dict[str, Any]) -> NetworkProfile:
    return NetworkProfile(**params)


#: Config fields added after result stores shipped.  Omitted from the
#: serialized params while they hold their default so the content hash
#: (cell identity) of every pre-existing cell — and store resumability —
#: survives the addition.  ``sttcp_from_params`` fills them back in from
#: the dataclass defaults.
_POST_V0_STTCP_FIELDS = ("hb_jitter",)


def sttcp_params(config: Optional[STTCPConfig]) -> Optional[Dict[str, Any]]:
    if config is None:
        return None
    params = dataclasses.asdict(config)
    defaults = {
        field.name: field.default for field in dataclasses.fields(STTCPConfig)
    }
    for name in _POST_V0_STTCP_FIELDS:
        if params.get(name) == defaults[name]:
            del params[name]
    return params


def sttcp_from_params(params: Optional[Dict[str, Any]]) -> Optional[STTCPConfig]:
    if params is None:
        return None
    return STTCPConfig(**params)
