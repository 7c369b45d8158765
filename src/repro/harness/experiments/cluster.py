"""The ``cluster`` experiment: N primary/backup pairs on one fabric.

Each cell is one declarative scenario from ``configs/cluster/`` (or an
inline spec dict): a fabric of N primaries shadowed by a pool of M
backup hosts, one client per pair, a scripted mid-run primary crash, the
arbiter-fenced takeover, and the replacement-backup election that
re-establishes shadowing (see ``docs/CLUSTER.md``).  The cell's params
embed the *parsed* spec — not the file path — so the result-store
content hash is the scenario itself; editing a JSON file re-runs exactly
the cells it changes.

The record is the full :func:`repro.cluster.run.run_cluster` bundle:
per-pair verification, crash→detection→takeover latencies, the election
ledger with each election's unprotected connections, arbiter counters,
the dual-primary monitor's verdict, and per-pair failover timelines.
The table grades each record against :data:`repro.obs.slo.CLUSTER_SLOS`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.harness.spec import ExperimentSpec, GridCell, Record, register
from repro.harness.tables import graded_table
from repro.obs.slo import CLUSTER_SLOS, grade_record

#: The shipped scenario set, in the order the table reports them.
DEFAULT_SCENARIOS = ("smoke", "trio", "storm")

#: ``configs/cluster/`` relative to the repo root (this file lives at
#: ``src/repro/harness/experiments/``).
SCENARIO_DIR = Path(__file__).resolve().parents[4] / "configs" / "cluster"


def resolve_scenario(name: Union[str, Path, Dict[str, Any], "ClusterSpec"]) -> "ClusterSpec":
    """A scenario by shipped name, file path, inline dict, or spec."""
    # Imported lazily: repro.cluster.scenario itself imports the harness
    # package (for calibration profiles), so a module-level import here
    # would close an import cycle through repro.harness.experiments.
    from repro.cluster.scenario import ClusterSpec, load_scenario, spec_from_dict

    if isinstance(name, ClusterSpec):
        return name
    if isinstance(name, dict):
        return spec_from_dict(name)
    path = Path(name)
    if path.suffix != ".json" and not path.exists():
        path = SCENARIO_DIR / f"{name}.json"
    return load_scenario(path)


def _build_cells(
    scale: Any = None,
    scenarios: Optional[Sequence[Union[str, Dict[str, Any]]]] = None,
    **_options: Any,
) -> List[GridCell]:
    specs = [resolve_scenario(s) for s in (scenarios or DEFAULT_SCENARIOS)]
    return [
        GridCell(
            experiment="cluster",
            cell_id=spec.name,
            params={"spec": spec.params()},
            seed=spec.seed,
        )
        for spec in specs
    ]


def _run_cell(cell: GridCell) -> Record:
    from repro.cluster.run import run_cluster
    from repro.cluster.scenario import ClusterSpec

    return run_cluster(ClusterSpec(**cell.params["spec"]))


def format_cluster(records: List[Record]) -> str:
    from repro.cluster.invariants import INVARIANTS

    rows = []
    for record in records:
        held = sum(record["invariants"][name] for name in INVARIANTS)
        elections = record["elections"]
        rows.append(
            [
                record["scenario"],
                f"{record['primaries']}:{record['backups']}",
                f"{record['detection_latency'] * 1e3:.0f}",
                f"{record['takeover_latency'] * 1e3:.0f}",
                len(elections),
                sum(len(e["unprotected"]) for e in elections),
                record["arbiter"]["cuts_performed"],
                f"{held}/4",
            ]
        )
    return graded_table(
        [
            "scenario",
            "pairs",
            "detect (ms)",
            "takeover (ms)",
            "elections",
            "unprotected",
            "fences",
            "invariants",
        ],
        rows,
        [record["scenario"] for record in records],
        [grade_record(record, CLUSTER_SLOS) for record in records],
        title="cluster: pooled backups, fenced takeover, re-election",
    )


SPEC = register(
    ExperimentSpec(
        name="cluster",
        title="cluster: N:K shadowing fabric with election + STONITH",
        build_cells=_build_cells,
        run_cell=_run_cell,
        format=format_cluster,
    )
)
