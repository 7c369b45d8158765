"""Grid sizing shared by every experiment (paper scale vs quick scale)."""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.apps.workload import (
    AppWorkload,
    bulk_workload,
    echo_workload,
    interactive_workload,
)
from repro.util.units import KB, MB

#: The paper's heartbeat-interval grid (Tables 1 and 2).
PAPER_HB_GRID: Tuple[float, ...] = (5.0, 1.0, 0.2, 0.05)

#: Denser sweep for the figures.
FIGURE_HB_SWEEP: Tuple[float, ...] = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)


@dataclasses.dataclass(frozen=True)
class ExperimentScale:
    """How big to run the grid."""

    echo_exchanges: int
    interactive_exchanges: int
    bulk_sizes: Tuple[int, ...]
    repeats: int
    hb_grid: Tuple[float, ...] = PAPER_HB_GRID

    def workloads(self) -> List[AppWorkload]:
        apps = [
            echo_workload(self.echo_exchanges),
            interactive_workload(self.interactive_exchanges),
        ]
        apps.extend(bulk_workload(size) for size in self.bulk_sizes)
        return apps


#: The grid exactly as the paper ran it ("repeated at least three times").
PAPER_SCALE = ExperimentScale(
    echo_exchanges=100,
    interactive_exchanges=100,
    bulk_sizes=(1 * MB, 5 * MB, 20 * MB, 100 * MB),
    repeats=3,
)

#: The grid every experiment runs unless given ``scale=PAPER_SCALE``
#: (``--paper-scale`` on the command line): seconds, not minutes.
QUICK_SCALE = ExperimentScale(
    echo_exchanges=30,
    interactive_exchanges=30,
    bulk_sizes=(256 * KB, 1 * MB),
    repeats=1,
    hb_grid=(1.0, 0.2, 0.05),
)


def hb_label(hb: float) -> str:
    if hb >= 1.0:
        return f"{hb:g}s"
    return f"{hb * 1000:g}ms"
