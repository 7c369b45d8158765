"""The ``REPRO_DATAPATH`` switch selecting the hot-datapath style.

Mirrors ``REPRO_SCHED_BACKEND``: two arms behind one API, proven
bit-identical by differential tests.

* ``batch`` (the default) — slot-drain event dispatch, pooled zero-copy
  segment payloads, and precomputed per-connection wire headers.  Every
  observable (dispatch order, wire bytes, store hashes, drill reports)
  is identical to the reference arm; only allocation and per-event
  overhead change.
* ``object`` — the pure per-object reference path: per-event
  ``run_next`` dispatch, fresh-bytes payload copies, full header packing
  per segment.  This is the oracle the differential harness
  (``tests/harness/test_datapath_differential.py``) compares against.

The switch is read **once per simulator-owned component, at
construction**: the scheduler (the backup tap follows it) and each
host's ``TCPLayer``, which hands its arm down to every TCB it opens.  So
tests flip it by setting the environment variable before building a
:class:`~repro.sim.simulator.Simulator`; flipping it mid-run moves
nothing.  The wire serialiser alone is switched per call (DESIGN §13).

This module lives in ``repro.sim`` (the bottom layer) so every consumer
— ``repro.net``, ``repro.tcp``, ``repro.sttcp`` — can import it without
bending the layering rules in ``tools/check_import_cycles.py``.
"""

from __future__ import annotations

import os

from repro.errors import SimulationError

#: Environment override for the datapath arm: ``batch`` (default) or
#: ``object`` (the bit-exact per-object reference).
DATAPATH_ENV = "REPRO_DATAPATH"

_MODES = ("batch", "object")


def datapath_mode() -> str:
    """The selected datapath arm: ``"batch"`` or ``"object"``."""
    mode = os.environ.get(DATAPATH_ENV, "batch")
    if mode not in _MODES:
        raise SimulationError(
            f"{DATAPATH_ENV}={mode!r} is not a datapath arm; expected one of {_MODES}"
        )
    return mode


def batch_enabled() -> bool:
    """True when the batch datapath is selected (the default)."""
    return datapath_mode() == "batch"
