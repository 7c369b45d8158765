"""The traced pass: a cProfile run folded into a per-layer ledger.

The layers are the packages under ``src/repro/``; the spans are the
public functions where one layer calls into the next.  Everything is
measured from outside, with stdlib ``cProfile`` around the identical
timed call: spans are kept in memory by the profiler and aggregated
when the call returns.

cProfile charges every Python and C call a fixed cost but nothing for
time inside C code, so shares here over-weight call-heavy layers; the
exact ``calls`` beside every time exists for that reason.
"""

from __future__ import annotations

import cProfile
import importlib
import os
from typing import Any, Callable, Dict, Optional, Tuple

LAYERS = (
    "sim", "net", "ip", "udp", "tcp", "sttcp",
    "apps", "host", "util", "obs", "cluster", "harness",
)

#: Small packages that only the harness drives are counted with it.
_FOLDED_INTO_HARNESS = {"metrics", "faults", "logger", "ftcp", "drill"}

#: metric stem -> (module, qualified name) of a layer-boundary function.
SPANS = {
    "span.net.nic_transmit": ("repro.net.nic", "NIC.transmit"),
    "span.net.nic_receive": ("repro.net.nic", "NIC.receive_frame"),
    "span.ip.send": ("repro.ip.layer", "IPLayer.send"),
    "span.ip.receive": ("repro.ip.layer", "IPLayer.receive"),
    "span.tcp.send_segment": ("repro.tcp.layer", "TCPLayer.send_segment"),
    "span.tcp.on_segment": ("repro.tcp.tcb", "TCPConnection.on_segment"),
    "span.tcp.app_write": ("repro.tcp.tcb", "TCPConnection.app_write"),
    "span.tcp.app_read": ("repro.tcp.tcb", "TCPConnection.app_read"),
    "span.sttcp.on_segment_in": ("repro.sttcp.shadow", "ShadowExtension.on_segment_in"),
    "span.sttcp.filter_transmit": ("repro.sttcp.shadow", "ShadowExtension.filter_transmit"),
    "span.sim.call_later": ("repro.sim.simulator", "Simulator.call_later"),
    "span.sim.schedule_at": ("repro.sim.simulator", "Simulator.schedule_at"),
}


def _layer_of(code: Any, package_root: str) -> Optional[str]:
    """Layer owning a profiled callable, or None for code outside ``repro``
    (a builtin, which the profiler names by a string; stdlib; generated
    code such as a dataclass ``__init__``; the benchmark itself)."""
    filename = getattr(code, "co_filename", "")
    if not filename.startswith(package_root):
        return None
    head = filename[len(package_root):].lstrip(os.sep).split(os.sep)[0]
    if head in LAYERS:
        return head
    # Folded packages and the top-level modules (errors, __main__).
    return "harness" if head in _FOLDED_INTO_HARNESS or head.endswith(".py") else None


def _span_code(module: str, qualname: str) -> Optional[Any]:
    """The code object of a span's function, or None when it is gone."""
    try:
        target: Any = importlib.import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part)
        return target.__code__
    except (ImportError, AttributeError):
        return None


def traced_call(timed: Callable[[], Any]) -> Tuple[Any, Dict[str, Any]]:
    """Run ``timed`` under cProfile; returns (its result, the ledger).

    Ledger: ``total_self_s`` and ``py_calls`` for the whole call,
    ``layers[layer] = {self_s, calls}``, ``unattributed_s`` (time no
    layer could be charged for), and ``spans[stem] = {cum_s, calls}``
    or None for a span whose function is gone.

    The profiler's own entries are read (``getstats``), one per code
    object, not the ``pstats`` table: that one is keyed by (file, line,
    name), under which all generated ``__init__``s collide and the
    survivor depends on memory addresses.
    """
    import repro

    package_root = os.path.dirname(os.path.abspath(repro.__file__))
    profiler = cProfile.Profile()
    result = profiler.runcall(timed)
    entries = profiler.getstats()

    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    by_code = {}
    total_self = 0.0
    py_calls = 0
    for entry in entries:
        by_code[entry.code] = entry
        total_self += entry.inlinetime
        py_calls += entry.callcount
        layer = _layer_of(entry.code, package_root)
        if layer is None:
            continue
        cost = layers[layer]
        cost["self_s"] += entry.inlinetime
        cost["calls"] += entry.callcount
        # Builtin, C and stdlib callees are the caller's own work: charge
        # the layer for the self time and the calls it caused there.
        for callee in entry.calls or ():
            if _layer_of(callee.code, package_root) is None:
                cost["self_s"] += callee.inlinetime
                cost["calls"] += callee.callcount

    spans: Dict[str, Optional[Dict[str, Any]]] = {}
    for stem, (module, qualname) in SPANS.items():
        code = _span_code(module, qualname)
        if code is None:
            spans[stem] = None
        else:
            entry = by_code.get(code)
            spans[stem] = {
                "cum_s": entry.totaltime if entry else 0.0,
                "calls": entry.callcount if entry else 0,
            }
    return result, {
        "total_self_s": total_self,
        "py_calls": py_calls,
        "unattributed_s": total_self - sum(c["self_s"] for c in layers.values()),
        "layers": layers,
        "spans": spans,
    }
