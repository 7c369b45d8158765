#!/usr/bin/env python
"""What the traffic of one workload is made of, span by span.

Counts every :mod:`repro.util.bytespan` span a run constructs, by type,
size bucket and the function that asked for it.  The buckets are cut
where DESIGN §13 rule 5 draws its line: one request record, one MSS.  A
``CatBytes`` below an MSS is a record that should have been flat.  The
last line counts the TCP segments built on an output-inhibited
connection (a shadow): DESIGN §13 rule 6 says there are none.  The line
before it counts the spans built while bytes were stored or freed:
DESIGN §13 rule 2 says a buffer builds a span only when it hands one out,
so on a failure-free run there are none.

Usage::

    PYTHONPATH=src python tools/span_census.py echo|interactive|bulk|upload
    PYTHONPATH=src python tools/span_census.py configs/cluster/smoke.json
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Any, List, Tuple

from repro.apps import workload as workloads
from repro.apps.protocol import REQUEST_SIZE
from repro.cluster.run import ClusterRun
from repro.harness.experiments.cluster import resolve_scenario
from repro.harness.runner import run_workload
from repro.sttcp.config import STTCPConfig
from repro.tcp.constants import DEFAULT_MSS
from repro.tcp.segment import SegmentTemplate, TCPSegment
from repro.tcp.tcb import TCPConnection
from repro.util import bytespan

BUCKETS = (  # (largest length, label); anything longer is MSS_OR_MORE
    (0, "0"),
    (REQUEST_SIZE - 1, f"1-{REQUEST_SIZE - 1}"),
    (REQUEST_SIZE, f"{REQUEST_SIZE} (a record)"),
    (DEFAULT_MSS - 1, f"{REQUEST_SIZE + 1}-{DEFAULT_MSS - 1}"),
)
MSS_OR_MORE = f">={DEFAULT_MSS} (MSS)"

#: Where bytes enter or leave a buffer without being handed out: a span
#: built in one of these (as the census names requesters) was built while
#: storing or freeing bytes.
STORING_OR_FREEING = frozenset({
    "repro.tcp.socket.TCPSocket._pump_writers",
    "repro.tcp.tcb.TCPConnection.app_write",
    "repro.tcp.send_buffer.SendBuffer.append",
    "repro.tcp.send_buffer.SendBuffer.ack_to",
    "repro.tcp.recv_buffer.ReceiveBuffer.insert",
    "repro.tcp.recv_buffer.ReceiveBuffer._drain_out_of_order",
    "repro.sttcp.retention.SecondReceiveBuffer.on_read",
    "repro.sttcp.retention.SecondReceiveBuffer.backup_acked",
    "repro.util.spanbuffer.SpanBuffer.append",
    "repro.util.spanbuffer.SpanBuffer.discard_front",
    "repro.util.spanbuffer.SpanBuffer.clear",
})


def _count_constructions(cls: type, census: Counter) -> None:
    construct = cls.__init__

    def counted(self: Any, *args: Any, **kwargs: Any) -> None:
        construct(self, *args, **kwargs)
        caller = sys._getframe(1)
        while caller.f_globals.get("__name__") in (bytespan.__name__, __name__) and caller.f_back:
            caller = caller.f_back  # a slice or concat: name who asked for it
        where = f"{caller.f_globals.get('__name__', '?')}.{caller.f_code.co_qualname}"
        bucket = next((label for top, label in BUCKETS if self.length <= top), MSS_OR_MORE)
        census[cls.__name__, bucket, where] += 1

    cls.__init__ = counted  # type: ignore[method-assign]


def _count_inhibited_builds(built: List[int]) -> None:
    """Count in ``built[0]`` the segments a TCB builds while output-inhibited.

    A TCB builds in ``OutputEngine.emit`` (a template build) and in
    ``send_rst_for`` (a checked construction); both hold it as ``conn``.
    """

    def note_building_tcb() -> None:
        conn = sys._getframe(2).f_locals.get("conn")
        if isinstance(conn, TCPConnection) and conn.output_inhibited:
            built[0] += 1

    build, construct = SegmentTemplate.build, TCPSegment.__init__

    def counted_build(self: Any, *args: Any, **kwargs: Any) -> TCPSegment:
        note_building_tcb()
        return build(self, *args, **kwargs)

    def counted_construct(self: Any, *args: Any, **kwargs: Any) -> None:
        note_building_tcb()
        construct(self, *args, **kwargs)

    SegmentTemplate.build = counted_build  # type: ignore[method-assign]
    TCPSegment.__init__ = counted_construct  # type: ignore[method-assign]


def take_census(name: str) -> Tuple[Counter, int, str]:
    """Run ``name`` counting every span built: ((type, bucket, where) -> n,
    segments built on an output-inhibited connection, summary)."""
    census: Counter = Counter()
    for cls in (bytespan.RealBytes, bytespan.PatternBytes, bytespan.CatBytes):
        _count_constructions(cls, census)
    inhibited = [0]
    _count_inhibited_builds(inhibited)
    make = getattr(workloads, f"{name}_workload", None)
    if make is not None:
        run = run_workload(make(), sttcp=STTCPConfig(), seed=7)
        run.require_clean()
        return census, inhibited[0], f"{name} on the hub pair, {run.scenario.sim.now:.3f} s simulated"
    record = ClusterRun(resolve_scenario(name)).execute()
    return census, inhibited[0], f"cluster scenario '{record['scenario']}', ok={record['ok']}"


def format_census(census: Counter, inhibited: int, summary: str) -> str:
    lines = [summary, f"  {'type':<14}{'bytes':<18}{'spans':>9}  constructed in"]
    for (kind, bucket, where), count in sorted(census.items(), key=lambda row: (row[0][:2], -row[1])):
        lines.append(f"  {kind:<14}{bucket:<18}{count:>9}  {where}")
    short = sum(n for (kind, bucket, _), n in census.items() if kind == "CatBytes" and bucket != MSS_OR_MORE)
    lines.append(f"  CatBytes shorter than one MSS: {short}")
    stored = sum(n for (_, _, where), n in census.items() if where in STORING_OR_FREEING)
    lines.append(f"  spans built while storing or freeing bytes: {stored}")
    lines.append(f"  segments built on an output-inhibited connection: {inhibited}")
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", help="echo|interactive|bulk|upload, or a cluster scenario name/path")
    print(format_census(*take_census(parser.parse_args().workload)))
