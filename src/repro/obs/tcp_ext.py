"""Observability TCP extensions: probes that ride the extension API.

These are :class:`repro.tcp.extension.TCPExtension` subclasses that
attach *observation* to a connection without the core engines carrying
any bookkeeping for them — the vanilla hot path stays untouched; a probe
costs something only on the connections it is registered on.

* :class:`FirstAckProbe` — one-shot failover checkpoint: emits the
  ``failover/first_ack`` trace record for the first client segment a
  just-taken-over server accepts (the paper's "first retransmission
  accepted" instant, the end of the client's RTO wait), then removes
  itself.
* :class:`TraceProbeExtension` — counts every hook invocation; used by
  drills to assert hook ordering when several extensions stack on one
  connection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.tcp.extension import HOOK_NAMES, TCPExtension

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.segment import TCPSegment
    from repro.tcp.tcb import TCPConnection


class FirstAckProbe(TCPExtension):
    """Emit ``failover/first_ack`` on the next inbound segment, once.

    Attached at takeover time; the next segment this connection receives
    necessarily came from the client itself (suppression is lifted and
    the old primary is gone), so its arrival marks the client-visible
    end of the outage for this connection.
    """

    name = "obs.first_ack"

    def on_segment_in(self, conn: "TCPConnection", segment: "TCPSegment") -> bool:
        conn.remove_extension(self)
        trace = conn.sim.trace
        if "failover" in trace.categories:
            trace.emit(
                conn.sim.now,
                "failover",
                "first_ack",
                host=conn.layer.host.name,
                remote=f"{conn.remote_ip}:{conn.remote_port}",
                amount=segment.payload_length,
            )
        return False


class TraceProbeExtension(TCPExtension):
    """Count hook invocations; assert ordering properties in drills.

    ``calls`` maps each name in :data:`~repro.tcp.extension.HOOK_NAMES`
    to its invocation count.  The probe never consumes or adjusts
    anything.
    """

    name = "obs.trace_probe"

    def __init__(self) -> None:
        self.calls: Dict[str, int] = dict.fromkeys(HOOK_NAMES, 0)

    def on_segment_in(self, conn: "TCPConnection", segment: "TCPSegment") -> bool:
        self.calls["on_segment_in"] += 1
        return False

    def on_ack(self, conn: "TCPConnection", segment: "TCPSegment", ack_abs: int) -> int:
        self.calls["on_ack"] += 1
        return ack_abs

    def after_output(self, conn: "TCPConnection") -> None:
        self.calls["after_output"] += 1
