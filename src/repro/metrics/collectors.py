"""Metric collection from simulator components.

Protocol-layer counters live in the simulator's metrics registry
(:mod:`repro.obs.registry`) under ``<host>.<layer>.<name>``; components
hold the instruments and bump them inline, so snapshotting here adds no
hot-path cost.  NIC counters remain plain attributes.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional


def registry_snapshot(sim: Any, prefix: str = "") -> Dict[str, Any]:
    """Flat ``<host>.<layer>.<name>`` → value view of every registered
    instrument (histograms appear as summary dicts), optionally filtered
    by a name prefix such as ``"backup.sttcp"``."""
    return sim.metrics.snapshot(prefix)


@dataclasses.dataclass
class HostTraffic:
    """Traffic counters for one host at snapshot time."""

    name: str
    tx_frames: int
    tx_bytes: int
    rx_frames: int
    rx_bytes: int
    rx_dropped_queue: int
    rx_dropped_loss: int
    tcp_segments_demuxed: int
    tcp_resets_sent: int
    ip_forwarded: int

    @classmethod
    def capture(cls, host: Any) -> "HostTraffic":
        metrics = host.sim.metrics
        return cls(
            name=host.name,
            tx_frames=sum(nic.tx_frames for nic in host.nics),
            tx_bytes=sum(nic.tx_bytes for nic in host.nics),
            rx_frames=sum(nic.rx_frames for nic in host.nics),
            rx_bytes=sum(nic.rx_bytes for nic in host.nics),
            rx_dropped_queue=sum(nic.rx_dropped_queue for nic in host.nics),
            rx_dropped_loss=sum(nic.rx_dropped_loss for nic in host.nics),
            tcp_segments_demuxed=metrics.value(f"{host.name}.tcp.segments_demuxed"),
            tcp_resets_sent=metrics.value(f"{host.name}.tcp.resets_sent"),
            ip_forwarded=metrics.value(f"{host.name}.ip.forwarded"),
        )


@dataclasses.dataclass
class ChannelTraffic:
    """ST-TCP UDP-channel accounting (for the §4.3 overhead claim)."""

    backup_acks_sent: int
    retx_requests: int
    retx_bytes_recovered: int
    channel_datagrams: int
    channel_bytes: int

    @classmethod
    def capture(cls, pair: Any) -> "ChannelTraffic":
        backup = pair.backup_engine
        primary = pair.primary_engine
        datagrams = (
            backup.channel.sent_datagrams + primary.channel.sent_datagrams
        )
        value = backup.sim.metrics.value
        scope = f"{backup.host.name}.sttcp"
        acks_sent = value(f"{scope}.acks_sent")
        retx_requests = value(f"{scope}.retx_requests_sent")
        retx_bytes = value(f"{scope}.retx_bytes_recovered")
        # Bytes: approximate from message counts × 128 B plus recovered
        # data; ack replies mirror the acks the primary received.
        acks_received = value(f"{primary.host.name}.sttcp.acks_received")
        return cls(
            backup_acks_sent=acks_sent,
            retx_requests=retx_requests,
            retx_bytes_recovered=retx_bytes,
            channel_datagrams=datagrams,
            channel_bytes=(acks_sent + retx_requests + acks_received) * 128
            + retx_bytes,
        )


@dataclasses.dataclass
class ExperimentSample:
    """One (run, configuration) measurement for harness tables."""

    label: str
    total_time: float
    failover_time: Optional[float] = None
    max_gap: Optional[float] = None
    extras: Dict[str, float] = dataclasses.field(default_factory=dict)


def summarize(samples: List[ExperimentSample]) -> Dict[str, float]:
    """Mean total time / failover time over repeated samples."""
    if not samples:
        return {}
    result = {"total_time": sum(s.total_time for s in samples) / len(samples)}
    failovers = [s.failover_time for s in samples if s.failover_time is not None]
    if failovers:
        result["failover_time"] = sum(failovers) / len(failovers)
    return result
