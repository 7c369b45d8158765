"""Fault injection: crashes, tap loss, channel partitions.

Everything experiments inject goes through here so scenarios read
declaratively — "crash the primary 0.3 s into the run", "drop 1% of the
backup's tapped frames", "partition the UDP channel".
"""

from __future__ import annotations

from typing import Any, List

from repro.net.frame import ETHERTYPE_IPV4, EthernetFrame
from repro.net.loss import RandomLoss, ScriptedLoss, WindowLoss
from repro.ip.datagram import PROTO_UDP
from repro.sim.events import EventHandle


class CrashInjector:
    """Schedules host crashes at absolute simulated times."""

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        self.scheduled: List[EventHandle] = []
        self.crashes_performed = 0

    def crash_at(self, host: Any, time: float) -> EventHandle:
        """Crash ``host`` at absolute time ``time``."""
        handle = self.sim.schedule_at(time, self._crash, host)
        self.scheduled.append(handle)
        return handle

    def crash_after(self, host: Any, delay: float) -> EventHandle:
        """Crash ``host`` after ``delay`` seconds from now."""
        handle = self.sim.schedule(delay, self._crash, host)
        self.scheduled.append(handle)
        return handle

    def _crash(self, host: Any) -> None:
        self.crashes_performed += 1
        host.crash()

    def cancel_all(self) -> None:
        for handle in self.scheduled:
            handle.cancel()
        self.scheduled.clear()


def add_tap_loss(nic: Any, rng: Any, rate: float) -> RandomLoss:
    """Make the backup's tap lossy: drop ``rate`` of frames in the NIC
    receive path (the IP-buffer-overflow analogue of §4.2)."""
    model = RandomLoss(rng, rate)
    nic.rx_loss_model = model
    return model


def add_tap_outage(nic: Any, start: float, stop: float) -> WindowLoss:
    """Black out the backup's tap during [start, stop) — deterministic
    loss used to force UDP-channel (or logger) recovery."""
    model = WindowLoss(start, stop)
    nic.rx_loss_model = model
    return model


def _is_udp_channel_frame(frame: EthernetFrame, port: int) -> bool:
    if frame.ethertype != ETHERTYPE_IPV4:
        return False
    datagram = frame.payload
    if datagram.protocol != PROTO_UDP:
        return False
    udp = datagram.payload
    return udp.dst_port == port or udp.src_port == port


def lossy_channel(medium: Any, channel_port: int, rng: Any, rate: float) -> ScriptedLoss:
    """Drop UDP-channel frames randomly at ``rate`` (heartbeat jitter).

    Exercises the failure detector's robustness: with a small miss
    threshold, a few unlucky consecutive drops wrongly suspect a healthy
    primary (§3.2's motivation for making suspicions safe).
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"loss rate must be in [0, 1], got {rate}")

    def predicate(frame: EthernetFrame) -> bool:
        return _is_udp_channel_frame(frame, channel_port) and rng.random() < rate

    model = ScriptedLoss(predicate=predicate)
    medium.loss_model = model
    return model


def partition_channel(medium: Any, channel_port: int) -> ScriptedLoss:
    """Drop every UDP-channel frame crossing ``medium``.

    Isolates the heartbeat path while client TCP traffic continues —
    the wrong-suspicion scenario that the power switch must make safe
    (§3.2, §4.4).
    """
    model = ScriptedLoss(
        predicate=lambda frame: _is_udp_channel_frame(frame, channel_port)
    )
    medium.loss_model = model
    return model


def partition_channel_oneway(medium: Any, channel_port: int, src_ip: Any) -> ScriptedLoss:
    """Drop UDP-channel frames *sent by* ``src_ip`` crossing ``medium``.

    The asymmetric partition: one side's heartbeats vanish while the
    other side's still arrive, so exactly one endpoint turns suspicious.
    Without fencing this is the classic dual-primary recipe.
    """

    def predicate(frame: EthernetFrame) -> bool:
        return (
            _is_udp_channel_frame(frame, channel_port)
            and frame.payload.src == src_ip
        )

    model = ScriptedLoss(predicate=predicate)
    medium.loss_model = model
    return model


def clear_loss(medium_or_nic: Any) -> None:
    """Remove any injected loss model."""
    if hasattr(medium_or_nic, "rx_loss_model"):
        medium_or_nic.rx_loss_model = None
    if hasattr(medium_or_nic, "loss_model"):
        from repro.net.loss import NoLoss

        medium_or_nic.loss_model = NoLoss()


# ---------------------------------------------------------------------------
# Drill DSL binding: named faults a drill script arms with fault(t, name)
# ---------------------------------------------------------------------------

#: ``name -> applier(env, time, **kwargs)``; the env is a DrillEnv
#: (repro.drill.runner) exposing sim, crash_injector, hub, the hosts and
#: the sttcp config.  Appliers run at *arm* time and schedule their own
#: effect at ``time``.
DRILL_FAULTS: dict = {}


def drill_fault(name: str):
    """Register a named fault for the drill DSL."""

    def register(fn):
        DRILL_FAULTS[name] = fn
        return fn

    return register


def apply_drill_fault(name: str, env: Any, time: float, **kwargs: Any) -> None:
    try:
        applier = DRILL_FAULTS[name]
    except KeyError:
        known = ", ".join(sorted(DRILL_FAULTS))
        raise ValueError(f"unknown fault {name!r}; known faults: {known}") from None
    applier(env, time, **kwargs)


def _require(env: Any, attribute: str, fault: str) -> Any:
    value = getattr(env, attribute, None)
    if value is None:
        raise ValueError(f"fault {fault!r} needs a topology with {attribute!r} (sttcp mode)")
    return value


@drill_fault("primary_crash")
def _fault_primary_crash(env: Any, time: float) -> None:
    env.crash_injector.crash_at(_require(env, "primary", "primary_crash"), time)


@drill_fault("backup_crash")
def _fault_backup_crash(env: Any, time: float) -> None:
    env.crash_injector.crash_at(_require(env, "backup", "backup_crash"), time)


@drill_fault("hut_crash")
def _fault_hut_crash(env: Any, time: float) -> None:
    env.crash_injector.crash_at(_require(env, "hut", "hut_crash"), time)


@drill_fault("tap_outage")
def _fault_tap_outage(env: Any, time: float, duration: float = 0.1) -> None:
    add_tap_outage(_require(env, "tap_nic", "tap_outage"), time, time + duration)


@drill_fault("tap_loss")
def _fault_tap_loss(env: Any, time: float, rate: float = 0.1) -> None:
    nic = _require(env, "tap_nic", "tap_loss")
    rng = env.sim.random.stream("drill.tap_loss")
    env.sim.post(time, add_tap_loss, nic, rng, rate)


@drill_fault("channel_partition")
def _fault_channel_partition(env: Any, time: float) -> None:
    config = _require(env, "sttcp_config", "channel_partition")
    env.sim.post(time, partition_channel, env.hub, config.channel_port)


@drill_fault("channel_partition_oneway")
def _fault_channel_partition_oneway(env: Any, time: float, sender: str = "primary") -> None:
    config = _require(env, "sttcp_config", "channel_partition_oneway")
    host = _require(env, sender, "channel_partition_oneway")
    src_ip = host.interfaces[0].ip
    env.sim.post(time, partition_channel_oneway, env.hub, config.channel_port, src_ip)


@drill_fault("channel_heal")
def _fault_channel_heal(env: Any, time: float) -> None:
    env.sim.post(time, clear_loss, env.hub)


@drill_fault("power_kill")
def _fault_power_kill(env: Any, time: float, host: str = "primary") -> None:
    """Fence ``host`` through the power switch (relay delay included) —
    the STONITH primitive as a drill-armable fault."""
    switch = _require(env, "power_switch", "power_kill")
    target = _require(env, host, "power_kill")
    env.sim.post(time, switch.cut_power, target)


# -- cluster-mode faults (env.cluster is a repro.cluster.run.ClusterRun) ----
def _cluster_service(env: Any, service: str, fault: str) -> Any:
    cluster = _require(env, "cluster", fault)
    try:
        return cluster.fabric.service_by_name[service]
    except KeyError:
        known = ", ".join(sorted(cluster.fabric.service_by_name))
        raise ValueError(f"fault {fault!r}: unknown service {service!r} ({known})") from None


@drill_fault("cluster_crash")
def _fault_cluster_crash(env: Any, time: float, service: str = "s0") -> None:
    """Crash the host currently acting as ``service``'s primary."""
    node = _cluster_service(env, service, "cluster_crash")
    env.sim.post(time, lambda: env.crash_injector.crash_at(node.primary_host, env.sim.now))


@drill_fault("cluster_partition_oneway")
def _fault_cluster_partition_oneway(env: Any, time: float, service: str = "s0") -> None:
    """Asymmetric partition: ``service``'s primary stays alive but its
    outbound UDP-channel frames (heartbeats included) never leave its
    cable — the backup sees a dead primary, the primary sees a healthy
    world.  Only fencing keeps this from a dual-primary."""
    node = _cluster_service(env, service, "cluster_partition_oneway")
    cluster = env.cluster
    cable = cluster.fabric.lan_cables[node.primary_host.name]
    src_ip = node.primary_host.interfaces[0].ip
    env.sim.post(time, partition_channel_oneway, cable, node.config.channel_port, src_ip)
