"""Fault injection: one plan of crashes, tap loss and channel partitions.

A :class:`FaultPlan` is the one way a fault reaches a run:
``run_workload(faults=)``, ``ClusterRun(spec, faults=)`` and a drill's
``fault(t, name, **kwargs)`` ops each arm one (docs/HARNESS.md).  The
loss models below are what its registry installs.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.errors import ConfigurationError
from repro.net.frame import ETHERTYPE_IPV4, EthernetFrame
from repro.net.loss import RandomLoss, ScriptedLoss, WindowLoss
from repro.ip.datagram import PROTO_UDP


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


def partition_channel(
    medium: Any, channel_port: int, rng: Optional[Any] = None, rate: float = 1.0
) -> ScriptedLoss:
    """Drop every UDP-channel frame crossing ``medium`` or, given ``rng``,
    ``rate`` of them.

    A full partition isolates the heartbeat path while client TCP
    traffic continues — the wrong-suspicion scenario that the power
    switch must make safe (§3.2, §4.4).  A partial one is heartbeat
    jitter: with a small miss threshold, a few unlucky consecutive drops
    wrongly suspect a healthy primary.
    """

    def predicate(frame: EthernetFrame) -> bool:
        return _is_udp_channel_frame(frame, channel_port) and (
            rng is None or rng.random() < rate
        )

    model = ScriptedLoss(predicate=predicate)
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
        medium_or_nic.loss_model = None


class FaultPlan(tuple):
    """An ordered tuple of ``(at, name, kwargs)`` fault entries.

    ``at`` is an absolute simulated time; ``name`` keys
    :data:`DRILL_FAULTS`.  An entry may be given as ``(at, name)``.  The
    ``repr`` is one line that pastes back into ``faults=``.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable = ()) -> "FaultPlan":
        return super().__new__(cls, (_entry(*entry) for entry in entries))

    def __repr__(self) -> str:
        return f"FaultPlan({list(self)!r})"

    def arm(self, env: Any) -> None:
        """Schedule every entry against ``env`` (a ``Scenario``,
        ``DrillEnv`` or ``ClusterRun``, read by attribute); raises
        ConfigurationError naming the first entry whose fault is unknown
        or whose target ``env`` lacks."""
        for entry in self:
            at, name, kwargs = entry
            try:
                applier = DRILL_FAULTS.get(name)
                if applier is None:
                    known = ", ".join(sorted(DRILL_FAULTS))
                    raise ConfigurationError(f"unknown fault {name!r}; known faults: {known}")
                applier(env, at, **kwargs)
            except (ConfigurationError, TypeError, ValueError) as exc:
                raise ConfigurationError(f"fault {entry!r}: {exc}") from None


def _entry(at: float, name: str, kwargs: Optional[dict] = None) -> tuple:
    return (float(at), name, dict(kwargs or {}))


#: ``name -> applier(env, at, **kwargs)``.  An applier resolves its
#: target on ``env`` when the plan is armed (raising ConfigurationError if
#: the topology has none) and schedules its effect at ``at``.
DRILL_FAULTS: dict = {}


def drill_fault(name: str) -> Callable:
    """Register a named fault."""

    def register(fn: Callable) -> Callable:
        DRILL_FAULTS[name] = fn
        return fn

    return register


def _require(env: Any, attribute: str) -> Any:
    value = getattr(env, attribute, None)
    if value is None:
        raise ConfigurationError(f"this topology has no {attribute!r}")
    return value


def _when(env: Any, at: float, effect: Callable, *args: Any) -> None:
    """Apply ``effect(*args)`` at ``at``: at once if that time has come
    (so a loss armed at t=0 sees the first frame), else as one queue
    entry."""
    if at <= env.sim.now:
        effect(*args)
    else:
        env.sim.post(at, effect, *args)


def _crash_role(env: Any, role: str) -> None:
    getattr(env, role).crash()


@drill_fault("primary_crash")
def _fault_primary_crash(env: Any, at: float) -> None:
    _require(env, "primary")
    _when(env, at, _crash_role, env, "primary")


@drill_fault("backup_crash")
def _fault_backup_crash(env: Any, at: float) -> None:
    _require(env, "backup")
    _when(env, at, _crash_role, env, "backup")


@drill_fault("tap_outage")
def _fault_tap_outage(env: Any, at: float, duration: float = 0.1) -> None:
    add_tap_outage(_require(env, "backup").nics[0], at, at + duration)


@drill_fault("tap_loss")
def _fault_tap_loss(env: Any, at: float, rate: float = 0.1) -> None:
    nic = _require(env, "backup").nics[0]
    _when(env, at, add_tap_loss, nic, env.sim.random.stream("tap"), rate)


@drill_fault("channel_partition")
def _fault_channel_partition(env: Any, at: float, rate: float = 1.0) -> None:
    """Drop the hub's UDP-channel frames: all of them, or ``rate`` of them
    drawn from the ``"channel-jitter"`` stream."""
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"loss rate must be in [0, 1], got {rate}")
    hub, port = _require(env, "hub"), _require(env, "sttcp_config").channel_port
    rng = None if rate == 1.0 else env.sim.random.stream("channel-jitter")
    _when(env, at, partition_channel, hub, port, rng, rate)


@drill_fault("channel_partition_oneway")
def _fault_channel_partition_oneway(env: Any, at: float, sender: str = "primary") -> None:
    hub, port = _require(env, "hub"), _require(env, "sttcp_config").channel_port
    src_ip = _require(env, sender).interfaces[0].ip
    _when(env, at, partition_channel_oneway, hub, port, src_ip)


@drill_fault("channel_heal")
def _fault_channel_heal(env: Any, at: float) -> None:
    _when(env, at, clear_loss, _require(env, "hub"))


@drill_fault("power_kill")
def _fault_power_kill(env: Any, at: float, host: str = "primary") -> None:
    """Fence ``host`` through the power switch (relay delay included) —
    the STONITH primitive as a fault."""
    switch = _require(env, "power_switch")
    _when(env, at, switch.cut_power, _require(env, host))


# -- cluster faults (env is a repro.cluster.run.ClusterRun) -----------------
def _cluster_service(env: Any, service: str) -> Any:
    services = _require(env, "fabric").service_by_name
    if service not in services:
        known = ", ".join(sorted(services))
        raise ConfigurationError(f"unknown service {service!r} ({known})")
    return services[service]


def _crash_acting_primary(node: Any) -> None:
    node.primary_host.crash()


@drill_fault("cluster_crash")
def _fault_cluster_crash(env: Any, at: float, service: str = "s0") -> None:
    """Crash the host acting as ``service``'s primary when the entry
    fires, so a later crash follows a re-elected primary."""
    _when(env, at, _crash_acting_primary, _cluster_service(env, service))


@drill_fault("cluster_partition_oneway")
def _fault_cluster_partition_oneway(env: Any, at: float, service: str = "s0") -> None:
    """Asymmetric partition: ``service``'s primary stays alive but its
    outbound UDP-channel frames (heartbeats included) never leave its
    cable — the backup sees a dead primary, the primary sees a healthy
    world.  Only fencing keeps this from a dual-primary."""
    node = _cluster_service(env, service)
    cable = env.fabric.lan_cables[node.primary_host.name]
    src_ip = node.primary_host.interfaces[0].ip
    _when(env, at, partition_channel_oneway, cable, node.config.channel_port, src_ip)
