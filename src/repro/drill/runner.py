"""Drill execution: build a topology, run the timeline, match post-hoc.

Each script gets a fresh :class:`~repro.sim.simulator.Simulator` seeded
from its settings (default: a stable hash of the script name), so a drill
is bit-deterministic run to run — the corpus report is byte-identical
across invocations, which CI asserts.

Modes:

* ``server`` — the host under test listens; the peer plays client.
* ``client`` — the host under test connects (``sock_connect``); the peer
  plays server.
* ``sttcp``  — a full primary/backup pair on a hub (the paper's §6
  topology) with the peer as the client; ``fault(t, "primary_crash")``
  and the ``expect_shadow``/``expect_takeover`` probes target it.
"""

from __future__ import annotations

import traceback
import zlib
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.drill.patterns import SegmentSpec
from repro.drill.peer import CapturedSegment, DrillPeer
from repro.drill.report import DrillResult
from repro.drill.script import DRILL_WRITE_PATTERN, DrillProgram, Op, load_script
from repro.faults.injection import CrashInjector, apply_drill_fault
from repro.host.host import Host
from repro.net.addresses import IPAddress, fresh_unicast_mac, ip
from repro.net.medium import Hub
from repro.obs.recorder import FlightRecorder
from repro.sim.simulator import Simulator
from repro.tcp.config import TCPConfig
from repro.util.bytespan import ByteSpan, PatternBytes, RealBytes

# Drill address plan (mirrors the harness scenario's LAN).
HUT_IP = ip("10.0.0.1")
BACKUP_IP = ip("10.0.0.2")
SERVICE_IP = ip("10.0.0.100")
PEER_IP = ip("10.0.0.99")

DEFAULT_PORT = 8000
DEFAULT_PEER_PORT = 46000
DEFAULT_LOCAL_PORT = 40000

#: Drill links are fast and near-instant so protocol timers dominate:
#: 1 Gb/s with 1 µs propagation keeps wire time ~3 µs per segment,
#: negligible against the default 5 ms expectation tolerance.
LINK_RATE_BPS = 1_000_000_000
LINK_DELAY = 1e-6


class CheckFailure:
    """A live probe or socket call that failed during the run."""

    __slots__ = ("time", "label", "message")

    def __init__(self, time: float, label: str, message: str) -> None:
        self.time = time
        self.label = label
        self.message = message

    def __str__(self) -> str:
        return f"{self.label} at t={self.time:.6f}: {self.message}"


class DrillEnv:
    """Everything one drill run owns: topology, peer, tracked state."""

    def __init__(self, program: DrillProgram) -> None:
        settings = program.settings
        self.program = program
        self.mode = settings.get("mode", "server")
        if self.mode not in ("server", "client", "sttcp", "cluster"):
            raise ValueError(f"unknown drill mode {self.mode!r}")
        seed = settings.get("seed")
        if seed is None:
            seed = zlib.crc32(program.name.encode()) & 0x7FFFFFFF
        self.sim = Simulator(seed=seed)
        # Every drill flies with the recorder attached: when a drill
        # fails (or the stack crashes mid-run) the last trace records are
        # available for the dump, with no re-run needed.  The ring is
        # bounded, so a long drill cannot grow it.
        self.flight = FlightRecorder()
        self.sim.trace.add_sink(self.flight)
        self.crash_injector = CrashInjector(self.sim)
        self.hub = Hub(self.sim, LINK_RATE_BPS, delay=LINK_DELAY)
        self.tcp_config = TCPConfig().copy(**settings.get("tcp", {}))
        self.port = int(settings.get("port", DEFAULT_PORT))
        self.tracked: List[Any] = []  # sockets of the host under test
        self.check_failures: List[CheckFailure] = []
        self.app_sent = 0  # cumulative sock_write bytes (pattern offsets)
        self.app_read_bytes = 0
        self.pair = None
        self.peer: Optional[DrillPeer] = None
        self.primary: Optional[Host] = None
        self.backup: Optional[Host] = None
        self.tap_nic = None
        self.sttcp_config = None
        self.power_switch = None
        self.cluster = None
        if self.mode == "sttcp":
            self._build_sttcp(settings)
        elif self.mode == "cluster":
            self._build_cluster(settings)
        else:
            self._build_single(settings)

    # -- topologies ---------------------------------------------------------
    def _attach_peer(self, remote_ip: IPAddress, remote_port: int, hut_hosts: List[Host]) -> None:
        peer_port = int(self.program.settings.get("peer_port", DEFAULT_PEER_PORT))
        self.peer = DrillPeer(
            self.sim, PEER_IP, fresh_unicast_mac(), peer_port, remote_ip, remote_port
        )
        self.hub.attach(self.peer)
        # Static ARP both ways: drills script TCP, not address resolution.
        for host in hut_hosts:
            host.arp.add_static(PEER_IP, self.peer.mac)

    def _build_single(self, settings: dict) -> None:
        self.hut = Host(self.sim, "hut", tcp_config=self.tcp_config)
        nic = self.hut.add_nic()
        self.hub.attach(nic)
        self.hut.configure_ip(nic, HUT_IP, 24)
        self.primary = self.hut
        if self.mode == "server":
            self._attach_peer(HUT_IP, self.port, [self.hut])
            self.listener = self.hut.tcp.listen(self.port)
            self.hut.tcp.connection_observers.append(lambda tcb: self.tracked.append(tcb.socket))
        else:
            # The peer injects toward the port the host will connect from.
            local_port = int(settings.get("local_port", DEFAULT_LOCAL_PORT))
            self._attach_peer(HUT_IP, local_port, [self.hut])
        self.peer.remote_mac = nic.mac

    def _build_sttcp(self, settings: dict) -> None:
        from repro.sttcp.config import STTCPConfig
        from repro.sttcp.group import STTCPServerGroup
        from repro.sttcp.power_switch import PowerSwitch

        self.sttcp_config = STTCPConfig(**settings.get("sttcp", {}))
        self.primary = Host(self.sim, "primary", tcp_config=self.tcp_config)
        self.backup = Host(self.sim, "backup", tcp_config=self.tcp_config)
        primary_nic = self.primary.add_nic()
        self.hub.attach(primary_nic)
        self.primary.configure_ip(primary_nic, HUT_IP, 24)
        self.primary.add_vnic("svi", SERVICE_IP, primary_nic.mac, primary_nic)
        backup_nic = self.backup.add_nic()
        backup_nic.promiscuous = True  # the hub tap
        self.hub.attach(backup_nic)
        self.backup.configure_ip(backup_nic, BACKUP_IP, 24)
        self.backup.add_vnic("svi", SERVICE_IP, backup_nic.mac, backup_nic)
        self.tap_nic = backup_nic
        self.hut = self.primary
        power_switch = PowerSwitch(self.sim, self.sttcp_config.stonith_delay)
        self.power_switch = power_switch
        self.pair = STTCPServerGroup(
            self.primary,
            [self.backup],
            SERVICE_IP,
            self.port,
            config=self.sttcp_config,
            power_switch=power_switch,
        )
        self._attach_peer(SERVICE_IP, self.port, [self.primary, self.backup])
        self.peer.remote_mac = primary_nic.mac
        self.primary.tcp.connection_observers.append(lambda tcb: self.tracked.append(tcb.socket))
        self.pair.start_service()

    def _build_cluster(self, settings: dict) -> None:
        """A full cluster fabric under the drill timeline.

        ``use(mode="cluster", cluster={...})`` takes a scenario document
        (the ``configs/cluster/`` schema).  There is no scripted peer —
        every pair runs its real client — so the script drives the run
        with ``fault`` and ``probe`` ops only; the scenario's own crash
        is NOT scheduled (drill faults own the timeline).
        """
        from repro.cluster.run import ClusterRun
        from repro.cluster.scenario import spec_from_dict

        raw = dict(settings.get("cluster") or {})
        raw.setdefault("name", self.program.name)
        self.cluster = ClusterRun(spec_from_dict(raw), sim=self.sim)
        self.cluster.begin(schedule_crash=False)
        self.hut = self.cluster.fabric.services[0].primary
        self.primary = self.hut

    # -- probe helpers (used by the script DSL) -----------------------------
    def tcb(self) -> Optional[Any]:
        # Through the socket: from TIME_WAIT on, a record holds the slot.
        return self.tracked[0].tcb if self.tracked else None

    def connection_state(self) -> str:
        tcb = self.tcb()
        return tcb.state.value if tcb is not None else "NONE"

    def shadow_tcb(self) -> Optional[Any]:
        if self.pair is None:
            return None
        shadows = self.pair.backup_engine.shadow_connections
        return shadows[0] if shadows else None

    def shadow_ext(self) -> Optional[Any]:
        from repro.sttcp.shadow import ShadowExtension

        tcb = self.shadow_tcb()
        ext = tcb.extension if tcb is not None else None
        return ext if isinstance(ext, ShadowExtension) else None

    def backup_role(self) -> str:
        return self.pair.backup_engine.role if self.pair is not None else "none"

    # -- op execution -------------------------------------------------------
    def schedule(self, program: DrillProgram) -> None:
        for op in program.ops:
            if self.mode == "cluster" and (
                op.kind in ("inject", "sock") or op.kind.startswith("expect")
            ):
                raise ValueError(
                    f"{op.label or op.kind}: cluster drills have no scripted "
                    "peer; use fault() and probe() ops"
                )
            if op.kind == "inject":
                self.sim.post(op.time, self.peer.inject, op.spec)
            elif op.kind == "sock":
                self.sim.post(op.time, self._guard(op, self._sock_call), op)
            elif op.kind == "probe":
                self.sim.post(op.time, self._guard(op, op.action), self)
            elif op.kind == "fault":
                name, kwargs = op.args
                apply_drill_fault(name, self, op.time, **kwargs)

    def _guard(self, op: Op, fn: Callable) -> Callable:
        def run(*args: Any) -> None:
            try:
                fn(*args)
            except AssertionError as exc:
                self.check_failures.append(CheckFailure(self.sim.now, op.label, str(exc)))

        return run

    def _sock_call(self, op: Op) -> None:
        action, *args = op.args
        if action == "connect":
            assert self.mode == "client", "sock_connect is only valid in client mode"
            local_port = int(self.program.settings.get("local_port", DEFAULT_LOCAL_PORT))
            socket = self.hut.tcp.connect(
                (self.peer.ip, self.peer.port), local_port=local_port
            )
            self.tracked.append(socket)
            return
        tcb = self.tcb()
        assert tcb is not None, f"{op.label} before any connection exists"
        if action == "write":
            data = args[0]
            span = self._to_span(data)
            accepted = tcb.app_write(span)
            self.app_sent += len(span)
            assert accepted == len(span), (
                f"send buffer accepted {accepted} of {len(span)} bytes"
            )
        elif action == "read":
            span = tcb.app_read(args[0])
            self.app_read_bytes += len(span)
        elif action == "close":
            tcb.app_close()

    def _to_span(self, data: Union[int, bytes, ByteSpan]) -> ByteSpan:
        if isinstance(data, int):
            return PatternBytes(data, self.app_sent, DRILL_WRITE_PATTERN)
        if isinstance(data, bytes):
            return RealBytes(data)
        return data


# ---------------------------------------------------------------------------
# Expectation matching
# ---------------------------------------------------------------------------


def _render_spec(spec: SegmentSpec) -> str:
    return spec.describe()


def _match_expectations(program: DrillProgram, env: DrillEnv) -> Optional[str]:
    """Match expect ops against the capture; first mismatch wins."""
    peer = env.peer
    if peer is None:  # cluster mode: probes only, nothing to match
        return None
    captured = peer.captured
    cursor = 0
    expect_index = 0
    for op in program.ops:
        if op.kind == "expect":
            expect_index += 1
            tol = op.tolerance if op.tolerance is not None else program.tolerance
            found = _find_match(op.spec, captured, cursor, op.time, tol, peer)
            if found is None:
                return _mismatch_report(
                    f"expect #{expect_index}", op, tol, captured, cursor, env
                )
            cursor = found + 1
        elif op.kind == "expect_no":
            for item in captured:
                if op.time - 1e-9 <= item.time <= op.until + 1e-9 and op.spec.matches(
                    item.segment, item.space
                ):
                    context = "\n    ".join(peer.recent_context(item.time))
                    return (
                        f"expect_no [{op.time:.3f}, {op.until:.3f}] "
                        f"{_render_spec(op.spec)}:\n"
                        f"  forbidden segment at t={item.time:.6f}: "
                        f"{peer.render_captured(item)}\n"
                        f"  recent wire context:\n    {context}"
                    )
    return None


def _find_match(
    spec: SegmentSpec,
    captured: List[CapturedSegment],
    start: int,
    time: float,
    tol: float,
    peer: DrillPeer,
) -> Optional[int]:
    for index in range(start, len(captured)):
        item = captured[index]
        if item.time > time + tol + 1e-9:
            break
        if item.time < time - tol - 1e-9:
            continue
        if spec.matches(item.segment, item.space):
            return index
    return None


def _mismatch_report(
    what: str,
    op: Op,
    tol: float,
    captured: List[CapturedSegment],
    cursor: int,
    env: DrillEnv,
) -> str:
    """The first-mismatch diagnostic: field diff + late/early hints +
    recent tcpdump context."""
    peer = env.peer
    header = f"{what} at t={op.time:.3f}±{tol:.3f}: {_render_spec(op.spec)}"
    in_window = [
        (i, item)
        for i, item in enumerate(captured[cursor:], cursor)
        if op.time - tol - 1e-9 <= item.time <= op.time + tol + 1e-9
    ]
    lines = [header]
    if in_window:
        best_index, best = min(
            in_window, key=lambda pair: (len(op.spec.mismatches(pair[1].segment, pair[1].space)), pair[0])
        )
        diffs = op.spec.mismatches(best.segment, best.space)
        lines.append(
            f"  closest segment at t={best.time:.6f}: {peer.render_captured(best)}"
        )
        for field, expected, actual in diffs:
            lines.append(f"    field {field}: expected {expected}, actual {actual}")
    else:
        lines.append("  no segment captured in the window")
        late = next(
            (
                item
                for item in captured[cursor:]
                if item.time > op.time + tol and op.spec.matches(item.segment, item.space)
            ),
            None,
        )
        if late is not None:
            lines.append(
                f"  a matching segment arrived late at t={late.time:.6f}: "
                f"{peer.render_captured(late)}"
            )
    context = peer.recent_context(op.time + tol)
    if context:
        lines.append("  recent wire context:")
        lines.extend(f"    {line}" for line in context)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_program(program: DrillProgram) -> Tuple[DrillResult, DrillEnv]:
    env = DrillEnv(program)
    env.schedule(program)
    crash: Optional[str] = None
    try:
        env.sim.run(until=program.end_time)
    except Exception:
        # A stack that crashes mid-drill fails that drill — it must not
        # abort the rest of the corpus.
        crash = f"stack crashed during run:\n{traceback.format_exc()}"
    failure = crash or _match_expectations(program, env)
    if failure is None and env.check_failures:
        failure = "\n".join(str(item) for item in env.check_failures)
    expects = sum(1 for op in program.ops if op.kind.startswith("expect"))
    probes = sum(1 for op in program.ops if op.kind == "probe")
    result = DrillResult(
        name=program.name,
        passed=failure is None,
        expects=expects,
        probes=probes,
        injects=env.peer.injected if env.peer is not None else 0,
        sim_time=program.end_time,
        failure=failure,
    )
    return result, env


def run_drill_file(
    path: Union[str, Path], flight_dump: Optional[Union[str, Path]] = None
) -> DrillResult:
    """Load and run one drill script.

    ``flight_dump`` names a directory; a failing drill leaves its
    flight-recorder dump there as ``<name>.flight.txt`` plus, for a
    cluster drill, a Perfetto-loadable ``<name>.trace.json``: the run's
    failover phases as slices over its timeline collector's records,
    which keep every cold-path marker (the flight ring's 256-record window
    is overrun by TCP chatter long before a cluster drill ends).  Dumps
    are a side channel only — the report and the failure diagnostics stay
    byte-identical with and without them.
    """
    program = load_script(path)
    result, env = run_program(program)
    if flight_dump is not None and not result.passed:
        directory = Path(flight_dump)
        directory.mkdir(parents=True, exist_ok=True)
        env.flight.dump_to(
            directory / f"{program.name}.flight.txt",
            reason=f"drill {program.name} failed",
        )
        if env.cluster is not None:
            from repro.obs.export import write_chrome_trace

            with open(directory / f"{program.name}.trace.json", "w") as fh:
                write_chrome_trace(
                    list(env.cluster.collector.records), fh, env.cluster.phases()
                )
    return result


def run_drill_path(
    path: Union[str, Path], flight_dump: Optional[Union[str, Path]] = None
) -> List[DrillResult]:
    """Run one script, or every ``*.py`` under a directory (sorted)."""
    path = Path(path)
    if path.is_dir():
        scripts = sorted(path.glob("*.py"))
        if not scripts:
            raise FileNotFoundError(f"no drill scripts under {path}")
        return [run_drill_file(script, flight_dump) for script in scripts]
    return [run_drill_file(path, flight_dump)]
