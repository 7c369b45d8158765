"""Drill execution: build a topology, run the timeline, match post-hoc.

Each script gets a fresh :class:`~repro.sim.simulator.Simulator` seeded
with a stable hash of the script name, so a drill is bit-deterministic
run to run — the corpus report is byte-identical across invocations,
which CI asserts.

Modes:

* ``server`` — the host under test listens; the peer plays client.
* ``client`` — the host under test connects (``sock_connect``); the peer
  plays server.
* ``sttcp``  — the harness ``Scenario``'s primary/backup pair on a hub
  (the paper's §6 topology), the peer beside its idle client.
* ``cluster`` — a ``ClusterRun``, driven by ``fault`` and ``probe`` ops.

A script's ``fault(...)`` ops are its run's ``FaultPlan``, and a failing
drill's diagnostic starts with that plan.
"""

from __future__ import annotations

import dataclasses
import traceback
import zlib
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.drill.patterns import SegmentSpec
from repro.drill.peer import CapturedSegment, DrillPeer
from repro.drill.report import DrillResult
from repro.drill.script import DRILL_WRITE_PATTERN, DrillProgram, Op, load_script
from repro.errors import ConfigurationError
from repro.faults.injection import FaultPlan
from repro.harness.calibrate import FAST_LAN
from repro.host.host import Host
from repro.net.addresses import IPAddress, fresh_unicast_mac, ip
from repro.net.medium import Hub
from repro.obs.recorder import FlightRecorder
from repro.sim.simulator import Simulator
from repro.tcp.constants import DEFAULT_SND_BUFFER
from repro.util.bytespan import ByteSpan, PatternBytes, RealBytes

# Drill address plan (the harness scenario's LAN; in sttcp mode the
# scripted peer sits beside the scenario's client).
HUT_IP = ip("10.0.0.1")
SERVICE_IP = ip("10.0.0.100")
PEER_IP = ip("10.0.0.99")

#: The port the host under test serves on (server and sttcp modes), the
#: scripted peer's port, and the port a client-mode host connects from.
SERVICE_PORT = 8000
PEER_PORT = 46000
LOCAL_PORT = 40000

#: Drill links are fast and near-instant so protocol timers dominate:
#: 1 Gb/s with 1 µs propagation keeps wire time ~3 µs per segment,
#: negligible against the default 5 ms expectation tolerance.  Every host
#: runs ``TCPConfig()``: the profile keeps its default buffers.
DRILL_LINK = dataclasses.replace(
    FAST_LAN, name="drill", link_rate_bps=1e9, hub_delay=1e-6, snd_buffer=DEFAULT_SND_BUFFER
)


class CheckFailure:
    """A live probe or socket call that failed during the run."""

    __slots__ = ("time", "label", "message")

    def __init__(self, time: float, label: str, message: str) -> None:
        self.time = time
        self.label = label
        self.message = message

    def __str__(self) -> str:
        return f"{self.label} at t={self.time:.6f}: {self.message}"


#: What ``use(mode=...)`` may name.
DRILL_MODES = ("server", "client", "sttcp", "cluster")
#: What ``use(...)`` may set.
DRILL_SETTINGS = ("mode", "tol", "run_for", "cluster")


def script_faults(program: DrillProgram) -> FaultPlan:
    """The script's ``fault(...)`` ops, in script order, as its plan."""
    return FaultPlan((op.time, *op.args) for op in program.ops if op.kind == "fault")


class DrillEnv:
    """Everything one drill run owns: topology, peer, tracked state."""

    def __init__(self, program: DrillProgram) -> None:
        settings = program.settings
        unknown = sorted(set(settings) - set(DRILL_SETTINGS))
        if unknown:
            raise ConfigurationError(
                f"unknown drill setting(s) {', '.join(unknown)}; "
                f"known: {', '.join(DRILL_SETTINGS)}"
            )
        self.program = program
        self.mode = settings.get("mode", "server")
        if self.mode not in DRILL_MODES:
            raise ConfigurationError(
                f"unknown drill mode {self.mode!r}; known modes: {', '.join(DRILL_MODES)}"
            )
        seed = zlib.crc32(program.name.encode()) & 0x7FFFFFFF
        self.faults = script_faults(program)
        self.tracked: List[Any] = []  # sockets of the host under test
        self.check_failures: List[CheckFailure] = []
        self.app_sent = 0  # cumulative sock_write bytes (pattern offsets)
        self.app_read_bytes = 0
        self.scenario: Optional[Any] = None
        self.pair = None
        self.peer: Optional[DrillPeer] = None
        self.primary: Optional[Host] = None
        self.backup: Optional[Host] = None
        self.hub: Optional[Hub] = None
        self.sttcp_config = None
        self.power_switch = None
        self.cluster = None
        if self.mode == "sttcp":
            self._join_scenario(seed)
        else:
            self.sim = Simulator(seed=seed)
        # Every drill flies with the recorder attached: when a drill
        # fails (or the stack crashes mid-run) the last trace records are
        # available for the dump, with no re-run needed.  The ring is
        # bounded, so a long drill cannot grow it.
        self.flight = FlightRecorder()
        self.sim.trace.add_sink(self.flight)
        if self.mode == "cluster":
            self._build_cluster(settings)
        elif self.mode != "sttcp":
            self._build_single()

    # -- topologies ---------------------------------------------------------
    def _attach_peer(self, remote_ip: IPAddress, remote_port: int, hut_hosts: List[Host]) -> None:
        self.peer = DrillPeer(
            self.sim, PEER_IP, fresh_unicast_mac(), PEER_PORT, remote_ip, remote_port
        )
        self.hub.attach(self.peer)
        # Static ARP both ways: drills script TCP, not address resolution.
        for host in hut_hosts:
            host.arp.add_static(PEER_IP, self.peer.mac)

    def _build_single(self) -> None:
        self.hub = Hub(self.sim, DRILL_LINK.link_rate_bps, delay=DRILL_LINK.hub_delay)
        self.hut = Host(self.sim, "hut", tcp_config=DRILL_LINK.tcp_config())
        nic = self.hut.add_nic()
        self.hub.attach(nic)
        self.hut.configure_ip(nic, HUT_IP, 24)
        self.primary = self.hut
        if self.mode == "server":
            self._attach_peer(HUT_IP, SERVICE_PORT, [self.hut])
            self.listener = self.hut.tcp.listen(SERVICE_PORT)
            self.hut.tcp.connection_observers.append(lambda tcb: self.tracked.append(tcb.socket))
        else:
            # The peer injects toward the port the host will connect from.
            self._attach_peer(HUT_IP, LOCAL_PORT, [self.hut])
        self.peer.remote_mac = nic.mac

    def _join_scenario(self, seed: int) -> None:
        """sttcp mode: the harness scenario's pair, the peer on its hub."""
        from repro.harness.scenario import Scenario
        from repro.sttcp.config import STTCPConfig

        scenario = self.scenario = Scenario(DRILL_LINK, sttcp=STTCPConfig(), seed=seed)
        self.sim, self.hub, self.pair = scenario.sim, scenario.hub, scenario.pair
        self.primary = self.hut = scenario.primary
        self.backup = scenario.backup
        self.sttcp_config, self.power_switch = scenario.sttcp_config, scenario.power_switch
        self._attach_peer(SERVICE_IP, SERVICE_PORT, [self.primary, self.backup])
        self.peer.remote_mac = self.primary.nics[0].mac
        self.primary.tcp.connection_observers.append(lambda tcb: self.tracked.append(tcb.socket))
        scenario.start_service()

    def _build_cluster(self, settings: dict) -> None:
        """A full cluster fabric under the drill timeline.

        ``use(mode="cluster", cluster={...})`` takes a scenario document
        (the ``configs/cluster/`` schema).  There is no scripted peer —
        every pair runs its real client — so the script drives the run
        with ``fault`` and ``probe`` ops only; the script's faults are the
        run's plan, in place of the scenario's own crash.
        """
        from repro.cluster.run import ClusterRun
        from repro.cluster.scenario import spec_from_dict

        raw = dict(settings.get("cluster") or {})
        raw.setdefault("name", self.program.name)
        self.cluster = ClusterRun(spec_from_dict(raw), sim=self.sim, faults=self.faults)
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
        """Queue the script's ops.  The fault plan is armed first (a
        cluster drill's by its run's ``begin``); a plan naming an unknown
        fault or a target this topology lacks raises ConfigurationError."""
        if self.cluster is not None:
            self.cluster.begin()
        else:
            self.faults.arm(self)
        for op in program.ops:
            if self.mode == "cluster" and (
                op.kind in ("inject", "sock") or op.kind.startswith("expect")
            ):
                raise ConfigurationError(
                    f"{op.label or op.kind}: cluster drills have no scripted "
                    "peer; use fault() and probe() ops"
                )
            if op.kind == "inject":
                self.sim.post(op.time, self.peer.inject, op.spec)
            elif op.kind == "sock":
                self.sim.post(op.time, self._guard(op, self._sock_call), op)
            elif op.kind == "probe":
                self.sim.post(op.time, self._guard(op, op.action), self)

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
            socket = self.hut.tcp.connect((self.peer.ip, self.peer.port), local_port=LOCAL_PORT)
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


def run_program(program: DrillProgram) -> Tuple[DrillResult, Optional[DrillEnv]]:
    """Run one drill: its result, and its env unless the script's
    settings could not build one."""
    env: Optional[DrillEnv] = None
    failure: Optional[str] = None
    try:
        env = DrillEnv(program)
        env.schedule(program)
    except ConfigurationError as exc:
        # A bad mode, plan or op fails this drill, not the corpus.
        failure = str(exc)
    if env is not None and failure is None:
        try:
            env.sim.run(until=program.end_time)
        except Exception:
            # A stack that crashes mid-drill fails that drill — it must not
            # abort the rest of the corpus.
            failure = f"stack crashed during run:\n{traceback.format_exc()}"
        failure = failure or _match_expectations(program, env)
        if failure is None and env.check_failures:
            failure = "\n".join(str(item) for item in env.check_failures)
    if failure is not None:
        failure = f"faults {script_faults(program)!r}\n{failure}"
    expects = sum(1 for op in program.ops if op.kind.startswith("expect"))
    probes = sum(1 for op in program.ops if op.kind == "probe")
    result = DrillResult(
        name=program.name,
        passed=failure is None,
        expects=expects,
        probes=probes,
        injects=env.peer.injected if env is not None and env.peer is not None else 0,
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
    which keep every cold-path marker but the client's folded progress
    (the flight ring's 256-record window is overrun by TCP chatter long
    before a cluster drill ends).  Dumps
    are a side channel only — the report and the failure diagnostics stay
    byte-identical with and without them.
    """
    program = load_script(path)
    result, env = run_program(program)
    if flight_dump is not None and not result.passed and env is not None:
        directory = Path(flight_dump)
        directory.mkdir(parents=True, exist_ok=True)
        env.flight.dump_to(
            directory / f"{program.name}.flight.txt",
            reason=f"drill {program.name} failed",
            header=f"faults {env.faults!r}",
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
