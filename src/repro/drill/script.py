"""Drill scripts: a Python-embedded DSL, packetdrill style.

A script is a plain ``.py`` file executed with the DSL bound into its
namespace.  It *declares* a timeline — it does not run the simulation
itself::

    use(mode="server", port=8000)
    inject(0.1, tcp("S", seq=0, win=65535, mss=1460))
    expect(0.1, tcp("SA", seq=0, ack=1, mss=ANY))
    inject(0.102, tcp("A", seq=1, ack=1))
    expect_state(0.15, "ESTABLISHED")

Times are seconds of simulated time from the start of the run.
``seq``/``ack`` are relative stream offsets
(SYN = 0, first data byte = 1).  The runner executes the timeline and
matches expectations post-hoc; see docs/DRILL.md for the full reference.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.apps.protocol import KIND_DATA, KIND_ECHO, encode_request
from repro.drill.patterns import ANY, SegmentSpec, tcp
from repro.util.bytespan import ByteSpan, PatternBytes, RealBytes

#: Default time tolerance for expectations (seconds).
DEFAULT_TOLERANCE = 0.005

#: Pattern id for bytes written by drill ``sock_write`` (host side).
DRILL_WRITE_PATTERN = 17
#: Pattern id for bytes injected by the peer without an explicit payload.
DRILL_INJECT_PATTERN = 19


class Op:
    """One timeline entry; ``kind`` selects runner behaviour."""

    __slots__ = ("kind", "time", "until", "spec", "tolerance", "action", "args", "label")

    def __init__(
        self,
        kind: str,
        time: float,
        until: Optional[float] = None,
        spec: Optional[SegmentSpec] = None,
        tolerance: Optional[float] = None,
        action: Optional[Callable] = None,
        args: Optional[tuple] = None,
        label: str = "",
    ) -> None:
        self.kind = kind
        self.time = time
        self.until = until
        self.spec = spec
        self.tolerance = tolerance
        self.action = action
        self.args = args or ()
        self.label = label


class DrillProgram:
    """A parsed drill script: settings plus a time-ordered op list."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.settings: Dict[str, Any] = {}
        self.ops: List[Op] = []

    # -- declarations -------------------------------------------------------
    def use(self, **settings: Any) -> None:
        """Configure the run: ``mode`` (server/client/sttcp), ``port``,
        ``seed``, ``tol``, ``run_for``, ``tcp={...}``, ``sttcp={...}``."""
        self.settings.update(settings)

    def inject(self, t: float, spec: SegmentSpec) -> None:
        """Put a crafted segment on the wire at time ``t``."""
        self.ops.append(Op("inject", t, spec=spec))

    def expect(self, t: float, spec: SegmentSpec, tol: Optional[float] = None) -> None:
        """The host must emit a matching segment at ``t`` (± tolerance),
        in order relative to other ``expect`` calls."""
        self.ops.append(Op("expect", t, spec=spec, tolerance=tol))

    def expect_no(self, t0: float, t1: float, spec: SegmentSpec) -> None:
        """No matching segment may appear in the window [t0, t1]."""
        self.ops.append(Op("expect_no", t0, until=t1, spec=spec))

    # -- socket calls on the host under test --------------------------------
    def sock_connect(self, t: float) -> None:
        self.ops.append(Op("sock", t, action=None, args=("connect",), label="sock_connect"))

    def sock_write(self, t: float, data: Union[int, bytes, ByteSpan]) -> None:
        self.ops.append(Op("sock", t, args=("write", data), label="sock_write"))

    def sock_read(self, t: float, max_bytes: int = 1 << 20) -> None:
        self.ops.append(Op("sock", t, args=("read", max_bytes), label="sock_read"))

    def sock_close(self, t: float) -> None:
        self.ops.append(Op("sock", t, args=("close",), label="sock_close"))

    # -- faults and live probes ---------------------------------------------
    def fault(self, t: float, name: str, **kwargs: Any) -> None:
        """Arm a named fault at ``t`` (see repro.faults.injection.DRILL_FAULTS)."""
        self.ops.append(Op("fault", t, args=(name, kwargs), label=f"fault:{name}"))

    def probe(self, t: float, fn: Callable[[Any], None], label: str = "probe") -> None:
        """Run ``fn(env)`` at ``t``; raise AssertionError to fail the drill."""
        self.ops.append(Op("probe", t, action=fn, label=label))

    def expect_state(self, t: float, state: str) -> None:
        """The tracked connection must be in TCP state ``state`` at ``t``."""

        def check(env: Any) -> None:
            actual = env.connection_state()
            assert actual == state, f"connection state is {actual}, expected {state}"

        self.probe(t, check, label=f"expect_state:{state}")

    def expect_shadow(
        self,
        t: float,
        established: Optional[bool] = None,
        isn_rebased: Optional[bool] = None,
        rcv_nxt: Optional[int] = None,
        snd_nxt: Optional[int] = None,
        suppressed: Optional[bool] = None,
    ) -> None:
        """Probe the backup's shadow connection (sttcp mode), in relative
        sequence units (SYN = 0).  ``suppressed=True`` also requires that
        the shadow has handed IP no segment."""

        def check(env: Any) -> None:
            tcb = env.shadow_tcb()
            assert tcb is not None, "backup holds no shadow connection"
            ext = env.shadow_ext()
            assert ext is not None, "backup connection has no shadow extension"
            if established is not None:
                is_established = tcb.state.value == "ESTABLISHED"
                assert is_established == established, f"shadow state is {tcb.state.value}"
            if isn_rebased is not None:
                assert ext.isn_rebased == isn_rebased, f"shadow isn_rebased is {ext.isn_rebased}"
            if rcv_nxt is not None:
                actual = tcb.rcv_nxt - tcb.irs
                assert actual == rcv_nxt, f"shadow rcv_nxt is {actual}, expected {rcv_nxt}"
            if snd_nxt is not None:
                actual = tcb.snd_nxt - tcb.iss
                assert actual == snd_nxt, f"shadow snd_nxt is {actual}, expected {snd_nxt}"
            if suppressed is not None:
                assert tcb.output_inhibited == suppressed, (
                    f"shadow output_inhibited is {tcb.output_inhibited}"
                )
                if suppressed:
                    assert tcb.segments_sent == 0, (
                        f"suppressed shadow handed IP {tcb.segments_sent} segments"
                    )

        self.probe(t, check, label="expect_shadow")

    def expect_takeover(self, t: float) -> None:
        """The backup must have completed takeover (role ACTIVE) by ``t``."""

        def check(env: Any) -> None:
            role = env.backup_role()
            assert role == "active", f"backup role is {role!r}, expected 'active'"

        self.probe(t, check, label="expect_takeover")

    # -- payload helpers ----------------------------------------------------
    @staticmethod
    def app_request(kind: str = "echo", size: int = 0, request_id: int = 1) -> ByteSpan:
        """A 150-byte application request record (repro.apps.protocol)."""
        kinds = {"echo": KIND_ECHO, "data": KIND_DATA}
        return encode_request(kinds[kind], size, request_id)

    @staticmethod
    def pattern(length: int, offset: int = 0) -> ByteSpan:
        """Deterministic filler bytes for injected payloads."""
        return PatternBytes(length, offset, DRILL_INJECT_PATTERN)

    # -- namespace ----------------------------------------------------------
    def dsl_namespace(self) -> Dict[str, Any]:
        return {
            "ANY": ANY,
            "tcp": tcp,
            "use": self.use,
            "inject": self.inject,
            "expect": self.expect,
            "expect_no": self.expect_no,
            "sock_connect": self.sock_connect,
            "sock_write": self.sock_write,
            "sock_read": self.sock_read,
            "sock_close": self.sock_close,
            "fault": self.fault,
            "probe": self.probe,
            "expect_state": self.expect_state,
            "expect_shadow": self.expect_shadow,
            "expect_takeover": self.expect_takeover,
            "app_request": self.app_request,
            "pattern": self.pattern,
            "raw": RealBytes,
        }

    # -- derived ------------------------------------------------------------
    @property
    def end_time(self) -> float:
        """When the simulation must have run to for matching to be fair."""
        latest = 0.0
        for op in self.ops:
            tol = op.tolerance if op.tolerance is not None else self.tolerance
            horizon = op.until if op.until is not None else op.time + (
                tol if op.kind.startswith("expect") else 0.0
            )
            latest = max(latest, horizon)
        return latest + float(self.settings.get("run_for", 0.05))

    @property
    def tolerance(self) -> float:
        return float(self.settings.get("tol", DEFAULT_TOLERANCE))


def load_script(path: Union[str, Path]) -> DrillProgram:
    """Parse a drill script file into a :class:`DrillProgram`."""
    path = Path(path)
    program = DrillProgram(path.stem)
    source = path.read_text()
    code = compile(source, str(path), "exec")
    namespace = program.dsl_namespace()
    namespace["__name__"] = f"drill:{path.stem}"
    exec(code, namespace)  # noqa: S102 - scripts are repo-controlled tests
    return program
