"""Is a crashed host silent?  Every dispatched callback, charged to its host.

``Host.crash`` powers the NICs off, kills the processes, halts the layers
and runs the crash observers; from then on nothing the host armed may
run.  This module checks that from outside ``src/``.  It wraps both ways
onto the event queue (``Scheduler.post`` and ``Scheduler.arm``, which
queues ``fn(token)`` for a timer, a TIME_WAIT record or an
``EventHandle``) and, just before each callback runs, finds the host that
owns it: the bound object (or the ``self`` a lambda closes over), then a
timer's or a handle's callback, a heartbeat monitor's suspicion hook, and
the ``conn`` -> ``layer`` -> ``host`` links.  A callback whose host has
crashed is a *breach*.

Two receive paths are exempt, and :data:`EXEMPT` names them: the NIC's
(``NIC.receive_frame`` drops what reaches a powered-off card) and IP loopback
delivery (``IPLayer._local_deliver`` drops what a host queued to itself
before it crashed).  A frame or datagram on its way *to* a host is not
something that host armed.  Kernel objects — processes, timeouts, bare
events — belong to no host: ``Process.kill`` detaches a dead host's
processes from whatever they waited on.

One implementation for both users: ``tools/event_census.py`` books
breaches beside its census and exits 1 on any, and tier-1 tests run a
scenario inside :func:`crash_silence` and assert ``not silence.breaches``.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import MethodType
from typing import Any, Callable, Dict, Iterator, Optional

from repro.host.host import Host
from repro.sim.events import EventHandle
from repro.sim.scheduler import Scheduler
from repro.tcp.timers import RestartableTimer

#: The receive paths a dead host may still be handed work on (they drop it).
EXEMPT = frozenset({"NIC.receive_frame", "NIC._dequeue_and_deliver", "IPLayer._local_deliver"})

#: Links from an object towards the host that armed it, tried in order.
_LINKS = ("callback", "on_suspect", "conn", "layer", "host")


def _closure_self(function: Any) -> Any:
    """The ``self`` a lambda or nested function closes over, if any."""
    code = getattr(function, "__code__", None)
    if code is None or "self" not in code.co_freevars:
        return None
    return function.__closure__[code.co_freevars.index("self")].cell_contents


def owner_host(callback: Any) -> Optional[Host]:
    """The host whose stack armed ``callback``, or None (fabric, kernel)."""
    obj = callback
    for _ in range(16):
        if isinstance(obj, Host):
            return obj
        bound = getattr(obj, "__self__", None)
        if bound is None:
            bound = _closure_self(obj)
        if bound is not None:
            obj = bound
            continue
        links = [getattr(obj, name, None) for name in _LINKS]
        obj = next((link for link in links if link is not None), None)
        if obj is None:
            return None
    return None


def describe(callback: Any) -> str:
    """``RetransmitEngine._on_rto[rto]`` for a timer, a handle's callback's
    name for a handle, else the qualname."""
    token = getattr(callback, "__self__", None)
    if isinstance(token, RestartableTimer):
        return f"{describe(token.callback)}[{token.name}]"
    if isinstance(token, EventHandle):
        return describe(token.callback)
    return getattr(callback, "__qualname__", repr(callback))


class CrashSilence:
    """Breaches seen so far: ``"<host>: <callback>"`` -> dispatch count."""

    def __init__(self) -> None:
        self.breaches: Dict[str, int] = {}

    def check(self, callback: Any) -> None:
        """Book ``callback`` if it is about to run for a crashed host."""
        host = owner_host(callback)
        if host is None or host.is_up or getattr(callback, "__qualname__", None) in EXEMPT:
            return
        label = f"{host.name}: {describe(callback)}"
        self.breaches[label] = self.breaches.get(label, 0) + 1

    def report(self) -> str:
        if not self.breaches:
            return "crash silence: no callback ran for a crashed host"
        lines = [f"CRASH SILENCE BROKEN: {sum(self.breaches.values())} callbacks ran for a crashed host"]
        lines += [f"  {count:>7}  {label}" for label, count in sorted(self.breaches.items())]
        return "\n".join(lines)


@contextmanager
def wrapped_queue(wrap: Callable[[Any], Any]) -> Iterator[None]:
    """Queue ``wrap(callback)`` in place of every callback queued meanwhile;
    a token's entry ``fn(token)`` is wrapped as the bound ``fn`` of its
    token (``RestartableTimer._fire`` of the timer, and so on).

    Build the simulator inside: ``Simulator`` binds ``post`` and ``arm``
    when it is made.
    """
    post, arm = Scheduler.post, Scheduler.arm

    def wrapped_post(self: Scheduler, time: float, callback: Any, *args: Any) -> None:
        post(self, time, wrap(callback), *args)

    def wrapped_arm(self: Scheduler, time: float, token: Any, fn: Any) -> None:
        wrapped = wrap(MethodType(fn, token))
        arm(self, time, token, lambda _token: wrapped())

    Scheduler.post, Scheduler.arm = wrapped_post, wrapped_arm  # type: ignore[method-assign]
    try:
        yield
    finally:
        Scheduler.post, Scheduler.arm = post, arm  # type: ignore[method-assign]


@contextmanager
def crash_silence() -> Iterator[CrashSilence]:
    """Check every callback dispatched inside the ``with`` block."""
    silence = CrashSilence()

    def wrap(callback: Any) -> Callable[..., None]:
        def checked(*args: Any) -> None:
            silence.check(callback)
            callback(*args)

        return checked

    with wrapped_queue(wrap):
        yield silence
