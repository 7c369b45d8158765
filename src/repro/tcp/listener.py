"""Passive TCP opens: the listening socket.

A listener owns a (local-IP, port) endpoint; inbound SYNs create
connections that are delivered to ``accept()`` once established.  On a
replica host the very same listener code opens connections from SYNs the
host merely overheard, so the unmodified server application runs
identically on every replica (§4.1).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.errors import ConnectionClosed
from repro.net.addresses import IPAddress
from repro.sim.events import SimEvent
from repro.tcp.socket import TCPSocket
from repro.tcp.tcb import TCPConnection


class TCPListener:
    """A listening endpoint producing accepted sockets."""

    def __init__(
        self,
        layer: Any,
        port: int,
        bind_ip: Optional[IPAddress],
        backlog: int = 128,
    ) -> None:
        self.layer = layer
        self.sim = layer.sim
        self.port = port
        self.bind_ip = bind_ip  # None = any local IP
        self.backlog = backlog
        self.closed = False
        self._ready: Deque[TCPSocket] = deque()
        self._waiters: Deque[SimEvent] = deque()
        self._pending = 0  # handshakes in progress
        self.accepted_total = 0

    def accept(self) -> SimEvent:
        """Waitable: succeeds with the next established :class:`TCPSocket`."""
        event = SimEvent(self.sim, f"tcp.accept:{self.port}")
        if self.closed:
            event.fail(ConnectionClosed(f"listener :{self.port} is closed"))
            return event
        if self._ready:
            event.succeed(self._ready.popleft())
        else:
            self._waiters.append(event)
        return event

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.layer.remove_listener(self)
        while self._waiters:
            self._waiters.popleft().fail(
                ConnectionClosed(f"listener :{self.port} closed while accepting")
            )

    # Layer-side hooks --------------------------------------------------------
    def may_accept_syn(self) -> bool:
        return not self.closed and (self._pending + len(self._ready)) < self.backlog

    def track_handshake(self, tcb: TCPConnection) -> None:
        """Register callbacks delivering the connection once established."""
        self._pending += 1
        socket = TCPSocket(tcb)
        assert tcb.on_established is not None and tcb.on_error is not None
        socket_established: Callable[[], None] = tcb.on_established
        socket_error: Callable[[BaseException], None] = tcb.on_error

        # The handshake resolves once, either way; whichever callback
        # fires hands the TCB back to the socket's own, so these two
        # closures live for a handshake, not for the connection.
        def established() -> None:
            self._pending -= 1
            tcb.on_established = socket_established
            tcb.on_error = socket_error
            self.accepted_total += 1
            if self._waiters:
                self._waiters.popleft().succeed(socket)
            else:
                self._ready.append(socket)
            socket_established()

        def died_before_establishing(exc: BaseException) -> None:
            self._pending -= 1
            tcb.on_established = socket_established
            tcb.on_error = socket_error
            socket_error(exc)

        tcb.on_established = established
        tcb.on_error = died_before_establishing

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        bind = self.bind_ip or "*"
        return f"<TCPListener {bind}:{self.port} ready={len(self._ready)}>"
