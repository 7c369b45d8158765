"""Passive TCP opens: the listening socket.

A listener owns a (local-IP, port) endpoint; inbound SYNs create
connections that are delivered to ``accept()`` once established.  On a
replica host the very same listener code opens connections from SYNs the
host merely overheard, so the unmodified server application runs
identically on every replica (§4.1).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import ConnectionClosed
from repro.net.addresses import IPAddress
from repro.sim.events import SimEvent
from repro.tcp.config import TCPConfig
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
        config: Optional[TCPConfig] = None,
    ) -> None:
        self.layer = layer
        self.sim = layer.sim
        self.port = port
        self.bind_ip = bind_ip  # None = any local IP
        self.backlog = backlog
        self.config = config  # None = the layer's default
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
        """Hold a backlog slot for ``tcb``'s socket until it established
        (:meth:`_established`) or failed: the socket clears ``_listener``."""
        self._pending += 1
        TCPSocket(tcb)._listener = self

    def _established(self, socket: TCPSocket) -> None:
        """Deliver a socket whose handshake completed to ``accept()``."""
        self._pending -= 1
        self.accepted_total += 1
        if self._waiters:
            self._waiters.popleft().succeed(socket)
        else:
            self._ready.append(socket)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        bind = self.bind_ip or "*"
        return f"<TCPListener {bind}:{self.port} ready={len(self._ready)}>"
