"""The application-facing TCP socket.

Wraps a :class:`~repro.tcp.tcb.TCPConnection` with waitable operations for
coroutine processes::

    sock = host.tcp.connect((server_ip, 80))
    yield sock.wait_connected()
    yield sock.send(b"GET /")
    reply = yield sock.recv_exactly(1024)
    sock.close()
    yield sock.wait_closed()

``send`` completes when *all* bytes have been accepted into the send
buffer (not when acknowledged); ``recv`` completes with at least one byte
or EOF (an empty span); ``recv_exactly`` accumulates and fails if the peer
closes early.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.errors import ConnectionClosed
from repro.sim.events import SimEvent
from repro.tcp.constants import SYNCHRONIZED_STATES, TCPState
from repro.tcp.tcb import TCPConnection
from repro.tcp.timewait import Endpoint
from repro.util.bytespan import EMPTY, ByteSpan, as_span, concat

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.listener import TCPListener


class TCPSocket:
    """A connection handle for application processes."""

    __slots__ = (
        "_tcb", "sim", "_connect_event", "_closed_event",
        "_writers", "_readers", "_error", "_pumping_writers", "_listener",
    )

    def __init__(self, tcb: TCPConnection) -> None:
        #: The TCB, or from TIME_WAIT on the record that replaced it.
        self._tcb: Endpoint = tcb
        self.sim = tcb.sim
        self._connect_event: Optional[SimEvent] = None
        self._closed_event: Optional[SimEvent] = None
        # The sends and receives one application process has outstanding:
        # a record or two, so plain lists popped at the front.
        self._writers: List[Dict[str, Any]] = []
        self._readers: List[Dict[str, Any]] = []
        self._error: Optional[BaseException] = None
        self._pumping_writers = False
        self._listener: Optional["TCPListener"] = None  # holds a slot until the handshake resolves
        tcb.socket = self

    # Introspection ------------------------------------------------------------
    @property
    def tcb(self) -> Endpoint:
        """The underlying connection (read-mostly; ST-TCP engines use it)."""
        return self._tcb

    @property
    def state(self) -> TCPState:
        return self._tcb.state

    @property
    def local_address(self) -> tuple:
        return (self._tcb.local_ip, self._tcb.local_port)

    @property
    def remote_address(self) -> tuple:
        return (self._tcb.remote_ip, self._tcb.remote_port)

    @property
    def connected(self) -> bool:
        return self._tcb.state is TCPState.ESTABLISHED

    # Waitables ------------------------------------------------------------------
    def wait_connected(self) -> SimEvent:
        """Succeeds (with this socket) once ESTABLISHED; fails on error."""
        if self._connect_event is None:
            self._connect_event = SimEvent(self.sim, "tcp.connect")
            if self._tcb.state in SYNCHRONIZED_STATES:
                self._connect_event.succeed(self)
            elif self._error is not None:
                self._connect_event.fail(self._error)
            elif self._tcb.state is TCPState.CLOSED and self._tcb.error is not None:
                self._connect_event.fail(self._tcb.error)
        return self._connect_event

    def wait_closed(self) -> SimEvent:
        """Succeeds when the connection reaches CLOSED."""
        if self._closed_event is None:
            self._closed_event = SimEvent(self.sim, "tcp.closed")
            if self._tcb.state is TCPState.CLOSED:
                self._closed_event.succeed(self)
            else:
                self._tcb.socket = self  # a TIME_WAIT record tells only a socket that waits
        return self._closed_event

    def send(self, data: Union[bytes, ByteSpan]) -> SimEvent:
        """Queue ``data``; the event succeeds when all bytes are buffered."""
        event = SimEvent(self.sim, "tcp.send")
        span = as_span(data)
        if self._error is not None:
            event.fail(self._error)
            return event
        if self._tcb.state is TCPState.CLOSED:
            event.fail(ConnectionClosed("send on closed socket"))
            return event
        self._writers.append(
            {"span": span, "total": span.length, "done": 0, "event": event}
        )
        self._pump_writers()
        return event

    def recv(self, max_bytes: int = 65536) -> SimEvent:
        """Succeeds with 1..max_bytes of data, or an empty span at EOF."""
        event = SimEvent(self.sim, "tcp.recv")
        if max_bytes <= 0:
            event.succeed(EMPTY)
            return event
        self._readers.append(
            {"kind": "some", "n": max_bytes, "got": 0, "acc": [], "event": event}
        )
        self._pump_readers()
        return event

    def recv_exactly(self, n: int) -> SimEvent:
        """Succeeds with exactly ``n`` bytes; fails on early EOF/error."""
        event = SimEvent(self.sim, "tcp.recv_exactly")
        if n <= 0:
            event.succeed(EMPTY)
            return event
        self._readers.append(
            {"kind": "exact", "n": n, "got": 0, "acc": [], "event": event}
        )
        self._pump_readers()
        return event

    # Closing ---------------------------------------------------------------------
    def close(self) -> None:
        """Orderly shutdown (FIN after pending data)."""
        self._tcb.app_close()

    def abort(self) -> None:
        """Abortive shutdown (RST)."""
        self._tcb.app_abort()

    # Pumps -------------------------------------------------------------------------
    def _pump_writers(self) -> None:
        if self._pumping_writers:
            # app_write can synchronously free buffer space (an extension
            # applying deferred acks) and pump the writers again; re-entering
            # here would append with a stale "done" and corrupt the
            # stream.  The outer pump loop picks the space up instead.
            return
        self._pumping_writers = True
        tcb = self._tcb
        try:
            while self._writers:
                writer = self._writers[0]
                total, done = writer["total"], writer["done"]
                if done < total:
                    # The span itself and the offset reached: buffers keep
                    # ranges over the spans they are handed (DESIGN §13).
                    done += tcb.app_write(writer["span"], done)
                    writer["done"] = done
                    if done < total:
                        assert isinstance(tcb, TCPConnection)  # a TIME_WAIT record's write raises
                        buffer = tcb.send_buffer
                        if buffer.tail_offset - buffer.una_offset < buffer.capacity:
                            continue  # space was freed while writing
                        return  # buffer full; the next ACK pumps again
                self._writers.pop(0)
                writer["event"].succeed(total)
        finally:
            self._pumping_writers = False

    def _pump_readers(self) -> None:
        # The in-order byte count and the FIN flag are fields (DESIGN §13
        # rule 9): EOF is "FIN received and nothing left to read".
        tcb = self._tcb
        ready = tcb.recv_buffer.ready
        readers = self._readers
        while readers:
            reader = readers[0]
            needed = reader["n"] - reader["got"]
            if needed > 0 and ready.length > 0:
                piece = tcb.app_read(needed)
                reader["acc"].append(piece)
                reader["got"] += piece.length
                needed -= piece.length
            if reader["kind"] == "some":
                if reader["got"] > 0 or needed == 0:
                    self._finish_reader(reader)
                    continue
                if tcb.fin_received and ready.length == 0:
                    self._finish_reader(reader)  # EOF → empty span
                    continue
                return
            # exact
            if needed == 0:
                self._finish_reader(reader)
                continue
            if tcb.fin_received and ready.length == 0:
                self._readers.pop(0)
                reader["event"].fail(
                    ConnectionClosed(
                        f"peer closed with {needed} of {reader['n']} bytes missing"
                    )
                )
                continue
            return

    def _finish_reader(self, reader: Dict[str, Any]) -> None:
        self._readers.pop(0)
        acc = reader["acc"]
        if len(acc) == 1:
            reader["event"].succeed(acc[0])  # a lone piece is the whole read
        else:
            reader["event"].succeed(concat(acc) if acc else EMPTY)

    # Told by the TCB, as are the two pumps -----------------------------------------
    def _on_established(self) -> None:
        listener = self._listener
        if listener is not None:
            self._listener = None  # first: an accept() it wakes may abort at once
            listener._established(self)
        if self._connect_event is not None and not self._connect_event._done:
            self._connect_event.succeed(self)

    def _on_error(self, error: BaseException) -> None:
        if self._listener is not None:
            self._listener._pending -= 1
            self._listener = None
        self._error = error
        if self._connect_event is not None and not self._connect_event._done:
            self._connect_event.fail(error)
        while self._writers:
            self._writers.pop(0)["event"].fail(error)
        while self._readers:
            reader = self._readers.pop(0)
            if reader["kind"] == "some" and reader["acc"]:
                reader["event"].succeed(concat(reader["acc"]))
            else:
                reader["event"].fail(error)

    def _on_closed(self) -> None:
        if self._closed_event is not None and not self._closed_event._done:
            self._closed_event.succeed(self)
        if self._error is None:
            # Orderly close: wake readers with EOF.
            while self._readers:
                reader = self._readers.pop(0)
                if reader["kind"] == "exact":
                    if reader["got"] < reader["n"]:
                        reader["event"].fail(
                            ConnectionClosed("connection closed during recv_exactly")
                        )
                        continue
                reader["event"].succeed(
                    concat(reader["acc"]) if reader["acc"] else EMPTY
                )
            while self._writers:
                self._writers.pop(0)["event"].fail(
                    ConnectionClosed("connection closed during send")
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TCPSocket {self._tcb!r}>"
