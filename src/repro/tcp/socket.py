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

from typing import TYPE_CHECKING, Any, List, Optional, TypeVar, Union

from repro.errors import ConnectionClosed
from repro.sim.events import SimEvent
from repro.tcp.constants import SYNCHRONIZED_STATES, TCPState
from repro.tcp.tcb import TCPConnection
from repro.tcp.timewait import Endpoint
from repro.util.bytespan import EMPTY, ByteSpan, as_span, concat

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.listener import TCPListener


#: Stands in for a connect event that has succeeded: the event, whose value
#: is the socket, would form a cycle with it that only the collector frees.
_CONNECTED = SimEvent(None, "tcp.connect").succeed()


class _Write(SimEvent):
    """A pending ``send``: the event, the span and how much of it is buffered."""

    __slots__ = ("span", "total", "done")

    def __init__(self, sim: Any, span: ByteSpan) -> None:
        super().__init__(sim, "tcp.send")
        self.span, self.total, self.done = span, span.length, 0


class _Read(SimEvent):
    """A pending ``recv`` or (``exact``) ``recv_exactly`` of ``n`` bytes:
    the event and what it has gathered: nothing (``None``), the lone
    piece, or, once a second arrives, a list of them (DESIGN §14 rule 6)."""

    __slots__ = ("exact", "n", "got", "acc")

    def __init__(self, sim: Any, name: str, exact: bool, n: int) -> None:
        super().__init__(sim, name)
        self.exact, self.n, self.got = exact, n, 0
        self.acc: Union[None, ByteSpan, List[ByteSpan]] = None

    def gathered(self) -> ByteSpan:
        """The pieces gathered so far as one span (a lone piece is itself)."""
        acc = self.acc
        if acc is None:
            return EMPTY
        if isinstance(acc, list):
            return concat(acc)
        return acc


_Pending = TypeVar("_Pending", _Write, _Read)


def _rest(queue: List[_Pending]) -> Optional[List[_Pending]]:
    """``queue`` less its front entry, or ``None`` once nothing is left."""
    if len(queue) == 1:
        return None
    del queue[0]
    return queue


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
        # an event or two, so plain lists popped at the front, and no list
        # while nothing waits (DESIGN §14 rule 6).
        self._writers: Optional[List[_Write]] = None
        self._readers: Optional[List[_Read]] = None
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
        """Succeeds (with this socket) once ESTABLISHED; fails on error.

        A succeeded event is not kept (``_CONNECTED`` stands in), nor is
        ``wait_closed``'s: its value is this socket."""
        if self._connect_event is None and self._tcb.state in SYNCHRONIZED_STATES:
            self._connect_event = _CONNECTED
        if self._connect_event is _CONNECTED:
            return SimEvent(self.sim, "tcp.connect").succeed(self)
        if self._connect_event is None:
            self._connect_event = SimEvent(self.sim, "tcp.connect")
            if self._error is not None:
                self._connect_event.fail(self._error)
            elif self._tcb.state is TCPState.CLOSED and self._tcb.error is not None:
                self._connect_event.fail(self._tcb.error)
        return self._connect_event

    def wait_closed(self) -> SimEvent:
        """Succeeds when the connection reaches CLOSED."""
        if self._tcb.state is TCPState.CLOSED:
            return SimEvent(self.sim, "tcp.closed").succeed(self)
        if self._closed_event is None:
            self._closed_event = SimEvent(self.sim, "tcp.closed")
            self._tcb.socket = self  # a TIME_WAIT record tells only a socket that waits
        return self._closed_event

    def send(self, data: Union[bytes, ByteSpan]) -> SimEvent:
        """Queue ``data``; the event succeeds when all bytes are buffered."""
        event = _Write(self.sim, as_span(data))
        if self._error is not None:
            event.fail(self._error)
            return event
        if self._tcb.state is TCPState.CLOSED:
            event.fail(ConnectionClosed("send on closed socket"))
            return event
        writers = self._writers
        if writers is None:
            self._writers = [event]
        else:
            writers.append(event)
        self._pump_writers()
        return event

    def recv(self, max_bytes: int = 65536) -> SimEvent:
        """Succeeds with 1..max_bytes of data, or an empty span at EOF."""
        event = _Read(self.sim, "tcp.recv", False, max_bytes)
        if max_bytes <= 0:
            event.succeed(EMPTY)
            return event
        self._wait_to_read(event)
        return event

    def recv_exactly(self, n: int) -> SimEvent:
        """Succeeds with exactly ``n`` bytes; fails on early EOF/error."""
        event = _Read(self.sim, "tcp.recv_exactly", True, n)
        if n <= 0:
            event.succeed(EMPTY)
            return event
        self._wait_to_read(event)
        return event

    def _wait_to_read(self, event: _Read) -> None:
        readers = self._readers
        if readers is None:
            self._readers = [event]
        else:
            readers.append(event)
        self._pump_readers()

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
            while True:
                writers = self._writers
                if not writers:
                    return
                writer = writers[0]
                total, done = writer.total, writer.done
                if done < total:
                    # The span itself and the offset reached: buffers keep
                    # ranges over the spans they are handed (DESIGN §13).
                    done += tcb.app_write(writer.span, done)
                    writer.done = done
                    if done < total:
                        assert isinstance(tcb, TCPConnection)  # a TIME_WAIT record's write raises
                        buffer = tcb.send_buffer
                        if buffer.tail_offset - buffer.una_offset < buffer.capacity:
                            continue  # space was freed while writing
                        return  # buffer full; the next ACK pumps again
                if len(writers) == 1:
                    self._writers = None
                else:
                    del writers[0]
                writer.succeed(total)
        finally:
            self._pumping_writers = False

    def _pump_readers(self) -> None:
        # The in-order byte count and the FIN flag are fields (DESIGN §13
        # rule 9): EOF is "FIN received and nothing left to read".
        tcb = self._tcb
        ready = tcb.recv_buffer.ready
        while True:
            readers = self._readers
            if not readers:
                return
            reader = readers[0]
            needed = reader.n - reader.got
            if needed > 0 and ready.length > 0:
                piece = tcb.app_read(needed)
                acc = reader.acc
                if acc is None:
                    reader.acc = piece
                elif isinstance(acc, list):
                    acc.append(piece)
                else:
                    reader.acc = [acc, piece]
                reader.got += piece.length
                needed -= piece.length
            if not reader.exact:
                if reader.got > 0 or needed == 0:
                    self._finish_reader(readers, reader)
                    continue
                if tcb.fin_received and ready.length == 0:
                    self._finish_reader(readers, reader)  # EOF → empty span
                    continue
                return
            # exact
            if needed == 0:
                self._finish_reader(readers, reader)
                continue
            if tcb.fin_received and ready.length == 0:
                self._readers = _rest(readers)
                reader.fail(
                    ConnectionClosed(f"peer closed with {needed} of {reader.n} bytes missing")
                )
                continue
            return

    def _finish_reader(self, readers: List[_Read], reader: _Read) -> None:
        """Dequeue ``reader``, the front of ``readers``, and wake it."""
        if len(readers) == 1:
            self._readers = None
        else:
            del readers[0]
        acc = reader.acc
        # A lone piece is the whole read.
        reader.succeed(acc if isinstance(acc, ByteSpan) else reader.gathered())

    # Told by the TCB, as are the two pumps -----------------------------------------
    def _on_established(self) -> None:
        listener = self._listener
        if listener is not None:
            self._listener = None  # first: an accept() it wakes may abort at once
            listener._established(self)
        event = self._connect_event
        if event is not None and not event._done:
            self._connect_event = _CONNECTED
            event.succeed(self)

    def _on_error(self, error: BaseException) -> None:
        if self._listener is not None:
            self._listener._pending -= 1
            self._listener = None
        self._error = error
        if self._connect_event is not None and not self._connect_event._done:
            self._connect_event.fail(error)
        while self._writers:
            writers = self._writers
            writer = writers[0]
            self._writers = _rest(writers)
            writer.fail(error)
        while self._readers:
            readers = self._readers
            reader = readers[0]
            self._readers = _rest(readers)
            if not reader.exact and reader.acc is not None:
                reader.succeed(reader.gathered())
            else:
                reader.fail(error)

    def _on_closed(self) -> None:
        closed = self._closed_event
        if closed is not None:
            self._closed_event = None
            closed.succeed(self)
        if self._error is None:
            # Orderly close: wake readers with EOF.
            while self._readers:
                readers = self._readers
                reader = readers[0]
                self._readers = _rest(readers)
                if reader.exact and reader.got < reader.n:
                    reader.fail(ConnectionClosed("connection closed during recv_exactly"))
                    continue
                reader.succeed(reader.gathered())
            while self._writers:
                writers = self._writers
                writer = writers[0]
                self._writers = _rest(writers)
                writer.fail(ConnectionClosed("connection closed during send"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TCPSocket {self._tcb!r}>"
