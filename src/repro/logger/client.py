"""The backup's client for the packet-logger query service.

Supports several redundant loggers (§3.2: "by having two loggers ... one
can prevent the logger from becoming a single point of failure"): each
query goes to every logger, duplicate chunks are harmless (the receive
buffer discards overlaps), and a query completes when any logger has
streamed everything it claimed for that connection.

Responses travel over the same medium the backup taps, so a recovery
chunk can be lost exactly like the frame it is repairing.  ``LoggerDone``
carries the byte count the logger sent; when fewer bytes arrived, the
client re-issues the incomplete queries (the logger re-streams the range;
overlaps are discarded downstream) for up to ``RECOVERY_ATTEMPTS``
rounds.  A round that produced *no* response at all means the logger is
dead or unreachable, not lossy — the client gives up immediately so
takeover never stalls longer than one timeout on a dead logger.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.logger.messages import ConnKey, LoggerData, LoggerDone, LoggerQuery
from repro.net.addresses import IPAddress
from repro.tcp.timers import RestartableTimer

#: Give up on an unresponsive logger after this long; takeover must not
#: stall indefinitely on a dead logger.
RECOVERY_TIMEOUT = 0.200

#: Total query rounds against a *responding* logger before accepting the
#: loss; bounds the takeover delay at RECOVERY_ATTEMPTS * RECOVERY_TIMEOUT.
RECOVERY_ATTEMPTS = 4

OnData = Callable[[ConnKey, int, Any], None]
OnDone = Callable[[], None]


class LoggerClient:
    """Issues gap-recovery queries during failover and streams results."""

    def __init__(
        self,
        host: Any,
        logger_addr: Union[Tuple[IPAddress, int], Sequence[Tuple[IPAddress, int]]],
    ) -> None:
        self.host = host
        self.sim = host.sim
        if isinstance(logger_addr, tuple) and len(logger_addr) == 2 and not isinstance(
            logger_addr[0], tuple
        ):
            self.logger_addrs: List[Tuple[IPAddress, int]] = [logger_addr]
        else:
            self.logger_addrs = list(logger_addr)  # type: ignore[arg-type]
        self.socket = host.udp.socket()
        self.socket.on_datagram = self._on_message
        self._pending: Dict[ConnKey, Tuple[int, int]] = {}
        self._rx_bytes: Dict[Tuple[int, ConnKey], int] = {}
        self._attempt = 0
        self._heard_this_attempt = False
        self._on_data: Optional[OnData] = None
        self._on_done: Optional[OnDone] = None
        self._deadline = RestartableTimer(self.sim, self._timed_out, "logger-client")
        host.crash_observers.append(self._deadline.cancel)
        self.bytes_recovered = 0
        self.recoveries_timed_out = 0
        self.recovery_retries = 0

    def recover(
        self,
        queries: List[Tuple[ConnKey, int, int]],
        on_data: OnData,
        on_done: OnDone,
    ) -> None:
        """Fetch ranges [(key, start_seq32, stop_seq32)]; stream chunks to
        ``on_data(key, seq32, payload)``; call ``on_done()`` when every
        query finished or the retry budget is exhausted."""
        if not queries:
            on_done()
            return
        self._on_data = on_data
        self._on_done = on_done
        self._pending = {key: (start, stop) for key, start, stop in queries}
        self._attempt = 1
        self._send_pending()

    def _send_pending(self) -> None:
        # Per-round accounting: a retry re-streams the whole range, so
        # byte counts from the previous round must not carry over (they
        # would make a re-lost chunk look delivered).
        self._rx_bytes = {}
        self._heard_this_attempt = False
        self._deadline.start(RECOVERY_TIMEOUT)
        for key, (start_seq, stop_seq) in self._pending.items():
            message = LoggerQuery(key, start_seq, stop_seq)
            for addr in self.logger_addrs:
                self.socket.send_to(addr, message, message.wire_size)

    def _on_message(self, message: Any, addr: tuple) -> None:
        if self._on_done is None:
            return  # stale response after completion/timeout
        source = addr[0].value
        if isinstance(message, LoggerData):
            self._heard_this_attempt = True
            self.bytes_recovered += len(message.payload)
            slot = (source, message.key)
            self._rx_bytes[slot] = self._rx_bytes.get(slot, 0) + len(message.payload)
            if self._on_data is not None:
                self._on_data(message.key, message.seq, message.payload)
        elif isinstance(message, LoggerDone):
            self._heard_this_attempt = True
            if message.key not in self._pending:
                return  # duplicate/stale completion
            # Complete only when every byte this logger streamed actually
            # arrived; a short count means a chunk died en route and the
            # range must be re-queried.
            if self._rx_bytes.get((source, message.key), 0) >= message.recovered_bytes:
                del self._pending[message.key]
                if not self._pending:
                    self._finish()

    def _timed_out(self) -> None:
        if self._on_done is None:
            return
        if self._heard_this_attempt and self._attempt < RECOVERY_ATTEMPTS:
            # The logger is alive but a frame was lost: retry what is
            # still incomplete.  (A silent round falls through — a dead
            # logger earns exactly one timeout, never the full budget.)
            self._attempt += 1
            self.recovery_retries += 1
            self._send_pending()
            return
        self.recoveries_timed_out += 1
        self._finish()

    def _finish(self) -> None:
        self._deadline.stop()
        done, self._on_done, self._on_data = self._on_done, None, None
        self._pending = {}
        if done is not None:
            done()
