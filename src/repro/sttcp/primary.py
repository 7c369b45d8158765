"""The primary-side ST-TCP engine (§4.2–4.4).

Responsibilities:

* attach a :class:`SecondReceiveBuffer` to every service connection so
  client bytes survive until the backups acknowledge them;
* serve the UDP channel: release retained bytes on BACKUP_ACKs (answering
  each, which doubles as a heartbeat), and answer RETX_REQUESTs from the
  retained + unread receive data;
* send periodic heartbeats and monitor each backup's liveness, dropping
  to non-fault-tolerant mode when the *last* backup dies.

The paper's design allows "one or more backup servers" (§3); with several
backups a retained byte is only discarded once **every live backup** has
acknowledged it, and the loss of one backup merely shrinks the ack set.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.net.addresses import IPAddress
from repro.sttcp.config import STTCPConfig
from repro.sttcp.failure_detector import HeartbeatMonitor, heartbeats_sent_counter
from repro.sttcp.messages import (
    AckReply,
    BackupAck,
    ChannelMessage,
    ConnKey,
    Heartbeat,
    RetxData,
    RetxRequest,
    conn_key,
)
from repro.sttcp.retention import SecondReceiveBuffer
from repro.sttcp.shadow import ShadowExtension
from repro.tcp.constants import SEQ_MASK, SEQ_SPACE, SYNCHRONIZED_STATES, TCPState
from repro.tcp.seqspace import HALF_SPACE, unwrap, wrap
from repro.tcp.tcb import TCPConnection
from repro.tcp.timers import RestartableTimer
from repro.tcp.timewait import Endpoint, TimeWait
from repro.util.bytespan import concat

#: Payload ceiling per RETX_DATA chunk (fits one Ethernet frame).
RETX_CHUNK = 1400


def _reopen_window(tcb: Endpoint) -> None:
    """Advertise space a retention release or disable reopened (§4.2); a
    TIME_WAIT record keeps the window it had at entry."""
    if isinstance(tcb, TCPConnection) and tcb.state in SYNCHRONIZED_STATES:
        tcb.output.maybe_send_window_update()


class _PrimaryConnState:
    """Per-connection bookkeeping on the primary."""

    __slots__ = ("tcb", "retention", "acked_by", "requested_to")

    def __init__(self, tcb: TCPConnection, retention: SecondReceiveBuffer) -> None:
        self.tcb: Endpoint = tcb
        self.retention = retention
        #: backup channel IP value → highest acked receive-stream offset.
        self.acked_by: Dict[int, int] = {}
        #: The end of the furthest range a backup asked to be sent again:
        #: beyond the retention head, a backup still lacks retained bytes.
        self.requested_to = 0


class STTCPPrimary:
    """Primary-side protocol engine for one service endpoint."""

    def __init__(
        self,
        host: Any,
        service_ip: IPAddress,
        service_port: int,
        backup_ips: List[IPAddress],
        config: Optional[STTCPConfig] = None,
        channel: Optional[Any] = None,
        backup_hosts: Optional[Dict[int, Any]] = None,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.service_ip = service_ip
        self.service_port = service_port
        self.backup_ips = list(backup_ips)
        if not self.backup_ips:
            raise ValueError("at least one backup address is required")
        self.config = config or STTCPConfig()
        self.config.validate()
        self.fault_tolerant = True
        self.backup_failed_at: Optional[float] = None
        #: backup channel-IP value → Host, when known (lets the failure
        #: detector classify false suspicions against actual liveness).
        self.backup_hosts: Dict[int, Any] = dict(backup_hosts or {})
        self._connections: Dict[ConnKey, _PrimaryConnState] = {}
        self._hb_sequence = 0
        self._started = False
        # Channel socket on the primary's own (non-virtual) address.  A
        # promoted backup already owns one on this port and hands it over.
        self.channel = channel if channel is not None else host.udp.socket(self.config.channel_port)
        self.channel.on_datagram = self._on_channel_message
        self._hb_timer = RestartableTimer(self.sim, self._send_heartbeat, "primary-hb")
        self.backup_monitors: Dict[int, HeartbeatMonitor] = {}
        for ip_addr in self.backup_ips:
            self.backup_monitors[ip_addr.value] = self._make_monitor(ip_addr)
        host.tcp.connection_observers.append(self._on_new_connection)
        host.tcp.time_wait_observers.append(self._on_time_wait)
        host.tcp.close_observers.append(self._on_connection_closed)
        host.crash_observers.append(self.stop)
        self._c_hb_sent = heartbeats_sent_counter(self.sim)
        # Registry-backed counters, read as ``<host>.sttcp.<name>``.
        metrics = self.sim.metrics.scope(f"{host.name}.sttcp")
        self._c_acks_received = metrics.counter("acks_received")
        self._c_retx_requests_served = metrics.counter("retx_requests_served")
        self._c_retx_bytes_sent = metrics.counter("retx_bytes_sent")
        self._c_retained_reaped = metrics.counter("retention_states_reaped")

    def _make_monitor(self, ip_addr: IPAddress) -> HeartbeatMonitor:
        return HeartbeatMonitor(
            self.sim,
            self.config.hb_interval,
            self.config.hb_miss_threshold,
            lambda value=ip_addr.value: self._on_backup_suspected(value),
            name=f"{self.host.name}.backup-monitor.{ip_addr}",
            jitter=self.config.hb_jitter,
            peer_host=self.backup_hosts.get(ip_addr.value),
        )

    # Lifecycle --------------------------------------------------------------------
    def start(self) -> None:
        """Begin heartbeating and monitoring the backups."""
        if self._started:
            return
        self._started = True
        for monitor in self.backup_monitors.values():
            monitor.start()
        self._hb_timer.start(self.config.hb_interval)

    def stop(self) -> None:
        self._started = False
        self._hb_timer.cancel()
        for monitor in self.backup_monitors.values():
            monitor.stop()

    # Backup-set queries ---------------------------------------------------------------
    def live_backup_values(self) -> List[int]:
        return [
            value
            for value, monitor in self.backup_monitors.items()
            if not monitor.suspected
        ]

    # Connection hook -----------------------------------------------------------------
    def _on_new_connection(self, tcb: TCPConnection) -> None:
        if isinstance(tcb.extension, ShadowExtension):
            # A shadow replica on this host (promoted-backup topologies):
            # retention belongs to live primaries only.
            return
        if tcb.local_ip.value != self.service_ip.value or tcb.local_port != self.service_port:
            return
        self.retain(tcb)

    def retain(self, tcb: TCPConnection) -> None:
        """Attach a second buffer to a service connection, starting at its
        read position.  Only for a connection every backup has shadowed
        from its SYN: a fresh one, or a promoted backup's former shadow
        whose peers tapped the same stream."""
        capacity = self.config.second_buffer_size or tcb.config.rcv_buffer
        retention = SecondReceiveBuffer(capacity, tcb.recv_buffer.read_offset)
        if not self.fault_tolerant:
            retention.disable()
        tcb.recv_buffer.attach_retention(retention)
        self._connections[conn_key(tcb.remote_ip, tcb.remote_port)] = _PrimaryConnState(
            tcb, retention
        )
        if "sttcp" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now,
                "sttcp",
                "primary_attach",
                client=f"{tcb.remote_ip}:{tcb.remote_port}",
            )

    def _on_time_wait(self, tcb: TCPConnection, record: TimeWait) -> None:
        """TIME_WAIT observer: the connection's record replaces its TCB."""
        state = self._connections.get(conn_key(tcb.remote_ip, tcb.remote_port))
        if state is not None and state.tcb is tcb:
            state.tcb = record

    def _on_connection_closed(self, tcb: Endpoint) -> None:
        """Close observer: the TCP layer reaped a TCB; drop the retention
        state with it so churning clients don't accumulate dead buffers.

        No backup asks for a closed connection's retained bytes unless it
        missed them, so they are released here, not left waiting for an
        ack that a closed shadow never sends.  A backup that asked for
        retained bytes and has not acked them yet is still recovering
        them (§4.2), and so is one that asked for the client's FIN: the
        state stays for its next request and goes with the ack that
        covers them (``_handle_backup_ack``)."""
        key = conn_key(tcb.remote_ip, tcb.remote_port)
        state = self._connections.get(key)
        if state is None or state.tcb is not tcb:
            return
        retention = state.retention
        if retention.retained_bytes and state.requested_to > retention.lowest_retained_offset:
            return
        if state.requested_to and self._fin_unrecovered(state):
            return
        self._forget(key, state)

    def _fin_unrecovered(self, state: _PrimaryConnState) -> bool:
        """A backup asked for the client's FIN, and not every live backup
        has acked it yet.  Its callers test ``requested_to`` first: most
        connections close with no request ever made."""
        tcb = state.tcb
        if not tcb.fin_received:
            return False
        fin_end = tcb.rcv_offset(tcb.rcv_nxt)
        live = self.live_backup_values()
        return (
            state.requested_to >= fin_end
            and bool(live)
            and min(state.acked_by.get(value, 0) for value in live) < fin_end
        )

    def _forget(self, key: ConnKey, state: _PrimaryConnState) -> None:
        del self._connections[key]
        state.retention.release_all()
        self._c_retained_reaped.value += 1

    @property
    def retained_connection_count(self) -> int:
        return len(self._connections)

    @property
    def retention_states_reaped(self) -> int:
        return self._c_retained_reaped.value

    # Heartbeats -----------------------------------------------------------------------
    def _send_heartbeat(self) -> None:
        self._hb_sequence += 1
        message = Heartbeat("primary", self._hb_sequence)
        for ip_addr in self.backup_ips:
            monitor = self.backup_monitors[ip_addr.value]
            if not monitor.suspected:
                self._send(message, ip_addr)
                self._c_hb_sent.inc()
        self._hb_timer.start(self.config.hb_interval)

    def _send(self, message: ChannelMessage, target: IPAddress) -> None:
        self.channel.send_to((target, self.config.channel_port), message, message.wire_size)

    # Channel input -----------------------------------------------------------------------
    def _on_channel_message(self, message: Any, addr: Tuple[IPAddress, int]) -> None:
        source_value = addr[0].value
        monitor = self.backup_monitors.get(source_value)
        if monitor is not None:
            monitor.heard()
        if isinstance(message, BackupAck):
            self._handle_backup_ack(message, addr[0])
        elif isinstance(message, RetxRequest):
            self._handle_retx_request(message, addr[0])
        # Heartbeats carry liveness only.

    def _handle_backup_ack(self, ack: BackupAck, source: IPAddress) -> None:
        self._c_acks_received.value += 1
        state = self._connections.get(ack.key)
        if state is not None:
            tcb = state.tcb
            ack_seq = ack.ack_seq
            rcv_nxt = tcb.rcv_nxt
            delta = (ack_seq - rcv_nxt) & SEQ_MASK  # unwrap(ack_seq, rcv_nxt), inline
            if delta > HALF_SPACE:
                delta -= SEQ_SPACE
            ack_abs = rcv_nxt + delta
            if ack_abs < 0 or delta == HALF_SPACE or not 0 <= ack_seq <= SEQ_MASK:
                ack_abs = unwrap(ack_seq, rcv_nxt)
            offset = tcb.rcv_offset(ack_abs)
            previous = state.acked_by.get(source.value, 0)
            if offset > previous:
                state.acked_by[source.value] = offset
            if self._release_retained(state):
                # Window may have been pinched by retention overflow;
                # releasing bytes can reopen it.
                _reopen_window(tcb)
            if (
                tcb.state is TCPState.CLOSED
                and not state.retention.retained_bytes
                and not (state.requested_to and self._fin_unrecovered(state))
            ):
                self._forget(ack.key, state)  # held past its close until recovered
        # The reply doubles as the primary→backup heartbeat (§4.3).
        self._send(AckReply(ack.key, ack.ack_seq), source)

    def _release_retained(self, state: _PrimaryConnState) -> int:
        """Discard retained bytes every *live* backup has acknowledged."""
        live = self.live_backup_values()
        if not live:
            return 0
        floor = min(state.acked_by.get(value, 0) for value in live)
        return state.retention.backup_acked(floor)

    def _handle_retx_request(self, request: RetxRequest, source: IPAddress) -> None:
        state = self._connections.get(request.key)
        if state is None:
            return
        tcb = state.tcb
        start_abs = unwrap(request.start_seq, tcb.rcv_nxt)
        stop_abs = unwrap(request.stop_seq, tcb.rcv_nxt)
        if stop_abs <= start_abs:
            return
        # Retained bytes, then the unread receive buffer: together one
        # contiguous range, which begins at the retention head — or at the
        # read pointer once retention is off (§4.4).  Bytes below it are
        # gone, so the reply starts (and is labelled) at it.
        retention, recv_buffer = state.retention, tcb.recv_buffer
        held_from = retention.lowest_retained_offset if retention.enabled else recv_buffer.read_offset
        start = max(tcb.rcv_offset(start_abs), held_from)
        stop = tcb.rcv_offset(stop_abs)
        if stop > state.requested_to:
            state.requested_to = stop
        # A range through the client's FIN carries it as a flag: the FIN
        # is sequence space, not a byte of either buffer.
        fin = tcb.fin_received and stop >= tcb.rcv_offset(tcb.rcv_nxt)
        if fin:
            stop = tcb.rcv_offset(tcb.rcv_nxt) - 1
        data = concat([retention.fetch(start, stop), recv_buffer.peek_unread(start, stop)])
        length = len(data)
        if length == 0 and not fin:
            return
        self._c_retx_requests_served.value += 1
        # Chunk into frame-sized RETX_DATA messages; the last one takes the
        # FIN (alone, when no byte was asked for).
        first_seq = tcb.irs + 1 + start
        for piece_start in range(0, length, RETX_CHUNK) or (0,):
            piece_stop = min(piece_start + RETX_CHUNK, length)
            piece = data.slice(piece_start, piece_stop)
            self._c_retx_bytes_sent.value += len(piece)
            last = fin and piece_stop == length
            acked = wrap(tcb.snd_una) if last else 0
            self._send(RetxData(request.key, wrap(first_seq + piece_start), piece, last, acked), source)

    # Backup replacement (cluster election) ----------------------------------------------
    def replace_backup(
        self, old_ip: IPAddress, new_ip: IPAddress, new_host: Optional[Any] = None
    ) -> List[TCPConnection]:
        """Swap a consumed backup for a freshly elected one and return the
        open connections this leaves unprotected.

        The old backup's monitor is dropped; the new one gets a full
        detection grace period.  The new backup shadows only connections
        opened from now on (§3: a replica sees its connection from the
        SYN), so every connection already open loses its second buffer, as
        on a backup failure (§4.4), and leaves the ack set: no release
        waits for an ack the new backup will never send.
        """
        old_value = old_ip.value
        monitor = self.backup_monitors.pop(old_value, None)
        if monitor is not None:
            monitor.stop()
        self.backup_ips = [addr for addr in self.backup_ips if addr.value != old_value]
        self.backup_hosts.pop(old_value, None)
        if new_host is not None:
            self.backup_hosts[new_ip.value] = new_host
        self.backup_ips.append(new_ip)
        unprotected: List[Endpoint] = []
        for state in self._connections.values():
            state.retention.disable()
            if state.tcb.state in SYNCHRONIZED_STATES:
                _reopen_window(state.tcb)
                unprotected.append(state.tcb)
        self._connections.clear()
        new_monitor = self._make_monitor(new_ip)
        self.backup_monitors[new_ip.value] = new_monitor
        if self._started:
            new_monitor.start()
            if not self._hb_timer.running:
                self._hb_timer.start(self.config.hb_interval)
        if not self.fault_tolerant:
            self.fault_tolerant = True
            self.backup_failed_at = None
        if "sttcp" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now,
                "sttcp",
                "backup_replaced",
                old=str(old_ip),
                new=str(new_ip),
            )
        return unprotected

    # Backup failure ---------------------------------------------------------------------
    def _on_backup_suspected(self, backup_value: int) -> None:
        """One backup died: shrink the ack set; if it was the last, drop
        to non-fault-tolerant mode (§4.4)."""
        if "sttcp" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now, "sttcp", "backup_suspected", remaining=len(self.live_backup_values())
            )
        if self.live_backup_values():
            # Survivors may have acked further than the dead backup did.
            for state in self._connections.values():
                if self._release_retained(state):
                    _reopen_window(state.tcb)
        else:
            self.fault_tolerant = False
            self.backup_failed_at = self.sim.now
            for state in self._connections.values():
                state.retention.disable()
                _reopen_window(state.tcb)
            self._hb_timer.stop()
            if "sttcp" in self.sim.trace.categories:
                self.sim.trace.emit(self.sim.now, "sttcp", "non_fault_tolerant_mode")
        # A closed connection held for a backup's recovery that is now
        # released, or whose backup is gone, is held no longer.
        for key, state in list(self._connections.items()):
            if (
                state.tcb.state is TCPState.CLOSED
                and not state.retention.retained_bytes
                and not (state.requested_to and self._fin_unrecovered(state))
            ):
                self._forget(key, state)
