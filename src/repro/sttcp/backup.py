"""The backup-side ST-TCP engine: tapping, shadowing, failover (§3–§5).

The backup:

* turns every passive open into a *shadow* connection (suppressed output,
  ISN synchronisation) while running the unmodified server application;
* observes the tapped primary→client stream to learn how far the primary's
  receive state has advanced — any client bytes the primary ACKed that the
  backup failed to tap are requested back over the UDP channel (§4.2);
* acknowledges received client bytes to the primary with the X / SyncTime
  strategy (§4.3);
* monitors heartbeats and, on suspicion, power-switches the primary and
  takes the connections over — making itself indistinguishable from the
  primary to the client (§4.4, §5).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.ip.datagram import PROTO_TCP, IPDatagram
from repro.net.addresses import IPAddress
from repro.net.nic import NIC
from repro.sttcp.config import STTCPConfig
from repro.sttcp.failure_detector import HeartbeatMonitor, heartbeats_sent_counter
from repro.sttcp.indexes import BackupConnectionIndex
from repro.sttcp.messages import (
    BackupAck,
    ChannelMessage,
    ConnKey,
    ConnSnapshot,
    Heartbeat,
    RetxData,
    RetxRequest,
    SyncDone,
    SyncRequest,
    conn_key,
)
from repro.sttcp.power_switch import PowerSwitch
from repro.sttcp.shadow import ShadowExtension
from repro.tcp.constants import FLAG_ACK, FLAG_SYN, SYNCHRONIZED_STATES, TCPState
from repro.tcp.segment import TCPSegment
from repro.tcp.seqspace import unwrap, wrap
from repro.tcp.tcb import TCPConnection
from repro.tcp.timers import RestartableTimer

ROLE_PASSIVE = "passive"
ROLE_TAKING_OVER = "taking_over"
ROLE_ACTIVE = "active"
ROLE_RETIRED = "retired"


class _ShadowConnState:
    """Per-connection bookkeeping on the backup."""

    __slots__ = (
        "tcb",
        "ext",
        "key",
        "closed",
        "converged",
        "last_acked_offset",
        "last_ack_time",
        "pending_retx",
        "primary_rcv_nxt",
        "primary_snd_nxt",
        "convergence_sid",
    )

    def __init__(self, tcb: TCPConnection, ext: ShadowExtension, now: float) -> None:
        self.tcb = tcb
        self.ext = ext
        self.key: ConnKey = conn_key(tcb.remote_ip, tcb.remote_port)
        self.closed = False  # reaped; invalidates lazy index entries
        self.converged = False  # rebased + synchronized at least once
        self.last_acked_offset = 0  # LastByteAcked (as a stream offset)
        self.last_ack_time = now
        self.pending_retx: Optional[tuple] = None  # (start_abs, stop_abs, at)
        self.primary_rcv_nxt: Optional[int] = None  # abs, from tapped ACKs
        self.primary_snd_nxt: Optional[int] = None  # abs, from tapped data
        #: Open shadow_convergence span id (None once converged/untraced).
        self.convergence_sid: Optional[int] = None


class STTCPBackup:
    """Backup-side protocol engine for one service endpoint."""

    def __init__(
        self,
        host: Any,
        service_ip: IPAddress,
        service_port: int,
        primary_ip: IPAddress,
        config: Optional[STTCPConfig] = None,
        primary_host: Optional[Any] = None,
        power_switch: Optional[PowerSwitch] = None,
        logger_client: Optional[Any] = None,
        rank: int = 0,
        peer_backup_ips: Optional[List[IPAddress]] = None,
        peer_hosts: Optional[Dict[int, Any]] = None,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.service_ip = service_ip
        self.service_port = service_port
        self.primary_ip = primary_ip
        self.primary_host = primary_host
        self.power_switch = power_switch
        self.logger_client = logger_client
        self.config = config or STTCPConfig()
        self.config.validate()
        self.rank = rank
        self.peer_backup_ips = list(peer_backup_ips or [])
        #: channel-IP value → host, so an adopted primary can be STONITHed.
        self.peer_hosts: Dict[int, Any] = dict(peer_hosts or {})
        self.promoted_primary: Optional[Any] = None
        #: The queued takeover step (rank deferral, go-back-N batch, FT-TCP recovery).
        self._deferred_takeover = None
        self.role = ROLE_PASSIVE
        self.detection_time: Optional[float] = None
        self.takeover_time: Optional[float] = None
        self.degraded_connections: List[ConnKey] = []
        self._connections: Dict[ConnKey, _ShadowConnState] = {}
        #: Incrementally maintained views (ack schedule, gaps, pending
        #: rebase, outstanding recovery) — the per-event paths below never
        #: walk ``_connections``; only takeover-time code does.
        self._index = BackupConnectionIndex()
        self._hb_sequence = 0
        self._started = False
        # Backups answer nothing on their own: no RSTs for unmatched
        # tapped segments, no ARP for the (suppressed) service IP.
        host.tcp.reset_on_unmatched = False
        host.tcp.connection_observers.append(self._on_passive_open)
        host.tcp.close_observers.append(self._on_shadow_closed)
        host.ip_layer.add_tap(self._on_tapped_datagram)
        host.crash_observers.append(self.stop)
        self.channel = host.udp.socket(self.config.channel_port)
        host._sttcp_channel_socket = self.channel
        self.channel.on_datagram = self._on_channel_message
        self.primary_monitor = HeartbeatMonitor(
            self.sim,
            self.config.hb_interval,
            self.config.hb_miss_threshold,
            self._on_primary_suspected,
            name=f"{host.name}.primary-monitor",
            jitter=self.config.hb_jitter,
            peer_host=primary_host,
        )
        self._sync_timer = RestartableTimer(self.sim, self._on_sync_tick, "backup-sync")
        self._hb_timer = RestartableTimer(self.sim, self._send_heartbeat, "backup-hb")
        #: Election hooks: fired when this engine completes a takeover /
        #: when a requested snapshot handoff finishes.
        self.on_takeover: Optional[Callable[["STTCPBackup"], None]] = None
        self.on_sync_done: Optional[Callable[["STTCPBackup"], None]] = None
        self.sync_requested_at: Optional[float] = None
        self.sync_done_at: Optional[float] = None
        # Registry-backed counters, read as ``<host>.sttcp.<name>``.
        metrics = self.sim.metrics.scope(f"{host.name}.sttcp")
        self._c_acks_sent = metrics.counter("acks_sent")
        self._c_retx_requests_sent = metrics.counter("retx_requests_sent")
        self._c_retx_bytes_recovered = metrics.counter("retx_bytes_recovered")
        self._c_logger_bytes_recovered = metrics.counter("logger_bytes_recovered")
        self._c_snapshots_adopted = metrics.counter("snapshots_adopted")
        self._c_shadows_reaped = metrics.counter("shadows_reaped")
        self._c_hb_sent = heartbeats_sent_counter(self.sim)
        #: Open takeover-episode span id (suspicion → active role).
        self._takeover_sid: Optional[int] = None
        #: Causal-chain id of the failover in progress: allocated at
        #: suspicion, carried on the takeover-episode span, and set as
        #: the tracer's dynamic flow context around the STONITH request
        #: and the takeover completion so the arbiter fence, the election
        #: and the first-ack probes join the same chain.
        self._failover_flow: Optional[int] = None

    @property
    def shadow_count(self) -> int:
        return len(self._connections)

    @property
    def pending_rebase_count(self) -> int:
        """Shadows not yet re-anchored on the primary's ISN (§4.1) — the
        backup's convergence lag, as a count."""
        return self._index.pending_rebase_count()

    def index_sizes(self) -> Dict[str, int]:
        return self._index.sizes()

    # Lifecycle -------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.primary_monitor.start()
        self._sync_timer.start(self.config.effective_sync_time())
        self._hb_timer.start(self.config.hb_interval)

    def stop(self) -> None:
        self._started = False
        self.primary_monitor.stop()
        self._sync_timer.cancel()
        self._hb_timer.cancel()
        if self._deferred_takeover is not None:
            self._deferred_takeover.cancel()
            self._deferred_takeover = None

    # Shadow connections -----------------------------------------------------------
    def _on_passive_open(self, tcb: TCPConnection) -> None:
        """Connection observer: shadow every passive open of the service
        endpoint while this host is a passive backup (once active, new
        connections are regular primaries-to-be)."""
        if self.role is not ROLE_PASSIVE:
            return
        if tcb.local_ip.value != self.service_ip.value or tcb.local_port != self.service_port:
            return
        ext = ShadowExtension()
        tcb.add_extension(ext)
        state = _ShadowConnState(tcb, ext, self.sim.now)
        self._connections[state.key] = state
        self._index.add(state)
        tcb.on_rcv_advance = lambda _rcv, s=state: self._on_stream_advance(s)
        if self.sim.trace.enabled_for("sttcp"):
            self.sim.trace.emit(
                self.sim.now,
                "sttcp",
                "shadow_attach",
                client=f"{tcb.remote_ip}:{tcb.remote_port}",
            )
            # Converges once the shadow is ESTABLISHED on the primary's ISN.
            state.convergence_sid = self.sim.trace.begin_span(
                self.sim.now,
                "sttcp",
                "shadow_convergence",
                client=f"{tcb.remote_ip}:{tcb.remote_port}",
            )

    @property
    def shadow_connections(self) -> List[TCPConnection]:
        return [state.tcb for state in self._connections.values()]

    def _on_shadow_closed(self, tcb: TCPConnection) -> None:
        """Close observer: the TCP layer reaped a TCB; drop our shadow
        state too so churning clients don't accumulate dead bookkeeping."""
        state = self._connections.get(conn_key(tcb.remote_ip, tcb.remote_port))
        if state is None or state.tcb is not tcb:
            return
        if state.convergence_sid is not None:
            self.sim.trace.end_span(
                self.sim.now,
                "sttcp",
                "shadow_convergence",
                state.convergence_sid,
                outcome="closed",
            )
            state.convergence_sid = None
        state.closed = True
        del self._connections[state.key]
        self._index.discard(state)
        tcb.on_rcv_advance = None
        self._c_shadows_reaped.value += 1

    # Acknowledgment strategy (§4.3) ---------------------------------------------------
    def _ack_threshold(self, tcb: TCPConnection) -> int:
        second_buffer = self.config.second_buffer_size or tcb.config.rcv_buffer
        return max(1, int(self.config.ack_threshold_fraction * second_buffer))

    def _on_stream_advance(self, state: _ShadowConnState) -> None:
        if self.role is not ROLE_PASSIVE:
            return
        tcb = state.tcb
        if not state.converged and state.ext.isn_rebased and tcb.state in SYNCHRONIZED_STATES:
            self._note_converged(state)
        # The local stream moved: it may have caught up with the primary.
        self._index.reconcile_gap(state)
        received = tcb.recv_buffer.rcv_nxt_offset - state.last_acked_offset
        if received >= self._ack_threshold(tcb):
            self._send_backup_ack(state)
        # A filled gap may satisfy an outstanding recovery request.
        if state.pending_retx is not None:
            _, stop_abs, _ = state.pending_retx
            if tcb.rcv_nxt >= stop_abs:
                state.pending_retx = None
                self._index.clear_retx_pending(state)

    def _note_converged(self, state: _ShadowConnState) -> None:
        """The shadow is ESTABLISHED on the primary's ISN: discharge it
        from the pending-rebase index and close the convergence span."""
        state.converged = True
        self._index.note_rebased(state)
        if state.convergence_sid is not None:
            self.sim.trace.end_span(
                self.sim.now, "sttcp", "shadow_convergence", state.convergence_sid
            )
            state.convergence_sid = None

    def _on_sync_tick(self) -> None:
        """SyncTime expiry: ack every *due* connection.

        The ack-schedule index pops exactly the connections whose
        SyncTime elapsed since their last BackupAck, so an idle tick over
        N shadows is O(due + expired recovery requests), not O(N).
        """
        if self.role is not ROLE_PASSIVE:
            return
        sync_time = self.config.effective_sync_time()
        now = self.sim.now
        for state in self._index.ack_due(now, sync_time):
            if state.tcb.state in SYNCHRONIZED_STATES:
                self._send_backup_ack(state)  # re-enqueues via note_acked
            else:
                self._index.requeue_unready(state)
        for state in self._index.retx_pending_states():
            self._maybe_reissue_retx(state)
        self._sync_timer.start(sync_time)

    def _send_backup_ack(self, state: _ShadowConnState) -> None:
        tcb = state.tcb
        self._c_acks_sent.value += 1
        self._send(BackupAck(state.key, wrap(tcb.rcv_nxt)))
        state.last_acked_offset = tcb.recv_buffer.rcv_nxt_offset
        state.last_ack_time = self.sim.now
        self._index.note_acked(state)

    def _send_heartbeat(self) -> None:
        if self.role is not ROLE_PASSIVE:
            return
        self._hb_sequence += 1
        self._send(Heartbeat("backup", self._hb_sequence))
        self._c_hb_sent.inc()
        self._hb_timer.start(self.config.hb_interval)

    def _send(self, message: ChannelMessage) -> None:
        self.channel.send_to(
            (self.primary_ip, self.config.channel_port), message, message.wire_size
        )

    # Tap observation ------------------------------------------------------------------
    def _on_tapped_datagram(self, datagram: IPDatagram, nic: Optional[NIC]) -> None:
        """Observe the primary→client direction of the byte stream."""
        if self.role is not ROLE_PASSIVE:
            return
        if datagram.protocol != PROTO_TCP or datagram.src.value != self.service_ip.value:
            return
        segment: TCPSegment = datagram.payload
        if segment.src_port != self.service_port:
            return
        flags = segment.flags
        synack = (flags & (FLAG_SYN | FLAG_ACK)) == (FLAG_SYN | FLAG_ACK)
        state = self._connections.get(conn_key(datagram.dst, segment.dst_port))
        if state is None:
            if synack:
                state = self._adopt_missed_connection(datagram.dst, segment)
            if state is None:
                return
        tcb = state.tcb
        if synack and not state.ext.isn_rebased:
            # The primary's SYN/ACK reveals its ISN directly (§4.1) — the
            # robust sync source when the tap lost the client's handshake.
            state.ext.learn_primary_isn(tcb, segment.seq)
        if flags & FLAG_ACK:
            # The ACK field tracks the *client's* stream, which the shadow
            # anchors from the tapped SYN — valid even before ISN rebase.
            primary_rcv = unwrap(segment.ack, tcb.rcv_nxt)
            if state.primary_rcv_nxt is None or primary_rcv > state.primary_rcv_nxt:
                state.primary_rcv_nxt = primary_rcv
            if primary_rcv > tcb.rcv_nxt:
                # The primary holds client bytes we never tapped; the
                # client has purged them, so only the primary can help.
                self._index.note_gap(state)
                self._request_retransmission(state, tcb.rcv_nxt, primary_rcv)
        if segment.payload_length > 0 and state.ext.isn_rebased:
            seg_end = unwrap(segment.seq, tcb.snd_nxt) + segment.payload_length
            if state.primary_snd_nxt is None or seg_end > state.primary_snd_nxt:
                state.primary_snd_nxt = seg_end

    def _adopt_missed_connection(
        self, client_ip: IPAddress, synack: TCPSegment
    ) -> Optional[_ShadowConnState]:
        """The tap lost the client's SYN: reconstruct the shadow from the
        tapped primary SYN/ACK, whose ack field reveals the client's ISN
        (§4.1).  Without this, one lost frame on the tap makes the whole
        connection invisible to the backup and the takeover resets it.
        """
        tcb = self.host.tcp.synthesize_passive_open(
            self.service_ip,
            self.service_port,
            client_ip,
            synack.dst_port,
            wrap(synack.ack - 1),
        )
        if tcb is None:
            return None
        if self.sim.trace.enabled_for("sttcp"):
            self.sim.trace.emit(
                self.sim.now,
                "sttcp",
                "late_shadow",
                client=f"{client_ip}:{synack.dst_port}",
            )
        return self._connections.get(conn_key(client_ip, synack.dst_port))

    def _request_retransmission(
        self, state: _ShadowConnState, start_abs: int, stop_abs: int
    ) -> None:
        if state.pending_retx is not None:
            pending_start, pending_stop, requested_at = state.pending_retx
            fresh = self.sim.now - requested_at < self.config.retx_request_timeout
            if fresh:
                if stop_abs <= pending_stop:
                    return  # fully covered by the request in flight
                # Only the new tail needs asking for.
                start_abs = max(start_abs, pending_stop)
        self._c_retx_requests_sent.value += 1
        self._send(RetxRequest(state.key, wrap(start_abs), wrap(stop_abs)))
        state.pending_retx = (start_abs, stop_abs, self.sim.now)
        self._index.note_retx_pending(state)

    def _maybe_reissue_retx(self, state: _ShadowConnState) -> None:
        if state.pending_retx is None:
            return
        start_abs, stop_abs, requested_at = state.pending_retx
        if state.tcb.rcv_nxt >= stop_abs:
            state.pending_retx = None
            self._index.clear_retx_pending(state)
            return
        if self.sim.now - requested_at >= self.config.retx_request_timeout:
            state.pending_retx = None
            self._request_retransmission(state, state.tcb.rcv_nxt, stop_abs)

    # Channel input -----------------------------------------------------------------------
    def _on_channel_message(self, message: ChannelMessage, addr: tuple) -> None:
        source = addr[0]
        if (
            isinstance(message, Heartbeat)
            and message.sender == "primary"
            and source.value != self.primary_ip.value
        ):
            self._adopt_new_primary(source)
            return
        self.primary_monitor.heard()
        if isinstance(message, RetxData):
            self._handle_retx_data(message)
        elif isinstance(message, ConnSnapshot):
            self._adopt_snapshot(message)
        elif isinstance(message, SyncDone):
            self._on_sync_done_msg(message)
        # Heartbeat / AckReply carry liveness only.

    def _adopt_new_primary(self, source: IPAddress) -> None:
        """A peer backup took over and now heartbeats as the primary:
        re-target shadowing at it and stand down from any takeover."""
        if self.role is ROLE_ACTIVE:
            return
        self.primary_ip = source
        # Future suspicions must power-switch the *new* primary.
        self.primary_host = self.peer_hosts.get(source.value, self.primary_host)
        self.primary_monitor.peer_host = self.primary_host
        if self._deferred_takeover is not None:
            self._deferred_takeover.cancel()
            self._deferred_takeover = None
        if self._takeover_sid is not None:
            self.sim.trace.end_span(
                self.sim.now,
                "sttcp",
                "takeover_episode",
                self._takeover_sid,
                outcome="stood_down",
            )
            self._takeover_sid = None
        self.role = ROLE_PASSIVE
        self.primary_monitor.start()  # fresh grace period for the new primary
        if not self._hb_timer.running:
            self._hb_timer.start(self.config.hb_interval)
        if not self._sync_timer.running:
            self._sync_timer.start(self.config.effective_sync_time())
        if self.sim.trace.enabled_for("sttcp"):
            self.sim.trace.emit(
                self.sim.now, "sttcp", "adopt_new_primary", primary=str(source), rank=self.rank
            )

    def _handle_retx_data(self, data: RetxData) -> None:
        state = self._connections.get(data.key)
        if state is None:
            return
        tcb = state.tcb
        tcb.inject_receive_data(unwrap(data.seq, tcb.rcv_nxt), data.payload)
        self._c_retx_bytes_recovered.value += len(data.payload)
        if state.pending_retx is not None and tcb.rcv_nxt >= state.pending_retx[1]:
            state.pending_retx = None
            self._index.clear_retx_pending(state)

    # Snapshot handoff (cluster election) ---------------------------------------------------
    def request_sync(self) -> None:
        """Ask the primary to snapshot every connection we don't shadow.

        Used by a freshly elected pool backup joining mid-stream: the
        retention machinery cannot replay history the previous backup
        already acknowledged away, so instead each quiescent connection
        is adopted at the primary's current offsets via
        :class:`ConnSnapshot` and :meth:`TCPConnection.fast_forward`.
        """
        self.sync_requested_at = self.sim.now
        self.sync_done_at = None
        self._send(SyncRequest(tuple(self._connections.keys())))
        if self.sim.trace.enabled_for("sttcp"):
            self.sim.trace.emit(
                self.sim.now, "sttcp", "sync_request", known=len(self._connections)
            )

    def _adopt_snapshot(self, snap: ConnSnapshot) -> None:
        """Build a converged shadow from a primary's connection snapshot.

        The replica handshake is synthesised (suppressed SYN/ACK + a
        synthetic client ACK carrying the client's window), the send
        space is rebased on the primary's real ISN, and both streams
        fast-forward to the snapshot offsets.  From there the ordinary
        tap keeps the shadow current; anything that slipped between the
        snapshot and the first tapped segment is repaired by the
        RetxRequest gap machinery, exactly like a tap loss.
        """
        if self.role is not ROLE_PASSIVE or snap.key in self._connections:
            return
        client_ip = IPAddress(snap.key[0])
        client_port = snap.key[1]
        tcb = self.host.tcp.synthesize_passive_open(
            self.service_ip, self.service_port, client_ip, client_port, snap.client_isn
        )
        if tcb is None:
            return
        state = self._connections.get(snap.key)
        if state is None:
            return
        state.ext.learn_primary_isn(tcb, snap.server_isn)
        tcb.on_segment(
            TCPSegment(
                client_port,
                self.service_port,
                wrap(tcb.rcv_nxt),
                wrap(tcb.snd_nxt),
                FLAG_ACK,
                snap.client_window,
            )
        )
        if tcb.state is not TCPState.ESTABLISHED:
            return  # handshake synthesis failed; leave it unconverged
        tcb.fast_forward(snap.rcv_offset, snap.snd_offset)
        if not state.converged:
            self._note_converged(state)
        self._c_snapshots_adopted.value += 1
        # Announce our position immediately so the primary re-arms
        # retention coverage from the snapshot point.
        self._send_backup_ack(state)
        if self.sim.trace.enabled_for("sttcp"):
            self.sim.trace.emit(
                self.sim.now,
                "sttcp",
                "snapshot_adopted",
                client=f"{client_ip}:{client_port}",
                rcv_offset=snap.rcv_offset,
                snd_offset=snap.snd_offset,
            )

    def _on_sync_done_msg(self, message: SyncDone) -> None:
        self.sync_done_at = self.sim.now
        if self.sim.trace.enabled_for("sttcp"):
            self.sim.trace.emit(
                self.sim.now, "sttcp", "sync_complete", snapshots=message.count
            )
        if self.on_sync_done is not None:
            self.on_sync_done(self)

    # Retirement (cluster election) ---------------------------------------------------------
    def retire(self) -> None:
        """Stand this engine down permanently (its host was consumed by a
        takeover for another service, or its duties moved to an elected
        replacement).  Shadows are aborted locally — their output is
        inhibited, so no RST is built and nothing reaches the wire —
        and the channel socket closes.  Idempotent.
        """
        if self.role is ROLE_RETIRED:
            return
        self.stop()
        self.role = ROLE_RETIRED
        if self._takeover_sid is not None:
            self.sim.trace.end_span(
                self.sim.now,
                "sttcp",
                "takeover_episode",
                self._takeover_sid,
                outcome="retired",
            )
            self._takeover_sid = None
        for state in list(self._connections.values()):
            if not state.closed and state.tcb.state is not TCPState.CLOSED:
                state.tcb.app_abort()
        self.channel.close()
        if self.sim.trace.enabled_for("sttcp"):
            self.sim.trace.emit(self.sim.now, "sttcp", "retired", host=self.host.name)

    # Failover (§4.4, §5) ---------------------------------------------------------------------
    def _on_primary_suspected(self) -> None:
        if self.role is not ROLE_PASSIVE:
            return
        self.role = ROLE_TAKING_OVER
        self.detection_time = self.sim.now
        if self.sim.trace.enabled_for("sttcp"):
            self._failover_flow = self.sim.trace.new_flow()
            self.sim.trace.emit(
                self.sim.now, "sttcp", "primary_suspected", rank=self.rank
            )
            self._takeover_sid = self.sim.trace.begin_span(
                self.sim.now,
                "sttcp",
                "takeover_episode",
                rank=self.rank,
                flow=self._failover_flow,
            )
        if self.rank > 0:
            # Defer: a higher-priority backup gets first claim; if its
            # heartbeat-as-primary arrives meanwhile, we stand down.
            delay = self.rank * self.config.takeover_grace
            self._deferred_takeover = self.sim.schedule(delay, self._deferred_takeover_due)
            return
        self._proceed_with_takeover()

    def _deferred_takeover_due(self) -> None:
        # Nobody higher-ranked announced themselves (that cancels us): our turn.
        self._deferred_takeover = None
        self._proceed_with_takeover()

    def _proceed_with_takeover(self) -> None:
        if self.config.stonith and self.power_switch is not None and self.primary_host is not None:
            # Convert the suspicion into a certainty before taking over.
            # The flow context is set only for the synchronous request —
            # a cluster arbiter captures it then, even though its
            # actuation lands later in a different event.
            trace = self.sim.trace
            trace.current_flow = self._failover_flow
            try:
                self.power_switch.cut_power(
                    self.primary_host, self._recover_gaps_then_takeover
                )
            finally:
                trace.current_flow = None
        else:
            self._recover_gaps_then_takeover()

    def _recover_gaps_then_takeover(self) -> None:
        """Mask double failures from the logger if configured (§3.2).

        If the tap itself was down, the backup cannot even *know* what it
        missed (the tapped primary ACKs were lost too), so with a logger
        configured every connection issues an open-ended query from its
        ``rcv_nxt`` — the logger holds the complete recent client stream.
        """
        if self.logger_client is None:
            for key, _start, _stop in self._find_gaps():
                self.degraded_connections.append(key)
            self._complete_takeover()
            return
        queries = []
        # Takeover-time one-shot walk: every synchronized connection must
        # be queried, so O(all) is inherent here (unlike the per-segment
        # and per-tick paths, which go through the indexes).
        for key, state in list(self._connections.items()):
            if state.tcb.state in SYNCHRONIZED_STATES:
                start = wrap(state.tcb.rcv_nxt)
                queries.append((key, start, start))  # start == stop: to end
        self.logger_client.recover(
            queries,
            on_data=self._on_logger_data,
            on_done=self._on_logger_done,
        )

    def _find_gaps(self) -> List[tuple]:
        """Ranges the primary had received that this backup still lacks.

        Reads the gap index maintained from the tapped ACK stream instead
        of re-deriving gaps from a scan of every connection; the
        hypothesis test in ``tests/sttcp/test_scale_indexes.py`` checks
        this against the brute-force oracle.
        """
        return self._index.gaps()

    def _on_logger_data(self, key: ConnKey, seq32: int, payload: Any) -> None:
        state = self._connections.get(key)
        if state is not None:
            state.tcb.inject_receive_data(unwrap(seq32, state.tcb.rcv_nxt), payload)
            self._c_logger_bytes_recovered.value += len(payload)

    def _on_logger_done(self) -> None:
        # _find_gaps only reports ranges still missing, i.e. whatever the
        # logger could not repair: those connections stay degraded.
        for key, _start, _stop in self._find_gaps():
            self.degraded_connections.append(key)
        self._complete_takeover()

    def _complete_takeover(self) -> None:
        """Become the primary: answer ARP, transmit, accept new clients."""
        # Everything that happens synchronously inside the completion —
        # the first go-back-N batch (whose FirstAckProbes mark stream
        # resume) and the election hook — belongs to the failover's
        # causal chain, so set the dynamic flow context for the duration.
        trace = self.sim.trace
        trace.current_flow = self._failover_flow
        try:
            self._complete_takeover_inner()
        finally:
            trace.current_flow = None

    def _complete_takeover_inner(self) -> None:
        self.role = ROLE_ACTIVE
        self.takeover_time = self.sim.now
        self.host.arp.unsuppress_ip(self.service_ip)
        # New passive opens stay regular: _on_passive_open checks the role.
        self.host.tcp.reset_on_unmatched = True
        self._sync_timer.stop()
        self._hb_timer.stop()
        # Takeover-time one-shot walk over a snapshot (taking a shadow
        # over can close it, and the close observer mutates the dict).
        adoptable: List[_ShadowConnState] = []
        for key, state in list(self._connections.items()):
            if state.tcb.state in SYNCHRONIZED_STATES and not state.ext.isn_rebased:
                # The send-stream anchor was never learned: this
                # connection cannot be continued faithfully (§3.2-style
                # incomplete communication state).
                self.degraded_connections.append(key)
                continue
            adoptable.append(state)
        self._take_over_batch(adoptable, 0)
        if self.peer_backup_ips:
            self._promote_to_primary()
        if self.sim.trace.enabled_for("sttcp"):
            self.sim.trace.emit(
                self.sim.now,
                "sttcp",
                "takeover",
                connections=len(self._connections),
                degraded=len(self.degraded_connections),
            )
        if self._takeover_sid is not None:
            self.sim.trace.end_span(
                self.sim.now,
                "sttcp",
                "takeover_episode",
                self._takeover_sid,
                connections=len(self._connections),
                degraded=len(self.degraded_connections),
            )
            self._takeover_sid = None
        if self.on_takeover is not None:
            # Election hook: runs synchronously inside the takeover event
            # so no other simulation event can observe the intermediate
            # state (e.g. a consumed pool backup still shadowing others).
            self.on_takeover(self)

    def _take_over_batch(self, states: List[_ShadowConnState], start: int) -> None:
        """Kick off go-back-N for ``states[start:start+batch]`` now and
        queue the rest for the next event-loop turn (same sim time)."""
        batch = self.config.takeover_batch
        for state in states[start : start + batch]:
            if not state.closed:
                state.ext.takeover(state.tcb)
        nxt = start + batch
        self._deferred_takeover = (
            self.sim.schedule(0.0, self._take_over_batch, states, nxt) if nxt < len(states) else None
        )

    def _promote_to_primary(self) -> None:
        """Become a full primary serving the remaining backups: attach
        retention to the adopted connections and start heartbeating as
        the primary so the peers re-target their shadowing."""
        from repro.sttcp.primary import STTCPPrimary

        engine = STTCPPrimary(
            self.host,
            self.service_ip,
            self.service_port,
            self.peer_backup_ips,
            self.config,
        )
        for state in list(self._connections.values()):
            engine.adopt_connection(state.tcb)
        engine.start()
        self.promoted_primary = engine
        if self.sim.trace.enabled_for("sttcp"):
            self.sim.trace.emit(
                self.sim.now, "sttcp", "promoted", peers=len(self.peer_backup_ips)
            )

    def force_failover(self) -> None:
        """Administrative failover (tests and planned-maintenance demos)."""
        if self.role is ROLE_PASSIVE:
            self.primary_monitor.stop()
            self._on_primary_suspected()
