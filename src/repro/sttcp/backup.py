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
    Heartbeat,
    RetxData,
    RetxRequest,
    conn_key,
)
from repro.sttcp.power_switch import PowerSwitch
from repro.sttcp.shadow import ShadowExtension
from repro.tcp.constants import FLAG_ACK, FLAG_SYN, SEQ_MASK, SEQ_SPACE, SYNCHRONIZED_STATES, TCPState
from repro.tcp.segment import TCPSegment
from repro.tcp.seqspace import HALF_SPACE, unwrap, wrap
from repro.tcp.tcb import TCPConnection
from repro.tcp.timers import RestartableTimer
from repro.tcp.timewait import Endpoint, TimeWait

ROLE_PASSIVE = "passive"
ROLE_TAKING_OVER = "taking_over"
ROLE_ACTIVE = "active"
ROLE_RETIRED = "retired"

#: On takeover, go-back-N is kicked off for at most this many connections
#: per event-loop turn; the rest follow in zero-delay batches so one
#: takeover over thousands of shadows does not emit a single giant
#: retransmit burst in one call.
TAKEOVER_BATCH = 256

#: Why the takeover could not carry a connection intact (§3.2): the
#: primary had acknowledged client bytes this backup never received, or
#: the shadow never learned the primary's ISN (and is reset).
CAUSE_HOLE = "hole"
CAUSE_ISN_UNKNOWN = "isn_unknown"


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
        #: Connections the takeover could not carry intact, each once, with
        #: its cause (``CAUSE_HOLE`` or ``CAUSE_ISN_UNKNOWN``).
        self.degraded_connections: Dict[ConnKey, str] = {}
        self._connections: Dict[ConnKey, ShadowExtension] = {}
        #: Incrementally maintained views (ack schedule, pending rebase,
        #: outstanding recovery) — the per-event paths below never walk
        #: ``_connections``; only takeover-time code does.
        self._index = BackupConnectionIndex()
        self._hb_sequence = 0
        self._started = False
        # Backups answer nothing on their own: no RSTs for unmatched
        # tapped segments, no ARP for the (suppressed) service IP.
        host.tcp.reset_on_unmatched = False
        host.tcp.connection_observers.append(self._on_passive_open)
        host.tcp.time_wait_observers.append(self._on_time_wait)
        host.tcp.close_observers.append(self._on_shadow_closed)
        host.ip_layer.add_tap(self._on_tapped_datagram, src=service_ip)
        host.crash_observers.append(self.stop)
        self.channel = host.udp.socket(self.config.channel_port)
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
        #: Election hook: fired when this engine completes a takeover.
        self.on_takeover: Optional[Callable[["STTCPBackup"], None]] = None
        # Registry-backed counters, read as ``<host>.sttcp.<name>``.
        metrics = self.sim.metrics.scope(f"{host.name}.sttcp")
        self._c_acks_sent = metrics.counter("acks_sent")
        self._c_retx_requests_sent = metrics.counter("retx_requests_sent")
        self._c_retx_bytes_recovered = metrics.counter("retx_bytes_recovered")
        self._c_logger_bytes_recovered = metrics.counter("logger_bytes_recovered")
        self._c_shadows_reaped = metrics.counter("shadows_reaped")
        self._c_hb_sent = heartbeats_sent_counter(self.sim)

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
        second_buffer = self.config.second_buffer_size or tcb.config.rcv_buffer
        threshold = max(1, int(self.config.ack_threshold_fraction * second_buffer))
        state = ShadowExtension(self, tcb, self.sim.now, threshold)
        self._connections[state.key] = state
        self._index.add(state)
        if "sttcp" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now,
                "sttcp",
                "shadow_attach",
                client=f"{tcb.remote_ip}:{tcb.remote_port}",
            )

    @property
    def shadow_connections(self) -> List[Endpoint]:
        return [state.tcb for state in self._connections.values()]

    def _on_time_wait(self, tcb: TCPConnection, record: TimeWait) -> None:
        """TIME_WAIT observer: the shadow's record replaces its TCB."""
        state = tcb.extension
        if isinstance(state, ShadowExtension) and state.engine is self:
            state.tcb = record

    def _on_shadow_closed(self, tcb: Endpoint) -> None:
        """Close observer: the TCP layer reaped a TCB; drop our shadow
        state too so churning clients don't accumulate dead bookkeeping."""
        state = self._connections.get(conn_key(tcb.remote_ip, tcb.remote_port))
        if state is None or state.tcb is not tcb:
            return
        state.closed = True
        del self._connections[state.key]
        self._index.discard(state)
        self._c_shadows_reaped.value += 1

    # Acknowledgment strategy (§4.3) ---------------------------------------------------
    def _on_stream_advance(self, state: ShadowExtension) -> None:
        """The shadow's in-order receive stream moved (its TCB hook)."""
        if self.role is not ROLE_PASSIVE:
            return
        tcb = state.tcb
        if not state.converged and state.isn_rebased and tcb.state in SYNCHRONIZED_STATES:
            self._index.note_rebased(state)  # discharged from the convergence lag
        ready = tcb.recv_buffer.ready  # rcv_nxt_offset, inline
        received = ready.head_offset + ready.length - state.last_acked_offset
        if received >= state.ack_threshold:
            self._send_backup_ack(state)
        # A filled gap may satisfy an outstanding recovery request.
        if state.pending_retx is not None:
            _, stop_abs, _ = state.pending_retx
            if tcb.rcv_nxt >= stop_abs:
                state.pending_retx = None
                self._index.clear_retx_pending(state)

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

    def _send_backup_ack(self, state: ShadowExtension) -> None:
        tcb = state.tcb
        self._c_acks_sent.value += 1
        rcv_nxt = tcb.rcv_nxt
        self._send(BackupAck(state.key, rcv_nxt & SEQ_MASK))  # wrap, inline
        # The stream's tail, ``rcv_offset(rcv_nxt)`` less a received FIN:
        # a TIME_WAIT record keeps no receive buffer to read it from.
        state.last_acked_offset = rcv_nxt - tcb.irs - 1 - tcb.fin_received
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
        """Observe the primary→client direction of the byte stream (the tap
        is registered for datagrams from the service IP only)."""
        if self.role is not ROLE_PASSIVE:
            return
        if datagram.protocol != PROTO_TCP:
            return
        segment: TCPSegment = datagram.payload
        if segment.src_port != self.service_port:
            return
        flags = segment.flags
        synack = (flags & (FLAG_SYN | FLAG_ACK)) == (FLAG_SYN | FLAG_ACK)
        state = self._connections.get((datagram.dst.value, segment.dst_port))
        if state is None:
            if synack:
                state = self._adopt_missed_connection(datagram.dst, segment)
            if state is None:
                return
        tcb = state.tcb
        if synack and not state.isn_rebased:
            # The primary's SYN/ACK reveals its ISN directly (§4.1) — the
            # robust sync source when the tap lost the client's handshake.
            state.learn_primary_isn(tcb, segment.seq)
        if flags & FLAG_ACK:
            # The ACK field tracks the *client's* stream, which the shadow
            # anchors from the tapped SYN — valid even before ISN rebase.
            ack = segment.ack
            rcv_nxt = tcb.rcv_nxt
            delta = (ack - rcv_nxt) & SEQ_MASK  # unwrap(ack, rcv_nxt), inline
            if delta > HALF_SPACE:
                delta -= SEQ_SPACE
            primary_rcv = rcv_nxt + delta
            if primary_rcv < 0 or delta == HALF_SPACE or not 0 <= ack <= SEQ_MASK:
                primary_rcv = unwrap(ack, rcv_nxt)
            if state.primary_rcv_nxt is None or primary_rcv > state.primary_rcv_nxt:
                state.primary_rcv_nxt = primary_rcv
            if primary_rcv > tcb.rcv_nxt:
                # The primary holds client bytes we never tapped; the
                # client has purged them, so only the primary can help.
                self._request_retransmission(state, tcb.rcv_nxt, primary_rcv)

    def _adopt_missed_connection(
        self, client_ip: IPAddress, synack: TCPSegment
    ) -> Optional[ShadowExtension]:
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
        if "sttcp" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now,
                "sttcp",
                "late_shadow",
                client=f"{client_ip}:{synack.dst_port}",
            )
        return self._connections.get(conn_key(client_ip, synack.dst_port))

    def _request_retransmission(
        self, state: ShadowExtension, start_abs: int, stop_abs: int
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

    def _maybe_reissue_retx(self, state: ShadowExtension) -> None:
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
        self.role = ROLE_PASSIVE
        self.primary_monitor.start()  # fresh grace period for the new primary
        if not self._hb_timer.running:
            self._hb_timer.start(self.config.hb_interval)
        if not self._sync_timer.running:
            self._sync_timer.start(self.config.effective_sync_time())
        if "sttcp" in self.sim.trace.categories:
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
        for state in list(self._connections.values()):
            if not state.closed and state.tcb.state is not TCPState.CLOSED:
                state.tcb.app_abort()
        self.channel.close()
        if "sttcp" in self.sim.trace.categories:
            self.sim.trace.emit(self.sim.now, "sttcp", "retired", host=self.host.name)

    # Failover (§4.4, §5) ---------------------------------------------------------------------
    def _on_primary_suspected(self) -> None:
        if self.role is not ROLE_PASSIVE:
            return
        self.role = ROLE_TAKING_OVER
        self.detection_time = self.sim.now
        if "sttcp" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now, "sttcp", "primary_suspected", rank=self.rank
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
            self.power_switch.cut_power(
                self.primary_host, self._recover_gaps_then_takeover
            )
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
            on_done=self._complete_takeover,
        )

    def _on_logger_data(self, key: ConnKey, seq32: int, payload: Any) -> None:
        state = self._connections.get(key)
        if state is not None:
            state.tcb.inject_receive_data(unwrap(seq32, state.tcb.rcv_nxt), payload)
            self._c_logger_bytes_recovered.value += len(payload)

    def _complete_takeover(self) -> None:
        """Become the primary: answer ARP, transmit, accept new clients."""
        self.role = ROLE_ACTIVE
        self.takeover_time = self.sim.now
        self.host.arp.unsuppress_ip(self.service_ip)
        # New passive opens stay regular: _on_passive_open checks the role.
        self.host.tcp.reset_on_unmatched = True
        self._sync_timer.stop()
        self._hb_timer.stop()
        # The one walk that decides each shadow's fate, after any logger
        # repair, over a snapshot (taking a shadow over or aborting it
        # closes it; the close observer mutates the dict).
        connections = len(self._connections)
        adoptable: List[ShadowExtension] = []
        for key, state in list(self._connections.items()):
            tcb = state.tcb
            if tcb.state in SYNCHRONIZED_STATES and not state.isn_rebased:
                # The send-stream anchor was never learned: this
                # connection cannot be continued faithfully (§3.2-style
                # incomplete communication state).  Drop it (silently: output
                # is inhibited); the client's next retransmission draws a RST.
                self.degraded_connections[key] = CAUSE_ISN_UNKNOWN
                tcb.app_abort()
                continue
            target = state.primary_rcv_nxt
            if target is not None and target > tcb.rcv_nxt:
                # The primary received client bytes this backup still lacks.
                self.degraded_connections[key] = CAUSE_HOLE
            adoptable.append(state)
        self._take_over_batch(adoptable, 0)
        if self.peer_backup_ips:
            self._promote_to_primary()
        if "sttcp" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now,
                "sttcp",
                "takeover",
                connections=connections,
                taken_over=len(adoptable),
                reset=connections - len(adoptable),
                degraded=len(self.degraded_connections),
            )
        if self.on_takeover is not None:
            # Election hook: runs synchronously inside the takeover event
            # so no other simulation event can observe the intermediate
            # state (e.g. a consumed pool backup still shadowing others).
            self.on_takeover(self)

    def _take_over_batch(self, states: List[ShadowExtension], start: int) -> None:
        """Kick off go-back-N for ``states[start:start+batch]`` now and
        queue the rest for the next event-loop turn (same sim time)."""
        for state in states[start : start + TAKEOVER_BATCH]:
            if not state.closed:
                state.takeover(state.tcb)
        nxt = start + TAKEOVER_BATCH
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
            channel=self.channel,
        )
        for state in list(self._connections.values()):
            tcb = state.tcb
            if isinstance(tcb, TCPConnection) and tcb.state in SYNCHRONIZED_STATES:
                engine.retain(tcb)  # a TIME_WAIT record receives nothing more
        engine.start()
        self.promoted_primary = engine
        if "sttcp" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now, "sttcp", "promoted", peers=len(self.peer_backup_ips)
            )

    def force_failover(self) -> None:
        """Administrative failover (tests and planned-maintenance demos)."""
        if self.role is ROLE_PASSIVE:
            self.primary_monitor.stop()
            self._on_primary_suspected()
