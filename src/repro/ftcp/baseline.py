"""An FT-TCP-style baseline for failover comparison (paper §2).

FT-TCP (Alvisi et al., Infocom 2001) wraps the server-side TCP so every
client byte reaches a logger; on a crash a *new* server process starts and
rebuilds its state by replaying the logged byte stream, while the client
is kept alive with zero-window advertisements.  The paper's critique:
"a failover in FT-TCP requires failure detection, time for the backup
server to start, and time to update the backup server state from all the
data saved in the logger (which could be quite large for long running
applications)".

This module models exactly that cost profile on the same substrate: the
takeover is delayed by a process-restart time plus a replay time
proportional to the bytes the connection has processed, and the client
sees periodic zero-window keepalives meanwhile.  Everything else (failure
detection, transparent connection continuation) reuses the ST-TCP
machinery, so the comparison isolates the failover-strategy difference —
active state mirroring versus restart-and-replay.  Deploy it as an
:class:`~repro.sttcp.group.STTCPServerGroup` of one backup with
``backup_engine_factory=FTCPBackup`` and an :class:`FTCPConfig`.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.sttcp.backup import ROLE_TAKING_OVER, STTCPBackup
from repro.sttcp.config import STTCPConfig
from repro.tcp.constants import FLAG_ACK
from repro.tcp.segment import TCPSegment
from repro.tcp.seqspace import wrap
from repro.tcp.timers import RestartableTimer
from repro.util.units import MB


@dataclasses.dataclass
class FTCPConfig(STTCPConfig):
    """ST-TCP detection parameters plus FT-TCP recovery costs."""

    #: Cold-start time of the replacement server process.
    restart_delay: float = 0.5
    #: Replay throughput while rebuilding state from the log.
    replay_rate: float = 10.0 * MB  # bytes/second
    #: Zero-window keepalive period during recovery (keeps the client's
    #: TCP from aborting on long recoveries).
    keepalive_interval: float = 0.1


class FTCPBackup(STTCPBackup):
    """A backup whose takeover pays FT-TCP's restart + replay costs."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if not isinstance(self.config, FTCPConfig):
            raise TypeError("FTCPBackup requires an FTCPConfig")
        self._keepalive_timer = RestartableTimer(
            self.sim, self._send_keepalives, "ftcp-keepalive"
        )
        self.host.crash_observers.append(self._keepalive_timer.cancel)
        self.replay_bytes = 0
        self.recovery_delay = 0.0

    def _recover_gaps_then_takeover(self) -> None:
        """Delay the takeover by restart + replay, with keepalives."""
        config: FTCPConfig = self.config  # type: ignore[assignment]
        # Each stream's tail: ``rcv_offset(rcv_nxt)`` less a received FIN.
        self.replay_bytes = sum(
            state.tcb.rcv_offset(state.tcb.rcv_nxt) - state.tcb.fin_received
            for state in self._connections.values()
        )
        replay_time = self.replay_bytes / config.replay_rate
        self.recovery_delay = config.restart_delay + replay_time
        if "ftcp" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now,
                "ftcp",
                "recovery_start",
                replay_bytes=self.replay_bytes,
                delay=self.recovery_delay,
            )
        self._keepalive_timer.start(config.keepalive_interval)
        self._deferred_takeover = self.sim.schedule(self.recovery_delay, self._finish_recovery)

    def _finish_recovery(self) -> None:
        self._deferred_takeover = None
        if self.role is not ROLE_TAKING_OVER:
            return
        self._keepalive_timer.stop()
        super()._recover_gaps_then_takeover()

    def _send_keepalives(self) -> None:
        """Zero-window ACKs so the client's connection stays alive while
        the replacement server replays its log (FT-TCP's SSW behaviour)."""
        if self.role is not ROLE_TAKING_OVER:
            return
        for state in self._connections.values():
            tcb = state.tcb
            if not tcb.is_synchronized:
                continue
            keepalive = TCPSegment(
                tcb.local_port,
                tcb.remote_port,
                wrap(tcb.snd_nxt),
                wrap(tcb.rcv_nxt),
                FLAG_ACK,
                window=0,
            )
            # Bypass shadow suppression deliberately: the wrapper, not the
            # (dead) server, emits these.
            tcb.layer.send_segment(tcb, keepalive)
        config: FTCPConfig = self.config  # type: ignore[assignment]
        self._keepalive_timer.start(config.keepalive_interval)
