"""ST-TCP: Server fault-Tolerant TCP — the paper's contribution.

A primary serves standard TCP clients; an active backup taps the byte
stream, shadows every connection (including sequence numbers), and takes
the connections over transparently when the primary crashes.

Entry point: :class:`STTCPServerGroup` with one backup for the paper's pair
(or the engines directly for custom deployments).
"""

from repro.sttcp.backup import (
    ROLE_ACTIVE,
    ROLE_PASSIVE,
    ROLE_TAKING_OVER,
    STTCPBackup,
)
from repro.sttcp.config import STTCPConfig
from repro.sttcp.failure_detector import HeartbeatMonitor
from repro.sttcp.group import FailoverMetrics, STTCPServerGroup
from repro.sttcp.messages import (
    AckReply,
    BackupAck,
    ChannelMessage,
    Heartbeat,
    RetxData,
    RetxRequest,
    conn_key,
)
from repro.sttcp.power_switch import PowerSwitch
from repro.sttcp.primary import STTCPPrimary
from repro.sttcp.retention import SecondReceiveBuffer
from repro.sttcp.shadow import ShadowExtension

__all__ = [
    "AckReply",
    "BackupAck",
    "ChannelMessage",
    "FailoverMetrics",
    "Heartbeat",
    "HeartbeatMonitor",
    "PowerSwitch",
    "ROLE_ACTIVE",
    "ROLE_PASSIVE",
    "ROLE_TAKING_OVER",
    "RetxData",
    "RetxRequest",
    "STTCPBackup",
    "STTCPConfig",
    "STTCPPrimary",
    "STTCPServerGroup",
    "SecondReceiveBuffer",
    "ShadowExtension",
    "conn_key",
]
