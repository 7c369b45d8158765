"""A full TCP implementation over the simulator.

Public surface: :class:`TCPLayer` (per host), :class:`TCPSocket`,
:class:`TCPListener`, :class:`TCPConfig`, :class:`TCPConnection` with
its ``extension`` slot for a protocol variant's hooks and its repair
section (stream offsets, ISN adoption, receive-stream splicing,
quiescence, fast-forward), plus the building blocks (the three engines,
the send and receive buffers, Reno congestion control, RTT/RTO
estimation, sequence-space arithmetic) for tests and replication engines.
"""

from repro.tcp.config import TCPConfig
from repro.tcp.congestion import DUPACK_THRESHOLD, RenoCongestionControl
from repro.tcp.constants import (
    DEFAULT_MSS,
    DEFAULT_RCV_BUFFER,
    DEFAULT_SND_BUFFER,
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    RTO_MAX,
    RTO_MIN,
    TCPState,
)
from repro.tcp.input import InputEngine
from repro.tcp.layer import TCPLayer
from repro.tcp.listener import TCPListener
from repro.tcp.output import OutputEngine
from repro.tcp.recv_buffer import ReceiveBuffer, RetentionPolicy
from repro.tcp.retransmit import RetransmitEngine
from repro.tcp.rtt import RTTEstimator
from repro.tcp.segment import TCPSegment, make_rst
from repro.tcp.send_buffer import SendBuffer
from repro.tcp.seqspace import seq_ge, seq_gt, seq_le, seq_lt, unwrap, wrap
from repro.tcp.socket import TCPSocket
from repro.tcp.tcb import TCPConnection

__all__ = [
    "DEFAULT_MSS",
    "DEFAULT_RCV_BUFFER",
    "DEFAULT_SND_BUFFER",
    "DUPACK_THRESHOLD",
    "FLAG_ACK",
    "FLAG_FIN",
    "FLAG_PSH",
    "FLAG_RST",
    "FLAG_SYN",
    "InputEngine",
    "OutputEngine",
    "RTO_MAX",
    "RTO_MIN",
    "ReceiveBuffer",
    "RenoCongestionControl",
    "RetentionPolicy",
    "RetransmitEngine",
    "RTTEstimator",
    "SendBuffer",
    "TCPConfig",
    "TCPConnection",
    "TCPLayer",
    "TCPListener",
    "TCPSegment",
    "TCPSocket",
    "TCPState",
    "make_rst",
    "seq_ge",
    "seq_gt",
    "seq_le",
    "seq_lt",
    "unwrap",
    "wrap",
]
