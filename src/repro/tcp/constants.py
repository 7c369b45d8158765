"""TCP protocol constants and tunables.

Defaults mirror Linux 2.2-era behaviour where the paper depends on it —
most importantly the retransmission-timeout bounds (200 ms lower, 120 s
upper) and the ×2 RTO backoff, which together determine ST-TCP's failover
latency once the primary goes silent (§6.2).
"""

from __future__ import annotations

import enum


class TCPState(enum.Enum):
    """RFC 793 connection states."""

    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


#: States in which the connection carries data.  A tuple, not a set:
#: membership then compares by identity, where a set would call the
#: Python-level ``Enum.__hash__`` on every ``is_synchronized``.
SYNCHRONIZED_STATES = (
    TCPState.ESTABLISHED,
    TCPState.FIN_WAIT_1,
    TCPState.FIN_WAIT_2,
    TCPState.CLOSE_WAIT,
    TCPState.CLOSING,
    TCPState.LAST_ACK,
    TCPState.TIME_WAIT,
)

# Header flags --------------------------------------------------------------
FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10
FLAG_URG = 0x20

#: Base TCP header size (no options).
TCP_HEADER_SIZE = 20

#: Ethernet-standard maximum segment size (1500 MTU − 40 bytes of headers).
DEFAULT_MSS = 1460

#: Default socket buffer sizes.  16 KiB matches the Linux 2.2-era default
#: receive window and, through window-limited throughput, calibrates the
#: paper's ≈12.5 Mb/s bulk transfer rate (Table 1).
DEFAULT_RCV_BUFFER = 16 * 1024
DEFAULT_SND_BUFFER = 16 * 1024

# Retransmission timing (Linux values quoted in §6.2) -----------------------
RTO_MIN = 0.2
RTO_MAX = 120.0
RTO_INITIAL = 1.0
RTO_BACKOFF_FACTOR = 2.0

#: Give up on a connection after this many consecutive RTO expirations
#: (Linux tcp_retries2 ≈ 15; keeps failover experiments from aborting).
MAX_RETRANSMITS = 15

#: Retries for the initial SYN before ``connect`` fails.
MAX_SYN_RETRANSMITS = 6

# Delayed acknowledgments ----------------------------------------------------
#: Maximum time an ACK may be delayed (Linux delack is 40–200 ms).
DELACK_TIMEOUT = 0.040
#: ACK at least every this many full-sized segments.
DELACK_SEGMENT_THRESHOLD = 2

# Zero-window probing ---------------------------------------------------------
PERSIST_TIMEOUT_MIN = 0.5
PERSIST_TIMEOUT_MAX = 60.0

#: 2·MSL for TIME_WAIT.  Linux uses 60 s; the simulator defaults to 1 s so
#: back-to-back experiment runs do not serialise on port reuse — the value
#: never affects measured application time.
TIME_WAIT_DURATION = 1.0

#: Sequence-space modulus.
SEQ_SPACE = 1 << 32
SEQ_MASK = SEQ_SPACE - 1
