"""TCP segments and options.

Payloads are :class:`~repro.util.bytespan.ByteSpan` objects; size
accounting includes the 20-byte base header plus any options carried.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.tcp.constants import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    SEQ_MASK,
    TCP_HEADER_SIZE,
)
from repro.util.bytespan import EMPTY, ByteSpan

#: Option wire sizes (including padding to 32-bit boundaries as on Linux).
MSS_OPTION_SIZE = 4
TIMESTAMP_OPTION_SIZE = 12

_segment_ids = itertools.count(1)


def _wire_size(payload_length: int, mss_option: Optional[int], ts_val: Optional[float]) -> int:
    """Header, options and payload of a segment, in bytes."""
    size = TCP_HEADER_SIZE + payload_length
    if mss_option is not None:
        size += MSS_OPTION_SIZE
    if ts_val is not None:
        size += TIMESTAMP_OPTION_SIZE
    return size


def _relative(value: int, base: int) -> int:
    """Sequence number relative to ``base``, folded to a signed window."""
    if not base:
        return value
    delta = (value - base) & SEQ_MASK
    return delta - (1 << 32) if delta > (1 << 31) else delta


class TCPSegment:
    """One TCP segment in flight.

    Immutable once built: ``payload_length`` beside ``payload``, and
    ``size`` (header, options and payload), are set at construction and
    never recomputed (DESIGN §13 rule 1).
    """

    __slots__ = (
        "src_port",
        "dst_port",
        "seq",
        "ack",
        "flags",
        "window",
        "payload",
        "payload_length",
        "size",
        "mss_option",
        "ts_val",
        "ts_ecr",
        "segment_id",
    )

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int,
        ack: int,
        flags: int,
        window: int,
        payload: ByteSpan = EMPTY,
        mss_option: Optional[int] = None,
        ts_val: Optional[float] = None,
        ts_ecr: Optional[float] = None,
    ) -> None:
        if not 0 <= seq <= SEQ_MASK:
            raise ValueError(f"seq {seq} outside 32-bit space")
        if not 0 <= ack <= SEQ_MASK:
            raise ValueError(f"ack {ack} outside 32-bit space")
        if window < 0:
            raise ValueError(f"negative window {window}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = min(window, 0xFFFF)
        self.payload = payload
        self.payload_length = payload.length
        self.size = _wire_size(payload.length, mss_option, ts_val)
        self.mss_option = mss_option
        self.ts_val = ts_val
        self.ts_ecr = ts_ecr
        self.segment_id = next(_segment_ids)

    # Flag accessors ------------------------------------------------------------
    # For drills, tests and cold code: the per-segment path tests ``flags``
    # against the FLAG_* bits (DESIGN §13 rule 7).
    @property
    def is_syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & FLAG_RST)

    @property
    def is_psh(self) -> bool:
        return bool(self.flags & FLAG_PSH)

    # Sizing ----------------------------------------------------------------------
    @property
    def sequence_space_length(self) -> int:
        """Bytes of sequence space consumed: payload plus SYN/FIN flags."""
        syn_fin = self.flags & (FLAG_SYN | FLAG_FIN)
        if not syn_fin:
            return self.payload_length
        return self.payload_length + (2 if syn_fin == (FLAG_SYN | FLAG_FIN) else 1)

    def flag_string(self) -> str:
        """Compact flag rendering, e.g. ``"SA"`` for SYN/ACK."""
        parts = []
        if self.is_syn:
            parts.append("S")
        if self.is_fin:
            parts.append("F")
        if self.is_rst:
            parts.append("R")
        if self.is_psh:
            parts.append("P")
        if self.is_ack:
            parts.append("A")
        return "".join(parts) or "."

    def summary(self, seq_base: int = 0, ack_base: int = 0) -> str:
        """Canonical one-line rendering: ``flags seq:end(len) ack win``.

        This is *the* segment format — tcpdump output, drill mismatch
        diagnostics and TCB traces all route through it so a segment reads
        the same everywhere.  ``seq_base``/``ack_base`` rebase the absolute
        sequence numbers (e.g. onto an ISN) for relative display.
        """
        seq = _relative(self.seq, seq_base)
        length = self.payload_length
        text = f"{self.flag_string()} {seq}:{seq + length}({length})"
        if self.is_ack:
            text += f" ack {_relative(self.ack, ack_base)}"
        text += f" win {self.window}"
        if self.mss_option is not None:
            text += f" mss {self.mss_option}"
        return text

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TCP {self.src_port}->{self.dst_port} {self.summary()}>"


class SegmentTemplate:
    """Per-connection invariant header fields, precomputed once.

    The ports (and the timestamp-option decision) never change over a
    connection's lifetime, and the output engine produces every variant
    field already validated — ``wrap`` folds seq/ack into 32-bit space
    and the advertised window is clamped at the source — so
    :meth:`build` constructs segments with direct slot assignment,
    skipping ``TCPSegment.__init__``'s range checks.  For in-range
    fields the result is field-identical to the checked constructor's
    (same ``segment_id`` counter, same wire rendering);
    ``tests/tcp/test_segment.py`` holds the two together.
    """

    __slots__ = ("src_port", "dst_port")

    def __init__(self, src_port: int, dst_port: int) -> None:
        self.src_port = src_port
        self.dst_port = dst_port

    def build(
        self,
        seq: int,
        ack: int,
        flags: int,
        window: int,
        payload: ByteSpan = EMPTY,
        mss_option: Optional[int] = None,
        ts_val: Optional[float] = None,
        ts_ecr: Optional[float] = None,
    ) -> TCPSegment:
        segment = TCPSegment.__new__(TCPSegment)
        segment.src_port = self.src_port
        segment.dst_port = self.dst_port
        segment.seq = seq
        segment.ack = ack
        segment.flags = flags
        segment.window = window
        segment.payload = payload
        length = payload.length
        segment.payload_length = length
        # ``_wire_size``, inline: this runs once per segment sent.
        size = TCP_HEADER_SIZE + length
        if mss_option is not None:
            size += MSS_OPTION_SIZE
        if ts_val is not None:
            size += TIMESTAMP_OPTION_SIZE
        segment.size = size
        segment.mss_option = mss_option
        segment.ts_val = ts_val
        segment.ts_ecr = ts_ecr
        segment.segment_id = next(_segment_ids)
        return segment


def make_rst(src_port: int, dst_port: int, seq: int, ack: int, with_ack: bool) -> TCPSegment:
    """Build the RST answering an unmatched segment (RFC 793 §3.4)."""
    flags = FLAG_RST | (FLAG_ACK if with_ack else 0)
    return TCPSegment(src_port, dst_port, seq, ack, flags, window=0)


__all__ = [
    "MSS_OPTION_SIZE",
    "SegmentTemplate",
    "TCPSegment",
    "TIMESTAMP_OPTION_SIZE",
    "make_rst",
    "FLAG_ACK",
    "FLAG_FIN",
    "FLAG_PSH",
    "FLAG_RST",
    "FLAG_SYN",
]
