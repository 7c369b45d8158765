"""The TCP extension API: per-connection hooks at fixed pipeline points.

The paper's thesis — and this repo's architecture after the engine
decomposition — is that protocol variants should be *layered on* a stock
TCP stack, not interleaved through it.  An extension is an object
registered on one :class:`~repro.tcp.tcb.TCPConnection`; the core engines
invoke its hooks at well-defined points:

``on_segment_in(conn, segment)``
    Every inbound segment, after the receive trace/counters and the
    timestamp echo update, before state-machine dispatch.  Return ``True``
    to *consume* the segment (core processing is skipped).  Every
    registered extension sees the segment even when an earlier one
    consumed it.

``on_ack(conn, segment, ack_abs)``
    At the top of cumulative-ACK processing.  Receives the unwrapped
    (absolute) acknowledgment number and returns it, possibly adjusted;
    extensions run in registration order, each seeing the previous
    one's result.  This is where an extension may re-anchor sequence
    state (via :meth:`TCPConnection.adopt_send_isn`) or clamp an ACK
    that runs ahead of locally produced data.

``after_output(conn)``
    After each :meth:`TCPConnection.try_output` pass, once the windows
    have been serviced.  Extensions that defer work until the
    application produces data apply it here.

Hooks are dispatched *only when at least one registered extension
overrides them*: a vanilla connection carries empty per-hook chains and
pays a single falsy check, nothing more.  Each chain runs in
registration order (``add_extension``).  Behaviour that applies to every
segment a connection sends is TCB state, not a hook:
``output_inhibited`` stops the output engine before it builds anything.
A hook exists only while something implements it; a new one arrives
with its first implementer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tcp.segment import TCPSegment
    from repro.tcp.tcb import TCPConnection


#: The hook names a connection builds per-hook dispatch chains for.
HOOK_NAMES = ("on_segment_in", "on_ack", "after_output")


class TCPExtension:
    """Base class for per-connection TCP extensions.

    Subclasses override only the hooks they need; un-overridden hooks are
    detected at registration time and never dispatched, so an extension
    pays only for the pipeline points it actually taps.
    """

    __slots__ = ()

    #: Stable identifier, ``<subsystem>.<role>`` by convention.
    name: str = "extension"

    #: The hooks this class overrides, worked out when the class is made
    #: (not on first use, so a profiled run counts the same calls however
    #: many runs the process made before it).
    _dispatch_hooks: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._dispatch_hooks = tuple(
            hook
            for hook in HOOK_NAMES
            if getattr(cls, hook) is not getattr(TCPExtension, hook)
        )

    # -- lifecycle ----------------------------------------------------------
    def on_attach(self, conn: "TCPConnection") -> None:
        """Called when the extension is registered on ``conn``."""

    # -- pipeline hooks -----------------------------------------------------
    def on_segment_in(self, conn: "TCPConnection", segment: "TCPSegment") -> bool:
        """Inspect an inbound segment; return True to consume it."""
        return False

    def on_ack(
        self, conn: "TCPConnection", segment: "TCPSegment", ack_abs: int
    ) -> int:
        """Adjust (or pass through) the absolute cumulative ACK."""
        return ack_abs

    def after_output(self, conn: "TCPConnection") -> None:
        """Run deferred work after an output pass."""


def overridden_hooks(extension: TCPExtension) -> Tuple[str, ...]:
    """The hook names ``extension`` actually overrides (dispatch set).

    A property of the extension's *class*, worked out once per class:
    every connection re-reads it for its whole chain on each
    ``add_extension``/``remove_extension``.
    """
    return extension._dispatch_hooks
