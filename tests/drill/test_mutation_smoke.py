"""Mutation smoke checks: the ST-TCP drills must *fail* when the
takeover logic is deliberately broken.

A conformance corpus that keeps passing under a sabotaged stack tests
nothing; each case here perturbs one load-bearing piece of the failover
path and asserts the matching drill catches it.
"""

from pathlib import Path

from repro.drill import run_drill_file
from repro.sttcp.shadow import ShadowExtension

SCRIPTS = Path(__file__).parent / "scripts"


def test_takeover_noop_breaks_liveness_drill(monkeypatch):
    monkeypatch.setattr(ShadowExtension, "takeover", lambda self, conn: None)
    result = run_drill_file(SCRIPTS / "t24_sttcp_takeover_liveness.py")
    assert not result.passed
    result = run_drill_file(SCRIPTS / "t25_sttcp_no_duplicate_delivery.py")
    assert not result.passed


def _disable_isn_rebase(monkeypatch):
    # Both rebase sources (tapped primary SYN/ACK, client handshake ACK)
    # must be disabled: with a lossless tap either alone suffices.
    monkeypatch.setattr(
        ShadowExtension, "learn_primary_isn", lambda self, conn, isn_abs: None
    )

    def no_rebase_on_ack(self, conn, segment, ack_abs):
        # Keep the pending-ACK clamp, drop only the ISN rebase.
        if ack_abs > conn.snd_max:
            self.pending_ack = max(self.pending_ack or 0, ack_abs)
            ack_abs = conn.snd_max
        return ack_abs

    monkeypatch.setattr(ShadowExtension, "on_ack", no_rebase_on_ack)


def test_isn_rebase_noop_breaks_shadow_drill(monkeypatch):
    _disable_isn_rebase(monkeypatch)
    result = run_drill_file(SCRIPTS / "t23_sttcp_shadow_convergence.py")
    assert not result.passed


def test_explain_names_the_degraded_shadow(monkeypatch, capsys):
    # The takeover finds a shadow that never learned the primary's ISN:
    # explain counts it as degraded, not as taken over, and the takeover
    # drops it, so the client's next retransmission (takeover at 0.460 s)
    # draws a RST instead of retrying into a silent endpoint for 15 min.
    from repro.harness.cli import main

    _disable_isn_rebase(monkeypatch)
    assert main(["explain"]) == 1
    report = capsys.readouterr().out.splitlines()
    assert "  0 of 1 client connections taken over, 1 degraded" in report
    assert "  client: ConnectionReset: connection reset by peer at 0.492100 s" in report


def test_takeover_resending_acked_bytes_breaks_no_duplicate_drill(monkeypatch):
    # A takeover that retransmits from the start of the *stream* instead
    # of the client's cumulative ACK re-delivers acknowledged bytes; the
    # drill's expect_no on seq 1 must catch the duplicate.  The segment
    # is built by hand: ``emit`` slices its payload from the send buffer,
    # which no longer holds acknowledged bytes.
    from repro.tcp.constants import FLAG_ACK
    from repro.tcp.segment import SegmentTemplate
    from repro.tcp.seqspace import wrap
    from repro.util.bytespan import PatternBytes

    original = ShadowExtension.takeover

    def duplicating(self, conn):
        was_shadow = conn.output_inhibited and conn.flight_size > 0
        original(self, conn)
        if was_shadow:
            segment = SegmentTemplate(conn.local_port, conn.remote_port).build(
                wrap(conn.iss + 1),
                wrap(conn.rcv_nxt),
                FLAG_ACK,
                min(conn.recv_buffer.window, 0xFFFF),
                PatternBytes(1460, 0, 7),
            )
            conn.output.transmit(segment)

    monkeypatch.setattr(ShadowExtension, "takeover", duplicating)
    result = run_drill_file(SCRIPTS / "t25_sttcp_no_duplicate_delivery.py")
    assert not result.passed
    assert "seq 1" in result.failure


def test_emit_ignoring_output_inhibited_breaks_ordering_drill(monkeypatch):
    # Sabotage the suppression itself: an ``emit`` that ignores
    # ``output_inhibited`` builds the shadow's segments and hands them
    # to IP.  The suppression drill's suppressed-shadow check must catch
    # the leak by the shadow's send count.
    from repro.tcp.output import OutputEngine

    original = OutputEngine.emit

    def leaking(self, flags, seq_abs, length=0, mss_option=None):
        conn = self.conn
        inhibited, conn.output_inhibited = conn.output_inhibited, False
        try:
            original(self, flags, seq_abs, length, mss_option)
        finally:
            conn.output_inhibited = inhibited

    monkeypatch.setattr(OutputEngine, "emit", leaking)
    result = run_drill_file(SCRIPTS / "t26_sttcp_shadow_suppression.py")
    assert not result.passed
    assert "suppressed shadow handed IP" in result.failure
