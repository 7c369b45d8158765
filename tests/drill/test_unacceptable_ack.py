"""The RST that answers an unacceptable ACK during the handshake.

RFC 793 §3.4 (reset generation, and the SYN-SENT / SYN-RCVD rows of
"segment arrives"): an ACK for something never sent draws ``<SEQ=SEG.ACK>
<CTL=RST>``, and the connection keeps its state.  The scripts are written
to ``tmp_path`` rather than to the conformance corpus, so its report and
golden digest stay as they are.
"""

from __future__ import annotations

import pytest

from repro.drill import run_drill_file

SCRIPTS = {
    # Passive open: the peer ACKs byte 500 of a stream at its SYN.
    "syn_rcvd_rst": """
use(mode="server")

inject(0.100, tcp("S", seq=0, win=65535, mss=1460))
expect(0.100, tcp("SA", seq=0, ack=1, mss=ANY))
inject(0.105, tcp("A", seq=1, ack=500))
expect(0.105, tcp("R", seq=500))
expect_state(0.110, "SYN_RCVD")
inject(0.120, tcp("A", seq=1, ack=1))
expect_state(0.150, "ESTABLISHED")
""",
    # Active open: the SYN/ACK acknowledges byte 700 instead of the SYN.
    "syn_sent_rst": """
use(mode="client")

sock_connect(0.0)
expect(0.0, tcp("S", seq=0, mss=ANY))
inject(0.100, tcp("SA", seq=0, ack=700, win=65535, mss=1460))
expect(0.100, tcp("R", seq=700))
expect_state(0.150, "SYN_SENT")
inject(0.200, tcp("SA", seq=0, ack=1, win=65535, mss=1460))
expect(0.200, tcp("A", seq=1, ack=1))
expect_state(0.250, "ESTABLISHED")
""",
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_unacceptable_ack_draws_rst_and_keeps_the_state(name, tmp_path):
    script = tmp_path / f"{name}.py"
    script.write_text(SCRIPTS[name].lstrip())
    result = run_drill_file(script)
    assert result.passed, result.failure
