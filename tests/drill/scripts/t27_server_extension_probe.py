# Vanilla-stack extension dispatch: a pure observer attached to a plain
# server connection sees every hook family fire — inbound segments, ACK
# processing and output passes — while the wire timeline stays
# identical to the probe-free handshake drills.
use(mode="server", obs_probe=True)

inject(0.100, tcp("S", seq=0, win=65535, mss=1460))
expect(0.100, tcp("SA", seq=0, ack=1, mss=ANY))
inject(0.102, tcp("A", seq=1, ack=1))
expect_state(0.150, "ESTABLISHED")
expect_extensions(0.150, "obs.trace_probe")
# Handshake alone already exercised the chains: segments in, one ACK
# processed, and the output pass that follows ESTABLISHED.
expect_probe_counts(0.150, on_segment_in=1, on_ack=1, after_output=1)

# One round trip each way: peer data in, local write out, final ACK in.
inject(0.200, tcp("PA", seq=1, ack=1, length=500, payload=pattern(500)))
expect(0.200, tcp("A", seq=1, ack=501), tol=0.060)
sock_write(0.300, 500)
expect(0.300, tcp("PA", seq=1, ack=501, length=500))
inject(0.350, tcp("A", seq=501, ack=501))
# The exchange added at least one more of each hook family.
expect_probe_counts(0.400, on_segment_in=3, on_ack=2, after_output=2)
# A pure observer never perturbs the run.
expect_no(0.000, 0.450, tcp("R"))
