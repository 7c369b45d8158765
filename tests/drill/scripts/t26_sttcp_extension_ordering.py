# Extension hook ordering across a failover: the shadow extension is
# attached first and the observability trace probe stacks behind it.
# While the backup shadows the connection, the shadow keeps its TCB
# output-inhibited: no segment is built, so none is handed to IP.  After
# takeover the inhibition lifts, the one-shot first-ACK probe rides
# along, and the connection sends for real.
use(mode="sttcp", obs_probe=True)

inject(0.100, tcp("S", seq=0, win=65535, mss=1460))
expect(0.100, tcp("SA", seq=0, ack=1, mss=ANY))
inject(0.102, tcp("A", seq=1, ack=1))
inject(0.110, tcp("PA", seq=1, ack=1, length=150, payload=app_request("echo", request_id=1)))
expect(0.110, tcp("PA", seq=1, ack=151, length=150))
inject(0.150, tcp("A", seq=151, ack=151))

# Shadow first, observer second — the registration order.
expect_extensions(0.200, "sttcp.shadow", "obs.trace_probe")
# Suppressed: the inhibited shadow has handed IP no segment at all.
expect_shadow(0.200, established=True, suppressed=True)
# The probe behind the shadow has seen the inbound traffic.
expect_probe_counts(0.200, on_segment_in=2)

fault(0.300, "primary_crash")
expect_takeover(0.700)
# Takeover announces itself with a pure ACK — the first segment the
# shadow builds once its output is no longer inhibited.
expect(0.520, tcp("A", seq=151, ack=151), tol=0.200)
# The takeover appended the one-shot first-ACK checkpoint probe.
expect_extensions(0.750, "sttcp.shadow", "obs.trace_probe", "obs.first_ack")
expect_shadow(0.750, suppressed=False)
# The first client segment after takeover unhooks the one-shot probe.
inject(0.800, tcp("A", seq=151, ack=151))
expect_extensions(0.900, "sttcp.shadow", "obs.trace_probe")
# The client never sees the connection torn down.
expect_no(0.000, 0.950, tcp("R"))
