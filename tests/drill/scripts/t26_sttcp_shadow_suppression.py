# Shadow suppression across a failover.  While the backup shadows the
# connection, its TCB is output-inhibited: no segment is built, so none
# is handed to IP.  After takeover the inhibition lifts and the
# connection sends for real, without the client ever seeing a reset.
use(mode="sttcp")

inject(0.100, tcp("S", seq=0, win=65535, mss=1460))
expect(0.100, tcp("SA", seq=0, ack=1, mss=ANY))
inject(0.102, tcp("A", seq=1, ack=1))
inject(0.110, tcp("PA", seq=1, ack=1, length=150, payload=app_request("echo", request_id=1)))
expect(0.110, tcp("PA", seq=1, ack=151, length=150))
inject(0.150, tcp("A", seq=151, ack=151))

# Suppressed: the inhibited shadow has handed IP no segment at all.
expect_shadow(0.200, established=True, suppressed=True)

fault(0.300, "primary_crash")
expect_takeover(0.700)
# Takeover announces itself with a pure ACK — the first segment the
# shadow builds once its output is no longer inhibited.
expect(0.520, tcp("A", seq=151, ack=151), tol=0.200)
expect_shadow(0.750, suppressed=False)
inject(0.800, tcp("A", seq=151, ack=151))
# The client never sees the connection torn down.
expect_no(0.000, 0.950, tcp("R"))
