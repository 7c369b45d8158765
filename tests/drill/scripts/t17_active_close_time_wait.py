# Active close and TIME_WAIT: our FIN -> FIN_WAIT_2 -> peer FIN -> ACK ->
# TIME_WAIT holding for the 2MSL period; a retransmitted peer FIN (now
# below the window) draws a challenge ACK and restarts the wait (RFC 793);
# then the timer closes the endpoint.
use(mode="client")

sock_connect(0.0)
expect(0.0, tcp("S", seq=0, mss=ANY))
inject(0.002, tcp("SA", seq=0, ack=1, win=65535, mss=1460))
expect(0.002, tcp("A", seq=1, ack=1))
sock_close(1.0)
expect(1.0, tcp("FA", seq=1, ack=1))
inject(1.1, tcp("A", seq=1, ack=2))
expect_state(1.15, "FIN_WAIT_2")
inject(1.2, tcp("FA", seq=1, ack=2))
expect(1.2, tcp("A", seq=2, ack=2))
expect_state(1.3, "TIME_WAIT")
# A duplicate FIN sits left of the window now: challenge-ACKed.
inject(1.5, tcp("FA", seq=1, ack=2))
expect(1.5, tcp("A", seq=2, ack=2))
# The wait that began at 1.2 would end at 2.2; the duplicate FIN restarted
# it, so it expires 1s after 1.5 and the endpoint is gone.
expect_state(2.3, "TIME_WAIT")
expect_state(2.6, "CLOSED")
