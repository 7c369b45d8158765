"""End-to-end application tests on a standard (non-ST-TCP) server."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.client import run_client
from repro.apps.server import start_server
from repro.apps.workload import (
    PAPER_BULK_SIZES,
    ProgressWindow,
    RunResult,
    bulk_workload,
    echo_workload,
    interactive_workload,
    upload_workload,
)
from repro.sim.simulator import Simulator
from repro.util.units import KB, MB

from tests.conftest import LanPair


def run_app(workload, seed=60, service_time=None):
    lan = LanPair(Simulator(seed=seed))
    start_server(
        lan.b,
        9000,
        service_time=workload.service_time if service_time is None else service_time,
    )
    process = run_client(lan.a, (lan.ip_b, 9000), workload)
    result: RunResult = lan.sim.run_until_complete(process, deadline=600.0)
    return result


def test_echo_application():
    result = run_app(echo_workload(100))
    assert result.error is None
    assert result.verified
    assert result.exchanges_done == 100
    assert result.bytes_received == 100 * 150


def test_interactive_application():
    result = run_app(interactive_workload(50))
    assert result.error is None
    assert result.verified
    assert result.bytes_received == 50 * 10 * KB


def test_bulk_application():
    result = run_app(bulk_workload(1 * MB))
    assert result.error is None
    assert result.verified
    assert result.bytes_received == 1 * MB
    assert result.exchanges_done == 1


def test_upload_application():
    result = run_app(upload_workload(512 * KB))
    assert result.error is None
    assert result.verified
    assert result.bytes_sent == 512 * KB
    assert result.bytes_received == 150  # the receipt


def test_timeline_monotonic_and_complete():
    """The folded window is ordered, inside the session, and ends on
    every byte received (the property below checks the fold itself
    against the brute-force gaps)."""
    result = run_app(interactive_workload(20))
    progress = result.progress
    points = [progress.first, progress.start, progress.end, progress.last]
    assert points == sorted(points)
    assert result.start_time <= progress.first[0] and progress.last[0] <= result.end_time
    assert progress.first[1] == 0
    assert progress.last[1] == result.bytes_received
    assert progress.longest == progress.end[0] - progress.start[0] == result.max_gap


#: Checkpoint steps: equal gaps (ties), zero gaps, and arbitrary ones.
_steps = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 10.0)),
        st.integers(0, 65536),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(_steps)
def test_progress_window_is_the_brute_force_longest_gap(steps):
    """Folded one at a time, any non-decreasing checkpoints give exactly
    the longest consecutive gap (the first of equal ones, as ``max`` over
    the indices picks it), and the first and last checkpoints."""
    points, time, done = [], 0.0, 0
    for step, more in steps:
        time, done = time + step, done + more
        points.append((time, done))
    window = ProgressWindow()
    for point in points:
        window.add(*point)
    assert (window.first, window.last) == ((points[0], points[-1]) if points else (None, None))
    if len(points) < 2:
        assert (window.start, window.end, window.longest) == (None, None, 0.0)
        return
    index = max(range(len(points) - 1), key=lambda i: points[i + 1][0] - points[i][0])
    assert (window.start, window.end) == (points[index], points[index + 1])
    assert window.longest == max(b[0] - a[0] for a, b in zip(points, points[1:]))


def test_max_gap_reflects_stalls():
    result = run_app(echo_workload(50))
    assert 0 < result.max_gap < 0.1  # steady exchanges, no stall


def test_workload_total_bytes_helper():
    assert echo_workload(100).total_response_bytes() == 15000
    assert interactive_workload(100).total_response_bytes() == 100 * 10 * KB
    assert bulk_workload(5 * MB).total_response_bytes() == 5 * MB


def test_paper_bulk_sizes():
    assert PAPER_BULK_SIZES == (1 * MB, 5 * MB, 20 * MB, 100 * MB)


def test_service_time_adds_latency():
    fast = run_app(echo_workload(20), seed=61, service_time=0.0)
    slow = run_app(echo_workload(20), seed=61, service_time=0.005)
    assert slow.total_time > fast.total_time + 20 * 0.004


def test_two_sequential_clients_one_server():
    lan = LanPair(Simulator(seed=62))
    start_server(lan.b, 9000)

    def both():
        first = yield run_client(lan.a, (lan.ip_b, 9000), echo_workload(5))
        second = yield run_client(lan.a, (lan.ip_b, 9000), echo_workload(5))
        return (first, second)

    process = lan.a.spawn(both())
    first, second = lan.sim.run_until_complete(process, deadline=120.0)
    assert first.verified and second.verified


def test_malformed_request_aborts_connection_not_server():
    """Garbage from a rogue client must not take the service down."""
    from repro.errors import ConnectionReset
    from repro.sim.simulator import Simulator
    from tests.conftest import LanPair

    lan = LanPair(Simulator(seed=63))
    start_server(lan.b, 9000)
    outcome = {}

    def rogue():
        sock = lan.a.tcp.connect((lan.ip_b, 9000))
        yield sock.wait_connected()
        yield sock.send(b"\x00" * 150)  # bad magic
        try:
            yield sock.recv_exactly(10)
        except ConnectionReset:
            outcome["rogue"] = "reset"

    process = lan.a.spawn(rogue())
    lan.sim.run_until_complete(process, deadline=30.0)
    assert outcome["rogue"] == "reset"
    # A well-behaved client is still served afterwards.
    result = lan.sim.run_until_complete(
        run_client(lan.a, (lan.ip_b, 9000), echo_workload(3)), deadline=30.0
    )
    assert result.verified and result.error is None


def test_listener_close_fails_pending_accepts():
    from repro.sim.simulator import Simulator
    from tests.conftest import LanPair

    lan = LanPair(Simulator(seed=64))
    box = []
    lan.b.spawn(
        __import__("repro.apps.server", fromlist=["request_response_server"]).request_response_server(
            lan.b, 9100, listener_box=box
        )
    )
    lan.sim.run(until=0.01)
    box[0].close()
    lan.sim.run(until=0.05)
    # Server process ended cleanly; new connections are refused.
    from repro.errors import ConnectionRefused

    def late():
        sock = lan.a.tcp.connect((lan.ip_b, 9100))
        try:
            yield sock.wait_connected()
        except ConnectionRefused:
            return "refused"

    process = lan.a.spawn(late())
    assert lan.sim.run_until_complete(process, deadline=10.0) == "refused"
