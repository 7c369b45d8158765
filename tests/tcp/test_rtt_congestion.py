"""Tests for the RTO estimator, Reno congestion control and the
timer bounds ``TCPConfig`` enforces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.config import TCPConfig
from repro.tcp.congestion import (
    DUPACK_THRESHOLD,
    RenoCongestionControl,
    initial_window,
)
from repro.tcp.rtt import GRANULARITY, K, RTTEstimator

MSS = 1460


# ------------------------------------------------------------------- RTT/RTO
def test_initial_rto_is_one_second():
    assert RTTEstimator().rto == 1.0


def test_first_sample_sets_srtt_directly():
    estimator = RTTEstimator()
    estimator.on_measurement(0.1)
    assert estimator.srtt == pytest.approx(0.1)
    assert estimator.rttvar == pytest.approx(0.05)
    # RTO = SRTT + 4*RTTVAR = 0.3, above the 0.2 floor.
    assert estimator.rto == pytest.approx(0.3)


def test_rto_floor_applied():
    estimator = RTTEstimator()
    estimator.on_measurement(0.001)  # LAN RTT
    assert estimator.rto == 0.2  # Linux 200 ms floor (§6.2)


def test_smoothing_follows_rfc6298():
    estimator = RTTEstimator()
    estimator.on_measurement(0.1)
    estimator.on_measurement(0.2)
    assert estimator.srtt == pytest.approx(7 / 8 * 0.1 + 1 / 8 * 0.2)
    assert estimator.rttvar == pytest.approx(3 / 4 * 0.05 + 1 / 4 * abs(0.1 - 0.2))


def test_backoff_doubles_and_caps():
    estimator = RTTEstimator()
    estimator.on_measurement(0.05)  # RTO pinned at floor 0.2
    values = []
    for _ in range(12):
        values.append(estimator.rto)
        estimator.on_timeout()
    assert values[0] == pytest.approx(0.2)
    assert values[1] == pytest.approx(0.4)
    assert values[2] == pytest.approx(0.8)
    assert values[-1] == 120.0  # Linux 2 min ceiling (§6.2)


def test_new_measurement_clears_backoff():
    estimator = RTTEstimator()
    estimator.on_measurement(0.05)
    estimator.on_timeout()
    estimator.on_timeout()
    assert estimator.rto > 0.2
    estimator.on_measurement(0.05)
    assert estimator.rto == pytest.approx(0.2)


def test_negative_sample_rejected():
    with pytest.raises(ValueError):
        RTTEstimator().on_measurement(-0.1)


def test_backoff_saturates_instead_of_overflowing():
    # ``base * 2.0 ** count`` raised OverflowError at the 1 024th
    # consecutive timeout, and max_retransmits has no upper bound.
    estimator = RTTEstimator()
    for _ in range(1100):
        estimator.on_timeout()
    assert estimator.rto == estimator.rto_max
    assert estimator.backoff_count == 1100


#: Where the oracle's exponent saturates: with the bounds drawn below,
#: ``rto_min * 2 ** 60`` is far above any ``rto_max``.
_SATURATED_BACKOFF = 60


def _rto_formula(estimator, initial_rto):
    """The RTO from scratch: the clamped base doubled per backoff step,
    capped at ``rto_max`` (the formula ``rto`` was before it was a field)."""
    if estimator.has_sample:
        base = estimator.srtt + max(GRANULARITY, K * estimator.rttvar)
    else:
        base = initial_rto
    base = min(max(base, estimator.rto_min), estimator.rto_max)
    exponent = min(estimator.backoff_count, _SATURATED_BACKOFF)
    return min(base * 2.0 ** exponent, estimator.rto_max)


_RTO_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("measure"), st.floats(0.0, 10.0)),
        st.tuples(st.just("timeout"), st.integers(1, 40)),
        st.tuples(st.just("reset"), st.none()),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    rto_min=st.floats(1e-3, 2.0),
    span=st.floats(1.0, 1e4),
    initial_rto=st.floats(1e-4, 1e3),
    ops=_RTO_OPS,
)
def test_cached_rto_equals_the_formula_after_every_step(rto_min, span, initial_rto, ops):
    estimator = RTTEstimator(rto_min, rto_min * span, initial_rto)
    assert estimator.rto == _rto_formula(estimator, initial_rto)
    for op, arg in ops:
        if op == "measure":
            estimator.on_measurement(arg)
        elif op == "timeout":
            for _ in range(arg):
                estimator.on_timeout()
        else:
            estimator.reset_backoff()
            assert estimator.backoff_count == 0
        assert estimator.rto == _rto_formula(estimator, initial_rto), op


# ------------------------------------------------------------------ congestion
def test_initial_window_rfc3390():
    assert initial_window(1460) == 4380  # 3 segments
    assert initial_window(400) == 1600  # capped at 4 MSS
    assert initial_window(3000) == 6000  # at least 2 MSS


def test_slow_start_doubles_per_window():
    cc = RenoCongestionControl(MSS)
    start = cc.window()
    cc.on_ack_new(MSS)
    assert cc.window() == start + MSS
    assert cc.in_slow_start


def test_congestion_avoidance_linear_growth():
    cc = RenoCongestionControl(MSS)
    cc.ssthresh = cc.cwnd  # force avoidance
    start = cc.window()
    # One cwnd worth of acked bytes grows the window by one MSS.
    acked = 0
    while acked < start:
        cc.on_ack_new(MSS)
        acked += MSS
    assert cc.window() == pytest.approx(start + MSS, abs=MSS)


def test_fast_recovery_halves_and_inflates():
    cc = RenoCongestionControl(MSS)
    flight = 10 * MSS
    cc.cwnd = flight
    cc.enter_fast_recovery(flight)
    assert cc.ssthresh == flight / 2
    assert cc.window() == flight / 2 + DUPACK_THRESHOLD * MSS
    assert cc.in_fast_recovery
    cc.on_dupack_in_recovery()
    assert cc.window() == flight / 2 + (DUPACK_THRESHOLD + 1) * MSS
    cc.exit_fast_recovery()
    assert not cc.in_fast_recovery
    assert cc.window() == flight / 2


def test_ssthresh_floor_two_segments():
    cc = RenoCongestionControl(MSS)
    cc.enter_fast_recovery(MSS)  # tiny flight
    assert cc.ssthresh == 2 * MSS


def test_rto_collapses_to_one_segment():
    cc = RenoCongestionControl(MSS)
    cc.cwnd = 20 * MSS
    cc.on_retransmission_timeout(20 * MSS)
    assert cc.window() == MSS
    assert cc.ssthresh == 10 * MSS
    assert cc.timeouts == 1


def test_partial_ack_deflates():
    cc = RenoCongestionControl(MSS)
    cc.cwnd = 10 * MSS
    cc.enter_fast_recovery(10 * MSS)
    before = cc.window()
    cc.on_partial_ack(2 * MSS)
    assert cc.window() == before - 2 * MSS + MSS


def test_restart_after_idle_resets_to_initial_window():
    cc = RenoCongestionControl(MSS)
    cc.cwnd = 30 * MSS
    cc.restart_after_idle()
    assert cc.window() == initial_window(MSS)


def test_restart_after_idle_never_grows_window():
    cc = RenoCongestionControl(MSS)
    cc.cwnd = MSS  # post-RTO
    cc.restart_after_idle()
    assert cc.window() == MSS


def test_restart_skipped_in_fast_recovery():
    cc = RenoCongestionControl(MSS)
    cc.cwnd = 30 * MSS
    cc.enter_fast_recovery(30 * MSS)
    inflated = cc.window()
    cc.restart_after_idle()
    assert cc.window() == inflated


def test_mss_validation():
    with pytest.raises(ValueError):
        RenoCongestionControl(0)


# -------------------------------------------------------------- config bounds
@pytest.mark.parametrize(
    "field, value",
    [
        ("time_wait", -1.0),
        ("max_retransmits", -1),
    ],
)
def test_config_rejects_values_that_run_the_clock_backwards(field, value):
    # A negative timer delay reaches ``Scheduler.arm`` unchecked and fires in
    # the past; a negative retransmission limit gives up at the first RTO.
    with pytest.raises(ValueError, match=field):
        TCPConfig().copy(**{field: value}).validate()
