"""Tests for 32-bit sequence arithmetic."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.tcp.constants import SEQ_MASK, SEQ_SPACE
from repro.tcp.seqspace import HALF_SPACE, seq_ge, seq_gt, seq_le, seq_lt, unwrap, wrap


def test_wrap_masks_to_32_bits():
    assert wrap(0) == 0
    assert wrap(SEQ_SPACE) == 0
    assert wrap(SEQ_SPACE + 5) == 5
    assert wrap(3 * SEQ_SPACE + 7) == 7


def test_unwrap_identity_near_reference():
    assert unwrap(100, 90) == 100
    assert unwrap(100, 110) == 100


def test_unwrap_across_wraparound_forward():
    # Reference just below the wrap boundary; wire value just past it.
    reference = SEQ_SPACE - 10
    assert unwrap(5, reference) == SEQ_SPACE + 5


def test_unwrap_across_wraparound_backward():
    # Reference just past an epoch boundary; wire value just below it.
    reference = SEQ_SPACE + 3
    assert unwrap(SEQ_SPACE - 4, reference) == SEQ_SPACE - 4


def test_unwrap_multi_epoch_reference():
    reference = 5 * SEQ_SPACE + 1000
    assert unwrap(1500, reference) == 5 * SEQ_SPACE + 1500
    assert unwrap(wrap(reference - 2000), reference) == reference - 2000


def test_unwrap_validates_wire_range():
    with pytest.raises(ValueError):
        unwrap(-1, 0)
    with pytest.raises(ValueError):
        unwrap(SEQ_SPACE, 0)


def test_wrapped_comparisons():
    assert seq_lt(1, 2)
    assert seq_gt(2, 1)
    assert seq_le(2, 2)
    assert seq_ge(2, 2)
    # Across the wrap point: 2^32-1 < 5 in sequence space.
    assert seq_lt(SEQ_SPACE - 1, 5)
    assert seq_gt(5, SEQ_SPACE - 1)


@given(st.integers(0, 1 << 40), st.integers(-(1 << 30), 1 << 30))
def test_prop_unwrap_recovers_value_within_half_space(reference, delta):
    """wrap→unwrap is the identity whenever the true value is within
    ±2³¹ of the reference (TCP's validity window)."""
    true_value = reference + delta
    if true_value < 0:
        return
    assert unwrap(wrap(true_value), reference) == true_value


@given(st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 32) - 1))
@example(0, HALF_SPACE)
@example(SEQ_SPACE - 1, HALF_SPACE - 1)
def test_prop_seq_lt_antisymmetric(a, b):
    """Exactly one of two distinct values precedes the other — except at a
    distance of exactly 2³¹, where serial-number order is undefined
    (RFC 1982) and neither precedes the other."""
    if a == b or (a - b) & SEQ_MASK == HALF_SPACE:
        assert not seq_lt(a, b)
        assert not seq_lt(b, a)
    else:
        assert seq_lt(a, b) != seq_lt(b, a)


# -- the inline unwraps at the per-segment sites ------------------------------
#: References near 0, on and around epoch boundaries and half-epochs, and
#: anywhere in a long stream.
REFERENCES = st.one_of(
    st.integers(0, 8),
    st.builds(lambda epoch, d: epoch * SEQ_SPACE + d, st.integers(1, 3), st.integers(-8, 8)),
    st.builds(lambda epoch, d: epoch * SEQ_SPACE + HALF_SPACE + d, st.integers(0, 3), st.integers(-8, 8)),
    st.integers(0, 1 << 40),
)


@st.composite
def wire_and_reference(draw):
    """A wire value and the reference it is unwrapped against: anywhere in
    the 32-bit space, beside the reference, about half the space away from
    it, or outside the 32-bit range (which ``unwrap`` refuses)."""
    reference = draw(REFERENCES)
    value = draw(
        st.one_of(
            st.integers(0, SEQ_MASK),
            st.integers(-8, 8).map(lambda d: (reference + d) & SEQ_MASK),
            st.integers(-8, 8).map(lambda d: (reference + HALF_SPACE + d) & SEQ_MASK),
            st.sampled_from([-1, SEQ_SPACE, SEQ_SPACE + 7]),
        )
    )
    return value, reference


#: Cases every inline-unwrap property pins: ``delta == HALF_SPACE`` from
#: either side, a value just behind a reference at 0 and at an epoch
#: boundary, and values outside the 32-bit range.
PINNED_CASES = [
    (HALF_SPACE, 0),
    (0, HALF_SPACE),
    (SEQ_MASK, 0),
    (SEQ_MASK, SEQ_SPACE),
    (SEQ_SPACE, 5),
    (-1, 5),
]


def unwrap_or_error(value, reference):
    """What ``unwrap`` gives, or ``ValueError`` when it refuses."""
    try:
        return unwrap(value, reference)
    except ValueError:
        return ValueError


def pin_cases(test):
    """Pin :data:`PINNED_CASES` on a property whose drawn argument is ``case``."""
    for value, reference in PINNED_CASES:
        test = example(case=(value, reference))(test)
    return test

