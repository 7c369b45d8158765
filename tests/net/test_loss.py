"""Tests for frame-loss models."""

import random

from repro.net.addresses import fresh_unicast_mac
from repro.net.frame import ETHERTYPE_IPV4, EthernetFrame
from repro.net.loss import BurstLoss, LossModel, RandomLoss, ScriptedLoss, WindowLoss


def frame():
    return EthernetFrame(fresh_unicast_mac(), fresh_unicast_mac(), ETHERTYPE_IPV4, None, 100)


def test_no_loss_never_drops():
    model = LossModel()  # the base class; a medium without loss holds None
    assert not any(model(frame(), 0.0) for _ in range(100))
    assert model.seen == 100
    assert model.dropped == 0


def test_random_loss_rate_zero_and_one():
    assert not any(RandomLoss(random.Random(1), 0.0)(frame(), 0.0) for _ in range(50))
    model = RandomLoss(random.Random(1), 1.0)
    assert all(model(frame(), 0.0) for _ in range(50))


def test_random_loss_statistics():
    model = RandomLoss(random.Random(42), 0.3)
    drops = sum(model(frame(), 0.0) for _ in range(5000))
    assert 0.25 < drops / 5000 < 0.35


def test_random_loss_validates_rate():
    import pytest

    with pytest.raises(ValueError):
        RandomLoss(random.Random(), 1.5)


def test_scripted_loss_by_index():
    model = ScriptedLoss(drop_indices=[1, 3])
    results = [model(frame(), 0.0) for _ in range(4)]
    assert results == [True, False, True, False]


def test_scripted_loss_by_predicate():
    big = EthernetFrame(fresh_unicast_mac(), fresh_unicast_mac(), ETHERTYPE_IPV4, None, 1000)
    model = ScriptedLoss(predicate=lambda f: f.payload_size > 500)
    assert model(big, 0.0)
    assert not model(frame(), 0.0)


def test_window_loss_drops_only_inside_window():
    model = WindowLoss(1.0, 2.0)
    assert not model(frame(), 0.5)
    assert model(frame(), 1.0)
    assert model(frame(), 1.999)
    assert not model(frame(), 2.0)


def test_window_loss_validates_bounds():
    import pytest

    with pytest.raises(ValueError):
        WindowLoss(2.0, 1.0)


def test_burst_loss_produces_bursts():
    model = BurstLoss(random.Random(7), p_good_to_bad=0.05, p_bad_to_good=0.3)
    outcomes = [model(frame(), 0.0) for _ in range(2000)]
    drops = sum(outcomes)
    assert 0 < drops < 2000
    # Bursts: the number of drop-runs should be well below the drop count.
    runs = sum(
        1 for i, value in enumerate(outcomes) if value and (i == 0 or not outcomes[i - 1])
    )
    assert runs < drops
