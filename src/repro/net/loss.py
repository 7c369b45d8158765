"""Frame-loss models pluggable into links, hubs and NIC receive paths.

A loss model is a callable ``model(frame, now) -> bool`` returning True when
the frame should be dropped.  Models keep their own counters so experiments
can report what was lost where.  A link, hub or NIC without loss holds
``None`` and asks nothing (DESIGN §13 rule 8).
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional, Set

from repro.net.frame import EthernetFrame


class LossModel:
    """Base class; never drops."""

    def __init__(self) -> None:
        self.dropped = 0
        self.seen = 0

    def __call__(self, frame: EthernetFrame, now: float) -> bool:
        self.seen += 1
        if self._should_drop(frame, now):
            self.dropped += 1
            return True
        return False

    def _should_drop(self, frame: EthernetFrame, now: float) -> bool:
        return False


class RandomLoss(LossModel):
    """Drops each frame independently with probability ``rate``."""

    def __init__(self, rng: random.Random, rate: float) -> None:
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rng = rng
        self.rate = rate

    def _should_drop(self, frame: EthernetFrame, now: float) -> bool:
        return self.rate > 0.0 and self.rng.random() < self.rate


class BurstLoss(LossModel):
    """A Gilbert–Elliott two-state burst-loss model.

    In the *good* state frames pass; in the *bad* state they drop with
    ``bad_loss_rate``.  Transitions are Bernoulli per frame.
    """

    def __init__(
        self,
        rng: random.Random,
        p_good_to_bad: float = 0.001,
        p_bad_to_good: float = 0.2,
        bad_loss_rate: float = 1.0,
    ) -> None:
        super().__init__()
        self.rng = rng
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.bad_loss_rate = bad_loss_rate
        self.in_bad_state = False

    def _should_drop(self, frame: EthernetFrame, now: float) -> bool:
        if self.in_bad_state:
            if self.rng.random() < self.p_bad_to_good:
                self.in_bad_state = False
        else:
            if self.rng.random() < self.p_good_to_bad:
                self.in_bad_state = True
        return self.in_bad_state and self.rng.random() < self.bad_loss_rate


class ScriptedLoss(LossModel):
    """Drops specific frames: by 1-based arrival index and/or predicate.

    Deterministic — used by tests to lose exactly the segment they mean to.
    """

    def __init__(
        self,
        drop_indices: Optional[Iterable[int]] = None,
        predicate: Optional[Callable[[EthernetFrame], bool]] = None,
    ) -> None:
        super().__init__()
        self.drop_indices: Set[int] = set(drop_indices or ())
        self.predicate = predicate
        self._index = 0

    def _should_drop(self, frame: EthernetFrame, now: float) -> bool:
        self._index += 1
        if self._index in self.drop_indices:
            return True
        return self.predicate is not None and self.predicate(frame)


class WindowLoss(LossModel):
    """Drops every frame arriving inside a time window ``[start, stop)``.

    Models a transient tap outage on the backup (the IP-buffer-overflow
    scenario of §4.2).
    """

    def __init__(self, start: float, stop: float) -> None:
        super().__init__()
        if stop < start:
            raise ValueError(f"window stop {stop} before start {start}")
        self.start = start
        self.stop = stop

    def _should_drop(self, frame: EthernetFrame, now: float) -> bool:
        return self.start <= now < self.stop
