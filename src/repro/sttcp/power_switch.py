"""The controllable power switch (§3.2, §4.4).

ST-TCP requires a *perfect* failure detector: the backup must never take
over while the primary still serves the client, or both would transmit on
the same connection.  The paper's remedy is physical: "if the backup
suspects the primary, it switches off the power of the primary", making
the suspicion true before it is acted on.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class PowerSwitch:
    """A remote-controlled power relay for one or more hosts."""

    def __init__(self, sim: Any, actuation_delay: float = 0.010) -> None:
        if actuation_delay < 0:
            raise ValueError(f"negative actuation delay {actuation_delay}")
        self.sim = sim
        self.actuation_delay = actuation_delay
        self.cuts_performed = 0

    def cut_power(self, host: Any, done: Optional[Callable[[], None]] = None) -> None:
        """Crash ``host`` after the relay actuates, then call ``done``.

        Idempotent: cutting power to an already-crashed host still invokes
        ``done`` after the actuation delay (the backup cannot tell, and
        must not care, whether the primary was already dead).
        """
        def actuate() -> None:
            self.cuts_performed += 1
            host.crash()  # idempotent
            if "sttcp" in self.sim.trace.categories:
                self.sim.trace.emit(self.sim.now, "sttcp", "stonith", host=host.name)
            if done is not None:
                done()

        self.sim.post(self.sim.now + self.actuation_delay, actuate)
