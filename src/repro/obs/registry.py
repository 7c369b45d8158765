"""The metrics registry: named counters and gauges.

Components used to keep ad-hoc ``self.foo += 1`` attributes that
experiments harvested by attribute name; the registry replaces that with
*named* instruments that stay O(1) on the hot path:

* a :class:`Counter` increment is one attribute load plus an integer add
  (``counter.value += n``) — the same machine work as the bare attribute
  it replaces, so instrumented hot paths cost nothing extra;
* instruments are created once (``registry.counter(name)`` is
  get-or-create) and *held* by the component; the dict lookup happens at
  wiring time, never per event;
* the registry is read when the run ends (:meth:`MetricsRegistry.names`,
  :meth:`MetricsRegistry.value`), never sampled while it runs.

Per-host scoping: ``registry.scope("primary")`` returns a
:class:`MetricsScope` whose instruments are prefixed ``primary.`` — the
convention is ``<host>.<layer>.<name>`` (e.g. ``backup.sttcp.acks_sent``),
so one simulator-wide registry serves every host without collisions.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from repro.errors import ConfigurationError


class Counter:
    """A monotonically increasing count.  Increment via :meth:`inc` or —
    on hot paths — ``counter.value += n`` directly."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value (a level, a role, a queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Any = 0

    def set(self, value: Any) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value}>"


Instrument = Union[Counter, Gauge]


class MetricsRegistry:
    """All instruments of one simulation, keyed by dotted name."""

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, name: str, kind: type) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name)
            self._instruments[name] = instrument
        elif type(instrument) is not kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)  # type: ignore[return-value]

    def scope(self, prefix: str) -> "MetricsScope":
        """A view whose instrument names are prefixed ``<prefix>.``."""
        return MetricsScope(self, prefix)

    # Introspection ---------------------------------------------------------
    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def value(self, name: str, default: Any = 0) -> Any:
        """Value of a counter or gauge (``default`` if never registered)."""
        instrument = self._instruments.get(name)
        return default if instrument is None else instrument.value

    def names(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._instruments if n.startswith(prefix))


class MetricsScope:
    """A prefixed view onto a registry (per host, per layer)."""

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self.registry = registry
        self.prefix = prefix

    def _full(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def counter(self, name: str) -> Counter:
        return self.registry.counter(self._full(name))

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(self._full(name))

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self.registry, self._full(prefix))
