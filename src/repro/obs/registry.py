"""The metrics registry: named counters, gauges and histograms.

Components used to keep ad-hoc ``self.foo += 1`` attributes that
experiments harvested by attribute name; the registry replaces that with
*named* instruments that stay O(1) on the hot path:

* a :class:`Counter` increment is one attribute load plus an integer add
  (``counter.value += n``) — the same machine work as the bare attribute
  it replaces, so instrumented hot paths cost nothing extra;
* instruments are created once (``registry.counter(name)`` is
  get-or-create) and *held* by the component; the dict lookup happens at
  wiring time, never per event;
* :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.delta` give
  whole-registry and since-last-look views without touching the
  instruments themselves.

Per-host scoping: ``registry.scope("primary")`` returns a
:class:`MetricsScope` whose instruments are prefixed ``primary.`` — the
convention is ``<host>.<layer>.<name>`` (e.g. ``backup.sttcp.acks_sent``),
so one simulator-wide registry serves every host without collisions.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError

Number = Union[int, float]


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


#: Default histogram bucket upper bounds (unitless; callers pick units).
DEFAULT_BOUNDS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def bucket_quantile(
    bounds: Tuple[float, ...],
    bucket_counts: List[int],
    q: float,
    observed_max: Optional[float] = None,
) -> Optional[float]:
    """Approximate quantile from a fixed-bucket digest.

    Returns the upper bound of the bucket holding the q-th observation,
    clamped to ``observed_max`` when known — so a single-sample p99 is
    the sample itself (not its bucket's ceiling) and the overflow bucket
    reports the real maximum instead of ``inf``.  The arithmetic behind
    :meth:`Histogram.quantile`, its one caller.
    """
    total = sum(bucket_counts)
    if total <= 0:
        return None
    target = q * total
    seen = 0
    for index, bucket_count in enumerate(bucket_counts):
        seen += bucket_count
        if seen >= target and bucket_count:
            if index < len(bounds):
                bound = float(bounds[index])
                return min(bound, observed_max) if observed_max is not None else bound
            break  # the overflow bucket has no upper bound
    return observed_max if observed_max is not None else float("inf")


class Histogram:
    """Fixed-bucket histogram: one bisect + one add per observation."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Optional[Tuple[float, ...]] = None) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds) if bounds else DEFAULT_BOUNDS
        if list(self.bounds) != sorted(self.bounds):
            raise ConfigurationError(f"histogram {name}: bounds must be sorted")
        # One count per bound plus the overflow bucket.
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Approximate quantile: the upper bound of the bucket holding
        the q-th observation, clamped to the observed maximum (a
        single-sample p99 is the sample, never its bucket's ceiling or
        ``inf``)."""
        return bucket_quantile(self.bounds, self.bucket_counts, q, self.max)

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count}>"


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """All instruments of one simulation, keyed by dotted name."""

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, name: str, kind: type, *args: Any) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, *args)
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

    def histogram(
        self, name: str, bounds: Optional[Tuple[float, ...]] = None
    ) -> Histogram:
        return self._get_or_create(name, Histogram, bounds)  # type: ignore[return-value]

    def scope(self, prefix: str) -> "MetricsScope":
        """A view whose instrument names are prefixed ``<prefix>.``."""
        return MetricsScope(self, prefix)

    # Introspection ---------------------------------------------------------
    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def value(self, name: str, default: Any = 0) -> Any:
        """Scalar value of a counter/gauge (histograms: observation count)."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return default
        if isinstance(instrument, Histogram):
            return instrument.count
        return instrument.value

    def names(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._instruments if n.startswith(prefix))

    def snapshot(self, prefix: str = "") -> Dict[str, Any]:
        """Point-in-time values: scalars for counters/gauges, summary
        dicts for histograms.  Feed back into :meth:`delta`."""
        out: Dict[str, Any] = {}
        for name in self.names(prefix):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = instrument.summary()
            else:
                out[name] = instrument.value
        return out

    def delta(self, since: Dict[str, Any], prefix: str = "") -> Dict[str, Any]:
        """What changed since ``since`` (an earlier :meth:`snapshot`).

        Counters and histogram counts subtract; gauges report their
        current value when it differs.  Unchanged instruments are
        omitted, so a delta over a quiet interval is empty.
        """
        out: Dict[str, Any] = {}
        for name in self.names(prefix):
            instrument = self._instruments[name]
            previous = since.get(name)
            if isinstance(instrument, Counter):
                baseline = previous if isinstance(previous, (int, float)) else 0
                if instrument.value != baseline:
                    # A value below the baseline means the counter was
                    # reset (host teardown, engine replacement): report
                    # the post-reset count, never a negative delta that
                    # would claim events un-happened.
                    out[name] = (
                        instrument.value - baseline
                        if instrument.value >= baseline
                        else instrument.value
                    )
            elif isinstance(instrument, Histogram):
                baseline = previous["count"] if isinstance(previous, dict) else 0
                if instrument.count != baseline:
                    out[name] = (
                        instrument.count - baseline
                        if instrument.count >= baseline
                        else instrument.count
                    )
            else:  # Gauge: report the new level, not a difference
                if instrument.value != previous:
                    out[name] = instrument.value
        return out


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

    def histogram(
        self, name: str, bounds: Optional[Tuple[float, ...]] = None
    ) -> Histogram:
        return self.registry.histogram(self._full(name), bounds)

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self.registry, self._full(prefix))

    def snapshot(self) -> Dict[str, Any]:
        return self.registry.snapshot(prefix=self.prefix + ".")

    def delta(self, since: Dict[str, Any]) -> Dict[str, Any]:
        return self.registry.delta(since, prefix=self.prefix + ".")
