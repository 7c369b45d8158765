"""Opt-in sampling profiler attributing wall time to simulator layers.

Future perf PRs should be measured rather than guessed: this module
answers "where does the wall clock go — kernel, TCP, or net?" for any
span of simulation work, with near-zero overhead when off and a few
percent when sampling.

The profiler is a classic SIGALRM sampler: an interval timer fires every
``interval`` seconds of wall time and the handler walks the current Python
stack, crediting the sample to the innermost frame that belongs to a
``repro`` layer (and to that frame's function, for the per-function
table).  Layers are keyed off module paths::

    kernel   repro/sim
    tcp      repro/tcp, repro/sttcp, repro/ftcp
    net      repro/net, repro/ip
    app      repro/apps
    util     repro/util
    harness  repro/harness, repro/metrics, repro/faults
    external anything outside repro (pytest, stdlib, ...)

Used via the CLI/executor ``--profile`` flag, which writes the JSON
report next to the result store, or directly::

    with profile.sample(path="profile.json") as profiler:
        run_experiment("table1")
    print(profiler.report()["layers"])

Constraints: signal-based sampling only works in the main thread, and a
worker-pool run (``--jobs N``) keeps its simulation CPU in child
processes — profile with ``--jobs 1`` to attribute kernel time.
"""

from __future__ import annotations

import contextlib
import json
import signal
import time
from collections import Counter
from pathlib import Path
from types import FrameType
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ReproError

#: Default sampling interval in seconds of wall time.
DEFAULT_INTERVAL = 0.002

#: Layer name → path fragments (probed in order; first match wins).
LAYER_PATHS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("kernel", ("repro/sim/",)),
    ("tcp", ("repro/tcp/", "repro/sttcp/", "repro/ftcp/")),
    ("net", ("repro/net/", "repro/ip/")),
    ("app", ("repro/apps/",)),
    ("util", ("repro/util/",)),
    ("harness", ("repro/harness/", "repro/metrics/", "repro/faults/")),
)


def _classify(filename: str) -> Optional[str]:
    """Layer for a source path, or None for non-repro code."""
    path = filename.replace("\\", "/")
    for layer, fragments in LAYER_PATHS:
        for fragment in fragments:
            if fragment in path:
                return layer
    if "repro/" in path:
        return "other"
    return None


#: The scheduler's dispatch loop: a sample landing here is really time
#: spent *dispatching the current callback* (the call instruction itself,
#: or a C-level callback with no Python frame of its own).  The loop binds
#: the active callback to a local named ``callback`` exactly so the
#: profiler can attribute the sample to the callback's layer instead of
#: lumping the whole run into "kernel".
_DISPATCH_FUNCTIONS = frozenset({"run_until"})


def _callback_attribution(frame: FrameType) -> Optional[Tuple[str, str]]:
    """(layer, "file:func") for the dispatch frame's active callback."""
    callback = frame.f_locals.get("callback")
    if callback is None:
        return None
    function = getattr(callback, "__func__", callback)  # unwrap bound methods
    code = getattr(function, "__code__", None)
    if code is None:
        return None
    layer = _classify(code.co_filename)
    if layer is None:
        return None
    return layer, f"{Path(code.co_filename).name}:{code.co_name}"


class SamplingProfiler:
    """Wall-clock stack sampler with per-layer attribution."""

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ReproError(f"sampling interval must be positive, got {interval}")
        self.interval = interval
        self.samples = 0
        self.layer_samples: Counter = Counter()
        self.function_samples: Counter = Counter()  # (layer, "file:func") → n
        self.wall_time = 0.0
        self._started_at: Optional[float] = None
        self._prev_handler: Any = None

    @property
    def running(self) -> bool:
        return self._started_at is not None

    # Sampling ------------------------------------------------------------
    def _sample(self, _signum: int, frame: Optional[FrameType]) -> None:
        self.samples += 1
        walker = frame
        while walker is not None:
            code = walker.f_code
            layer = _classify(code.co_filename)
            if layer is not None:
                name = f"{Path(code.co_filename).name}:{code.co_name}"
                if code.co_name in _DISPATCH_FUNCTIONS:
                    # The innermost repro frame is the scheduler's
                    # dispatch loop, but the time belongs to the callback
                    # it is dispatching.
                    attributed = _callback_attribution(walker)
                    if attributed is not None:
                        layer, name = attributed
                self.layer_samples[layer] += 1
                self.function_samples[(layer, name)] += 1
                return
            walker = walker.f_back
        self.layer_samples["external"] += 1

    def start(self) -> None:
        """Install the handler and arm the interval timer (main thread only)."""
        if self.running:
            raise ReproError("profiler already running")
        try:
            self._prev_handler = signal.signal(signal.SIGALRM, self._sample)
        except ValueError as exc:  # not in the main thread
            raise ReproError(f"sampling profiler needs the main thread: {exc}") from exc
        self._started_at = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        """Disarm the timer and restore the previous SIGALRM handler."""
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._prev_handler or signal.SIG_DFL)
        self._prev_handler = None
        self.wall_time += time.perf_counter() - self._started_at  # type: ignore[operator]
        self._started_at = None

    # Reporting -----------------------------------------------------------
    def report(self, top: int = 20) -> Dict[str, Any]:
        """Layer-attribution report as a JSON-able dict."""
        total = self.samples or 1
        layers = {
            layer: {
                "samples": count,
                "fraction": count / total,
                "est_seconds": count / total * self.wall_time,
            }
            for layer, count in self.layer_samples.most_common()
        }
        top_functions: List[Dict[str, Any]] = [
            {
                "function": name,
                "layer": layer,
                "samples": count,
                "fraction": count / total,
            }
            for (layer, name), count in self.function_samples.most_common(top)
        ]
        return {
            "interval": self.interval,
            "samples": self.samples,
            "wall_time": self.wall_time,
            "layers": layers,
            "top_functions": top_functions,
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Write the report as JSON; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.report(), indent=2, sort_keys=True) + "\n")
        return target

    def summary(self) -> str:
        """One-line human rendering of the layer split."""
        total = self.samples or 1
        parts = ", ".join(
            f"{layer} {count / total:.0%}"
            for layer, count in self.layer_samples.most_common()
        )
        return f"{self.samples} samples over {self.wall_time:.1f}s wall: {parts or 'no samples'}"


@contextlib.contextmanager
def sample(
    interval: float = DEFAULT_INTERVAL, path: Optional[Union[str, Path]] = None
) -> Iterator[SamplingProfiler]:
    """Profile the enclosed block; optionally write the JSON report."""
    profiler = SamplingProfiler(interval)
    profiler.start()
    try:
        yield profiler
    finally:
        profiler.stop()
        if path is not None:
            profiler.write(path)
