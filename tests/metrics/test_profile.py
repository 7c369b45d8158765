"""Tests for the sampling profiler: classification, attribution, report."""

import json
import threading
import time

import pytest

from repro.errors import ReproError
from repro.metrics import profile
from repro.metrics.profile import SamplingProfiler, _classify
from repro.sim.scheduler import Scheduler
from repro.tcp.seqspace import wrap


def test_classify_maps_paths_to_layers():
    assert _classify("/x/src/repro/sim/scheduler.py") == "kernel"
    assert _classify("src\\repro\\tcp\\timers.py") == "tcp"  # windows separators
    assert _classify("/x/src/repro/sttcp/engine.py") == "tcp"
    assert _classify("/x/src/repro/net/medium.py") == "net"
    assert _classify("/x/src/repro/harness/cli.py") == "harness"
    assert _classify("/x/src/repro/__init__.py") == "other"
    assert _classify("/usr/lib/python3.11/posixpath.py") is None


def test_rejects_non_positive_interval():
    with pytest.raises(ReproError):
        SamplingProfiler(0.0)
    with pytest.raises(ReproError):
        SamplingProfiler(-1.0)


def test_start_twice_rejected_and_stop_is_idempotent():
    profiler = SamplingProfiler()
    profiler.start()
    try:
        with pytest.raises(ReproError):
            profiler.start()
    finally:
        profiler.stop()
    profiler.stop()  # second stop is a no-op
    assert not profiler.running


def test_start_outside_main_thread_rejected():
    outcome = {}

    def target():
        try:
            SamplingProfiler().start()
            outcome["error"] = None
        except ReproError as exc:
            outcome["error"] = exc

    worker = threading.Thread(target=target)
    worker.start()
    worker.join()
    assert isinstance(outcome["error"], ReproError)


def test_busy_scheduler_loop_attributed_to_kernel():
    sched = Scheduler()

    def chain():
        sched.schedule_after(1e-6, chain)

    chain()
    deadline = time.perf_counter() + 0.25
    with profile.sample(interval=0.0005) as profiler:
        while time.perf_counter() < deadline:
            sched.run_until(max_events=20_000)
    report = profiler.report()
    assert report["samples"] > 10
    assert report["wall_time"] > 0.2
    # Essentially all work happens inside repro/sim: the kernel layer must
    # dominate the split.
    assert report["layers"]["kernel"]["fraction"] > 0.5
    total_fraction = sum(info["fraction"] for info in report["layers"].values())
    assert total_fraction == pytest.approx(1.0)
    assert any(f["layer"] == "kernel" for f in report["top_functions"])
    assert "kernel" in profiler.summary()


def test_report_written_as_json(tmp_path):
    path = tmp_path / "nested" / "profile.json"
    with profile.sample(interval=0.001, path=path) as profiler:
        time.sleep(0.02)
    report = json.loads(path.read_text())
    assert report["interval"] == 0.001
    assert report["samples"] == profiler.samples
    assert set(report) == {
        "interval",
        "samples",
        "wall_time",
        "layers",
        "top_functions",
    }


def test_empty_profile_reports_cleanly():
    profiler = SamplingProfiler()
    report = profiler.report()
    assert report["samples"] == 0
    assert report["layers"] == {}
    assert "no samples" in profiler.summary()


# -- dispatch-loop attribution ----------------------------------------------


class FakeCode:
    def __init__(self, filename, name):
        self.co_filename = filename
        self.co_name = name


class FakeFrame:
    """Duck-typed frame: _sample touches f_code, f_locals and f_back only."""

    def __init__(self, code, f_locals=None, back=None):
        self.f_code = code
        self.f_locals = f_locals or {}
        self.f_back = back


_DRAIN_CODE = FakeCode("/x/src/repro/sim/scheduler.py", "run_until")


def test_drain_loop_sample_attributed_to_active_callback():
    # A sample landing on the dispatch loop's call line belongs to the
    # callback being dispatched (here a repro.tcp function), not to the
    # kernel layer the scheduler frame would classify as.
    profiler = SamplingProfiler()
    frame = FakeFrame(_DRAIN_CODE, {"callback": wrap})
    profiler._sample(0, frame)
    assert profiler.layer_samples == {"tcp": 1}
    assert profiler.function_samples == {("tcp", "seqspace.py:wrap"): 1}


def test_drain_loop_sample_without_resolvable_callback_stays_kernel():
    profiler = SamplingProfiler()
    # No callback local yet (sampled before the first dispatch).
    profiler._sample(0, FakeFrame(_DRAIN_CODE))
    # A C-level callback has no __code__ to classify.
    profiler._sample(0, FakeFrame(_DRAIN_CODE, {"callback": len}))
    # A non-repro callback classifies to None and keeps kernel credit.
    profiler._sample(0, FakeFrame(_DRAIN_CODE, {"callback": json.loads}))
    assert profiler.layer_samples == {"kernel": 3}
    assert all(layer == "kernel" for layer, _ in profiler.function_samples)


def test_dispatch_attribution_unwraps_bound_methods():
    profiler = SamplingProfiler()
    sched = Scheduler()
    frame = FakeFrame(
        _DRAIN_CODE,
        {"callback": sched.run_next},  # bound method of a kernel object
    )
    profiler._sample(0, frame)
    assert profiler.layer_samples == {"kernel": 1}
    assert profiler.function_samples == {("kernel", "scheduler.py:run_next"): 1}


def test_non_dispatch_kernel_frames_keep_their_own_credit():
    profiler = SamplingProfiler()
    frame = FakeFrame(
        FakeCode("/x/src/repro/sim/scheduler.py", "_push"),
        {"callback": wrap},  # irrelevant: not a dispatch function
    )
    profiler._sample(0, frame)
    assert profiler.function_samples == {("kernel", "scheduler.py:_push"): 1}
