"""Smoke tests of the benchmark itself (about a minute).

Not part of the tier-1 ``testpaths``; run explicitly::

    python -m pytest bench/tests

Everything runs at ``--quick`` scale: the tests check names, exactness
and the verification gate, never a timing.
"""

from __future__ import annotations

import importlib.util
import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
#: Workloads whose simulation depends on the seed beyond the ISNs
#: (Pareto flow sizes; heartbeat jitter).
SEEDED = ("churn_failover", "cluster_failover")


def _load(name: str) -> Any:
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory: pytest.TempPathFactory) -> Dict[str, Dict[str, Any]]:
    """Two --quick ledgers on one seed and one on another."""
    out = tmp_path_factory.mktemp("ledgers")
    documents = {}
    for label, seed in (("a", 12), ("again", 12), ("other", 13)):
        path = out / f"{label}.json"
        done = _bench("--quick", "--seed", str(seed), "--out", str(path))
        assert done.returncode == 0, done.stdout + done.stderr
        documents[label] = json.loads(path.read_text())
        documents[label]["path"] = path
    return documents


def _exact_cells(report: Dict[str, Any]) -> Dict[str, Any]:
    cells = {k: c["value"] for k, c in report["per_layer"].items() if c.get("exact")}
    cells["sim_digest"] = report["sim_digest"]
    return cells


def test_quick_emits_exactly_the_declared_names(ledgers):
    document = ledgers["a"]
    assert list(document["workloads"]) == WORKLOADS
    assert document["claim"] is None
    for report in document["workloads"].values():
        assert report["correct"] and report["failed"] == 0
        for family in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in CONTRACT[family]}
            assert {k: c["unit"] for k, c in report[family].items()} == declared


def test_counts_and_digests_repeat_exactly_and_follow_the_seed(ledgers):
    for name in WORKLOADS:
        first, again, other = (
            _exact_cells(ledgers[label]["workloads"][name]) for label in ("a", "again", "other")
        )
        assert {"py_calls_m", "tcp.calls_per_seg", "span.ip.send.calls"} <= set(first)
        assert first == again
        if name in SEEDED:
            assert first["sim_digest"] != other["sim_digest"]
            assert first["py_calls_m"] != other["py_calls_m"]


def test_layer_self_times_sum_to_the_traced_total(ledgers):
    for report in ledgers["a"]["workloads"].values():
        cells = report["per_layer"]
        layers = sum(c["value"] for k, c in cells.items() if k.endswith(".self_s") and "span." not in k)
        total = cells["run.traced_self_s"]["value"]
        assert layers == pytest.approx(total, rel=0.02)


def test_compare_finds_a_rerun_identical(ledgers):
    done = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(ledgers["a"]["path"]), str(ledgers["again"]["path"])],
        capture_output=True, text=True, timeout=60,
    )
    assert "every sim_digest and every exact count is identical" in done.stdout, done.stdout
    done = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(ledgers["a"]["path"]), str(ledgers["other"]["path"])],
        capture_output=True, text=True, timeout=60,
    )
    assert "EXACT QUANTITIES DIFFER" in done.stdout, done.stdout


@pytest.mark.parametrize("trace,family", [("0", "end_to_end"), ("1", "per_layer")])
def test_single_workload_result_line(trace, family):
    done = _bench("--workload", "bulk_upload", "--seed", "3", "--seconds", "1", "--trace", trace, "--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in CONTRACT[family]
    }
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())


def test_failed_verification_fails_the_command(capsys):
    def sabotaged(workload, seed, scale, traced):
        sample = run.run_sample(workload, seed, scale, traced)
        sample["failures"] = ["client received corrupted data"]
        sample["failed"] = 1
        return sample

    status = run.main(
        ["--workload", "bulk_download", "--seconds", "0", "--quick"], sampler=sabotaged
    )
    assert status != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_host_probe_bursts_inside_the_block_and_lets_go_of_the_signal():
    hostprobe = _load("hostprobe")
    with hostprobe.HostProbe() as probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert 3 <= len(probe.bursts) <= 7  # one per 50 ms
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert probe.burst_cpu_s == sum(probe.bursts)
    assert probe.corrected(1.0) == pytest.approx(probe.slowdown**-0.7)


def test_churn_gate_counts_a_leftover_shadow():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        from workloads import prepare_churn_failover
    finally:
        del sys.path[:2]
    timed, summarise = prepare_churn_failover(12, 1 / 16)
    record = timed()
    assert summarise(record).failed == 0
    record["leftover_shadows"] = 1
    outcome = summarise(record)
    assert outcome.failed == 1 and outcome.failures == ["leftover_shadows = 1"]
