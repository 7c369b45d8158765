"""End-to-end cluster runs: invariants, elections, record shape, determinism."""

import json

import pytest

from repro.cluster import run_cluster, spec_from_dict


def run(doc):
    return run_cluster(spec_from_dict(doc))


@pytest.fixture(scope="module")
def smoke_record():
    return run(
        {
            "name": "unit-smoke",
            "primaries": 2,
            "backups": 2,
            "capacity": 2,
            "workload": {"exchanges": 60, "service_time": 0.005},
            "crash": {"primary": 0, "at": 0.25},
            "deadline": 10.0,
        }
    )


def test_all_invariants_hold(smoke_record):
    invariants = smoke_record["invariants"]
    assert invariants["no_dual_primary"]
    assert invariants["exactly_once_streams"]
    assert invariants["bounded_takeover"]
    assert invariants["bounded_election"]
    assert smoke_record["ok"]


def test_every_client_verified(smoke_record):
    ledger = [(e["client"], e["outcome"]) for e in smoke_record["outcomes"]]
    assert ledger == [("s0", "completed"), ("s1", "completed")]


def test_takeover_latency_within_budget(smoke_record):
    assert 0 < smoke_record["detection_latency"] <= smoke_record["takeover_latency"]
    assert (
        smoke_record["takeover_latency"]
        <= smoke_record["invariants"]["takeover_budget"]
    )


def test_election_replaced_the_consumed_backup(smoke_record):
    (election,) = smoke_record["elections"]
    assert election["kind"] == "takeover"
    assert election["consumed_backup"] == "pool0"
    assert election["new_backup"] == "pool1"
    # pool1 never saw the client's open connection: named, not protected.
    assert election["unprotected"] == ["192.168.9.10:32768"]
    assert smoke_record["pool"]["consumed"] == ["pool0"]


def test_arbiter_fenced_exactly_once(smoke_record):
    assert smoke_record["arbiter"]["cuts_performed"] == 1
    assert not smoke_record["arbiter"]["sabotaged"]


def test_crashed_pair_gets_phase_timeline(smoke_record):
    timeline = smoke_record["timelines"]["s0"]
    assert timeline["outage"] > 0
    assert set(timeline["phases"]) == {"detection", "takeover", "recovery"}
    # Healthy pairs report only their progress gap.
    assert set(smoke_record["timelines"]["s1"]) == {"max_gap"}
    assert smoke_record["timelines"]["s1"]["max_gap"] < timeline["outage"]


def test_record_is_jsonable(smoke_record):
    assert json.loads(json.dumps(smoke_record)) == smoke_record


def test_runs_are_deterministic():
    doc = {
        "name": "unit-det",
        "primaries": 2,
        "backups": 2,
        "capacity": 2,
        "workload": {"exchanges": 40, "service_time": 0.005},
        "crash": {"at": 0.2},
        "deadline": 10.0,
    }
    assert run(doc) == run(doc)


def test_orphan_reelection():
    # pool0 shadows both s0 and s2; s0's takeover consumes it and orphans
    # s2, which must be re-elected onto a live pool host; each service's
    # open connection is named unprotected by its election.
    record = run(
        {
            "name": "unit-orphan",
            "primaries": 3,
            "backups": 3,
            "capacity": 2,
            "assignment": {"pool0": ["s0", "s2"], "pool1": ["s1"], "pool2": []},
            "workload": {"exchanges": 60, "service_time": 0.005},
            "crash": {"primary": 0, "at": 0.25},
            "deadline": 10.0,
        }
    )
    assert record["ok"]
    kinds = {e["service"]: e["kind"] for e in record["elections"]}
    assert kinds == {"s0": "takeover", "s2": "orphan"}
    assert {e["service"]: len(e["unprotected"]) for e in record["elections"]} == {
        "s0": 1,
        "s2": 1,
    }
    assert record["retired_services"] == 1


def test_sabotaged_arbiter_fails_the_run_record():
    # Scenario-level sabotage: requests acked, never actuated.  The crash
    # is real so no dual-primary arises, but the fence never lands and
    # the gap-recovery path must still converge the takeover; the run
    # record keeps the sabotage visible either way.
    record = run(
        {
            "name": "unit-sabotage",
            "primaries": 1,
            "backups": 1,
            "workload": {"exchanges": 40, "service_time": 0.005},
            "crash": {"at": 0.2},
            "arbiter": {"sabotaged": True},
            "deadline": 10.0,
        }
    )
    assert record["arbiter"]["sabotaged"]
    assert record["arbiter"]["cuts_performed"] == 0
    assert record["arbiter"]["fence_requests"] == 1


def test_single_pair_cluster_matches_paper_shape():
    # The degenerate 1:1 cluster is the paper's own topology; it must
    # fail over cleanly through the same fabric code path.
    record = run(
        {
            "name": "unit-pair",
            "primaries": 1,
            "backups": 1,
            "workload": {"exchanges": 60, "service_time": 0.005},
            "crash": {"at": 0.25},
            "deadline": 10.0,
        }
    )
    assert [e["outcome"] for e in record["outcomes"]] == ["completed"]
    assert record["invariants"]["no_dual_primary"]
    assert record["invariants"]["bounded_takeover"]
    # A 1-backup pool cannot elect a replacement: recorded, not raised.
    (election,) = record["elections"]
    assert election["new_backup"] is None


def test_a_cluster_run_schedules_no_telemetry_event():
    """The registry is read when the run ends: nothing under ``repro/obs``
    is ever a kernel event.  Counted from outside, as
    ``tools/event_census.py`` does: both ways onto the queue — a post, and
    a token's arm (a timer, a TIME_WAIT record, an ``EventHandle``, whose
    callback is what is recorded) — are wrapped before the simulator
    (which binds ``post`` and ``arm`` when it is built) exists, and every
    event the kernel executed must have passed a wrapper."""
    from repro.cluster.run import ClusterRun
    from repro.harness.experiments.cluster import resolve_scenario
    from repro.sim.events import EventHandle
    from tools.crash_silence import wrapped_queue

    dispatched = set()
    calls = [0]

    def recording(callback):
        owner = getattr(callback, "__self__", None)
        named = owner.callback if isinstance(owner, EventHandle) else callback
        function = getattr(named, "__func__", named)

        def recorded(*event_args):
            dispatched.add((function.__code__.co_filename, function.__qualname__))
            calls[0] += 1
            callback(*event_args)

        return recorded

    with wrapped_queue(recording):
        record = ClusterRun(resolve_scenario("smoke")).execute()
    # Smoke runs nine distinct callbacks, every one wrapped (a switch hop
    # is no event of its own).
    assert record["ok"] and len(dispatched) >= 9
    assert calls[0] == record["sim_events"]
    assert [where for where in sorted(dispatched) if "/repro/obs/" in where[0]] == []


def test_smoke_run_event_budget_per_exchange():
    """Kernel events per verified echo exchange on the shipped smoke
    scenario: 4 975 / 200 = 24.9 while the hub queued a delivery for every
    station, 22.8 once it screens at the NIC filter (``Hub`` docstring),
    21.7 before, and 18.1 after, a switch hop became one event and a pool
    host tapped only the services it shadows."""
    from repro.cluster.run import ClusterRun
    from repro.harness.experiments.cluster import resolve_scenario

    record = ClusterRun(resolve_scenario("smoke")).execute()
    verified = sum(
        pair["exchanges"]
        for pair, entry in zip(record["pairs"], record["outcomes"])
        if entry["outcome"] == "completed"
    )
    assert record["ok"] and verified == 200
    assert record["sim_events"] / verified <= 18.5
