"""Tests for the experiment CLI and record exports."""

import json

import pytest

from repro.harness.cli import build_parser, main
from repro.metrics.report import records_to_csv, records_to_json


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_parser_knows_all_subcommands():
    """Every registered spec is reachable from a verb, and every verb parses."""
    from repro.harness.cli import EXPERIMENT_VERBS
    from repro.harness.spec import experiment_names, get_spec

    reachable = {name for verb in EXPERIMENT_VERBS.values() for name in verb.specs}
    shipped = {  # other test modules register probe specs of their own
        name
        for name in experiment_names()
        if get_spec(name).run_cell.__module__.startswith("repro.")
    }
    assert reachable == shipped
    parser = build_parser()
    for command in (*EXPERIMENT_VERBS, "explain"):
        assert parser.parse_args([command]).command == command
    assert {"scale", "cluster", "ablations"} <= set(EXPERIMENT_VERBS)
    assert parser.parse_args(["figure5", "--app", "echo"]).app == "echo"
    assert parser.parse_args(["drill", "some/path"]).command == "drill"


def test_repro_error_is_one_line_and_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "primaries": 2, "backups": 2, "typo": 1}))
    assert main(["cluster", "--scenario", str(bad), "--no-store"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {bad}: unknown scenario key(s) ['typo']; allowed: "
        "['arbiter', 'assignment', 'backups', 'capacity', 'crash', 'deadline', "
        "'name', 'primaries', 'profile', 'seed', 'sttcp', 'workload']"
    ]
    assert captured.out == ""


def test_ablations_help_names_all_five(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "A1–A5" in capsys.readouterr().out


def test_ablations_command_prints_one_titled_table_per_ablation(capsys):
    """The section titles and column lists live on the specs (``format``)."""
    assert main(["ablations", "--no-store"]) == 0
    lines = capsys.readouterr().out.splitlines()
    sections = {
        "A1 sync strategy": "sync_time  x_fraction  total_time  acks_sent  retention_peak  overflow_peak",
        "A2 vs FT-TCP": "protocol  crash_fraction  failover_time  detection_latency",
        "A3 logger double-failure": "logger  outcome     logger_bytes_recovered",
        "A4 channel overhead": "second_buffer  x_bytes    acks_sent  overhead_percent",
        "A5 detection threshold": "threshold  wrong_suspicion  service_ok_after  detection_latency",
    }
    assert [line for line in lines if line[:1] == "A"] == list(sections)
    for title, header in sections.items():
        assert lines[lines.index(title) + 1] == header


def test_drill_command_reports_per_script_table(capsys, tmp_path):
    from pathlib import Path

    scripts = Path(__file__).parent.parent / "drill" / "scripts"
    single = scripts / "t01_handshake_3way.py"
    json_path = tmp_path / "drill.json"
    assert main(["drill", str(single), "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "t01_handshake_3way" in out and "PASS" in out
    assert "1/1 scripts passed" in out
    assert json.loads(json_path.read_text())[0]["passed"] is True


def test_drill_command_fails_on_broken_script(capsys):
    from pathlib import Path

    broken = Path(__file__).parent.parent / "drill" / "broken" / "b01_wrong_ack.py"
    assert main(["drill", str(broken)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "field ack: expected 2, actual 1" in out


def test_table1_command_with_exports(tmp_path, capsys):
    json_path = tmp_path / "t1.json"
    csv_path = tmp_path / "t1.csv"
    assert (
        main(["table1", "--quick", "--json", str(json_path), "--csv", str(csv_path)])
        == 0
    )
    out = capsys.readouterr().out
    assert "Standard TCP" in out
    records = json.loads(json_path.read_text())
    assert records[0]["config"] == "Standard TCP"
    header = csv_path.read_text().splitlines()[0]
    assert "config" in header


def test_figure5_command(capsys):
    assert main(["figure5", "--app", "echo", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "heartbeat" in out


def test_records_roundtrip(tmp_path):
    records = [
        {"a": 1.23456789012, "b": "x", "c": True},
        {"a": float("inf"), "d": 4},
    ]
    path = records_to_json(records, tmp_path / "r.json")
    loaded = json.loads(path.read_text())
    assert loaded[0]["a"] == pytest.approx(1.23456789)
    assert loaded[1]["a"] == "inf"
    assert loaded[1]["d"] == 4


def test_csv_header_is_key_union(tmp_path):
    records = [{"a": 1}, {"a": 2, "b": 3}]
    path = records_to_csv(records, tmp_path / "r.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,"
    assert lines[2] == "2,3"


def test_csv_empty_records(tmp_path):
    path = records_to_csv([], tmp_path / "empty.csv")
    assert path.read_text() == ""


def test_explain_wire_shows_client_tcpdump(capsys):
    assert main(["explain", "--wire", "--exchanges", "30", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert ": SA " in out             # the SYN/ACK from the service IP
    assert "event takeover" in out
    assert out.splitlines()[-1].startswith("VERDICT: PASS")
    # Every TCP frame the client saw came from the one service identity.
    data_lines = [l for l in out.splitlines() if " win " in l]
    assert data_lines
    assert all("10.0.0.100.8000" in line for line in data_lines)


def test_explain_prints_phase_decomposition(capsys):
    assert main(["explain", "--exchanges", "30", "--hb", "0.05", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "failover timeline" in out
    assert "phase detection" in out
    assert "phase takeover" in out
    assert "sum of phases" in out
    assert "measured client-visible outage" in out
    # The rendered sum and the measured outage agree to the 0.1 ms digit.
    rendered = [l for l in out.splitlines() if "sum of phases" in l][0]
    measured = [l for l in out.splitlines() if "measured" in l][0]
    assert rendered.split(":")[1].split("ms")[0].strip() in measured


def test_drill_flight_dump_flag(tmp_path, capsys):
    from pathlib import Path

    broken = Path(__file__).parent.parent / "drill" / "broken" / "b01_wrong_ack.py"
    dumps = tmp_path / "dumps"
    assert main(["drill", str(broken), "--flight-dump", str(dumps)]) == 1
    out = capsys.readouterr().out
    assert "field ack: expected 2, actual 1" in out  # diagnostics unchanged
    assert (dumps / "b01_wrong_ack.flight.txt").read_text().splitlines()[1] == "faults FaultPlan([])"
    assert not (dumps / "b01_wrong_ack.trace.json").exists()  # cluster drills only


def test_flight_dump_env_round_trip(tmp_path, monkeypatch):
    """A red harness run leaves a dump when REPRO_FLIGHT_DUMP is set."""
    from repro.apps.workload import echo_workload
    from repro.errors import SimulationError
    from repro.harness.runner import FLIGHT_DUMP_ENV, run_workload

    monkeypatch.setenv(FLIGHT_DUMP_ENV, str(tmp_path))
    # Deadline far too short: the simulation dies mid-run.
    with pytest.raises(SimulationError):
        run_workload(echo_workload(500), seed=4, deadline=0.15)
    dumps = list(tmp_path.glob("flight-*.txt"))
    assert len(dumps) == 1
    assert "=== flight recorder dump: simulation crashed" in dumps[0].read_text()


def test_a_flight_dump_carries_the_plan_that_pastes_back(tmp_path, monkeypatch):
    """The dump's second line is the run's fault plan, as ``explain`` and a
    drill FAIL print it: pasted into ``faults=`` it names the same run."""
    from repro.apps.workload import echo_workload
    from repro.errors import SimulationError
    from repro.faults.injection import FaultPlan
    from repro.harness.runner import FLIGHT_DUMP_ENV, run_workload

    monkeypatch.setenv(FLIGHT_DUMP_ENV, str(tmp_path))
    plan = FaultPlan([(0.14, "primary_crash", {})])
    with pytest.raises(SimulationError):
        run_workload(echo_workload(500), seed=4, deadline=0.15, faults=plan)
    (dump,) = tmp_path.glob("flight-*.txt")
    title, header = dump.read_text().splitlines()[:2]
    assert title.startswith("=== flight recorder dump: simulation crashed")
    assert header == "faults FaultPlan([(0.14, 'primary_crash', {})])"
    assert eval(header.split(" ", 1)[1], {"FaultPlan": FaultPlan}) == plan


def test_no_flight_dump_without_env(tmp_path, monkeypatch):
    from repro.apps.workload import echo_workload
    from repro.errors import SimulationError
    from repro.harness.runner import FLIGHT_DUMP_ENV, run_workload

    monkeypatch.delenv(FLIGHT_DUMP_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SimulationError):
        run_workload(echo_workload(500), seed=4, deadline=0.15)
    assert list(tmp_path.glob("flight-*.txt")) == []


def test_cluster_grades_are_the_parents(capsys):
    """Smoke, trio and storm grade B with the max burns the deleted
    ``repro health`` scorecard printed: 0.78 / 0.78 / 0.54."""
    assert main(["cluster", "--no-store"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[lines.index("cluster: pooled backups, fenced takeover, re-election") + 1]
    assert header.split()[-2:] == ["grade", "burn"]
    rows = [line.split() for line in lines if line.split()[:1] in (["smoke"], ["trio"], ["storm"])]
    assert [(row[0], row[-2], row[-1]) for row in rows] == [
        ("smoke", "B", "0.78"),
        ("trio", "B", "0.78"),
        ("storm", "B", "0.54"),
    ]
    assert lines[-1].split() == rows[-1]  # no fault line under the table


def test_cluster_table_counts_the_connections_elections_left_unprotected(capsys):
    assert main(["cluster", "--no-store"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(line for line in lines if line.startswith("scenario"))
    assert "unprotected" in header and "sync" not in header
    rows = {row[0]: row for row in (line.split() for line in lines) if len(row) == 10}
    # name, pairs, detect, takeover, elections, unprotected, fences, invariants, grade, burn
    assert [rows[name][4:6] for name in ("smoke", "trio", "storm")] == [
        ["1", "1"],
        ["1", "1"],
        ["2", "2"],
    ]


def test_cluster_exits_1_when_a_record_grades_c(monkeypatch, capsys):
    """A record whose invariants hold but whose worst outage breaks the
    availability objective grades C: the verb prints why and exits 1."""
    import repro.cluster.run

    run_cluster = repro.cluster.run.run_cluster

    def long_outage(spec):
        record = run_cluster(spec)
        record["pairs"][0]["max_gap"] = 0.5 * record["pairs"][0]["total_time"]
        return record

    monkeypatch.setattr(repro.cluster.run, "run_cluster", long_outage)
    assert main(["cluster", "--scenario", "smoke", "--no-store"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].split()[-3:-1] == ["4/4", "C"]
    assert lines[4].startswith("smoke: SLO availability missed: worst pair availability 0.500000")
    assert lines[5].startswith("smoke: SLO availability-burn-2s missed: worst outage")


def test_verbs_reject_the_grid_flags_they_do_not_read(capsys):
    """A scenario names its own seed and fabric, a scale ladder has no
    paper size, and neither carries a flight recorder: those flags are
    errors, not silently ignored."""
    for argv in (
        ["cluster", "--seed", "5"],
        ["cluster", "--topology", "switched"],
        ["scale", "--paper-scale"],
        ["ablations", "--quick"],
        ["cluster", "--flight-dump", "d"],
        ["scale", "--flight-dump", "d"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_scale_command_grades_a_clean_rung_a(capsys):
    assert main(["scale", "--rungs", "25", "--no-store"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["25", "0", "A"] in [row[:1] + row[-3:-1] for row in rows if row]


def test_explain_scenario_mode(capsys):
    assert main(["explain", "--scenario", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "cluster scenario 'smoke'" in out
    assert "failover timeline: client outage" in out  # the crashed pair
    assert "no takeover on this pair" in out  # the healthy pair
    assert "phase fence" in out and "phase election" in out
    assert "  s0 (takeover) → pool1; unprotected: 192.168.9.10:32768" in out
    assert "  bounded_election      holds" in out
    assert out.splitlines()[-1].startswith("VERDICT: PASS")


def test_explain_default_run_is_pinned_and_deterministic(capsys):
    """With no options: the Figure 5-style echo failover, its phase lines
    as the separate timeline verb printed them, the same bytes twice."""
    assert main(["explain"]) == 0
    out = capsys.readouterr().out
    assert main(["explain"]) == 0
    assert capsys.readouterr().out == out
    assert "cluster scenario" not in out
    lines = out.splitlines()
    # The profiled run's work by layer: exact counts, most first, summed.
    head = next(i for i, line in enumerate(lines) if line.startswith("work by layer ("))
    rows = [line.split() for line in lines[head + 1 : lines.index("", head)]]
    assert rows[-1][0] == "total" and rows[0][0] == "tcp"
    calls = [float(row[1]) for row in rows[:-1]]
    assert calls == sorted(calls, reverse=True)
    assert abs(sum(calls) - float(rows[-1][1])) < 0.01 * len(calls)
    start = lines.index(
        "failover timeline: client outage 181.0 ms (0.283378 → 0.464367)"
    )
    assert lines[start + 1 : start + 9] == [
        "  phase detection 0.283378 → 0.450000  (  166.622 ms)",
        "  event crash     0.283389",
        "  phase takeover  0.450000 → 0.460000  (   10.000 ms)",
        "  event suspected 0.450000",
        "  phase recovery  0.460000 → 0.464367  (    4.367 ms)",
        "  event takeover  0.460000",
        "  sum of phases: 181.0 ms (= client-visible outage)",
        "measured client-visible outage (RunResult.max_gap): 181.0 ms",
    ]
    assert "anomalies: none" in lines


def test_failed_cluster_drill_attaches_causal_trace(tmp_path, capsys):
    """A failing cluster drill leaves the flight dump plus a Chrome trace
    of its timeline collector: the takeover and the fence as phase
    slices, and no begin/end events or flow arrows."""
    script = tmp_path / "t99_cluster_fails.py"
    script.write_text(
        "use(mode=\"cluster\", cluster={\n"
        "    \"name\": \"t99\", \"primaries\": 2, \"backups\": 2,\n"
        "    \"capacity\": 2,\n"
        "    \"workload\": {\"exchanges\": 80, \"service_time\": 0.005},\n"
        "    \"deadline\": 5.0,\n"
        "})\n"
        "fault(0.250, \"cluster_crash\", service=\"s0\")\n"
        "def impossible(env):\n"
        "    assert False, \"forced failure\"\n"
        "probe(1.500, impossible, label=\"always fails\")\n"
    )
    dumps = tmp_path / "dumps"
    assert main(["drill", str(script), "--flight-dump", str(dumps)]) == 1
    capsys.readouterr()
    assert (dumps / "t99_cluster_fails.flight.txt").exists()
    trace = dumps / "t99_cluster_fails.trace.json"
    assert trace.exists()
    events = json.loads(trace.read_text())["traceEvents"]
    slices = {e["name"] for e in events if e["ph"] == "X"}
    assert {"takeover", "fence"} <= slices
    assert not [e for e in events if e["ph"] in ("B", "E", "s", "t", "f")]
