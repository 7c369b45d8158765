"""Tests for the flight recorder: ring semantics and dump determinism."""

from pathlib import Path

from repro.obs.recorder import FlightRecorder
from repro.sim.trace import TraceRecord


def _record(i: int) -> TraceRecord:
    return TraceRecord(i * 0.001, "tcp", "send", {"seq": i})


class TestRing:
    def test_keeps_last_n_oldest_first(self):
        flight = FlightRecorder(capacity=4)
        for i in range(10):
            flight(_record(i))
        assert [r.fields["seq"] for r in flight.records()] == [6, 7, 8, 9]
        assert flight.total_records == 10
        assert flight.dropped == 6

    def test_under_capacity(self):
        flight = FlightRecorder(capacity=8)
        for i in range(3):
            flight(_record(i))
        assert [r.fields["seq"] for r in flight.records()] == [0, 1, 2]
        assert flight.dropped == 0

    def test_exact_capacity_boundary(self):
        flight = FlightRecorder(capacity=3)
        for i in range(3):
            flight(_record(i))
        assert [r.fields["seq"] for r in flight.records()] == [0, 1, 2]
        flight(_record(3))
        assert [r.fields["seq"] for r in flight.records()] == [1, 2, 3]

    def test_clear(self):
        flight = FlightRecorder(capacity=2)
        flight(_record(0))
        flight.clear()
        assert flight.records() == []
        assert flight.total_records == 0

    def test_rejects_nonpositive_capacity(self):
        import pytest

        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestDump:
    def test_dump_header_counts_drops(self):
        flight = FlightRecorder(capacity=2)
        for i in range(5):
            flight(_record(i))
        dump = flight.dump(reason="test crash")
        assert dump.startswith(
            "=== flight recorder dump: test crash (2 of 5 records, 3 dropped) ==="
        )
        assert "tcp/send seq=3" in dump
        assert dump.endswith("\n")

    def test_dump_to_writes_file(self, tmp_path):
        flight = FlightRecorder(capacity=4)
        flight(_record(1))
        path = tmp_path / "dump.txt"
        flight.dump_to(path, reason="x")
        assert path.read_text() == flight.dump(reason="x")


class TestDeterminism:
    @staticmethod
    def _drill_dump() -> str:
        from repro.drill.runner import run_program
        from repro.drill.script import load_script

        script = (
            Path(__file__).parent.parent / "drill" / "scripts" / "t01_handshake_3way.py"
        )
        result, env = run_program(load_script(script))
        assert result.passed
        return env.flight.dump(reason="determinism check")

    def test_same_seed_dump_is_byte_identical(self):
        """Two runs of the same drill (seeded from its name) must produce
        byte-identical flight dumps — wraparound and all."""
        assert self._drill_dump() == self._drill_dump()

    def test_wraparound_in_a_real_run_is_deterministic(self):
        """Force wraparound with a tiny ring on a bulk run: the retained
        window must be the same both times."""
        from repro.apps.workload import echo_workload
        from repro.harness.runner import run_workload
        from repro.harness.scenario import Scenario
        from repro.sttcp.config import STTCPConfig

        def run() -> str:
            scenario = Scenario(sttcp=STTCPConfig(hb_interval=0.05), seed=5)
            flight = FlightRecorder(capacity=32)
            scenario.sim.trace.add_sink(flight)
            run_workload(
                echo_workload(8), scenario=scenario, faults=[(0.102, "primary_crash")], deadline=120.0
            ).require_clean()
            assert flight.dropped > 0  # the ring actually wrapped
            return flight.dump()

        assert run() == run()


class TestDrillFlightDump:
    def test_failing_drill_leaves_a_dump(self, tmp_path):
        from repro.drill import run_drill_file

        broken = Path(__file__).parent.parent / "drill" / "broken" / "b01_wrong_ack.py"
        result = run_drill_file(broken, flight_dump=tmp_path)
        assert not result.passed
        dumps = list(tmp_path.glob("*.flight.txt"))
        assert len(dumps) == 1
        content = dumps[0].read_text()
        assert content.startswith("=== flight recorder dump: drill b01_wrong_ack failed")
        assert "tcp/" in content  # actual stack activity was recorded

    def test_passing_drill_leaves_no_dump(self, tmp_path):
        from repro.drill import run_drill_file

        script = (
            Path(__file__).parent.parent / "drill" / "scripts" / "t01_handshake_3way.py"
        )
        assert run_drill_file(script, flight_dump=tmp_path).passed
        assert list(tmp_path.glob("*.flight.txt")) == []

    def test_failure_diagnostics_unchanged_by_dump(self, tmp_path):
        """The dump is a side channel: the pinned failure text must be
        byte-identical with and without it."""
        from repro.drill import run_drill_file

        broken = Path(__file__).parent.parent / "drill" / "broken" / "b01_wrong_ack.py"
        with_dump = run_drill_file(broken, flight_dump=tmp_path)
        without = run_drill_file(broken)
        assert with_dump.failure == without.failure
