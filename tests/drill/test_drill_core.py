"""Unit tests for the drill harness itself: pattern matching, sequence
rebasing, the first-mismatch diagnostic, and report rendering."""

import json
from pathlib import Path

import pytest

from repro.drill import ANY, run_drill_file, tcp
from repro.drill.patterns import SegmentSpec, SeqSpace, parse_flags
from repro.drill.report import DrillResult, format_report, results_to_json
from repro.tcp.constants import FLAG_ACK, FLAG_PSH, FLAG_SYN
from repro.tcp.segment import TCPSegment
from repro.util.bytespan import EMPTY, RealBytes

BROKEN = Path(__file__).parent / "broken"


def _segment(flags, seq=0, ack=0, win=65535, payload=EMPTY, mss=None):
    return TCPSegment(8000, 46000, seq, ack, parse_flags(flags), win, payload, mss_option=mss)


class TestParseFlags:
    def test_each_letter(self):
        assert parse_flags("S") == FLAG_SYN
        assert parse_flags("PA") == FLAG_PSH | FLAG_ACK
        assert parse_flags(".") == 0

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            parse_flags("X")


class TestSeqSpace:
    def test_peer_stream_is_identity(self):
        space = SeqSpace(local_isn=0)
        assert space.abs_local(5) == 5
        assert space.rel_local(5) == 5

    def test_remote_stream_rebases_on_learned_isn(self):
        space = SeqSpace(local_isn=0)
        space.learn_remote(1_000_000)
        assert space.rel_remote(1_000_001) == 1
        assert space.abs_remote(1) == 1_000_001

    def test_rebase_handles_wraparound(self):
        space = SeqSpace(local_isn=0)
        space.learn_remote(0xFFFFFFFF)
        assert space.rel_remote(0) == 1


class TestSegmentSpec:
    def test_flags_compared_as_sets(self):
        space = SeqSpace()
        assert tcp("PA").matches(_segment("PA"), space)
        assert tcp("AP").matches(_segment("PA"), space)
        assert not tcp("A").matches(_segment("PA"), space)

    def test_ack_requires_ack_flag(self):
        space = SeqSpace()
        diffs = tcp("S", ack=1).mismatches(_segment("S"), space)
        assert any("no ACK flag" in str(actual) for _, _, actual in diffs)

    def test_mss_any_requires_option_presence(self):
        space = SeqSpace()
        assert tcp("S", mss=ANY).matches(_segment("S", mss=1460), space)
        assert not tcp("S", mss=ANY).matches(_segment("S"), space)

    def test_payload_bytes_compared(self):
        space = SeqSpace()
        seg = _segment("PA", payload=RealBytes(b"abc"))
        assert tcp("PA", payload=RealBytes(b"abc")).matches(seg, space)
        assert not tcp("PA", payload=RealBytes(b"abd")).matches(seg, space)

    def test_describe_renders_wildcards(self):
        text = tcp("SA", seq=0, ack=1).describe()
        assert "SA" in text and "seq 0" in text and "ack 1" in text and "win *" in text

    def test_spec_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            SegmentSpec(bogus=1)


class TestFirstMismatchDiagnostic:
    def test_broken_script_names_field_expected_actual_and_time(self):
        result = run_drill_file(BROKEN / "b01_wrong_ack.py")
        assert not result.passed
        assert "field ack: expected 2, actual 1" in result.failure
        assert "t=0.100" in result.failure
        assert "recent wire context" in result.failure
        # The closest-candidate line shows the canonical segment format.
        assert "SA 0:0(0) ack 1" in result.failure


class TestReport:
    def test_format_report_and_json(self):
        results = [
            DrillResult("a", True, 3, 1, 2, 0.5, None),
            DrillResult("b", False, 1, 0, 1, 0.25, "boom"),
        ]
        table = format_report(results)
        assert "1/2 scripts passed" in table
        assert "PASS" in table and "FAIL" in table
        payload = results_to_json(results)
        assert json.dumps(payload)  # JSON-serialisable as-is
        assert payload[1]["failure"] == "boom"
        assert payload[0]["passed"] is True


class TestFaultPlan:
    def test_a_bad_plan_fails_one_drill_not_the_corpus(self, tmp_path, capsys):
        """A misspelt fault, or one the topology cannot take, fails its
        own script; the corpus still runs and reports every script."""
        from repro.harness.cli import main

        takeover = (Path(__file__).parent / "scripts" / "t24_sttcp_takeover_liveness.py").read_text()
        (tmp_path / "a_good.py").write_text(takeover)
        (tmp_path / "b_typo.py").write_text(takeover.replace('"primary_crash"', '"primary_crsh"'))
        (tmp_path / "c_no_tap.py").write_text('use(mode="server")\nfault(0.1, "tap_outage")\n')
        assert main(["drill", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1/3 scripts passed" in out
        assert "=== b_typo ===\nfaults FaultPlan([(0.3, 'primary_crsh', {})])\n" in out
        assert "fault (0.3, 'primary_crsh', {}): unknown fault 'primary_crsh'" in out
        assert "=== c_no_tap ===\nfaults FaultPlan([(0.1, 'tap_outage', {})])\n" in out
        assert "fault (0.1, 'tap_outage', {}): this topology has no 'backup'" in out

    def test_an_unknown_mode_fails_one_drill_not_the_corpus(self, tmp_path, capsys):
        """The mode is read before anything is built: a script naming no
        topology fails with the error named, and the rest still run."""
        from repro.harness.cli import main

        handshake = (Path(__file__).parent / "scripts" / "t01_handshake_3way.py").read_text()
        (tmp_path / "a_good.py").write_text(handshake)
        (tmp_path / "b_sever.py").write_text('use(mode="sever")\nfault(0.1, "primary_crash")\n')
        (tmp_path / "c_good.py").write_text(handshake)
        assert main(["drill", str(tmp_path), "--flight-dump", str(tmp_path / "dumps")]) == 1
        out = capsys.readouterr().out
        assert "2/3 scripts passed" in out
        assert (
            "=== b_sever ===\nfaults FaultPlan([(0.1, 'primary_crash', {})])\n"
            "unknown drill mode 'sever'; known modes: server, client, sttcp, cluster"
        ) in out
        assert not (tmp_path / "dumps" / "b_sever.flight.txt").exists()  # nothing ran

    def test_a_failing_drill_starts_with_its_plan(self):
        result = run_drill_file(BROKEN / "b01_wrong_ack.py")
        assert result.failure.splitlines()[0] == "faults FaultPlan([])"

    def test_an_sttcp_drill_runs_on_the_harness_scenario(self):
        from repro.drill.runner import DRILL_LINK, DrillEnv
        from repro.drill.script import load_script
        from repro.harness.scenario import Scenario

        env = DrillEnv(load_script(Path(__file__).parent / "scripts" / "t24_sttcp_takeover_liveness.py"))
        assert isinstance(env.scenario, Scenario) and env.pair is env.scenario.pair
        assert env.hub.rate_bps == DRILL_LINK.link_rate_bps and env.hub.delay == DRILL_LINK.hub_delay
        assert env.faults == ((0.3, "primary_crash", {}),)
