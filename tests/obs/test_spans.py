"""The takeover's instants in a cluster run record.

Trace records carry no spans: each is one instant.  What a span once
bracketed — suspicion, fence, takeover, election — is kept by the
crashed pair's timeline and the fabric's phases in the run record.
"""

import pytest


class TestRealRunSpans:
    def test_smoke_record_keeps_the_takeover_instants(self):
        """The takeover's cross-host story — suspicion, fence, takeover,
        election — is told by the crashed pair's timeline and the
        fabric's phases in the run record."""
        from repro.cluster.run import ClusterRun
        from repro.cluster.scenario import load_scenario

        record = ClusterRun(load_scenario("configs/cluster/smoke.json")).execute()
        assert record["ok"]
        events = record["timelines"]["s0"]["events"]
        assert events["suspected"] == pytest.approx(0.650)
        assert events["takeover"] == pytest.approx(0.660)
        phases = record["cluster_phases"]["phases"]
        fence, election = phases["fence"], phases["election"]
        assert (fence["start"], fence["end"]) == pytest.approx((0.650, 0.660))
        assert election["start"] == pytest.approx(0.660)
        assert list(phases) == ["fence", "election"]
