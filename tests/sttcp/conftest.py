"""Fixtures for ST-TCP tests: a ready-to-run hub scenario."""

from __future__ import annotations

import pytest

from repro.harness.calibrate import FAST_LAN
from repro.harness.scenario import SERVICE_IP, SERVICE_PORT, Scenario
from repro.sttcp.config import STTCPConfig


def make_scenario(
    hb_interval: float = 0.05,
    seed: int = 77,
    topology: str = "hub",
    with_logger: bool = False,
    **config_kwargs,
) -> Scenario:
    config = STTCPConfig(hb_interval=hb_interval, **config_kwargs)
    return Scenario(
        profile=FAST_LAN,
        topology=topology,
        sttcp=config,
        with_logger=with_logger,
        seed=seed,
    )


@pytest.fixture
def scenario() -> Scenario:
    return make_scenario()


SERVICE = (SERVICE_IP, SERVICE_PORT)
