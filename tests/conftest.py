"""Shared fixtures: small geometries that keep unit tests fast."""

from __future__ import annotations

import pytest

from repro import settings
from repro.sim.config import CacheLevelConfig, SystemConfig


@pytest.fixture(autouse=True)
def _no_activated_targets_dir(monkeypatch):
    """A command's ``--results-dir`` activates a targets directory for the
    rest of the process; start every test without one."""
    monkeypatch.setattr(settings, "_activated_targets_dir", None)


@pytest.fixture
def tiny_config() -> SystemConfig:
    """A deliberately small platform for integration tests (sub-second runs)."""
    return SystemConfig(
        name="tiny-4core",
        num_cores=4,
        l1=CacheLevelConfig(num_sets=8, ways=4, latency=3.0),
        l2=CacheLevelConfig(num_sets=8, ways=8, latency=14.0),
        llc=CacheLevelConfig(num_sets=64, ways=16, latency=24.0),
        monitor_sets=16,
        # Short interval so miniature runs complete several classification
        # intervals (the production ratio would need ~16k misses each).
        interval_misses=2_000,
    )


@pytest.fixture
def small_llc_geometry() -> tuple[int, int]:
    """(num_sets, ways) for standalone cache tests."""
    return 16, 4
