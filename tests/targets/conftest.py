"""Shared fixtures for the targets subsystem tests.

Targets resolve against ``REPRO_TARGETS_DIR`` and ingest under a couple
of budget variables, all read through :mod:`repro.settings`; the autouse
fixture strips them so every test starts from a clean environment (the
CI job sets ``REPRO_SCALE``).  The directory a command activates is reset
by the suite-wide fixture in ``tests/conftest.py``.
"""

from __future__ import annotations

from pathlib import Path

import pytest


@pytest.fixture(autouse=True)
def _clean_targets_env(monkeypatch):
    for var in ("REPRO_TARGETS_DIR", "REPRO_TRACE_BUDGET", "REPRO_SCALE"):
        monkeypatch.delenv(var, raising=False)


@pytest.fixture
def traces_dir(tmp_path) -> Path:
    return tmp_path / "traces"
