"""Tests for the experiments layer: Runner memoisation and renderers.

Simulation-heavy experiment paths run at miniature budgets; the analytic
tables run at full fidelity.
"""

import pytest

from repro import settings
from repro.experiments.common import ExperimentSettings, Runner
from repro.experiments.fig1 import forced_tadrrip
from repro.experiments.tables import render_table2, render_table3, render_table6
from repro.trace.workloads import Workload


@pytest.fixture
def tiny_runner(tiny_config):
    settings = ExperimentSettings(
        quota=1200,
        warmup=300,
        alone_quota=1200,
        alone_warmup=300,
        workloads={4: 2, 8: 2, 16: 2, 20: 2, 24: 2},
    )
    return Runner(tiny_config.with_cores(4), settings)


def scale_factor() -> float:
    return settings.read().scale


class TestScaleFactor:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_factor() == 1.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert scale_factor() == 2.5

    def test_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "lots")
        assert scale_factor() == 1.0

    def test_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.0001")
        assert scale_factor() == 0.1

    @pytest.mark.parametrize("raw", ["inf", "nan", "junk"])
    def test_non_finite_reads_like_junk(self, raw, monkeypatch):
        """Both consumers of the knob see the default for any unusable value."""
        from repro.targets import trace_budget

        monkeypatch.delenv("REPRO_TRACE_BUDGET", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "1")
        expected = (ExperimentSettings.from_env(), trace_budget())
        monkeypatch.setenv("REPRO_SCALE", raw)
        assert scale_factor() == 1.0
        assert (ExperimentSettings.from_env(), trace_budget()) == expected

    def test_from_env_caps_at_paper_counts(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "1000")
        settings = ExperimentSettings.from_env()
        assert settings.workloads[16] == 60  # Table 6 count
        assert settings.workloads[4] == 120


class TestRunner:
    def test_run_is_memoised(self, tiny_runner):
        workload = tiny_runner.settings.suite(4)[0]
        first = tiny_runner.run(workload, "lru")
        second = tiny_runner.run(workload, "lru")
        assert first is second

    def test_distinct_policies_distinct_runs(self, tiny_runner):
        workload = tiny_runner.settings.suite(4)[0]
        assert tiny_runner.run(workload, "lru") is not tiny_runner.run(
            workload, "srrip"
        )

    def test_weighted_speedup_positive(self, tiny_runner):
        workload = tiny_runner.settings.suite(4)[0]
        ws = tiny_runner.weighted_speedup(workload, "lru")
        assert 0 < ws <= workload.cores

    def test_relative_ws_baseline_is_one(self, tiny_runner):
        workload = tiny_runner.settings.suite(4)[0]
        assert tiny_runner.relative_ws(workload, "tadrrip") == pytest.approx(1.0)

    def test_all_metrics_keys(self, tiny_runner):
        workload = tiny_runner.settings.suite(4)[0]
        metrics = tiny_runner.all_metrics(workload, "lru")
        assert set(metrics) == {"ws", "hm_norm", "gm_ipc", "hm_ipc", "am_ipc"}


class TestForcedTadrrip:
    def test_forces_thrashing_cores(self):
        workload = Workload("t", ("lbm", "calc", "milc", "deal"))
        policy = forced_tadrrip(workload)
        assert policy.forced_brrip_cores == frozenset({0, 2})


class TestRenderers:
    def test_table2_mentions_all_policies(self):
        text = render_table2()
        for name in ("TA-DRRIP", "EAF-RRIP", "SHiP", "ADAPT"):
            assert name in text

    def test_table3_shows_paper_and_run(self, tiny_config):
        text = render_table3(tiny_config)
        assert "16MB" in text  # the paper column
        assert "monitor interval" in text

    def test_table6_lists_all_suites(self):
        text = render_table6()
        for cores in (4, 8, 16, 20, 24):
            assert f"{cores}-core" in text
