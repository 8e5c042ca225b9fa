"""End-to-end: tournament driver -> store -> report -> snapshot -> diff.

Miniature budgets, two policies, two seeds — the full pipeline the
acceptance flow exercises, on a test-sized grid.
"""

import copy
import json

import pytest

from repro.experiments.__main__ import main
from repro.experiments.common import ExperimentSettings
from repro.experiments.tournament import run_tournament
from repro.report import (
    build_snapshot,
    compare,
    report_from_store,
)
from repro.runner import ResultStore
from repro.sim.config import SystemConfig

TINY = ExperimentSettings(
    quota=800,
    warmup=200,
    alone_quota=900,
    alone_warmup=100,
    workloads={4: 2},
)


@pytest.fixture(scope="module")
def results_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tournament")
    run = run_tournament(
        SystemConfig.scaled(4),
        policies=("lru", "tadrrip"),
        cores=(4,),
        seeds=(0, 1),
        jobs=1,
        results_dir=out,
        settings=TINY,
    )
    assert run.scheduled == 2 * 2 * 2  # policies x workloads x seeds
    assert run.executed > 0
    return out


def test_rerun_is_fully_cached(results_dir):
    again = run_tournament(
        SystemConfig.scaled(4),
        policies=("lru", "tadrrip"),
        cores=(4,),
        seeds=(0, 1),
        jobs=1,
        results_dir=results_dir,
        settings=TINY,
    )
    assert again.executed == 0
    # Hits cover the workload grid plus the shared IPC_alone baselines.
    assert again.store_hits >= again.scheduled


def test_report_covers_the_grid(results_dir):
    report = report_from_store(ResultStore(results_dir), n_resamples=100)
    assert len(report.data.cells) == 8
    assert report.data.seeds == [0, 1]
    assert report.data.policies == ["lru", "tadrrip"]
    base = report.summary_for("tadrrip")
    assert base.rel_ws_geomean == pytest.approx(1.0)
    assert base.rel_ws_ci == pytest.approx((1.0, 1.0))
    lru = report.summary_for("lru")
    assert lru.cells == 4
    assert lru.ws_geomean > 0
    lo, hi = lru.rel_ws_ci
    assert lo <= lru.rel_ws_geomean <= hi


def _report_cli(results_dir, *extra):
    return main(
        ["report", "--results-dir", str(results_dir), "--no-kernel", *extra]
    )


@pytest.fixture
def committed(results_dir, tmp_path):
    """A committed-baseline snapshot written by the CLI itself."""
    path = tmp_path / "BENCH_tournament.json"
    assert _report_cli(results_dir, "--out", str(path)) == 0
    return path


class TestReportCliBaseline:
    def test_unchanged_store_matches_the_baseline(
        self, results_dir, committed, capsys
    ):
        original = committed.read_text()
        rc = _report_cli(
            results_dir, "--out", str(committed), "--baseline", str(committed)
        )
        assert rc == 0
        assert "no significant movement" in capsys.readouterr().out
        assert committed.read_text() == original  # clobber guard held

    def test_baseline_is_read_before_out_clobbers_it(
        self, results_dir, committed, capsys
    ):
        # Inject a regression into the committed baseline, then run the
        # README invocation where --out defaults onto the same file: the
        # regression must be detected (the doctored baseline read first,
        # not the freshly written snapshot) and the file left untouched.
        doctored = json.loads(committed.read_text())
        doctored["policies"]["lru"]["rel_ws_geomean"] *= 1.10
        committed.write_text(json.dumps(doctored))
        rc = _report_cli(
            results_dir, "--out", str(committed), "--baseline", str(committed)
        )
        assert rc == 1
        assert "REGRESSION: lru" in capsys.readouterr().out
        assert json.loads(committed.read_text()) == doctored

    def test_distinct_out_still_written(self, results_dir, committed, tmp_path):
        fresh = tmp_path / "fresh.json"
        rc = _report_cli(
            results_dir, "--out", str(fresh), "--baseline", str(committed)
        )
        assert rc == 0
        fresh_data = json.loads(fresh.read_text())
        base_data = json.loads(committed.read_text())
        fresh_data.pop("generated_utc")
        base_data.pop("generated_utc")
        assert fresh_data == base_data

    def test_incomparable_snapshots_exit_3(self, results_dir, committed, capsys):
        doctored = json.loads(committed.read_text())
        doctored["config_hash"] = "0" * 64
        committed.write_text(json.dumps(doctored))
        rc = _report_cli(results_dir, "--out", "", "--baseline", str(committed))
        assert rc == 3
        assert "NOT comparable" in capsys.readouterr().out

    def test_unreadable_baseline_exits_2(self, results_dir, tmp_path):
        rc = _report_cli(
            results_dir, "--out", "", "--baseline", str(tmp_path / "missing.json")
        )
        assert rc == 2


def test_config_hash_unaffected_by_kernel_selection(
    results_dir, tmp_path, monkeypatch
):
    """Kernel selection is invisible to the snapshot identity: a sweep
    executed on the generic reference loop (``REPRO_NO_FASTPATH``: no
    capture, no replay) produces the same ``config_hash`` — and, the
    kernels being bit-identical, the same policy rows — as the default
    replay-kernel run.  The committed ``BENCH_tournament.json`` therefore
    stays comparable whichever kernel ran it, and must *not* be
    regenerated for a kernel change."""
    baseline = build_snapshot(
        report_from_store(ResultStore(results_dir), n_resamples=100)
    )
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    out = tmp_path / "generic-store"
    run = run_tournament(
        SystemConfig.scaled(4),
        policies=("lru", "tadrrip"),
        cores=(4,),
        seeds=(0, 1),
        jobs=1,
        results_dir=out,
        settings=TINY,
    )
    assert run.executed > 0  # a fresh store: nothing came from cache
    assert not list((out / "traces").glob("replay-*.npz"))
    generic = build_snapshot(report_from_store(ResultStore(out), n_resamples=100))
    assert generic["config_hash"] == baseline["config_hash"]
    assert generic["run_id"] == baseline["run_id"]
    assert generic["policies"] == baseline["policies"]


def test_snapshot_round_trip_and_regression(results_dir):
    report = report_from_store(ResultStore(results_dir), n_resamples=100)
    snapshot = build_snapshot(report)
    assert snapshot["cells"] == 8
    assert set(snapshot["policies"]) == {"lru", "tadrrip"}

    # A deterministic rerun reproduces the snapshot: the diff is silent.
    clean = compare(snapshot, copy.deepcopy(snapshot))
    assert clean.comparable and not clean.has_regressions

    # Inflate lru's recorded baseline: the detector must flag the drop.
    doctored = copy.deepcopy(snapshot)
    doctored["policies"]["lru"]["rel_ws_geomean"] *= 1.10
    diff = compare(snapshot, doctored)
    assert diff.comparable
    assert [m.policy for m in diff.regressions] == ["lru"]
