"""The scalar capture pass and its artifacts, checked against the kernels.

* **sweep routing** — every golden case, run through
  :func:`repro.sim.multi.run_workload` with a store-materialised artifact
  registered (the path a policy sweep takes, replaying with
  ``finalize=False``), returns exactly the fused kernel's result;
* **capture slack** — a lean capture (every overrun served by live-tail
  continuation) and a generous one both drive the replay kernel to the
  committed golden fixtures;
* **determinism** — hypothesis-drawn platforms, budgets and seeds
  capture to byte-identical artifacts, in memory and after a save/load
  round trip (checkpoints embed the complete private-level state, so
  this is state-for-state reproducibility);
* **slack parsing** — the ``REPRO_REPLAY_SLACK`` value semantics.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import capture as cap
from repro.cpu import replay
from repro.golden import (
    GOLDEN_PLATFORMS,
    GOLDEN_WORKLOADS,
    MASTER_SEED,
    QUOTA,
    WARMUP,
    compare_records,
    golden_config,
    run_case,
)
from repro.runner.replaystore import (
    ReplayStore,
    clear_replay_manifest,
    identity_from_meta,
    install_replay_manifest,
    load_bundle,
    save_bundle,
)
from repro.sim.build import capture_identity
from repro.sim.config import CacheLevelConfig, SystemConfig
from repro.sim.multi import run_workload
from repro.trace.workloads import Workload
from tests.golden.test_golden_master import CASE_IDS, CASES, _load

BENCH_POOL = ("mcf", "libq", "gcc", "calc", "astar")


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    for flag in ("REPRO_NO_FASTPATH", "REPRO_NO_REPLAY", "REPRO_REPLAY_SLACK"):
        monkeypatch.delenv(flag, raising=False)
    clear_replay_manifest()
    yield
    clear_replay_manifest()


def _config(num_cores: int, prefetch: bool) -> SystemConfig:
    return SystemConfig(
        name="capture-prop",
        num_cores=num_cores,
        l1=CacheLevelConfig(num_sets=8, ways=4, latency=3.0),
        l2=CacheLevelConfig(num_sets=8, ways=8, latency=14.0),
        llc=CacheLevelConfig(num_sets=64, ways=16, latency=24.0),
        monitor_sets=16,
        interval_misses=2_000,
        l1_next_line_prefetch=prefetch,
        l2_stride_prefetch=prefetch,
    )


def _bundle_blob(bundle: cap.CaptureBundle) -> dict:
    """Every byte the artifact serialises, in comparable form."""
    return {
        "meta": json.dumps(bundle.meta, sort_keys=True),
        "tapes": [
            {
                "steps": bytes(tape.steps),
                "events": tape.events_array().tobytes(),
                "checkpoints": json.dumps(tape.checkpoints, sort_keys=True),
                "baseline": tape.baseline,
                "finish": tape.finish,
                "length": tape.length,
            }
            for tape in bundle.tapes
        ],
    }


# -- sweep routing -------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory):
    """One replay store for the module: a golden identity captures once."""
    return ReplayStore(tmp_path_factory.mktemp("capture-golden"))


class TestSweepRouting:
    @pytest.mark.parametrize(
        ("policy", "workload", "benchmarks", "platform"), CASES, ids=CASE_IDS
    )
    def test_registered_artifact_matches_fused(
        self, policy, workload, benchmarks, platform, golden_store, monkeypatch
    ):
        config = replace(golden_config(), **GOLDEN_PLATFORMS[platform])
        entry = golden_store.materialise(
            tuple(benchmarks), config, QUOTA, WARMUP, MASTER_SEED
        )

        def run():
            return run_workload(
                Workload(workload, tuple(benchmarks)),
                config,
                policy,
                quota=QUOTA,
                warmup=WARMUP,
                master_seed=MASTER_SEED,
            ).to_dict()

        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        fused = run()
        monkeypatch.delenv("REPRO_NO_REPLAY")

        replayed = []
        run_replay = replay.run_replay

        def spy(*args, **kwargs):
            snapshots = run_replay(*args, **kwargs)
            replayed.append(snapshots is not None)
            return snapshots

        monkeypatch.setattr(replay, "run_replay", spy)
        install_replay_manifest([entry])
        assert run() == fused
        # Observable proof the registered artifact drove the run.
        assert replayed == [True]


# -- capture slack against the fixtures ----------------------------------------

#: The capture is policy-blind, so one policy per platform and workload
#: pins that both slack extremes reproduce the committed records.
_RECORD_CASES = [
    ("adapt", "thrash-mix", "base"),
    ("lru", "friendly-mix", "base"),
    ("ship", "thrash-mix", "prefetch"),
    ("tadrrip", "friendly-mix", "prefetch"),
]


class TestCaptureSlack:
    @pytest.mark.parametrize("slack", [0.0, 1.0])
    @pytest.mark.parametrize("policy,workload,platform", _RECORD_CASES)
    def test_replay_matches_fixture(self, policy, workload, platform, slack, monkeypatch):
        # run_case resolves capture_workload from the capture module at
        # call time, so wrapping the name pins the slack of its capture.
        captured = []
        capture_workload = cap.capture_workload

        def with_slack(*args, **kwargs):
            kwargs["slack"] = slack
            bundle = capture_workload(*args, **kwargs)
            captured.append(bundle)
            return bundle

        monkeypatch.setattr(cap, "capture_workload", with_slack)
        expected = _load(policy, workload, platform)
        actual = run_case(
            policy, GOLDEN_WORKLOADS[workload], platform=platform, kernel="replay"
        )
        assert compare_records(expected, actual) == []
        assert len(captured) == 1 and captured[0].meta["slack"] == slack


# -- determinism ---------------------------------------------------------------


class TestCaptureDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(
        benchmarks=st.lists(
            st.sampled_from(BENCH_POOL), min_size=1, max_size=2, unique=True
        ),
        seed=st.integers(min_value=0, max_value=2**16),
        quota=st.integers(min_value=150, max_value=600),
        warmup=st.integers(min_value=0, max_value=200),
        prefetch=st.booleans(),
        slack=st.sampled_from([0.0, 0.05, 1.0]),
    )
    def test_artifacts_are_reproducible(
        self, benchmarks, seed, quota, warmup, prefetch, slack
    ):
        benchmarks = tuple(benchmarks)
        config = _config(len(benchmarks), prefetch)
        first = cap.capture_workload(benchmarks, config, quota, warmup, seed, slack)
        second = cap.capture_workload(benchmarks, config, quota, warmup, seed, slack)
        assert _bundle_blob(first) == _bundle_blob(second)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "replay-prop.npz"
            save_bundle(first, path)
            loaded = load_bundle(path)
        assert loaded is not None
        assert _bundle_blob(loaded) == _bundle_blob(first)

    def test_meta_reconstructs_the_capture_identity(self):
        config = _config(2, True)
        bundle = cap.capture_workload(("mcf", "libq"), config, 200, 50, 3)
        assert identity_from_meta(bundle.meta) == capture_identity(
            ("mcf", "libq"), config, 200, 50, 3
        )


# -- slack parsing -------------------------------------------------------------


class TestReplaySlack:
    @pytest.mark.parametrize(
        "raw,expected",
        [(None, 0.25), ("0.5", 0.5), ("garbage", 0.25), ("-1", 0.0)],
        ids=["default", "explicit", "garbage", "negative-clamps"],
    )
    def test_value_semantics(self, raw, expected, monkeypatch):
        if raw is not None:
            monkeypatch.setenv("REPRO_REPLAY_SLACK", raw)
        assert cap.replay_slack() == expected
