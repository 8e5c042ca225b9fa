"""The scalar capture pass and its artifacts, checked against the kernels.

* **sweep routing** — every golden case, run through
  :meth:`repro.runner.jobs.WorkloadJob.execute` handed a
  store-materialised artifact (the path a policy sweep takes, replaying
  with ``finalize=False``), returns exactly the generic loop's result;
* **capture slack** — a lean capture (every overrun served by live-tail
  continuation) and a generous one both drive the replay kernel to the
  committed golden fixtures;
* **determinism** — hypothesis-drawn platforms, budgets and seeds
  capture to byte-identical artifacts, in memory and after a save/load
  round trip (checkpoints embed the complete private-level state, so
  this is state-for-state reproducibility);
* **capture identity** — the job builder, the engine builder, a saved
  artifact's meta and an in-memory capture's meta give one identity, the
  artifact keys it hashes to are pinned, and only the capture module
  spells its fields;
* **engine captures** — an engine's own slack-free capture grows its
  streams only as far as the run, engines it cannot rebuild faithfully
  are refused, an unswept run's capture is freed when the run returns
  (no reference cycle), and a cached artifact keeps its live extension
  across the replays it serves;
* **fixed slack** — the retired ``REPRO_REPLAY_SLACK`` and
  ``REPRO_NO_REPLAY`` names change neither the artifact key nor a result.
"""

from __future__ import annotations

import ast
import gc
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import capture as cap
from repro.cpu import replay
from repro.cpu.engine import MulticoreEngine
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
from repro.runner import ParallelRunner, WorkloadJob, replaystore
from repro.runner.replaystore import (
    ReplayStore,
    load_bundle,
    load_meta,
    replay_key,
    save_bundle,
)
from repro.sim.build import build_hierarchy, build_sources
from repro.sim.config import CacheLevelConfig, SystemConfig
from repro.sim.multi import run_workload
from repro.trace.workloads import Workload
from tests.golden.test_golden_master import CASE_IDS, CASES, _load

BENCH_POOL = ("mcf", "libq", "gcc", "calc", "astar")


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    for flag in ("REPRO_NO_FASTPATH", "REPRO_NO_REPLAY", "REPRO_REPLAY_SLACK"):
        monkeypatch.delenv(flag, raising=False)


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
                "checkpoints": list(tape.checkpoints),
                "checkpoint_index": list(tape.checkpoint_index),
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
    def test_handed_artifact_matches_generic(
        self, policy, workload, benchmarks, platform, golden_store, monkeypatch
    ):
        config = replace(golden_config(), **GOLDEN_PLATFORMS[platform])
        path = golden_store.materialise(
            cap.job_identity(benchmarks, config, QUOTA, WARMUP, MASTER_SEED)
        )
        job = WorkloadJob.for_workload(
            Workload(workload, tuple(benchmarks)),
            config,
            policy,
            quota=QUOTA,
            warmup=WARMUP,
            master_seed=MASTER_SEED,
        )
        with monkeypatch.context() as m:
            m.setenv("REPRO_NO_FASTPATH", "1")
            generic = job.execute().to_dict()

        replayed = []
        run_replay = replay.run_replay

        def spy(*args, **kwargs):
            snapshots = run_replay(*args, **kwargs)
            replayed.append(snapshots is not None)
            return snapshots

        monkeypatch.setattr(replay, "run_replay", spy)
        assert job.execute(capture=str(path)).to_dict() == generic
        # Observable proof the handed artifact drove the run.
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
        identity = cap.job_identity(
            benchmarks, _config(len(benchmarks), prefetch), quota, warmup, seed
        )
        first = cap.capture_workload(identity, slack)
        second = cap.capture_workload(identity, slack)
        assert _bundle_blob(first) == _bundle_blob(second)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "replay-prop.npz"
            save_bundle(first, path)
            loaded = load_bundle(path)
        assert loaded is not None
        assert _bundle_blob(loaded) == _bundle_blob(first)


# -- capture identity ----------------------------------------------------------

#: Artifact keys of ``("mcf", "libq")`` on the golden platforms at the
#: golden budgets and seed 0.  Every stored ``replay-*.npz`` is named by
#: such a key, so a change here orphans every existing ``traces/`` store.
PINNED_KEYS = {
    "base": "63609e52d7ed9cfe880a87ef3af113fc1037fb3e",
    "prefetch": "bdd81d288351421b1a93fe370ca72aced37e3d3c",
}


class TestCaptureIdentity:
    @pytest.mark.parametrize("platform", sorted(GOLDEN_PLATFORMS))
    def test_builders_and_meta_agree(self, platform, tmp_path):
        config = replace(golden_config(), **GOLDEN_PLATFORMS[platform])
        benchmarks = ("mcf", "libq")
        job = cap.job_identity(benchmarks, config, QUOTA, WARMUP, MASTER_SEED)
        engine = MulticoreEngine(
            build_hierarchy(config, "lru"),
            build_sources(Workload("g", benchmarks), config, MASTER_SEED),
            quota_per_core=QUOTA,
            warmup_accesses=WARMUP,
        )
        assert cap.engine_identity(engine) == job
        # Both routes record the identity as built, field for field: the
        # stride degree reads 0 on a platform without stride prefetchers.
        fields = {**job._asdict(), "benchmarks": list(benchmarks)}
        saved = load_meta(ReplayStore(tmp_path).materialise(job))
        in_memory = cap.capture_workload(cap.engine_identity(engine), 0.0).meta
        for meta in (saved, in_memory):
            assert {name: meta[name] for name in job._fields} == fields
            assert cap.CaptureIdentity.from_meta(meta) == job
        if not config.l2_stride_prefetch:
            assert config.l2_prefetch_degree != 0 and job.l2_prefetch_degree == 0

    def test_meta_of_older_builds_reads_degree_zero_without_stride(self):
        """Older builds saved the configured degree with stride prefetch off;
        such an artifact still serves the identity it was named by."""
        job = cap.job_identity(("mcf", "libq"), golden_config(), QUOTA, WARMUP, 0)
        meta = {**job._asdict(), "l2_prefetch_degree": 2}
        assert cap.CaptureIdentity.from_meta(meta) == job

    @pytest.mark.parametrize("platform", sorted(PINNED_KEYS))
    def test_artifact_keys_are_pinned(self, platform):
        config = replace(golden_config(), **GOLDEN_PLATFORMS[platform])
        identity = cap.job_identity(("mcf", "libq"), config, QUOTA, WARMUP, 0)
        assert replay_key(identity, cap.REPLAY_SLACK) == PINNED_KEYS[platform]

    def test_fields_are_named_in_one_module(self):
        """Only :mod:`repro.cpu.capture` spells the identity's platform
        fields: every other module derives from its builders."""
        src = Path(cap.__file__).parents[1]
        literals = {
            "l1_sets", "l1_ways", "l2_sets", "l2_ways", "llc_sets", "l2_prefetch_degree"
        }
        assert literals <= set(cap.CaptureIdentity._fields)
        spelled = set()
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and node.value in literals:
                    spelled.add(path.relative_to(src.parent).as_posix())
        assert spelled <= {"repro/cpu/capture.py"}


# -- engine captures -----------------------------------------------------------


class TestEngineCapture:
    QUOTA, WARMUP, SEED = 200, 50, 3

    def _engine(self, config, benchmarks=("mcf", "libq"), policy="ship"):
        sources = build_sources(Workload("e", benchmarks), config, self.SEED)
        return MulticoreEngine(
            build_hierarchy(config, policy),
            sources,
            quota_per_core=self.QUOTA,
            warmup_accesses=self.WARMUP,
        )

    @pytest.mark.parametrize("benchmarks", [("mcf",), ("mcf", "libq", "gcc")])
    def test_streams_grow_only_as_far_as_the_run(self, benchmarks):
        config = _config(len(benchmarks), True)
        engine = self._engine(config, benchmarks)
        bundle = cap.capture_workload(cap.engine_identity(engine), 0.0)
        finish = self.QUOTA + self.WARMUP
        assert all(tape.length == finish for tape in bundle.tapes)
        sims = [tape.live_sim for tape in bundle.tapes]
        expected = self._engine(config, benchmarks)._run_generic()
        assert replay.run_replay(engine, bundle, finalize=True) == expected
        # Co-runners that outlived their streams continued them on the
        # capture's own simulators, at most one step past their stop point.
        assert [tape.live_sim for tape in bundle.tapes] == sims
        for core, tape in zip(engine.cores, bundle.tapes):
            assert core.accesses <= tape.length < core.accesses + cap.EXTENSION_STEP
        # A single core stops exactly at its own quota completion.
        assert (len(benchmarks) == 1) == all(
            tape.length == finish for tape in bundle.tapes
        )

    def test_an_unswept_run_leaves_no_tape_behind(self):
        """With the cyclic collector off, reference counting alone frees
        the run's in-memory capture, live continuation simulators included."""

        def tapes() -> int:
            return sum(1 for obj in gc.get_objects() if type(obj) is cap.CoreTape)

        workload = Workload("e", ("mcf", "libq", "gcc"))
        config = _config(3, True)
        gc.collect()
        before = tapes()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for policy in ("ship", "lru"):
                run_workload(
                    workload,
                    config,
                    policy,
                    quota=self.QUOTA,
                    warmup=self.WARMUP,
                    master_seed=self.SEED,
                )
                assert tapes() == before
        finally:
            if enabled:
                gc.enable()

    def test_a_cached_artifact_keeps_its_live_extension(self, tmp_path):
        """A swept artifact is replayed by every policy of its sweep: the
        continuation a first replay attached stays on the cached bundle
        and serves the next replay."""
        benchmarks = ("mcf", "libq", "gcc")
        config = _config(3, False)
        engine = self._engine(config, benchmarks)
        path = tmp_path / "replay-x.npz"
        save_bundle(cap.capture_workload(cap.engine_identity(engine), 0.01), path)
        try:
            sims = None
            for policy in ("ship", "lru", "eaf"):
                bundle = replaystore.cached_bundle(path)
                expected = self._engine(config, benchmarks, policy)._run_generic()
                engine = self._engine(config, benchmarks, policy)
                assert replay.run_replay(engine, bundle, finalize=True) == expected
                if sims is None:
                    sims = [tape.live_sim for tape in bundle.tapes]
                    assert any(sim is not None for sim in sims)
                else:
                    kept = [tape.live_sim for tape in bundle.tapes]
                    assert all(a is b for a, b in zip(sims, kept) if a is not None)
        finally:
            replaystore._BUNDLES.pop(str(path), None)

    def test_engines_it_cannot_rebuild_are_refused(self):
        config = _config(2, False)
        engine = self._engine(config)
        engine.sources[1].next_access()  # already read from
        assert cap.engine_identity(engine) is None
        engine = self._engine(config)
        engine.sources.reverse()  # each built for the other core
        assert cap.engine_identity(engine) is None
        engine = self._engine(config)
        engine.sources = build_sources(
            Workload("e", ("mcf", "libq")), replace(config, l1=config.l2), self.SEED
        )  # calibrated for another geometry
        assert cap.engine_identity(engine) is None
        engine = self._engine(config)
        engine.hierarchy.l2s[0].policy = engine.hierarchy.llc.policy
        assert cap.engine_identity(engine) is None


# -- fixed slack ---------------------------------------------------------------


class TestRetiredReplaySwitches:
    def test_env_names_change_neither_key_nor_result(self, tiny_config, monkeypatch):
        """``REPRO_REPLAY_SLACK`` and ``REPRO_NO_REPLAY`` are no longer
        read: a sweep under them captures the same artifact (same content
        address, ``REPLAY_SLACK`` recorded) and returns the same results."""

        def sweep():
            replaystore._BUNDLES.clear()
            jobs = [
                WorkloadJob.for_workload(
                    Workload("retired", ("mcf", "libq")),
                    tiny_config.with_cores(2),
                    policy,
                    quota=300,
                    warmup=100,
                    master_seed=0,
                )
                for policy in ("lru", "ship")
            ]
            with ParallelRunner(jobs=1) as runner:
                results = [r.to_dict() for r in runner.run(jobs)]
                artifacts = sorted(p.name for p in runner.traces_root().glob("replay-*.npz"))
                assert runner.stats["bundle_loads"] == 1
            return results, artifacts

        job = (("mcf", "libq"), tiny_config.with_cores(2), 300, 100, 0)
        expected_key = replay_key(cap.job_identity(*job), cap.REPLAY_SLACK)
        default = sweep()
        assert default[1] == [f"replay-{expected_key}.npz"]
        monkeypatch.setenv("REPRO_REPLAY_SLACK", "0.9")
        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        assert sweep() == default
