"""The scalar capture pass and its artifacts, checked against the kernels.

* **sweep routing** — every golden case, run through
  :meth:`repro.runner.jobs.WorkloadJob.execute` handed a
  store-materialised artifact (the path a policy sweep takes, replaying
  with ``finalize=False``), returns exactly the generic loop's result;
* **continuation routes** — every capture stops at quota completion, and
  a co-runner that outlives its quota continues its stream either on the
  capture's own simulator (a capture replayed in memory) or on one
  rebuilt from the tape-end checkpoint (a capture saved, loaded and
  replayed); both routes drive the replay kernel to the committed golden
  fixtures;
* **determinism** — hypothesis-drawn platforms, budgets and seeds
  capture to byte-identical artifacts, and either continuation route
  extends them to byte-identical tapes (checkpoints embed the complete
  private-level state, so this is state-for-state reproducibility);
* **capture identity** — the job builder, the engine builder, a saved
  artifact's meta and an in-memory capture's meta give one identity, a
  saved artifact is the in-memory capture byte for byte, the artifact
  keys the identity hashes to are pinned, and only the capture module
  spells its fields;
* **engine captures** — an engine's own capture grows its streams only
  as far as the run, engines it cannot rebuild faithfully are refused,
  an unswept run's capture is freed when the run returns (no reference
  cycle), and a cached artifact keeps its live extension across the
  replays it serves;
* **retired switches** — the retired ``REPRO_REPLAY_SLACK`` and
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


# -- continuation routes against the fixtures ---------------------------------

#: How a capture reaches the replay kernel: as the bundle the capture
#: returned, whose own simulators continue each stream, or saved and loaded
#: through the sweep's bundle cache, which rebuilds each continuation from
#: the tape-end checkpoint.
ROUTES = ("in-memory", "saved")


def routed(bundle: cap.CaptureBundle, route: str) -> cap.CaptureBundle:
    """*bundle* as *route* hands it to the replay kernel."""
    if route == "in-memory":
        return bundle
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "replay-route.npz"
        save_bundle(bundle, path)
        replaystore._BUNDLES.clear()
        loaded = replaystore.cached_bundle(path)
        replaystore._BUNDLES.clear()
    assert loaded is not None
    assert all(tape.live_sim is None for tape in loaded.tapes)
    return loaded


#: The capture is policy-blind, so one policy per platform and workload
#: pins that both continuation routes reproduce the committed records.
_RECORD_CASES = [
    ("adapt", "thrash-mix", "base"),
    ("lru", "friendly-mix", "base"),
    ("ship", "thrash-mix", "prefetch"),
    ("tadrrip", "friendly-mix", "prefetch"),
]


class TestContinuationRoutes:
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("policy,workload,platform", _RECORD_CASES)
    def test_replay_matches_fixture(self, policy, workload, platform, route, monkeypatch):
        # run_case resolves capture_workload from the capture module at
        # call time, so wrapping the name routes its capture.
        captured = []
        capture_workload = cap.capture_workload

        def routed_capture(identity):
            bundle = routed(capture_workload(identity), route)
            captured.append(bundle)
            return bundle

        monkeypatch.setattr(cap, "capture_workload", routed_capture)
        expected = _load(policy, workload, platform)
        actual = run_case(
            policy, GOLDEN_WORKLOADS[workload], platform=platform, kernel="replay"
        )
        assert compare_records(expected, actual) == []
        (bundle,) = captured
        # A co-runner outlived its quota, so the route's continuation ran.
        assert any(tape.length > QUOTA + WARMUP for tape in bundle.tapes)


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
        route=st.sampled_from(ROUTES),
    )
    def test_artifacts_are_reproducible(
        self, benchmarks, seed, quota, warmup, prefetch, route
    ):
        benchmarks = tuple(benchmarks)
        config = _config(len(benchmarks), prefetch)
        identity = cap.job_identity(benchmarks, config, quota, warmup, seed)
        first = cap.capture_workload(identity)
        second = cap.capture_workload(identity)
        assert _bundle_blob(first) == _bundle_blob(second)
        first = routed(first, route)
        assert _bundle_blob(first) == _bundle_blob(second)
        # Both continue past quota completion to byte-identical tapes.
        for bundle in (first, second):
            engine = MulticoreEngine(
                build_hierarchy(config, "lru"),
                build_sources(Workload("p", benchmarks), config, seed),
                quota_per_core=quota,
                warmup_accesses=warmup,
            )
            assert replay.run_replay(engine, bundle, finalize=False) is not None
        assert _bundle_blob(first) == _bundle_blob(second)


# -- capture identity ----------------------------------------------------------

#: Artifact keys of ``("mcf", "libq")`` on the golden platforms at the
#: golden budgets and seed 0.  Every stored ``replay-*.npz`` is named by
#: such a key, so a change here orphans every existing ``traces/`` store.
PINNED_KEYS = {
    "base": "7242ab25e1f1c40ef4d4e9bf9645e1c6bd2fb849",
    "prefetch": "833caf21cb9c1af3c57fa6a7c49c2283a718dd14",
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
        in_memory = cap.capture_workload(cap.engine_identity(engine)).meta
        assert saved == in_memory == {"format": cap.CAPTURE_FORMAT, **job.to_meta()}
        assert {name: saved[name] for name in job._fields} == fields
        assert cap.CaptureIdentity.from_meta(saved) == job
        if not config.l2_stride_prefetch:
            assert config.l2_prefetch_degree != 0 and job.l2_prefetch_degree == 0

    @pytest.mark.parametrize("platform", sorted(GOLDEN_PLATFORMS))
    def test_a_saved_artifact_is_the_in_memory_capture(self, platform, tmp_path):
        """A sweep's saved capture and an unswept run's in-memory capture
        are one bundle: same streams, markers, checkpoints and meta."""
        config = replace(golden_config(), **GOLDEN_PLATFORMS[platform])
        job = cap.job_identity(("mcf", "libq"), config, QUOTA, WARMUP, MASTER_SEED)
        saved = load_bundle(ReplayStore(tmp_path).materialise(job))
        in_memory = cap.capture_workload(job)
        assert _bundle_blob(saved) == _bundle_blob(in_memory)
        for tape in saved.tapes:
            assert tape.length == QUOTA + WARMUP
            assert list(tape.checkpoint_index) == [QUOTA + WARMUP]

    @pytest.mark.parametrize("platform", sorted(PINNED_KEYS))
    def test_artifact_keys_are_pinned(self, platform):
        config = replace(golden_config(), **GOLDEN_PLATFORMS[platform])
        identity = cap.job_identity(("mcf", "libq"), config, QUOTA, WARMUP, 0)
        assert replay_key(identity) == PINNED_KEYS[platform]

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
        bundle = cap.capture_workload(cap.engine_identity(engine))
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
        save_bundle(cap.capture_workload(cap.engine_identity(engine)), path)
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


# -- retired switches ----------------------------------------------------------


class TestRetiredReplaySwitches:
    def test_env_names_change_neither_key_nor_result(self, tiny_config, monkeypatch):
        """``REPRO_REPLAY_SLACK`` and ``REPRO_NO_REPLAY`` are no longer
        read: a sweep under them captures the same artifact (same content
        address) and returns the same results."""

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
        expected_key = replay_key(cap.job_identity(*job))
        default = sweep()
        assert default[1] == [f"replay-{expected_key}.npz"]
        monkeypatch.setenv("REPRO_REPLAY_SLACK", "0.9")
        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        assert sweep() == default
