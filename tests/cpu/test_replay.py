"""Unit tests for the LLC-filtered replay engine: capture artifacts,
eligibility/fallback behaviour, live-tail continuation, the kill switch,
and the runner's capture-job scheduling."""

from __future__ import annotations

import gc
import json
import tracemalloc
from array import array

import numpy as np
import pytest

from repro import settings
from repro.cpu import capture as cap
from repro.cpu.capture import CoreTape, capture_workload, job_identity
from repro.cpu.engine import MulticoreEngine
from repro.cpu.replay import run_replay
from repro.golden import QUOTA, WARMUP, golden_config
from repro.runner import ParallelRunner, ResultStore, WorkloadJob
from repro.runner import replaystore
from repro.runner.replaystore import (
    REGISTRY_STATS,
    ReplayStore,
    cached_bundle,
    load_bundle,
    replay_key,
    save_bundle,
)
from repro.sim.build import build_hierarchy, build_sources
from repro.trace.workloads import Workload
from tests.cpu.test_capture import ROUTES, routed

#: Bound on a loaded bundle's traced heap over its artifact's file size.
LOADED_BUNDLE_SIZE_RATIO = 1.2

BENCHMARKS = ("mcf", "libq")
WORKLOAD = Workload("g", BENCHMARKS)
#: The capture identity of the suite's golden-platform engines.
GOLDEN = job_identity(BENCHMARKS, golden_config(), QUOTA, WARMUP, 0)


@pytest.fixture(autouse=True)
def _clean_bundle_cache():
    replaystore._BUNDLES.clear()
    yield
    replaystore._BUNDLES.clear()


def _engine(policy="tadrrip", config=None, quota=QUOTA, warmup=WARMUP):
    config = config or golden_config()
    hierarchy = build_hierarchy(config, policy)
    sources = build_sources(WORKLOAD, config, 0)
    return MulticoreEngine(
        hierarchy,
        sources,
        quota_per_core=quota,
        interval_misses=config.effective_interval,
        warmup_accesses=warmup,
    )


@pytest.fixture(scope="module")
def bundle():
    return capture_workload(GOLDEN)


class TestCapture:
    def test_tape_shape(self):
        bundle = capture_workload(GOLDEN)
        assert bundle.meta == {"format": cap.CAPTURE_FORMAT, **GOLDEN.to_meta()}
        for tape in bundle.tapes:
            # Every core is captured to its quota completion, no further.
            assert tape.length == len(tape.steps) == QUOTA + WARMUP
            # Events are emitted in nondecreasing access order.
            assert all(
                a <= b for a, b in zip(tape.ev_step, tape.ev_step[1:])
            )
            # Exactly one baseline and one completion marker per core.
            assert tape.ev_kind.count(4) == 1
            assert tape.ev_kind.count(5) == 1
            assert tape.baseline is not None and tape.finish is not None
            # One checkpoint, at quota completion; the capture's simulator
            # stays on the tape to continue it.
            assert list(tape.checkpoint_index) == [QUOTA + WARMUP]
            assert tape.checkpoint(0)["index"] == QUOTA + WARMUP
            assert tape.live_sim is not None and tape.live_sim.count == QUOTA + WARMUP

    def test_replay_matches_generic_snapshots(self, bundle):
        reference = _engine("ship")
        expected = reference._run_generic()
        engine = _engine("ship")
        got = run_replay(engine, bundle)
        assert got == expected
        assert engine.intervals_completed == reference.intervals_completed
        assert engine.now == reference.now

    def test_finalize_false_skips_private_reconstruction(self, bundle):
        reference = _engine("lru")
        expected = reference._run_generic()
        engine = _engine("lru")
        got = run_replay(engine, bundle, finalize=False)
        assert got == expected
        # LLC-side state is exact; the discarded private levels stay pristine.
        assert (
            engine.hierarchy.llc.stats.snapshot()
            == reference.hierarchy.llc.stats.snapshot()
        )
        assert engine.hierarchy.l1s[0].stats.demand_hits[0] == 0

    def test_one_bundle_serves_a_policy_sweep(self):
        # The sweep shape: one capture, replayed policy after policy (live
        # tail extensions accumulating in the shared bundle).
        shared = capture_workload(GOLDEN)
        for policy in ("lru", "ship", "eaf", "adapt_bp32", "tadrrip+bp"):
            expected = _engine(policy).run()
            assert run_replay(_engine(policy), shared) == expected, policy


class TestEligibility:
    def test_quota_mismatch_falls_back(self, bundle):
        engine = _engine(quota=QUOTA + 1)
        assert run_replay(engine, bundle) is None

    def test_seed_mismatch_falls_back(self, bundle):
        config = golden_config()
        hierarchy = build_hierarchy(config, "lru")
        sources = build_sources(WORKLOAD, config, master_seed=7)
        engine = MulticoreEngine(
            hierarchy, sources, quota_per_core=QUOTA, warmup_accesses=WARMUP
        )
        assert run_replay(engine, bundle) is None

    def test_benchmark_mismatch_falls_back(self, bundle):
        config = golden_config()
        hierarchy = build_hierarchy(config, "lru")
        sources = build_sources(Workload("g", ("gcc", "calc")), config, 0)
        engine = MulticoreEngine(
            hierarchy, sources, quota_per_core=QUOTA, warmup_accesses=WARMUP
        )
        assert run_replay(engine, bundle) is None

    def test_warmup_mismatch_falls_back(self, bundle):
        engine = _engine(warmup=WARMUP + 1)
        assert run_replay(engine, bundle) is None

    def test_prefetch_platform_mismatch_falls_back(self, bundle):
        from dataclasses import replace

        engine = _engine(config=replace(golden_config(), l1_next_line_prefetch=True))
        assert run_replay(engine, bundle) is None
        engine = _engine(config=replace(golden_config(), l2_stride_prefetch=True))
        assert run_replay(engine, bundle) is None

    def test_llc_set_count_mismatch_falls_back(self, bundle):
        from dataclasses import replace

        from repro.sim.config import CacheLevelConfig

        llc = CacheLevelConfig(num_sets=128, ways=16, latency=24.0)
        engine = _engine(config=replace(golden_config(), llc=llc))
        assert run_replay(engine, bundle) is None

    def test_private_geometry_mismatch_falls_back(self, bundle):
        from dataclasses import replace

        from repro.sim.config import CacheLevelConfig

        l1 = CacheLevelConfig(num_sets=8, ways=8, latency=3.0)
        engine = _engine(config=replace(golden_config(), l1=l1))
        assert run_replay(engine, bundle) is None
        l2 = CacheLevelConfig(num_sets=16, ways=8, latency=14.0)
        engine = _engine(config=replace(golden_config(), l2=l2))
        assert run_replay(engine, bundle) is None

    def test_sources_built_for_another_geometry_fall_back(self, bundle):
        """The hierarchy matches the bundle, but its sources were calibrated
        for other private levels: a capture rebuilds the sources from the
        hierarchy's geometry, so it cannot serve this engine."""
        from dataclasses import replace

        from repro.sim.config import CacheLevelConfig

        config = golden_config()
        other = replace(
            config,
            l1=CacheLevelConfig(num_sets=8, ways=16, latency=3.0),
            l2=CacheLevelConfig(num_sets=64, ways=16, latency=14.0),
        )

        def engine():
            return MulticoreEngine(
                build_hierarchy(config, "ship"),
                build_sources(WORKLOAD, other, 0),
                quota_per_core=QUOTA,
                interval_misses=config.effective_interval,
                warmup_accesses=WARMUP,
            )

        assert run_replay(engine(), bundle) is None
        assert engine().run(bundle=bundle) == engine()._run_generic()

    def test_foreign_format_falls_back(self, bundle):
        from repro.cpu.capture import CaptureBundle

        foreign = CaptureBundle(dict(bundle.meta, format=-1), bundle.tapes)
        assert run_replay(_engine(), foreign) is None

    def test_missing_tape_falls_back(self, bundle):
        from repro.cpu.capture import CaptureBundle

        short = CaptureBundle(bundle.meta, bundle.tapes[:1])
        assert run_replay(_engine(), short) is None

    def test_duck_typed_source_falls_back(self, bundle):
        class _NextAccessOnly:
            def __init__(self, inner):
                self._inner = inner

            def next_access(self):
                return self._inner.next_access()

            def __getattr__(self, name):
                if name == "next_chunk":
                    raise AttributeError(name)
                return getattr(self._inner, name)

        engine = _engine()
        engine.sources = [_NextAccessOnly(s) for s in engine.sources]
        assert run_replay(engine, bundle) is None

    def test_kill_switch_plans_no_capture(self, tmp_path, monkeypatch):
        # Replay is morally part of the fast path: under the fast-path
        # kill switch a sweep plans no capture (differential runs stay
        # generic end to end).
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        store = ResultStore(tmp_path / "results")
        jobs = [
            WorkloadJob.for_workload(
                WORKLOAD, golden_config(), p, quota=200, warmup=50, master_seed=0
            )
            for p in ("lru", "ship")
        ]
        runner = ParallelRunner(jobs=1, store=store)
        misses = [(job.cache_key(), job) for job in jobs]
        assert runner._plan_captures(misses, settings.read()) == ([], {})
        runner.run(jobs)
        assert not list((tmp_path / "results" / "traces").glob("replay-*.npz"))
        assert runner.stats["bundle_loads"] == 0


class TestLiveTail:
    @pytest.mark.parametrize("route", ROUTES)
    def test_outrunning_core_extends_tape_and_stays_exact(self, route):
        expected = _engine("dip").run()
        lean = routed(capture_workload(GOLDEN), route)
        engine = _engine("dip")
        got = run_replay(engine, lean)
        assert got == expected
        # At least one core outran the captured stream and was extended.
        assert any(tape.length > QUOTA + WARMUP for tape in lean.tapes)
        # The extension persists in the bundle: a second replay reuses it.
        lengths = [tape.length for tape in lean.tapes]
        assert run_replay(_engine("dip"), lean) == expected
        assert [tape.length for tape in lean.tapes] == lengths


class TestLlcSilentCore:
    def test_silent_overrunning_core_cannot_stall_the_run(self):
        """A core whose working set fits its private levels emits no LLC
        events while it overruns; replay must keep making bounded progress
        (provisional wake-ups) instead of extending its tape forever."""
        from dataclasses import replace

        from repro.sim.config import CacheLevelConfig

        # An L2 large enough to hold twolf's whole working set: after
        # warm-up the core goes LLC-silent and overruns at L2-hit speed
        # while mcf (slow, miss-heavy) finishes last.
        config = replace(
            golden_config(), l2=CacheLevelConfig(num_sets=64, ways=8, latency=14.0)
        )
        workload = Workload("g", ("twolf", "mcf"))

        def engine(policy):
            hierarchy = build_hierarchy(config, policy)
            sources = build_sources(workload, config, 0)
            return MulticoreEngine(
                hierarchy,
                sources,
                quota_per_core=1200,
                interval_misses=config.effective_interval,
                warmup_accesses=300,
            )

        expected = engine("ship").run()
        bundle = capture_workload(job_identity(("twolf", "mcf"), config, 1200, 300, 0))
        assert run_replay(engine("ship"), bundle) == expected
        tape = bundle.tapes[0]
        extension = tape.length - 1500
        tail_events = sum(1 for s in tape.ev_step if s >= 1500)
        assert extension >= 4096 and tail_events == 0


class TestArtifactStore:
    def test_save_load_round_trip(self, bundle, tmp_path):
        path = tmp_path / "replay-x.npz"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert loaded is not None
        assert loaded.meta == bundle.meta
        for a, b in zip(loaded.tapes, bundle.tapes):
            assert a.steps == b.steps
            assert a.ev_step == b.ev_step
            assert a.ev_kind == b.ev_kind
            assert a.ev_addr == b.ev_addr
            assert a.ev_pc == b.ev_pc
            assert a.checkpoints == b.checkpoints
            assert a.checkpoint_index == b.checkpoint_index
            assert a.baseline == b.baseline and a.finish == b.finish
        # A loaded bundle drives the replay kernel identically.
        expected = _engine("eaf").run()
        assert run_replay(_engine("eaf"), loaded) == expected

    def test_loaded_bundle_holds_about_its_file_size(self, bundle, tmp_path):
        """Memory guard: the Python heap a loaded bundle keeps stays close to
        the artifact's on-disk size.  Decoding the checkpoints into nested
        lists and dicts reads 1.36x here (1.45x on the 16-core smoke
        bundle); the encoded form reads 1.10x (1.01x)."""
        path = tmp_path / "replay-x.npz"
        save_bundle(bundle, path)
        load_bundle(path)  # first-call caches are not the bundle's
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_bundle(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert loaded is not None
        assert held <= LOADED_BUNDLE_SIZE_RATIO * path.stat().st_size

    def test_corrupt_artifact_loads_as_none(self, tmp_path):
        path = tmp_path / "replay-bad.npz"
        path.write_bytes(b"not an npz")
        assert load_bundle(path) is None
        missing = tmp_path / "replay-missing.npz"
        assert load_bundle(missing) is None

    def test_materialise_is_content_addressed_and_reused(self, tmp_path, monkeypatch):
        store = ReplayStore(tmp_path)
        config = golden_config()
        ident = job_identity(BENCHMARKS, config, 200, 50, 0)
        path = store.materialise(ident)
        assert path == tmp_path / f"replay-{replay_key(ident)}.npz"
        # A second materialise reuses the file: no capture runs.
        monkeypatch.setattr(cap, "capture_workload", None)
        assert store.materialise(ident) == path

    def test_bundle_cache_loads_each_path_once(self, tmp_path, monkeypatch):
        store = ReplayStore(tmp_path)
        config = golden_config()
        first = str(store.materialise(job_identity(BENCHMARKS, config, 200, 50, 0)))
        second = str(store.materialise(job_identity(BENCHMARKS, config, 200, 51, 0)))
        loads = REGISTRY_STATS["bundle_loads"]
        bundle = cached_bundle(first)
        assert bundle is not None and bundle.meta["warmup"] == 50
        assert cached_bundle(first) is bundle
        assert cached_bundle(second).meta["warmup"] == 51
        assert REGISTRY_STATS["bundle_loads"] == loads + 2
        # Bounded LRU: filling the cache with other paths evicts *first*.
        monkeypatch.setattr(replaystore, "load_bundle", lambda path: None)
        for i in range(replaystore._BUNDLE_CACHE_LIMIT):
            cached_bundle(str(tmp_path / f"missing-{i}.npz"))
        assert first not in replaystore._BUNDLES
        assert len(replaystore._BUNDLES) == replaystore._BUNDLE_CACHE_LIMIT


class TestRunnerIntegration:
    POLICIES = ("lru", "srrip", "ship")

    def _jobs(self, config, quota=400, warmup=100):
        return [
            WorkloadJob.for_workload(
                WORKLOAD, config, p, quota=quota, warmup=warmup, master_seed=0
            )
            for p in self.POLICIES
        ]

    def test_sweep_results_identical_with_and_without_replay(self, tmp_path, monkeypatch):
        config = golden_config()
        store = ResultStore(tmp_path / "results")
        runner = ParallelRunner(jobs=1, store=store, use_cache=False)
        replayed = runner.run(self._jobs(config))
        assert runner.stats["bundle_loads"] == 1
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        generic = [job.execute() for job in self._jobs(config)]
        assert [r.to_dict() for r in replayed] == [r.to_dict() for r in generic]

    def test_sweep_materialises_one_artifact(self, tmp_path):
        config = golden_config()
        store = ResultStore(tmp_path / "results")
        runner = ParallelRunner(jobs=1, store=store)
        runner.run(self._jobs(config))
        artifacts = list((tmp_path / "results" / "traces").glob("replay-*.npz"))
        assert len(artifacts) == 1

    def test_single_job_batches_skip_capture(self, tmp_path):
        config = golden_config()
        store = ResultStore(tmp_path / "results")
        runner = ParallelRunner(jobs=1, store=store)
        runner.run(self._jobs(config)[:1])
        assert not list((tmp_path / "results" / "traces").glob("replay-*.npz"))


def _assert_compact(tape):
    """The tape holds its streams in fixed-width containers, not lists."""
    assert type(tape.steps) is bytearray
    assert type(tape.ev_kind) is bytearray
    for column, typecode in (
        (tape.ev_step, "Q"),
        (tape.ev_addr, "q"),
        (tape.ev_pc, "q"),
    ):
        assert type(column) is array
        assert column.typecode == typecode and column.itemsize == 8


class TestTapeArrays:
    def test_arrays_round_trip_native_types(self):
        tape = CoreTape()
        tape.steps.extend([0, 1, 2])
        tape.ev_step.extend([2, 2])
        tape.ev_kind.extend([3, 5])
        tape.ev_addr.extend([123, 0])
        tape.ev_pc.extend([7, 0])
        events = tape.events_array()
        assert events["step"].tolist() == [2, 2]
        assert events["kind"].tolist() == [3, 5]
        steps = tape.steps_array()
        assert steps.dtype == np.uint8
        assert steps.tolist() == [0, 1, 2]

    def test_set_events_converts_byte_order(self):
        records = np.array(
            [(5, 3, -9, 1 << 40), (6, 1, 1 << 50, 0)],
            dtype=cap.EVENT_DTYPE.newbyteorder(">"),
        )
        tape = CoreTape()
        tape.set_events(records)
        _assert_compact(tape)
        assert list(tape.ev_step) == [5, 6]
        assert list(tape.ev_kind) == [3, 1]
        assert list(tape.ev_addr) == [-9, 1 << 50]
        assert list(tape.ev_pc) == [1 << 40, 0]
        assert tape.events_array().tobytes() == records.astype(cap.EVENT_DTYPE).tobytes()

    def test_capture_and_load_hold_compact_columns(self, bundle, tmp_path):
        for tape in bundle.tapes:
            _assert_compact(tape)
        path = tmp_path / "replay-x.npz"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        for a, b in zip(loaded.tapes, bundle.tapes):
            _assert_compact(a)
            assert a.ev_step == b.ev_step and a.ev_kind == b.ev_kind
            assert a.ev_addr == b.ev_addr and a.ev_pc == b.ev_pc

    def test_checkpoints_stay_encoded(self, tmp_path):
        # Extended far enough past quota completion to add checkpoints.
        bundle = capture_workload(GOLDEN)
        for core_id in range(len(bundle.tapes)):
            cap.extend_tape(bundle, core_id, 2 * GOLDEN.chunk)
        path = tmp_path / "replay-x.npz"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        for fresh, held in zip(bundle.tapes, loaded.tapes):
            for tape in (fresh, held):
                assert all(type(c) is bytes for c in tape.checkpoints)
                index = tape.checkpoint_index
                assert type(index) is array and index.typecode == "Q"
                assert len(index) == len(tape.checkpoints) >= 2
                assert list(index) == sorted(set(index))
                assert [tape.checkpoint(i)["index"] for i in range(len(index))] == list(index)
            assert held.checkpoints == fresh.checkpoints
            assert held.checkpoint_index == fresh.checkpoint_index

    def test_only_the_restored_checkpoint_is_decoded(self, tmp_path, monkeypatch):
        path = tmp_path / "replay-x.npz"
        save_bundle(capture_workload(GOLDEN), path)
        # Built before the spy: a default run captures and decodes too.
        expected = _engine("ship")._run_generic()
        decoded = []
        real_loads = json.loads

        def spy(*args, **kwargs):
            value = real_loads(*args, **kwargs)
            if isinstance(value, dict) and "l1" in value:
                decoded.append(value["index"])
            return value

        monkeypatch.setattr(json, "loads", spy)
        loaded = load_bundle(path)
        assert decoded == []
        assert run_replay(_engine("ship"), loaded, finalize=True) == expected
        # Each core that outran its stream decoded its tape-end checkpoint
        # once, to rebuild its continuation; the finaliser then decoded
        # one checkpoint per core, at or before that core's stop point.
        extended = [tape for tape in loaded.tapes if tape.live_sim is not None]
        assert extended and len(decoded) == len(extended) + len(loaded.tapes)
        assert decoded[: len(extended)] == [QUOTA + WARMUP] * len(extended)
        for tape, index in zip(loaded.tapes, decoded[len(extended) :]):
            assert index in tape.checkpoint_index

    def test_save_load_save_is_byte_identical(self, bundle, tmp_path):
        first, second = tmp_path / "replay-a.npz", tmp_path / "replay-b.npz"
        save_bundle(bundle, first)
        loaded = load_bundle(first)
        for tape in loaded.tapes:
            _assert_compact(tape)
            assert all(type(c) is bytes for c in tape.checkpoints)
        save_bundle(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_extending_a_loaded_bundle_appends_in_place(self, tmp_path):
        path = tmp_path / "replay-lean.npz"
        save_bundle(capture_workload(GOLDEN), path)
        loaded = load_bundle(path)

        def columns(tape):
            return (tape.steps, tape.ev_step, tape.ev_kind, tape.ev_addr, tape.ev_pc)

        held = [columns(tape) for tape in loaded.tapes]
        before = [len(tape.ev_step) for tape in loaded.tapes]
        chunk = loaded.meta["chunk"]
        for core_id in range(len(loaded.tapes)):
            cap.extend_tape(loaded, core_id, chunk)
        for tape, old in zip(loaded.tapes, held):
            _assert_compact(tape)
            assert all(a is b for a, b in zip(columns(tape), old))
            assert len(tape.steps) == tape.length == QUOTA + WARMUP + chunk
        assert sum(len(t.ev_step) for t in loaded.tapes) > sum(before)
        # The appended streams are exactly what the capture's own
        # simulators record when they continue in memory.
        reference = capture_workload(GOLDEN)
        for core_id in range(len(reference.tapes)):
            cap.extend_tape(reference, core_id, chunk)
        for tape, ref in zip(loaded.tapes, reference.tapes):
            assert tape.steps == ref.steps
            assert tape.events_array().tobytes() == ref.events_array().tobytes()
            assert tape.checkpoints == ref.checkpoints
        assert run_replay(_engine("ship"), loaded) == _engine("ship").run()
