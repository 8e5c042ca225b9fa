"""Registry, the memmapped trace source, suite composition, and the
kernel differential over an ingested workload."""

from __future__ import annotations

import numpy as np
import pytest
from make_fixtures import FIXTURE_DIR

from repro.sim.multi import run_workload
from repro.sim.single import run_alone
from repro.targets import (
    TargetSpec,
    activate,
    ingest_file,
    is_target,
    load_registry,
    lookup_target,
    make_target_source,
    real_suite,
    require_target,
)
from repro.targets.registry import (
    ENV_TARGETS_DIR,
    IngestedTraceSource,
    buffer_path,
    save_registry,
)
from repro.trace.benchmarks import TraceSource
from repro.trace.benchmarks import make_source
from repro.trace.workloads import Workload

CHAMPSIM_FIXTURE = FIXTURE_DIR / "toy-champsim.trace.gz"
DRCACHESIM_FIXTURE = FIXTURE_DIR / "toy.drcachesim.txt"
LACKEY_FIXTURE = FIXTURE_DIR / "toy.lackey.out"


@pytest.fixture
def ingested(traces_dir):
    """All three fixtures ingested; returns name -> spec."""
    specs = {}
    for path in (CHAMPSIM_FIXTURE, DRCACHESIM_FIXTURE, LACKEY_FIXTURE):
        spec, _ = ingest_file(path, directory=traces_dir)
        specs[spec.name] = spec
    return specs


@pytest.fixture
def active(ingested, traces_dir, monkeypatch):
    monkeypatch.setenv(ENV_TARGETS_DIR, str(traces_dir))
    return ingested


GEOMETRY = None  # targets never sample geometry; any placeholder works


class TestRegistry:
    def test_is_target(self):
        assert is_target("tgt:milc")
        assert not is_target("milc")
        assert not is_target(None)

    def test_round_trip(self, traces_dir, ingested):
        assert load_registry(traces_dir) == ingested
        spec = lookup_target("toy-champsim", traces_dir)
        assert spec is not None and spec.fmt == "champsim"
        assert lookup_target("tgt:toy-champsim", traces_dir) == spec

    def test_registry_bytes_are_deterministic(self, traces_dir, ingested):
        path = traces_dir / "targets.json"
        blob = path.read_bytes()
        save_registry(traces_dir, load_registry(traces_dir))
        assert path.read_bytes() == blob

    def test_require_unknown_names_the_ingest_command(self, traces_dir):
        with pytest.raises(ValueError, match="targets ingest"):
            require_target("tgt:absent", traces_dir)

    def test_spec_serialisation_round_trips(self, ingested):
        for spec in ingested.values():
            assert TargetSpec.from_dict(spec.to_dict()) == spec

    def test_activate_prefers_existing_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_TARGETS_DIR, str(tmp_path / "pinned"))
        assert activate(tmp_path / "results") == tmp_path / "pinned"
        monkeypatch.delenv(ENV_TARGETS_DIR)
        assert activate(tmp_path / "results") == tmp_path / "results" / "traces"

    def test_activate_leaves_the_environment_alone(self, tmp_path):
        import os

        before = dict(os.environ)
        assert activate(tmp_path / "results") == tmp_path / "results" / "traces"
        assert dict(os.environ) == before


class TestIngestedTraceSource:
    def test_chunk_matches_trace_source(self):
        assert IngestedTraceSource.CHUNK == TraceSource.CHUNK

    def test_core_offset_keeps_streams_disjoint(self, active, traces_dir):
        spec = active["tgt:toy-champsim"]
        sources = [
            make_target_source(spec, GEOMETRY, core_id, directory=traces_dir)
            for core_id in range(3)
        ]
        windows = set()
        for core_id, source in enumerate(sources):
            addr, _pc, _w = source.next_access()
            assert addr >> 36 == core_id + 1
            windows.add(addr >> 36)
        assert len(windows) == 3

    def test_serves_the_ingested_bytes(self, active, traces_dir):
        spec = active["tgt:toy.lackey"]
        buf = np.load(buffer_path(traces_dir, spec.key))
        source = make_target_source(spec, GEOMETRY, 0, directory=traces_dir)
        addrs, pcs, writes, pos = source.next_chunk()
        assert pos == 0 and len(addrs) == TraceSource.CHUNK
        np.testing.assert_array_equal(addrs, buf["addr"] + (1 << 36))
        np.testing.assert_array_equal(pcs, buf["pc"])
        np.testing.assert_array_equal(writes, buf["write"])

    def test_cycles_and_restarts(self, active, traces_dir):
        spec = active["tgt:toy-champsim"]
        assert spec.n_chunks == 1
        source = make_target_source(spec, GEOMETRY, 0, directory=traces_dir)
        first = [source.next_access() for _ in range(TraceSource.CHUNK)]
        wrapped = [source.next_access() for _ in range(4)]
        assert wrapped == first[:4]  # cyclic continuation
        assert source.chunks_generated == 2
        source.restart()
        assert [source.next_access() for _ in range(4)] == first[:4]

    def test_commit_advances_the_cursor(self, active, traces_dir):
        spec = active["tgt:toy.drcachesim"]
        source = make_target_source(spec, GEOMETRY, 0, directory=traces_dir)
        addrs, _pcs, _writes, pos = source.next_chunk()
        source.commit(pos + 10)
        assert source.next_access()[0] == int(addrs[10])

    def test_core_parameters_come_from_the_spec(self, active, traces_dir):
        spec = active["tgt:toy-champsim"]
        source = make_target_source(spec, GEOMETRY, 0, directory=traces_dir)
        assert source.instructions_per_access == spec.instructions_per_access
        assert source.spec.base_cpi == spec.base_cpi
        assert source.spec.mlp == spec.mlp

    def test_unresolvable_without_active_directory(self, ingested):
        with pytest.raises(ValueError, match=ENV_TARGETS_DIR):
            make_target_source("tgt:toy-champsim", GEOMETRY, 0)


class TestMakeSourceDispatch:
    def test_name_dispatch(self, active):
        source = make_source("tgt:toy-champsim", GEOMETRY, 1)
        assert isinstance(source, IngestedTraceSource)
        assert source.core_id == 1

    def test_spec_dispatch(self, active):
        source = make_source(active["tgt:toy.lackey"], GEOMETRY, 0)
        assert isinstance(source, IngestedTraceSource)

    def test_synthetic_names_still_resolve(self):
        from repro.sim.build import geometry_of
        from repro.sim.config import SystemConfig

        geometry = geometry_of(SystemConfig.scaled(4))
        source = make_source("milc", geometry, 0)
        assert not isinstance(source, IngestedTraceSource)


class TestWorkloadsAcceptTargets:
    def test_mixed_workload_validates(self):
        w = Workload("mix", ("milc", "tgt:toy-champsim"))
        assert w.cores == 2
        # milc thrashes; the target core must never be counted.
        assert w.thrashing_cores() == [0]
        assert "tgt:toy-champsim" not in w.class_counts()

    def test_unknown_synthetic_name_still_rejected(self):
        with pytest.raises(ValueError):
            Workload("bad", ("milc", "nonesuch"))


class TestRealSuite:
    def test_empty_registry_raises_with_guidance(self, traces_dir):
        with pytest.raises(ValueError, match="targets ingest"):
            real_suite(4, 3, directory=traces_dir)

    def test_composition_rotates_and_is_deterministic(self, active, traces_dir):
        suite = real_suite(4, 8, master_seed=0, directory=traces_dir)
        assert len(suite) == 3  # capped at the registry size
        assert [w.name for w in suite] == [
            "4core-real-000",
            "4core-real-001",
            "4core-real-002",
        ]
        for workload in suite:
            assert workload.cores == 4
            assert all(is_target(b) for b in workload.benchmarks)
            # Rotation: every registered target appears in every mix.
            assert set(workload.benchmarks) == set(active)
        again = real_suite(4, 8, master_seed=0, directory=traces_dir)
        assert [w.benchmarks for w in again] == [w.benchmarks for w in suite]

    def test_seed_changes_core_placement(self, active, traces_dir):
        a = real_suite(16, 2, master_seed=0, directory=traces_dir)
        b = real_suite(16, 2, master_seed=1, directory=traces_dir)
        assert {w.benchmarks for w in a} != {w.benchmarks for w in b}


class TestSimulationOverTargets:
    def test_run_alone_resolves_targets(self, active, tiny_config):
        result = run_alone(
            "tgt:toy-champsim", tiny_config, quota=1500, warmup=300
        )
        assert result.snapshot.accesses >= 1500

    def test_generic_and_fast_kernels_are_bit_identical(
        self, active, tiny_config, monkeypatch
    ):
        workload = Workload(
            "real-diff",
            (
                "tgt:toy-champsim",
                "tgt:toy.drcachesim",
                "tgt:toy.lackey",
                "tgt:toy-champsim",
            ),
        )
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        generic = run_workload(
            workload, tiny_config, "lru", quota=1200, warmup=300
        )
        monkeypatch.delenv("REPRO_NO_FASTPATH")
        fast = run_workload(workload, tiny_config, "lru", quota=1200, warmup=300)
        assert fast.snapshots == generic.snapshots
        assert fast.intervals == generic.intervals

    def test_deterministic_across_runs(self, active, tiny_config):
        workload = Workload("real-det", ("tgt:toy.lackey", "tgt:toy.lackey"))
        a = run_workload(workload, tiny_config, "dip", quota=1000, warmup=200)
        b = run_workload(workload, tiny_config, "dip", quota=1000, warmup=200)
        assert a.snapshots == b.snapshots
