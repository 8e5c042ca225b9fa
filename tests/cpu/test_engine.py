"""Unit tests for the multi-core engine and core model."""

import pytest

from repro.cpu.core import CoreSnapshot
from repro.cpu.engine import MulticoreEngine
from repro.sim.build import build_hierarchy, build_sources, geometry_of
from repro.trace.benchmarks import BENCHMARKS, TraceSource
from repro.trace.workloads import Workload


def run_engine(tiny_config, benchmarks, quota=1500, warmup=0, **kw):
    workload = Workload("t", benchmarks)
    config = tiny_config.with_cores(len(benchmarks))
    hierarchy = build_hierarchy(config, "lru")
    sources = build_sources(workload, config)
    engine = MulticoreEngine(
        hierarchy, sources, quota_per_core=quota, warmup_accesses=warmup, **kw
    )
    return engine, engine.run()


class TestCompletion:
    def test_all_cores_reach_quota(self, tiny_config):
        _, snaps = run_engine(tiny_config, ("calc", "lbm", "mcf", "deal"))
        assert all(s.accesses == 1500 for s in snaps)

    def test_instructions_scale_with_apki(self, tiny_config):
        _, snaps = run_engine(tiny_config, ("calc", "lbm", "mcf", "deal"))
        geo = geometry_of(tiny_config)
        for snap, name in zip(snaps, ("calc", "lbm", "mcf", "deal")):
            src = TraceSource(BENCHMARKS[name], geo, 0)
            expected = 1500 * src.instructions_per_access
            assert snap.instructions == pytest.approx(expected, rel=0.01)

    def test_cycles_positive_and_finite(self, tiny_config):
        _, snaps = run_engine(tiny_config, ("calc", "lbm", "mcf", "deal"))
        assert all(0 < s.cycles < 1e9 for s in snaps)

    def test_light_app_has_higher_ipc_than_heavy(self, tiny_config):
        _, snaps = run_engine(tiny_config, ("calc", "lbm", "mcf", "deal"))
        assert snaps[0].ipc > snaps[1].ipc


class TestIntervalClock:
    def test_intervals_fire_on_miss_count(self, tiny_config):
        engine, _ = run_engine(
            tiny_config, ("lbm", "milc", "libq", "STRM"), interval_misses=500
        )
        assert engine.intervals_completed >= 2

    def test_default_interval_from_llc_blocks(self, tiny_config):
        workload = Workload("t", ("calc", "deal", "eon", "h26"))
        hierarchy = build_hierarchy(tiny_config, "lru")
        sources = build_sources(workload, tiny_config)
        engine = MulticoreEngine(hierarchy, sources, quota_per_core=10)
        assert engine.interval_misses == 4 * hierarchy.llc.num_blocks


class TestWarmup:
    def test_warmup_excluded_from_snapshot(self, tiny_config):
        _, cold = run_engine(tiny_config, ("mcf", "lbm", "deal", "calc"), quota=1000)
        _, warm = run_engine(
            tiny_config, ("mcf", "lbm", "deal", "calc"), quota=1000, warmup=1000
        )
        # Warmed runs must report no more misses than cold runs (cold-start
        # misses are excluded from the measured window).
        assert warm[0].llc_misses <= cold[0].llc_misses
        assert all(s.accesses == 1000 for s in warm)

    def test_warmup_does_not_change_measured_quota(self, tiny_config):
        _, snaps = run_engine(
            tiny_config, ("calc", "deal", "eon", "h26"), quota=500, warmup=200
        )
        assert all(s.accesses == 500 for s in snaps)


class TestValidation:
    def test_source_count_mismatch_rejected(self, tiny_config):
        workload = Workload("t", ("calc", "deal", "eon", "h26"))
        hierarchy = build_hierarchy(tiny_config, "lru")
        sources = build_sources(workload, tiny_config)[:2]
        with pytest.raises(ValueError):
            MulticoreEngine(hierarchy, sources, quota_per_core=10)

    def test_zero_quota_rejected(self, tiny_config):
        workload = Workload("t", ("calc", "deal", "eon", "h26"))
        hierarchy = build_hierarchy(tiny_config, "lru")
        sources = build_sources(workload, tiny_config)
        with pytest.raises(ValueError):
            MulticoreEngine(hierarchy, sources, quota_per_core=0)


class TestSnapshotMetrics:
    def test_mpki_definitions(self):
        snap = CoreSnapshot(
            instructions=10_000,
            cycles=20_000,
            accesses=500,
            l1_misses=100,
            l2_misses=50,
            llc_accesses=50,
            llc_misses=20,
            llc_bypasses=5,
        )
        assert snap.ipc == pytest.approx(0.5)
        assert snap.l2_mpki == pytest.approx(5.0)
        assert snap.llc_mpki == pytest.approx(2.0)

    def test_zero_cycles_ipc(self):
        snap = CoreSnapshot(0, 0, 0, 0, 0, 0, 0, 0)
        assert snap.ipc == 0.0
