"""Parallel execution and cross-invocation caching tests.

The load-bearing properties: a parallel run is bit-identical to the
sequential run with the same master seed, and a second runner pointed at
a warm ``results/`` store performs zero simulations.
"""

import pytest

from repro.experiments.common import ExperimentSettings, Runner
from repro.runner import (
    SCHEMA_VERSION,
    AloneJob,
    ParallelRunner,
    ResultStore,
    WorkloadJob,
    default_jobs,
)
from repro.sim.single import AloneCache, run_alone

SETTINGS = ExperimentSettings(
    quota=1000,
    warmup=300,
    alone_quota=1000,
    alone_warmup=300,
    workloads={4: 2, 8: 2, 16: 2, 20: 2, 24: 2},
)


@pytest.fixture
def suite():
    return SETTINGS.suite(4)


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_garbage_and_unset_fall_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert default_jobs() >= 1
        monkeypatch.delenv("REPRO_JOBS")
        assert default_jobs() >= 1

    def test_non_positive_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-2")
        assert default_jobs() >= 1


class TestParallelMatchesSequential:
    @pytest.mark.slow
    def test_bit_identical_workload_results(self, tiny_config, suite):
        parallel = Runner(tiny_config, SETTINGS, jobs=4)
        sequential = Runner(tiny_config, SETTINGS, jobs=1)
        parallel.prefetch(suite, ("lru", "tadrrip"))
        for workload in suite:
            for policy in ("lru", "tadrrip"):
                assert parallel.run(workload, policy) == sequential.run(
                    workload, policy
                )

    @pytest.mark.slow
    def test_alone_cache_pooled_matches_direct(self, tiny_config):
        pooled = AloneCache(
            tiny_config, quota=1000, warmup=300, pool=ParallelRunner(jobs=2)
        )
        pooled.prefetch(["lbm", "bzip"])
        for benchmark in ("lbm", "bzip"):
            direct = run_alone(benchmark, tiny_config, quota=1000, warmup=300)
            assert pooled.result(benchmark) == direct

    def test_mixed_sweep_and_alone_batch_pooled_matches_inline(self, tiny_config):
        # One execution path serves every batch shape: a 2-policy sweep
        # (capture + dependent replays) and unswept alone jobs share one
        # pool and one dependency-edged queue.
        workload = SETTINGS.suite(4)[0]
        jobs = [
            WorkloadJob.for_workload(
                workload, tiny_config, policy, quota=400, warmup=100, master_seed=0
            )
            for policy in ("lru", "tadrrip")
        ] + [
            AloneJob(name, tiny_config, "lru", quota=400, warmup=100, master_seed=0)
            for name in ("lbm", "bzip")
        ]
        with ParallelRunner(jobs=1) as runner:
            inline = runner.run(jobs)
        with ParallelRunner(jobs=2) as runner:
            pooled = runner.run(jobs)
        assert runner.stats["executed"] == len(jobs)
        assert runner.stats["failed"] == 0
        # The sweep ran on the replay kernel: its artifact was loaded.
        assert runner.stats["bundle_loads"] >= 1
        assert pooled == inline
        assert all(result is not None for result in pooled)

    def test_alone_baselines_shared_across_core_counts(self, tiny_config):
        # run_alone always simulates one core, so suites that differ only
        # in core count must derive the same baseline cache keys.
        caches = [
            AloneCache(tiny_config.with_cores(n), quota=1000, warmup=300)
            for n in (4, 16)
        ]
        keys = {c.job_for("lbm").cache_key() for c in caches}
        assert len(keys) == 1


class TestPersistentStore:
    def test_warm_store_runs_zero_simulations(self, tiny_config, suite, tmp_path, monkeypatch):
        first = Runner(tiny_config, SETTINGS, jobs=1, results_dir=tmp_path)
        first.prefetch(suite, ("lru",))
        executed = first.pool.stats["executed"]
        assert executed > 0

        # A fresh invocation against the warm store must not simulate at
        # all — make any attempt explode.
        def boom(*args, **kwargs):
            raise AssertionError("simulated despite a warm result store")

        monkeypatch.setattr(WorkloadJob, "execute", boom)
        monkeypatch.setattr(AloneJob, "execute", boom)
        second = Runner(tiny_config, SETTINGS, jobs=1, results_dir=tmp_path)
        second.prefetch(suite, ("lru",))
        assert second.pool.stats["executed"] == 0
        assert second.pool.stats["store_hits"] == executed
        for workload in suite:
            assert second.run(workload, "lru") == first.run(workload, "lru")
            assert second.weighted_speedup(workload, "lru") == first.weighted_speedup(
                workload, "lru"
            )

    def test_no_cache_bypasses_store(self, tiny_config, suite, tmp_path):
        store_dir = tmp_path / "results"
        warm = Runner(tiny_config, SETTINGS, jobs=1, results_dir=store_dir)
        warm.run(suite[0], "lru")
        assert len(ResultStore(store_dir)) > 0

        fresh = Runner(
            tiny_config, SETTINGS, jobs=1, results_dir=store_dir, use_cache=False
        )
        fresh.run(suite[0], "lru")
        assert fresh.pool.stats["store_hits"] == 0
        assert fresh.pool.stats["executed"] > 0

    def test_stale_schema_is_a_miss(self, tiny_config, suite, tmp_path):
        runner = Runner(tiny_config, SETTINGS, jobs=1, results_dir=tmp_path)
        result = runner.run(suite[0], "lru")
        key = runner._job(suite[0], "lru", tiny_config).cache_key()
        payload = runner.store.get(key)
        assert payload is not None and payload["schema"] == SCHEMA_VERSION

        payload["schema"] = -1
        runner.store.put(key, payload)
        rerun = Runner(tiny_config, SETTINGS, jobs=1, results_dir=tmp_path)
        assert rerun.run(suite[0], "lru") == result
        assert rerun.pool.stats["executed"] == 1


class TestRunnerMemo:
    def test_prefetch_fills_l1(self, tiny_config, suite):
        runner = Runner(tiny_config, SETTINGS, jobs=1)
        runner.prefetch(suite, ("lru",))
        executed = runner.pool.stats["executed"]
        first = runner.run(suite[0], "lru")
        assert runner.run(suite[0], "lru") is first
        assert runner.pool.stats["executed"] == executed

    def test_duplicate_jobs_in_one_batch_run_once(self, tiny_config, suite):
        runner = Runner(tiny_config, SETTINGS, jobs=1)
        pairs = [(suite[0], "lru"), (suite[0], "lru")]
        runner.prefetch_pairs(pairs, alone=False)
        assert runner.pool.stats["executed"] == 1
