"""End-to-end fault matrix for the supervised runner.

Drives real simulation jobs through :class:`ParallelRunner` with the
``REPRO_FAULT`` harness injecting crashes, worker deaths, hangs and
artifact corruption — asserting the two load-bearing properties: a run
that survives injected noise is **bit-identical** to a fault-free run,
and a failed run leaves a **resumable** store (quarantined jobs recorded,
re-invocation executes only the holes).
"""

from __future__ import annotations

import itertools

import pytest

from repro.runner import (
    AloneJob,
    ParallelRunner,
    ResultStore,
    RetryPolicy,
    WorkloadJob,
)
from repro.runner import faults
from repro.runner.integrity import quarantined_artifacts
from repro.runner.supervisor import Supervisor
from repro.sim.config import SystemConfig
from repro.trace.workloads import Workload

#: Fast-retry policy so no test waits on real backoff.
FAST = RetryPolicy(max_retries=2, backoff_base=0.001, backoff_cap=0.01)

BENCHMARKS = ("mcf", "libq", "lbm", "bzip")


def _alone_jobs(tiny_config):
    return [
        AloneJob(
            benchmark=benchmark,
            config=tiny_config.with_cores(1),
            policy="lru",
            quota=400,
            warmup=100,
            master_seed=0,
        )
        for benchmark in BENCHMARKS
    ]


def _sweep_jobs(tiny_config):
    config = SystemConfig.scaled(16).with_cores(2)
    workload = Workload("g", ("mcf", "libq"))
    return [
        WorkloadJob.for_workload(
            workload, config, policy, quota=300, warmup=80, master_seed=0
        )
        for policy in ("lru", "srrip", "ship")
    ]


@pytest.fixture
def reference(tiny_config, monkeypatch):
    """Fault-free results for the alone batch (no store, inline)."""
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    return ParallelRunner(jobs=1).run(_alone_jobs(tiny_config))


class TestParsePlan:
    @pytest.mark.parametrize(
        "raw",
        [
            "explode:0.5",       # unknown kind
            "crash",             # missing trigger
            "crash:many",        # non-numeric trigger
            "crash:1.5",         # probability out of range
            "crash:@x",          # bad attempt limit
            "poison:",           # empty substring
            "hang:@0:soon",      # bad duration
            "corrupt-artifact:foo",  # unknown artifact kind
            "corrupt-artifact:trace",  # removed artifact kind
        ],
    )
    def test_malformed_directives_fail_loudly(self, raw):
        with pytest.raises(ValueError):
            faults.parse_plan(raw)

    def test_grammar(self):
        plan = faults.parse_plan("crash:0.1,kill:@0,hang:@1:2.5,poison:abc")
        kinds = [d.kind for d in plan]
        assert kinds == ["crash", "kill", "hang", "poison"]
        assert plan[0].prob == 0.1
        assert plan[1].max_attempt == 0
        assert plan[1].fires("anything", 0) and not plan[1].fires("anything", 1)
        assert plan[2].arg == "2.5"
        assert plan[3].fires("xxabcxx", 7) and not plan[3].fires("xyz", 0)

    def test_draws_are_deterministic(self):
        assert faults.unit_draw("crash", "key", 0) == faults.unit_draw(
            "crash", "key", 0
        )
        assert 0.0 <= faults.unit_draw("crash", "key", 0) < 1.0


class TestCrashRecovery:
    def test_transient_crashes_yield_bit_identical_results(
        self, tiny_config, reference, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT", "crash:@0")
        runner = ParallelRunner(jobs=2, retry=FAST)
        assert runner.run(_alone_jobs(tiny_config)) == reference
        assert runner.stats["failed"] == 0
        assert runner.stats["retried"] == len(BENCHMARKS)

    def test_probabilistic_noise_yields_bit_identical_results(
        self, tiny_config, reference, monkeypatch
    ):
        # Deterministic hash draws: this "random" plan replays exactly,
        # and max_retries=8 makes survival certain (0.5^9 per-job paths
        # are never all taken by the fixed draws).
        monkeypatch.setenv("REPRO_FAULT", "crash:0.5")
        runner = ParallelRunner(
            jobs=2, retry=RetryPolicy(max_retries=8, backoff_base=0.001)
        )
        assert runner.run(_alone_jobs(tiny_config)) == reference
        assert runner.stats["failed"] == 0


class TestPoisonAndResume:
    def test_poison_job_quarantined_then_resumed(
        self, tiny_config, reference, tmp_path, monkeypatch
    ):
        jobs = _alone_jobs(tiny_config)
        poisoned = jobs[1].cache_key()
        store = ResultStore(tmp_path / "results")
        monkeypatch.setenv("REPRO_FAULT", f"poison:{poisoned}")

        runner = ParallelRunner(
            jobs=2, store=store, retry=RetryPolicy(max_retries=1, backoff_base=0.001)
        )
        results = runner.run(jobs)
        # Partial results: one hole, everything else completed and saved.
        assert results[1] is None
        assert [r for i, r in enumerate(results) if i != 1] == [
            r for i, r in enumerate(reference) if i != 1
        ]
        assert runner.stats["executed"] == len(jobs) - 1
        assert runner.stats["failed"] == 1
        assert len(runner.last_failures) == 1
        assert runner.last_failures[0].key == poisoned
        assert runner.last_failures[0].attempts == 2

        # The quarantine is persisted and enumerable — never silently dropped.
        failures = list(store.failures())
        assert len(failures) == 1
        assert failures[0]["key"] == poisoned
        assert failures[0]["kind"] == "crash"
        # ... but invisible to the result-record API.
        assert all(r.key != poisoned for r in store.records())

        # Resume: same batch, fault lifted — only the hole is executed.
        monkeypatch.delenv("REPRO_FAULT")
        resumed = ParallelRunner(jobs=2, store=store, retry=FAST)
        assert resumed.run(jobs) == reference
        assert resumed.stats["executed"] == 1
        assert resumed.stats["store_hits"] == len(jobs) - 1
        # Success overwrote the failure record.
        assert list(store.failures()) == []


class TestWorkerDeath:
    def test_broken_pool_recovers_bit_identically(
        self, tiny_config, reference, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT", "kill:@0")
        runner = ParallelRunner(
            jobs=2, retry=RetryPolicy(max_retries=4, backoff_base=0.001)
        )
        assert runner.run(_alone_jobs(tiny_config)) == reference
        assert runner.stats["failed"] == 0
        assert runner.stats["pool_rebuilds"] >= 1

    @pytest.mark.slow
    def test_hang_is_timed_out_and_retried(
        self, tiny_config, reference, monkeypatch
    ):
        # A virtual clock that leaps an hour per reading: any job seen
        # running has overrun its deadline by the supervisor's next
        # check, at most job_timeout (real) seconds later — far inside
        # the one-second hang, however loaded the host.  The first
        # timeout abandons the pool and (max_pool_rebuilds=0) degrades
        # to inline execution, where nothing can time out, so the
        # retries never race the clock either.
        readings = itertools.count()
        monkeypatch.setattr(
            Supervisor, "clock", staticmethod(lambda: 3600.0 * next(readings))
        )
        monkeypatch.setenv("REPRO_FAULT", "hang:@0:1.0")
        runner = ParallelRunner(
            jobs=2,
            retry=RetryPolicy(
                max_retries=1,
                job_timeout=0.01,
                backoff_base=0.001,
                max_pool_rebuilds=0,
            ),
        )
        assert runner.run(_alone_jobs(tiny_config)) == reference
        assert runner.stats["timeouts"] >= 1
        assert runner.stats["pool_rebuilds"] == 1
        assert runner.stats["failed"] == 0


class TestArtifactCorruption:
    def _run_sweep(self, root, fault, monkeypatch):
        if fault:
            monkeypatch.setenv("REPRO_FAULT", fault)
        else:
            monkeypatch.delenv("REPRO_FAULT", raising=False)
        runner = ParallelRunner(jobs=1, store=ResultStore(root), retry=FAST)
        try:
            return runner.run(_sweep_jobs(SystemConfig.scaled(16)))
        finally:
            runner.close()

    def test_corrupt_replay_artifact_is_quarantined(self, tmp_path, monkeypatch):
        clean = self._run_sweep(tmp_path / "clean", None, monkeypatch)
        faulted = self._run_sweep(
            tmp_path / "faulted", "corrupt-artifact:replay", monkeypatch
        )
        # The damaged capture was never trusted: each run captured its own
        # workload in memory instead, with bit-identical results.
        assert faulted == clean
        held = quarantined_artifacts(tmp_path / "faulted" / "traces")
        assert any(p.name.startswith("replay-") for p in held)

    def test_recapture_after_quarantine(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        self._run_sweep(root, "corrupt-artifact:replay", monkeypatch)
        # Fault lifted: a fresh sweep re-captures past the quarantined
        # artifact and the new artifact verifies clean.  (Drop the stored
        # results so the sweep re-executes instead of hitting the store.)
        from repro.runner.integrity import verify_artifact

        for result_file in root.glob("*/*.json"):
            result_file.unlink()
        self._run_sweep(root, None, monkeypatch)
        fresh = list((root / "traces").glob("replay-*.npz"))
        assert fresh and all(verify_artifact(p) is True for p in fresh)


class TestRunnerLifecycle:
    def test_close_reclaims_temporary_trace_dir(self, tiny_config):
        import os

        runner = ParallelRunner(jobs=1)
        runner.traces_root()  # force the tmpdir into existence
        tmpdir = runner._trace_tmpdir.name
        assert os.path.isdir(tmpdir)
        runner.close()
        assert not os.path.isdir(tmpdir)
        # Idempotent, and usable as a context manager.
        runner.close()
        with ParallelRunner(jobs=1) as ctx:
            assert ctx is not None
