"""End-to-end tests of the dependency-edged capture→replay pipeline.

The load-bearing properties: pipelined and replay-disabled runs are
bit-identical, inline and pooled; a failed capture costs only its
sweep's replay kernel (never a result); a sweep loads its artifact
once, observably via ``runner.stats``; and only the capture generates
the sweep's traces.
"""

from __future__ import annotations

import pytest

from repro.runner import ParallelRunner, WorkloadJob
from repro.runner import replaystore
from repro.runner.supervisor import RetryPolicy
from repro.trace.workloads import Workload

QUOTA = 400
WARMUP = 100
MIXES = {"thrash": ("mcf", "libq"), "friendly": ("gcc", "calc")}


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Per-test isolation for the process-local replay bundle cache."""
    replaystore._BUNDLES.clear()
    replaystore.clear_replay_manifest()
    yield
    replaystore._BUNDLES.clear()
    replaystore.clear_replay_manifest()


def _sweep(config, policies, mixes=("thrash",), seed=0):
    return [
        WorkloadJob.for_workload(
            Workload(name, MIXES[name]),
            config.with_cores(len(MIXES[name])),
            policy,
            quota=QUOTA,
            warmup=WARMUP,
            master_seed=seed,
        )
        for name in mixes
        for policy in policies
    ]


def _run(jobs, *, n=1, retry=None):
    with ParallelRunner(jobs=n, retry=retry) as runner:
        results = runner.run(jobs)
    return results, runner


class TestPipelinedEquivalence:
    def test_pipelined_matches_fused(self, tiny_config, monkeypatch):
        jobs = _sweep(tiny_config, ("lru", "adapt"), mixes=("thrash", "friendly"))

        pipelined, runner = _run(jobs)
        assert runner.stats["executed"] == len(jobs)
        assert runner.stats["failed"] == 0

        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        fused, _ = _run(jobs)

        assert pipelined == fused

    @pytest.mark.slow
    def test_pool_run_matches_fused(self, tiny_config, monkeypatch):
        jobs = _sweep(tiny_config, ("lru", "ship", "adapt"), mixes=("thrash", "friendly"))
        pooled, runner = _run(jobs, n=2)
        assert runner.stats["failed"] == 0

        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        fused, _ = _run(jobs)

        assert pooled == fused

    def test_mixed_batch_matches_fused_inline(self, tiny_config, monkeypatch):
        # A swept mix alongside an unswept one: only the sweep replays.
        jobs = _sweep(tiny_config, ("lru", "ship")) + _sweep(
            tiny_config, ("adapt",), mixes=("friendly",)
        )
        pipelined, runner = _run(jobs)
        assert runner.stats["bundle_loads"] == 1
        assert runner.stats["executed"] == len(jobs)

        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        fused, _ = _run(jobs)

        assert pipelined == fused


class TestCaptureFailureDegradation:
    def test_poisoned_capture_costs_only_the_replay_kernel(
        self, tiny_config, monkeypatch
    ):
        from repro.cpu.capture import replay_slack
        from repro.runner.replaystore import replay_key
        from repro.sim.build import capture_identity

        jobs = _sweep(tiny_config, ("lru", "adapt"), mixes=("thrash", "friendly"))
        thrash = next(job for job in jobs if job.workload_name == "thrash")
        identity = capture_identity(
            thrash.benchmarks, thrash.config, QUOTA, WARMUP, thrash.master_seed
        )
        # The fault grammar splits on ":", so match on the hex key alone —
        # it only ever appears in the capture job's "capture:<key>" key.
        ckey = replay_key(identity, replay_slack())

        monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        fused, _ = _run(jobs)
        monkeypatch.delenv("REPRO_NO_REPLAY")

        # Poison exactly the thrash sweep's capture job: it quarantines,
        # its replays degrade to the fused kernel, and the friendly sweep
        # pipelines normally.  Zero lost cells, bit-identical results.
        monkeypatch.setenv("REPRO_FAULT", "poison:" + ckey[:24])
        poisoned, runner = _run(
            jobs, retry=RetryPolicy(max_retries=0, backoff_base=0.001)
        )
        assert poisoned == fused
        assert all(result is not None for result in poisoned)
        # Capture failures are folded away, never surfaced as job failures.
        assert runner.stats["failed"] == 0
        assert runner.last_failures == []


class TestBundleCache:
    def test_sweep_loads_each_artifact_once(self, tiny_config):
        # Inline 8-policy sweep: one artifact, so one bundle load; every
        # other policy hits the process-local bundle cache.
        policies = ("lru", "ship", "adapt", "srrip", "brrip", "dip", "eaf", "lip")
        jobs = _sweep(tiny_config, policies)
        results, runner = _run(jobs)
        assert all(result is not None for result in results)
        assert runner.stats["executed"] == len(jobs)
        assert runner.stats["bundle_loads"] == 1

    def test_two_sweeps_load_two_artifacts(self, tiny_config):
        jobs = _sweep(tiny_config, ("lru", "ship"), mixes=("thrash", "friendly"))
        results, runner = _run(jobs)
        assert all(result is not None for result in results)
        assert runner.stats["bundle_loads"] == 2

    def test_each_seed_is_its_own_artifact(self, tiny_config):
        jobs = _sweep(tiny_config, ("lru", "ship")) + _sweep(
            tiny_config, ("lru", "ship"), seed=1
        )
        results, runner = _run(jobs)
        assert all(result is not None for result in results)
        assert runner.stats["executed"] == len(jobs)
        assert runner.stats["bundle_loads"] == 2

    def test_unswept_batch_loads_nothing(self, tiny_config):
        jobs = _sweep(tiny_config, ("lru",), mixes=("thrash", "friendly"))
        results, runner = _run(jobs)
        assert all(result is not None for result in results)
        assert runner.stats["bundle_loads"] == 0


class TestTraceReads:
    def test_sweep_width_adds_no_trace_generation(self, tiny_config, monkeypatch):
        """Only the capture reads a sweep's traces: widening the sweep
        adds replays, never a generated trace chunk."""
        from repro.trace.benchmarks import TraceSource

        chunks: dict[tuple, int] = {}
        refill = TraceSource._refill

        def counting(source):
            ident = (source.spec.name, source.core_id)
            chunks[ident] = chunks.get(ident, 0) + 1
            refill(source)

        monkeypatch.setattr(TraceSource, "_refill", counting)
        _run(_sweep(tiny_config, ("lru", "ship")))
        narrow = dict(chunks)
        chunks.clear()
        _run(_sweep(tiny_config, ("lru", "ship", "adapt", "srrip", "eaf")))
        assert narrow and chunks == narrow

    def test_no_cache_captures_outside_the_store(self, tiny_config, tmp_path):
        # ``--no-cache`` promises the store is neither read nor written;
        # captures then live in a runner-lifetime temporary directory.
        from repro.runner import ResultStore

        runner = ParallelRunner(jobs=1, store=ResultStore(tmp_path), use_cache=False)
        runner.run(_sweep(tiny_config, ("lru", "ship")))
        tmpdir = runner.traces_root()
        assert list(tmpdir.glob("replay-*.npz"))
        assert not (tmp_path / "traces").exists()
        runner.close()
        assert not tmpdir.exists()
