"""End-to-end tests of the dependency-edged capture→replay pipeline.

The load-bearing properties: pipelined runs are bit-identical to direct
``job.execute()`` calls (each capturing its own workload in memory),
inline and pooled; each swept job is
handed exactly its own sweep's artifact path, and every other job none;
a failed capture is retried like any job and then costs only its
sweep's replay kernel (never a result); a sweep loads its artifact
once, observably via ``runner.stats``; and only the capture generates
the sweep's traces.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import settings
from repro.cpu.capture import job_identity
from repro.runner import AloneJob, ParallelRunner, ResultStore, WorkloadJob
from repro.runner import parallel, replaystore
from repro.runner.replaystore import ReplayStore, replay_key
from repro.runner.supervisor import RetryPolicy, Supervisor
from repro.trace.workloads import Workload

QUOTA = 400
WARMUP = 100
MIXES = {"thrash": ("mcf", "libq"), "friendly": ("gcc", "calc")}


#: Fast-retry policy so no test waits on real backoff.
FAST_RETRY = RetryPolicy(max_retries=1, backoff_base=0.001)


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Per-test isolation for the process-local replay bundle cache."""
    replaystore._BUNDLES.clear()
    yield
    replaystore._BUNDLES.clear()


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


def _direct(jobs):
    """The reference: every job executed directly, with its own capture."""
    return [job.execute() for job in jobs]


def _artifact(root, job) -> str:
    """The path the parent plans for *job*'s sweep under *root*."""
    identity = job_identity(
        job.benchmarks, job.config, job.quota, job.warmup, job.master_seed
    )
    return str(ReplayStore(root).path_for(replay_key(identity)))


def _record_routes(monkeypatch, n: int) -> dict:
    """Record the capture path handed to every sim job, keyed by cache key.

    Inline, the parent calls ``_run_sim`` itself; pooled, the parent
    builds each sim task through the supervisor's ``task_for`` hook.
    """
    handed: dict[str, str | None] = {}
    if n == 1:
        run_sim = parallel._run_sim

        def spy(job, capture):
            handed[job.cache_key()] = capture
            return run_sim(job, capture)

        monkeypatch.setattr(parallel, "_run_sim", spy)
        return handed
    run_jobs = Supervisor.run_jobs

    def spy_run_jobs(self, misses, *, task_for, **kwargs):
        def recording(key, job, attempt):
            task = task_for(key, job, attempt)
            if task[0] == "sim":
                handed[key] = task[1][1]
            return task

        return run_jobs(self, misses, task_for=recording, **kwargs)

    monkeypatch.setattr(Supervisor, "run_jobs", spy_run_jobs)
    return handed


class TestPipelinedEquivalence:
    def test_pipelined_matches_direct(self, tiny_config):
        jobs = _sweep(tiny_config, ("lru", "adapt"), mixes=("thrash", "friendly"))

        pipelined, runner = _run(jobs)
        assert runner.stats["executed"] == len(jobs)
        assert runner.stats["failed"] == 0
        assert runner.stats["bundle_loads"] == 2

        assert pipelined == _direct(jobs)

    @pytest.mark.slow
    def test_pool_run_matches_direct(self, tiny_config):
        jobs = _sweep(tiny_config, ("lru", "ship", "adapt"), mixes=("thrash", "friendly"))
        pooled, runner = _run(jobs, n=2)
        assert runner.stats["failed"] == 0
        assert runner.stats["bundle_loads"] >= 2

        assert pooled == _direct(jobs)

    def test_mixed_batch_matches_direct_inline(self, tiny_config):
        # A swept mix alongside an unswept one: only the sweep replays.
        jobs = _sweep(tiny_config, ("lru", "ship")) + _sweep(
            tiny_config, ("adapt",), mixes=("friendly",)
        )
        pipelined, runner = _run(jobs)
        assert runner.stats["bundle_loads"] == 1
        assert runner.stats["executed"] == len(jobs)

        assert pipelined == _direct(jobs)


class TestRouting:
    """Each sim task carries one explicit capture path — or ``None``."""

    @pytest.mark.parametrize("n", [1, 2], ids=["inline", "pool"])
    def test_each_swept_job_gets_its_own_sweeps_path(self, tiny_config, monkeypatch, n):
        swept = _sweep(tiny_config, ("lru", "ship"), mixes=("thrash", "friendly"))
        unswept = _sweep(tiny_config, ("adapt",), mixes=("friendly",), seed=1)
        alone = AloneJob(
            benchmark="mcf", config=tiny_config.with_cores(1), policy="lru",
            quota=QUOTA, warmup=WARMUP, master_seed=0,
        )
        jobs = swept + unswept + [alone]
        handed = _record_routes(monkeypatch, n)
        with ParallelRunner(jobs=n) as runner:
            results = runner.run(jobs)
            root = runner.traces_root()
            expected = {job.cache_key(): _artifact(root, job) for job in swept}
            expected.update({job.cache_key(): None for job in unswept + [alone]})
            assert handed == expected
            # The two sweeps' paths are distinct, and each was written.
            assert len({expected[job.cache_key()] for job in swept}) == 2
            assert all(Path(expected[job.cache_key()]).is_file() for job in swept)
        assert results == _direct(jobs)

    @pytest.mark.parametrize("use_cache", [True, False], ids=["store", "no-cache"])
    def test_planned_path_is_the_materialised_path(self, tiny_config, tmp_path, use_cache):
        jobs = _sweep(tiny_config, ("lru", "ship"))
        with ParallelRunner(jobs=1, store=ResultStore(tmp_path), use_cache=use_cache) as runner:
            capture_jobs, routes = runner._plan_captures(
                [(j.cache_key(), j) for j in jobs], settings.read()
            )
            [(ckey, payload)] = capture_jobs
            root = tmp_path / "traces" if use_cache else runner.traces_root()
            path = _artifact(root, jobs[0])
            assert set(routes.values()) == {(ckey, path)}
            assert ckey == "capture:" + Path(path).stem.removeprefix("replay-")
            assert str(parallel._materialise_capture(payload)) == path

    def test_warm_artifact_is_handed_out_again(self, tiny_config, tmp_path, monkeypatch):
        """A later batch on the same store reuses the sweep's artifact: the
        capture job finds the file, and the new policies get its path."""
        store = ResultStore(tmp_path)
        ParallelRunner(jobs=1, store=store).run(_sweep(tiny_config, ("lru", "ship")))
        expected = _artifact(tmp_path / "traces", _sweep(tiny_config, ("lru",))[0])
        mtime = Path(expected).stat().st_mtime_ns
        jobs = _sweep(tiny_config, ("adapt", "srrip"))
        handed = _record_routes(monkeypatch, 1)
        replaystore._BUNDLES.clear()  # as in a fresh invocation
        runner = ParallelRunner(jobs=1, store=store)
        assert runner.run(jobs) == _direct(jobs)
        assert set(handed.values()) == {expected}
        assert Path(expected).stat().st_mtime_ns == mtime
        assert runner.stats["bundle_loads"] == 1

    @pytest.mark.parametrize("n", [1, 2], ids=["inline", "pool"])
    def test_runners_with_different_stores_stay_apart(
        self, tiny_config, tmp_path, monkeypatch, n
    ):
        """Two runners in one process never see each other's captures:
        each hands out (and, inline, loads) only paths under its own
        store."""
        loaded = []
        load_bundle = replaystore.load_bundle

        def spy(path):
            loaded.append(str(path))
            return load_bundle(path)

        monkeypatch.setattr(replaystore, "load_bundle", spy)
        jobs = _sweep(tiny_config, ("lru", "ship"))
        handed = _record_routes(monkeypatch, n)
        seen = {}
        for name in ("a", "b"):
            loaded.clear()
            handed.clear()
            root = tmp_path / name
            runner = ParallelRunner(jobs=n, store=ResultStore(root))
            results = runner.run(jobs)
            expected = _artifact(root / "traces", jobs[0])
            assert set(handed.values()) == {expected}
            assert loaded == ([expected] if n == 1 else [])
            assert runner.stats["bundle_loads"] >= 1
            seen[name] = results
        assert seen["a"] == seen["b"] == _direct(jobs)


class TestCaptureFailureDegradation:
    @pytest.mark.parametrize("n", [1, 2], ids=["inline", "pool"])
    def test_poisoned_capture_costs_only_the_replay_kernel(
        self, tiny_config, monkeypatch, n
    ):
        jobs = _sweep(tiny_config, ("lru", "adapt"), mixes=("thrash", "friendly"))
        thrash = next(job for job in jobs if job.workload_name == "thrash")
        identity = job_identity(
            thrash.benchmarks, thrash.config, QUOTA, WARMUP, thrash.master_seed
        )
        # The fault grammar splits on ":", so match on the hex key alone —
        # it only ever appears in the capture job's "capture:<key>" key.
        ckey = replay_key(identity)

        loaded = []
        load_bundle = replaystore.load_bundle

        def spy(path):
            loaded.append(str(path))
            return load_bundle(path)

        monkeypatch.setattr(replaystore, "load_bundle", spy)
        handed = _record_routes(monkeypatch, n)

        # Poison exactly the thrash sweep's capture job: it is retried,
        # quarantines, and its runs get no path (each captures its own);
        # the friendly sweep pipelines normally.  Zero lost cells,
        # bit-identical results.
        monkeypatch.setenv("REPRO_FAULT", "poison:" + ckey[:24])
        poisoned, runner = _run(jobs, n=n, retry=FAST_RETRY)
        assert poisoned == _direct(jobs)
        assert all(result is not None for result in poisoned)
        assert runner.stats["retried"] == 1
        thrash_keys = {j.cache_key() for j in jobs if j.workload_name == "thrash"}
        assert {handed[key] for key in thrash_keys} == {None}
        assert all(handed[j.cache_key()] for j in jobs if j.cache_key() not in thrash_keys)
        # Capture failures are folded away, never surfaced as job failures.
        assert runner.stats["failed"] == 0
        assert runner.last_failures == []
        # The poisoned sweep never touches an artifact (inline, every
        # load happens in this process).
        if n == 1:
            assert loaded and not any(ckey in path for path in loaded)

    @pytest.mark.parametrize("n", [1, 2], ids=["inline", "pool"])
    def test_raising_capture_is_retried_then_runs_unshared(
        self, tiny_config, monkeypatch, n
    ):
        """A capture that raises inside ``materialise`` fails like any job,
        inline and pooled alike: retried, then quarantined, and each run
        of its sweep captures its own workload in memory."""

        def broken(self, *args):
            raise OSError("disk full")

        monkeypatch.setattr(ReplayStore, "materialise", broken)
        jobs = _sweep(tiny_config, ("lru", "ship"))
        handed = _record_routes(monkeypatch, n)
        results, runner = _run(jobs, n=n, retry=FAST_RETRY)
        assert results == _direct(jobs)
        assert runner.stats["retried"] == 1
        assert runner.stats["failed"] == 0
        assert set(handed.values()) == {None}

    @pytest.mark.parametrize("n", [1, 2], ids=["inline", "pool"])
    def test_transient_capture_failure_is_retried_and_replays(
        self, tiny_config, tmp_path, monkeypatch, n
    ):
        marker = tmp_path / "failed-once"
        materialise = ReplayStore.materialise

        def flaky(self, *args):
            if not marker.exists():
                marker.touch()
                raise OSError("transient")
            return materialise(self, *args)

        monkeypatch.setattr(ReplayStore, "materialise", flaky)
        jobs = _sweep(tiny_config, ("lru", "ship"))
        handed = _record_routes(monkeypatch, n)
        with ParallelRunner(jobs=n, retry=FAST_RETRY) as runner:
            results = runner.run(jobs)
            expected = _artifact(runner.traces_root(), jobs[0])
        assert marker.exists()
        assert runner.stats["retried"] == 1
        assert set(handed.values()) == {expected}
        assert runner.stats["bundle_loads"] >= 1
        assert results == _direct(jobs)


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
