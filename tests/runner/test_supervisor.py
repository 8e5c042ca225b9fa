"""Unit tests for the supervised future-per-job scheduler.

Toy jobs (integers doubled by picklable module-level workers) isolate the
scheduling semantics — retry, quarantine, pool-crash recovery, timeouts,
inline degradation — from the simulation stack.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.runner.supervisor import FailureRecord, RetryPolicy, Supervisor

#: Fast-retry policy so tests never wait on real backoff.
FAST = RetryPolicy(max_retries=2, backoff_base=0.001, backoff_cap=0.01)


# -- picklable worker entry points (pool workers re-import this module) --------


def _echo(task):
    key, job, attempt = task
    return {"value": job * 2}


def _fail_first(task):
    key, job, attempt = task
    if attempt == 0:
        raise RuntimeError("transient")
    return {"value": job * 2}


def _always_fail(task):
    raise RuntimeError("poison")


def _die_first(task):
    key, job, attempt = task
    if attempt == 0:
        os._exit(3)
    return {"value": job * 2}


def _die_always(task):
    os._exit(3)


def _sleep_first(task):
    key, job, attempt = task
    if attempt == 0:
        time.sleep(1.5)
    return {"value": job * 2}


def _run(supervisor, misses, worker_fn):
    """Drive run_jobs to completion; returns {key: outcome}."""
    outcomes = {}
    try:
        for key, job, outcome in supervisor.run_jobs(
            misses,
            worker_fn=worker_fn,
            task_for=lambda key, job, attempt: (key, job, attempt),
            inline_fn=lambda key, job: job * 2,
            decode=lambda job, data: data["value"],
        ):
            outcomes[key] = outcome
    finally:
        supervisor.shutdown(cancel=True)
    return outcomes


MISSES = [("a", 1), ("b", 2), ("c", 3), ("d", 4)]
EXPECTED = {"a": 2, "b": 4, "c": 6, "d": 8}


class TestPoolScheduling:
    def test_completion_ordered_collection(self):
        outcomes = _run(Supervisor(workers=2, policy=FAST), MISSES, _echo)
        assert outcomes == EXPECTED

    def test_transient_failures_are_retried(self):
        supervisor = Supervisor(workers=2, policy=FAST)
        outcomes = _run(supervisor, MISSES, _fail_first)
        assert outcomes == EXPECTED
        assert supervisor.stats["retried"] == len(MISSES)

    def test_poison_jobs_are_quarantined_not_raised(self):
        supervisor = Supervisor(
            workers=2, policy=RetryPolicy(max_retries=1, backoff_base=0.001)
        )
        outcomes = _run(supervisor, MISSES, _always_fail)
        assert set(outcomes) == set(EXPECTED)
        for key, outcome in outcomes.items():
            assert isinstance(outcome, FailureRecord)
            assert outcome.key == key
            assert outcome.kind == "crash"
            assert outcome.attempts == 2  # 1 try + 1 retry
            assert "poison" in outcome.error

    def test_broken_pool_is_rebuilt_and_jobs_requeued(self):
        supervisor = Supervisor(workers=2, policy=FAST)
        outcomes = _run(supervisor, MISSES, _die_first)
        assert outcomes == EXPECTED
        assert supervisor.stats["pool_rebuilds"] >= 1

    def test_degrades_to_inline_when_pool_keeps_dying(self):
        supervisor = Supervisor(
            workers=2,
            policy=RetryPolicy(
                max_retries=8, backoff_base=0.001, max_pool_rebuilds=1
            ),
        )
        # The pool worker always dies; the inline fallback in the parent
        # cannot, so the batch still completes.
        outcomes = _run(supervisor, MISSES, _die_always)
        assert outcomes == EXPECTED
        assert supervisor.stats["pool_rebuilds"] == 2  # 1 tolerated + the last straw

    def test_one_pool_per_batch(self, monkeypatch):
        import concurrent.futures

        created = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        # The supervisor imports the executor when it creates a pool.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        supervisor = Supervisor(workers=2, policy=FAST)
        assert _run(supervisor, MISSES, _echo) == EXPECTED
        assert created == [2]

    @pytest.mark.slow
    def test_wall_clock_timeout_fails_the_hung_job(self):
        supervisor = Supervisor(
            workers=2,
            policy=RetryPolicy(
                max_retries=1, job_timeout=0.3, backoff_base=0.001
            ),
        )
        outcomes = _run(supervisor, [("a", 1), ("b", 2)], _sleep_first)
        assert outcomes == {"a": 2, "b": 4}
        assert supervisor.stats["timeouts"] >= 1
        # A hung worker is unreclaimable: the pool was abandoned.
        assert supervisor.stats["pool_rebuilds"] >= 1


class TestPoolLifecycle:
    def test_empty_batch_yields_nothing(self):
        supervisor = Supervisor(workers=2, policy=FAST)
        assert _run(supervisor, [], _echo) == {}
        assert supervisor.stats == {"retried": 0, "timeouts": 0, "pool_rebuilds": 0}

    def test_shutdown_is_idempotent_and_pool_recreated_lazily(self):
        supervisor = Supervisor(workers=2, policy=FAST)
        first = supervisor.pool
        assert first is not None and supervisor.pool is first
        supervisor.shutdown()
        supervisor.shutdown()
        second = supervisor.pool
        try:
            assert second is not None and second is not first
        finally:
            supervisor.shutdown(cancel=True)

    def test_degraded_supervisor_stays_inline(self):
        supervisor = Supervisor(
            workers=2,
            policy=RetryPolicy(max_retries=8, backoff_base=0.001, max_pool_rebuilds=0),
        )
        assert _run(supervisor, MISSES, _die_always) == EXPECTED
        assert supervisor.stats["pool_rebuilds"] == 1
        # Degradation persists: the next batch never builds a pool.
        assert supervisor.pool is None
        assert _run(supervisor, MISSES, _die_always) == EXPECTED
        assert supervisor.stats["pool_rebuilds"] == 1


class TestInlineScheduling:
    def test_zero_and_negative_workers_run_inline(self):
        for workers in (0, -3):
            supervisor = Supervisor(workers=workers, policy=FAST)
            assert supervisor.workers == 0
            assert supervisor.pool is None
            assert _run(supervisor, MISSES, _echo) == EXPECTED

    def test_single_worker_runs_inline(self):
        supervisor = Supervisor(workers=1, policy=FAST)
        assert supervisor.pool is None
        assert _run(supervisor, MISSES, _echo) == EXPECTED

    def test_inline_faults_retry_then_succeed(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "crash:@0")
        supervisor = Supervisor(workers=1, policy=FAST)
        outcomes = _run(supervisor, MISSES, _echo)
        assert outcomes == EXPECTED
        assert supervisor.stats["retried"] == len(MISSES)

    def test_inline_poison_quarantines(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "poison:a")
        supervisor = Supervisor(workers=1, policy=RetryPolicy(max_retries=0))
        outcomes = _run(supervisor, MISSES, _echo)
        assert isinstance(outcomes["a"], FailureRecord)
        assert outcomes["a"].attempts == 1
        assert {k: v for k, v in outcomes.items() if k != "a"} == {
            "b": 4, "c": 6, "d": 8,
        }


def _slow_cap(task):
    key, job, attempt = task
    if key == "cap-slow":
        time.sleep(0.8)
    return {"value": job * 2}


def _hang_dep(task):
    key, job, attempt = task
    if key == "dep":
        time.sleep(10.0)
    return {"value": job * 2}


def _run_ordered(supervisor, misses, worker_fn, **kwargs):
    """Like :func:`_run`, but preserves yield order."""
    ordered = []
    try:
        for key, job, outcome in supervisor.run_jobs(
            misses,
            worker_fn=worker_fn,
            task_for=lambda key, job, attempt: (key, job, attempt),
            inline_fn=lambda key, job: job * 2,
            decode=lambda job, data: data["value"],
            **kwargs,
        ):
            ordered.append((key, outcome))
    finally:
        supervisor.shutdown(cancel=True)
    return ordered


class TestDependencyEdges:
    def test_dependent_yields_after_dependency(self):
        # Inline scheduling is deterministic: "a" is withheld until its
        # dependency "d" has been *yielded*, so it drains last.
        ordered = _run_ordered(
            Supervisor(workers=1, policy=FAST),
            MISSES,
            _echo,
            dependencies={"a": "d"},
        )
        assert dict(ordered) == EXPECTED
        assert [key for key, _ in ordered] == ["b", "c", "d", "a"]

    def test_pool_withholds_dependents(self):
        ordered = _run_ordered(
            Supervisor(workers=2, policy=FAST),
            MISSES,
            _echo,
            dependencies={"b": "a", "c": "a"},
        )
        assert dict(ordered) == EXPECTED
        keys = [key for key, _ in ordered]
        assert keys.index("a") < keys.index("b")
        assert keys.index("a") < keys.index("c")

    def test_slow_dependency_stalls_only_its_dependents(self):
        # The pipelined-sweep shape: one slow capture, one fast capture,
        # two replays behind each.  The fast sweep must fully complete
        # before the slow capture even finishes — no barrier.
        misses = [
            ("cap-slow", 10),
            ("cap-fast", 20),
            ("a1", 1),
            ("a2", 2),
            ("b1", 3),
            ("b2", 4),
        ]
        deps = {"a1": "cap-slow", "a2": "cap-slow", "b1": "cap-fast", "b2": "cap-fast"}
        ordered = _run_ordered(
            Supervisor(workers=2, policy=FAST), misses, _slow_cap, dependencies=deps
        )
        assert dict(ordered) == {k: v * 2 for k, v in misses}
        keys = [key for key, _ in ordered]
        assert keys.index("b1") < keys.index("cap-slow")
        assert keys.index("b2") < keys.index("cap-slow")
        assert keys.index("cap-slow") < keys.index("a1")
        assert keys.index("cap-slow") < keys.index("a2")

    def test_failed_dependency_still_releases(self, monkeypatch):
        # Edges order work, they never veto it: a quarantined dependency
        # releases its dependents (they just run without its product).
        monkeypatch.setenv("REPRO_FAULT", "poison:d")
        ordered = _run_ordered(
            Supervisor(workers=1, policy=RetryPolicy(max_retries=0)),
            MISSES,
            _echo,
            dependencies={"a": "d"},
        )
        outcomes = dict(ordered)
        assert isinstance(outcomes["d"], FailureRecord)
        assert outcomes["a"] == 2
        keys = [key for key, _ in ordered]
        assert keys.index("d") < keys.index("a")

    @pytest.mark.slow
    def test_hung_dependency_times_out_and_releases(self):
        supervisor = Supervisor(
            workers=2,
            policy=RetryPolicy(max_retries=0, job_timeout=0.4, backoff_base=0.001),
        )
        ordered = _run_ordered(
            supervisor,
            [("dep", 1), ("x", 2), ("y", 3)],
            _hang_dep,
            dependencies={"x": "dep", "y": "dep"},
        )
        outcomes = dict(ordered)
        assert isinstance(outcomes["dep"], FailureRecord)
        assert outcomes["dep"].kind == "timeout"
        assert outcomes["x"] == 4 and outcomes["y"] == 6
        assert supervisor.stats["timeouts"] >= 1

    def test_edges_outside_the_batch_are_ignored(self):
        outcomes = _run_ordered(
            Supervisor(workers=1, policy=FAST),
            MISSES,
            _echo,
            dependencies={"a": "no-such-job", "b": "b"},
        )
        assert dict(outcomes) == EXPECTED

    def test_dependency_cycle_fails_open(self):
        # A cycle can only come from a caller bug; it must degrade to
        # unordered execution, never deadlock the batch.
        outcomes = _run_ordered(
            Supervisor(workers=1, policy=FAST),
            MISSES,
            _echo,
            dependencies={"a": "b", "b": "a"},
        )
        assert dict(outcomes) == EXPECTED


class TestRetryPolicy:
    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "1.5")
        policy = RetryPolicy.from_env()
        assert policy.max_retries == 5
        assert policy.job_timeout == 1.5

    def test_from_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
        monkeypatch.delenv("REPRO_JOB_TIMEOUT", raising=False)
        policy = RetryPolicy.from_env()
        assert policy.max_retries == 2
        assert policy.job_timeout is None

    def test_overrides_layer_on_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        policy = RetryPolicy.from_env().with_overrides(job_timeout=2.0)
        assert policy.max_retries == 5 and policy.job_timeout == 2.0
        # Explicit 0 disables the timeout rather than meaning "instant".
        assert policy.with_overrides(job_timeout=0).job_timeout is None

    def test_from_env_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "many")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "soon")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "fast")
        policy = RetryPolicy.from_env()
        assert policy.max_retries == 2
        assert policy.job_timeout is None
        assert policy.backoff_base == 0.05

    def test_from_env_clamps_negatives(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "-3")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "-1")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "-0.5")
        policy = RetryPolicy.from_env()
        assert policy.max_retries == 0
        assert policy.job_timeout is None
        assert policy.backoff_base == 0.0

    def test_overrides_keep_unset_fields_and_clamp(self):
        policy = RetryPolicy(max_retries=4, job_timeout=3.0)
        assert policy.with_overrides() == policy
        assert policy.with_overrides(max_retries=-2).max_retries == 0

    def test_backoff_doubles_per_attempt(self):
        # Jitter scales each step by [1, 2), so attempt a lands in
        # [base * 2**a, base * 2**(a + 1)) until the cap.
        policy = RetryPolicy(backoff_base=0.01, backoff_cap=100.0)
        for attempt in range(8):
            delay = policy.backoff("key", attempt)
            assert 0.01 * 2**attempt <= delay < 0.01 * 2 ** (attempt + 1)

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_cap=2.0)
        assert policy.backoff("key", 1) == policy.backoff("key", 1)
        assert policy.backoff("key", 1) != policy.backoff("other", 1)
        assert all(policy.backoff("key", a) <= 2.0 for a in range(12))

    def test_failure_record_roundtrip(self):
        record = FailureRecord(key="k", kind="timeout", attempts=3, error="e")
        assert FailureRecord.from_dict(record.to_dict()) == record

    def test_failure_record_error_defaults_to_empty(self):
        record = FailureRecord.from_dict({"key": "k", "kind": "pool", "attempts": 1})
        assert record.error == ""
