"""Supervised future-per-job scheduling with explicit failure semantics.

:class:`Supervisor` replaces the one-shot ``pool.map`` execution model:
every job is submitted individually and collected in completion order,
so one failure costs one job, never the batch.  Failure handling is
explicit and bounded:

* **retry with backoff** — a failed attempt is requeued after an
  exponential backoff with deterministic jitter, up to
  :attr:`RetryPolicy.max_retries` retries;
* **wall-clock timeouts** — a job observed running past
  :attr:`RetryPolicy.job_timeout` is treated as failed; the pool is
  abandoned (a hung worker cannot be reclaimed), every other in-flight
  job is requeued *without* charging it an attempt, and a fresh pool
  takes over;
* **poison quarantine** — a job that exhausts its attempts yields a
  structured :class:`FailureRecord` instead of raising, so the batch
  returns partial results plus an explicit failure report;
* **pool crash recovery** — ``BrokenProcessPool`` (a worker died:
  SIGKILL, OOM, ``os._exit``) requeues all in-flight jobs and rebuilds
  the pool; after :attr:`RetryPolicy.max_pool_rebuilds` rebuilds the
  supervisor degrades to inline execution in the parent, which cannot
  lose the batch.

**Dependency edges** serve the capture→replay flow:
:meth:`Supervisor.run_jobs` accepts a ``dependencies`` map (job key →
key of another job in the batch); a dependent job is withheld until its
dependency's outcome has been *yielded*, success or quarantine alike
(edges order work, they never veto it), so the caller can fold the
dependency's product into the dependent's payload before it is built.

Every worker starts with the batch's :class:`~repro.settings.Settings`
record installed (the pool initializer), and reads no environment of its
own; each sim task payload carries the rest of what its job needs
(including its sweep's replay-artifact path).  A rebuilt pool gets the
same record, so a fresh worker is ready on its first task.

Inline execution (``workers <= 1``, single-job batches, or a degraded
pool) goes through the same retry/quarantine path, with the same record
installed around each job; only timeouts are unenforceable inline
(nothing can preempt the parent).
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterator
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro import settings
from repro.runner import faults

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Poll interval while waiting for queued futures to start running (their
#: wall-clock deadline starts at first observed execution, not at submit).
_DEADLINE_POLL = 0.05
#: Longest idle sleep while only backoff timers are pending.
_IDLE_SLEEP = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """Failure-handling knobs of one supervised batch."""

    #: Retries after the first attempt (so ``max_retries + 1`` attempts).
    max_retries: int = 2
    #: Per-job wall-clock limit in seconds; ``None`` disables timeouts.
    job_timeout: float | None = None
    #: First backoff step; doubles per attempt, plus deterministic jitter.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Pool rebuilds tolerated before degrading to inline execution.
    max_pool_rebuilds: int = 2

    @staticmethod
    def from_env() -> "RetryPolicy":
        """``REPRO_MAX_RETRIES`` / ``REPRO_JOB_TIMEOUT`` / ``REPRO_RETRY_BACKOFF``."""
        record = settings.current()
        return RetryPolicy(
            max_retries=record.max_retries,
            job_timeout=record.job_timeout,
            backoff_base=record.retry_backoff,
        )

    def with_overrides(
        self, *, max_retries: int | None = None, job_timeout: float | None = None
    ) -> "RetryPolicy":
        """CLI-flag layering: only explicitly given values override."""
        policy = self
        if max_retries is not None:
            policy = replace(policy, max_retries=max(0, max_retries))
        if job_timeout is not None:
            policy = replace(policy, job_timeout=job_timeout if job_timeout > 0 else None)
        return policy

    def backoff(self, key: str, attempt: int) -> float:
        """Exponential backoff with deterministic jitter for one retry."""
        jitter = 1.0 + faults.unit_draw("backoff", key, attempt)
        return min(self.backoff_cap, self.backoff_base * (2.0**attempt) * jitter)


@dataclass(frozen=True)
class FailureRecord:
    """One job that exhausted its attempts — the structured quarantine entry."""

    key: str
    #: ``crash`` (worker exception), ``timeout`` (wall clock), ``pool``
    #: (worker process died).
    kind: str
    attempts: int
    error: str

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "kind": self.kind,
            "attempts": self.attempts,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FailureRecord":
        return cls(
            key=data["key"],
            kind=data["kind"],
            attempts=data["attempts"],
            error=data.get("error", ""),
        )


class _Retry:
    """Internal outcome: requeue after *delay* seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        self.delay = delay


class Supervisor:
    """One batch's pool owner and failure-handling scheduler.

    Parameters
    ----------
    workers:
        Worker-process budget; ``<= 1`` means pure inline execution.
    policy:
        The batch's :class:`RetryPolicy`.
    record:
        The batch's :class:`~repro.settings.Settings`, installed in every
        worker and around every inline job (``None``: read now).
    """

    #: Time source for deadlines and backoff timers.  Tests substitute a
    #: virtual clock so timeout behaviour never races the wall clock.
    clock = staticmethod(time.monotonic)

    def __init__(
        self,
        workers: int,
        policy: RetryPolicy | None = None,
        record: settings.Settings | None = None,
    ) -> None:
        self.workers = max(0, workers)
        self.record = record or settings.current()
        self.policy = policy or RetryPolicy.from_env()
        self._pool: ProcessPoolExecutor | None = None
        self._degraded = self.workers <= 1
        self.stats = {"retried": 0, "timeouts": 0, "pool_rebuilds": 0}

    # -- pool lifecycle ----------------------------------------------------------

    @property
    def pool(self) -> ProcessPoolExecutor | None:
        """The live executor — created lazily, ``None`` once degraded."""
        if self._degraded:
            return None
        if self._pool is None:
            # Imported here: multiprocessing costs every command that never
            # forks (a warm store, an inline run) its import time.
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=settings.install,
                initargs=(self.record,),
            )
        return self._pool

    def shutdown(self, *, cancel: bool = False) -> None:
        """Release the pool; *cancel* drops queued work instead of draining
        it (the error path must not block behind a failing batch)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=not cancel, cancel_futures=cancel)

    def _discard_pool(self) -> None:
        """Abandon the current pool (broken, or holding a hung worker)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self.stats["pool_rebuilds"] += 1
        if self.stats["pool_rebuilds"] > self.policy.max_pool_rebuilds:
            self._degraded = True

    # -- supervised job execution ------------------------------------------------

    def run_jobs(
        self,
        misses: list[tuple[str, object]],
        *,
        worker_fn: Callable,
        task_for: Callable[[str, object, int], object],
        inline_fn: Callable[[str, object], object],
        decode: Callable[[object, object], object],
        dependencies: dict[str, str] | None = None,
    ) -> Iterator[tuple[str, object, object]]:
        """Execute every ``(key, job)``; yield ``(key, job, outcome)`` in
        completion order, where *outcome* is a decoded result or a
        :class:`FailureRecord`.

        *worker_fn* is the picklable pool entry point, *task_for* builds
        its payload per attempt, *inline_fn* executes one job in the
        parent, *decode* turns a worker's wire dict into a result object.

        *dependencies* maps a job key to the key of another job in the
        same batch: the dependent is withheld until the dependency's
        outcome has been yielded — success or quarantine alike (edges
        order work, they never veto it), so *task_for* runs after the
        caller has seen the dependency's product.  Edges pointing outside
        the batch (or at the job itself) are ignored.
        """
        keys = {key for key, _ in misses}
        deps = {
            key: dep
            for key, dep in (dependencies or {}).items()
            if key in keys and dep in keys and dep != key
        }
        blocked: dict[str, list[tuple[str, object, int]]] = {}
        queue: deque[tuple[str, object, int]] = deque()
        for key, job in misses:
            dep = deps.get(key)
            if dep is None:
                queue.append((key, job, 0))
            else:
                blocked.setdefault(dep, []).append((key, job, 0))

        def release(done_key: str) -> None:
            for entry in blocked.pop(done_key, ()):
                queue.append(entry)

        waiting: list[tuple[float, str, object, int]] = []
        active: dict[Future, list] = {}  # future -> [key, job, attempt, deadline]
        while queue or waiting or active or blocked:
            if blocked and not (queue or waiting or active):
                # Fail-open: a dangling edge (dependency yielded before
                # its dependents were registered, or a logic error in the
                # caller's map) must never deadlock the batch.
                for entries in list(blocked.values()):
                    queue.extend(entries)
                blocked.clear()
                continue
            now = self.clock()
            if waiting:
                due = [entry for entry in waiting if entry[0] <= now]
                if due:
                    waiting = [entry for entry in waiting if entry[0] > now]
                    for _, key, job, attempt in due:
                        queue.append((key, job, attempt))
            pool = self.pool
            if pool is None:
                # Inline (or degraded) mode: one due job at a time, same
                # retry/quarantine path, no preemption so no timeouts.
                if queue:
                    key, job, attempt = queue.popleft()
                    outcome = self._inline_attempt(inline_fn, key, job, attempt)
                    if isinstance(outcome, _Retry):
                        waiting.append(
                            (self.clock() + outcome.delay, key, job, attempt + 1)
                        )
                    else:
                        yield key, job, outcome
                        release(key)
                elif waiting:
                    self._sleep_until(min(entry[0] for entry in waiting))
                continue
            broken = False
            while queue:
                key, job, attempt = queue.popleft()
                try:
                    future = pool.submit(worker_fn, task_for(key, job, attempt))
                except BrokenExecutor:  # BrokenProcessPool: a worker died
                    queue.appendleft((key, job, attempt))
                    broken = True
                    break
                active[future] = [key, job, attempt, None]
            if broken:
                self._requeue_in_flight(active, queue, charge_attempt=True)
                continue
            if not active:
                if waiting:
                    self._sleep_until(min(entry[0] for entry in waiting))
                continue
            timeout = self._wait_timeout(active, waiting)
            done, _ = wait(set(active), timeout=timeout, return_when=FIRST_COMPLETED)
            for future in done:
                key, job, attempt, _ = active.pop(future)
                exc = future.exception()
                if exc is None:
                    yield key, job, decode(job, future.result())
                    release(key)
                    continue
                if isinstance(exc, BrokenExecutor):
                    broken = True
                    queue.append((key, job, attempt + 1))
                    continue
                outcome = self._after_failure(key, attempt, "crash", repr(exc))
                if isinstance(outcome, _Retry):
                    waiting.append(
                        (self.clock() + outcome.delay, key, job, attempt + 1)
                    )
                else:
                    yield key, job, outcome
                    release(key)
            if broken:
                self._requeue_in_flight(active, queue, charge_attempt=True)
                continue
            if self.policy.job_timeout is None or not active:
                continue
            now = self.clock()
            expired = [
                future
                for future, flight in active.items()
                if flight[3] is not None and now >= flight[3]
            ]
            if not expired:
                continue
            self.stats["timeouts"] += len(expired)
            for future in expired:
                key, job, attempt, _ = active.pop(future)
                future.cancel()
                outcome = self._after_failure(
                    key,
                    attempt,
                    "timeout",
                    f"exceeded {self.policy.job_timeout:g}s wall clock",
                )
                if isinstance(outcome, _Retry):
                    waiting.append(
                        (self.clock() + outcome.delay, key, job, attempt + 1)
                    )
                else:
                    yield key, job, outcome
                    release(key)
            # A hung worker cannot be reclaimed: abandon the pool, requeue
            # every other in-flight job without charging it an attempt.
            self._requeue_in_flight(active, queue, charge_attempt=False)

    # -- internals ---------------------------------------------------------------

    def _wait_timeout(self, active: dict, waiting: list) -> float | None:
        """How long ``wait`` may block before a deadline or retry is due."""
        timeout: float | None = None
        now = self.clock()
        if self.policy.job_timeout is not None:
            deadline_pending = False
            deadlines = []
            for future, flight in active.items():
                if flight[3] is None:
                    if future.running():
                        flight[3] = now + self.policy.job_timeout
                        deadlines.append(flight[3])
                    else:
                        deadline_pending = True
                else:
                    deadlines.append(flight[3])
            if deadlines:
                timeout = max(0.0, min(deadlines) - now)
            if deadline_pending:
                timeout = (
                    _DEADLINE_POLL if timeout is None else min(timeout, _DEADLINE_POLL)
                )
        if waiting:
            soonest = max(0.0, min(entry[0] for entry in waiting) - now)
            timeout = soonest if timeout is None else min(timeout, soonest)
        return timeout

    def _requeue_in_flight(
        self, active: dict, queue: deque, *, charge_attempt: bool
    ) -> None:
        """Drain in-flight jobs back into the queue and rebuild the pool.

        After ``BrokenProcessPool`` the guilty job cannot be told apart
        from its innocent pool-mates (every in-flight future raises), so
        all are charged an attempt — the guilty job's counter is the one
        that matters for quarantine, and an innocent job's extra attempt
        only changes its backoff.  After a timeout nothing in flight is
        guilty, so nothing is charged.
        """
        for future, (key, job, attempt, _) in list(active.items()):
            future.cancel()
            queue.append((key, job, attempt + 1 if charge_attempt else attempt))
        active.clear()
        self._discard_pool()

    def _inline_attempt(
        self, inline_fn: Callable, key: str, job: object, attempt: int
    ) -> object:
        try:
            with settings.installed(self.record):
                faults.maybe_fail(key, attempt, allow_exit=False)
                return inline_fn(key, job)
        except Exception as exc:
            return self._after_failure(key, attempt, "crash", repr(exc))

    def _after_failure(
        self, key: str, attempt: int, kind: str, error: str
    ) -> _Retry | FailureRecord:
        if attempt < self.policy.max_retries:
            self.stats["retried"] += 1
            return _Retry(self.policy.backoff(key, attempt))
        return FailureRecord(key=key, kind=kind, attempts=attempt + 1, error=error)

    def _sleep_until(self, deadline: float) -> None:
        delay = deadline - self.clock()
        if delay > 0:
            time.sleep(min(delay, _IDLE_SLEEP))
