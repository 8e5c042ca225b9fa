"""Process-pool execution of simulation jobs with two cache layers.

:class:`ParallelRunner` takes a batch of serialisable jobs
(:mod:`repro.runner.jobs`), satisfies what it can from the persistent
:class:`~repro.runner.store.ResultStore`, and fans the remaining misses
out across a ``concurrent.futures.ProcessPoolExecutor``.  Results come
back in input order regardless of which worker finished first, and every
job carries its own master seed, so a parallel run is bit-identical to the
sequential run of the same batch.

The worker count defaults to the ``REPRO_JOBS`` environment variable and
falls back to ``os.cpu_count()``; ``jobs=1`` executes inline in the
calling process (no pool, no pickling), which is also the automatic
fast path for single-job batches.

Policy sweeps (two or more miss jobs over one workload and platform,
differing only in LLC policy) run a once-per-platform private-level
*capture* pass (:mod:`repro.runner.replaystore`) that records each core
to its quota completion, so every swept job executes on the LLC-only
replay kernel and simulates private levels only where a core outlives
its quota (live extension of the loaded capture).
Captures and sim jobs share one dependency-edged queue: each sweep's
replays are submitted the moment *its* capture lands, each carrying that
capture's artifact path, so a slow capture never stalls unrelated
sweeps.  A batch with no sweep is the same queue with no capture jobs in
it.  Capture artifacts live under ``<store root>/traces/``; with no
persistent store a runner-lifetime temporary directory holds them.

Execution is *supervised* (:mod:`repro.runner.supervisor`): every miss
is submitted as its own future and collected in completion order, so a
worker exception, hang or death costs one job — retried with backoff,
recovered across pool rebuilds, or quarantined as a structured
:class:`~repro.runner.supervisor.FailureRecord` in the result store.
:meth:`ParallelRunner.run` therefore returns **partial results**
(``None`` holes for quarantined jobs) plus :attr:`ParallelRunner.last_failures`
instead of raising mid-batch; a re-invocation against the same store
re-executes only the holes, because completed work is already durable
under its content-addressed keys.
"""

from __future__ import annotations

import importlib
import tempfile
from collections.abc import Sequence
from pathlib import Path

from repro import settings
from repro.runner import faults
from repro.runner.jobs import SCHEMA_VERSION, Job, bind_targets, job_from_dict
from repro.runner.replaystore import ReplayStore, replay_key
from repro.runner.store import ResultStore
from repro.runner.supervisor import FailureRecord, RetryPolicy, Supervisor


#: What executing a job imports: the run functions, and the replay kernel
#: (with the capture pass) that the engine imports only when it first runs.
#: The parent loads it before a batch with misses runs, so the pool workers
#: forked for each batch inherit it instead of each importing it again; a
#: batch served wholly from the store never loads it.
_EXECUTION_STACK = (
    "repro.sim.multi",
    "repro.sim.single",
    "repro.core.monitor",
    "repro.cpu.replay",
)


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set to a positive int, else CPU count."""
    return settings.current().jobs


def _counters_snapshot() -> dict:
    """Per-process cache counters the runner aggregates across workers."""
    from repro.runner.replaystore import REGISTRY_STATS

    return dict(REGISTRY_STATS)


def _execute_task(task: tuple[str, tuple]) -> object:
    """Worker entry point: one tagged ``("capture" | "sim", ...)`` task.

    One pool serves both job families, so a worker alternates freely
    between captures and sims as the dependency-edged queue drains.  A
    capture that raises fails like any other job: the supervisor retries
    it, and quarantining it leaves each run of its sweep to capture its own
    workload in memory.  A sim task carries its own sweep's artifact path,
    or ``None``; bundles are cached per path, so a worker loads each
    artifact once per sweep.  The job's cache key and attempt number ride
    along too, for the fault-injection harness.

    A sim's wire dict carries a ``_counters`` delta (bundle loads) that
    the parent strips and folds into ``runner.stats``.
    """
    tag, inner = task
    if tag == "capture":
        payload, key, attempt = inner
        faults.maybe_fail(key, attempt, allow_exit=True)
        return _materialise_capture(payload)
    payload, capture, key, attempt = inner
    faults.maybe_fail(key, attempt, allow_exit=True)
    before = _counters_snapshot()
    result = _run_sim(job_from_dict(payload), capture).to_dict()
    after = _counters_snapshot()
    result["_counters"] = {name: after[name] - before[name] for name in after}
    return result


def _run_sim(job: Job, capture: str | None):
    """Execute one sim job; only a swept workload job is handed a capture."""
    return job.execute() if capture is None else job.execute(capture=capture)


def _materialise_capture(payload: dict) -> Path:
    """Run one capture job (in a worker or inline); returns its path."""
    return ReplayStore(payload["root"]).materialise(payload["identity"])


class ParallelRunner:
    """Shard independent jobs across processes, backed by the result store.

    Parameters
    ----------
    jobs:
        Worker-process count; ``None`` or ``0`` means :func:`default_jobs`.
    store:
        Optional persistent :class:`ResultStore` (the L2 cache).  Misses
        are simulated and written back; hits skip simulation entirely.
    use_cache:
        When ``False`` the store is neither read nor written — every job
        is simulated fresh (the ``--no-cache`` CLI behaviour).
    retry:
        The batch :class:`~repro.runner.supervisor.RetryPolicy`
        (``None``: ``REPRO_MAX_RETRIES`` / ``REPRO_JOB_TIMEOUT`` /
        ``REPRO_RETRY_BACKOFF``, through :mod:`repro.settings`).

    Each :meth:`run` reads the :mod:`repro.settings` record once, in this
    process, and its pool workers receive that record instead of reading
    their own environment.  Each job's ``tgt:`` names are bound to their
    registered specs here too, so a worker simulates the content the
    parent resolved and never consults ``targets.json``.
    """

    def __init__(
        self,
        jobs: int | None = None,
        store: ResultStore | None = None,
        use_cache: bool = True,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.jobs = jobs if jobs and jobs > 0 else default_jobs()
        self.store = store
        self.use_cache = use_cache
        self.retry = retry or RetryPolicy.from_env()
        self._trace_tmpdir: tempfile.TemporaryDirectory | None = None
        #: Lifetime counters: ``store_hits`` results re-read from disk,
        #: ``executed`` simulations completed (counted per job, as each
        #: finishes), ``failed`` jobs quarantined after retries, the
        #: supervisor's ``retried``/``timeouts``/``pool_rebuilds``, and
        #: ``bundle_loads`` (replay artifacts read from disk, aggregated
        #: across workers).
        self.stats = {
            "store_hits": 0,
            "executed": 0,
            "failed": 0,
            "retried": 0,
            "timeouts": 0,
            "pool_rebuilds": 0,
            "bundle_loads": 0,
        }
        #: Every quarantined job over the runner's lifetime, and the
        #: subset from the most recent :meth:`run` batch.
        self.failures: list[FailureRecord] = []
        self.last_failures: list[FailureRecord] = []

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Reclaim the runner-lifetime temporary trace directory (if any)."""
        tmpdir, self._trace_tmpdir = self._trace_tmpdir, None
        if tmpdir is not None:
            tmpdir.cleanup()

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ---------------------------------------------------------------

    def run(self, jobs: Sequence[Job]) -> list:
        """Execute *jobs*; returns their results in input order.

        Duplicate jobs (same cache key) within a batch are simulated
        once.  A job that exhausts its retries yields ``None`` in the
        returned list (and a :class:`FailureRecord` in
        :attr:`last_failures` plus, with a store, a persisted failure
        record) rather than aborting the batch — completed results are
        always returned, and a later invocation re-executes only the
        holes.
        """
        record = settings.current()
        order: list[str] = []
        unique: dict[str, Job] = {}
        for job in jobs:
            job = bind_targets(job)
            key = job.cache_key()
            order.append(key)
            unique.setdefault(key, job)

        results: dict[str, object] = {}
        misses: list[tuple[str, Job]] = []
        for key, job in unique.items():
            cached = self._load(key, job)
            if cached is not None:
                results[key] = cached
            else:
                misses.append((key, job))
        self.last_failures = []
        if misses:
            for module in _EXECUTION_STACK:
                importlib.import_module(module)

        # One supervisor (and pool) serves captures and sims alike.
        supervisor = Supervisor(
            workers=min(self.jobs, len(misses)) if len(misses) > 1 else 1,
            policy=self.retry,
            record=record,
        )
        counters_before = _counters_snapshot()
        try:
            for key, job, outcome in self._execute(supervisor, misses):
                if isinstance(outcome, FailureRecord):
                    self.stats["failed"] += 1
                    self.failures.append(outcome)
                    self.last_failures.append(outcome)
                    self._record_failure(job, outcome)
                else:
                    self.stats["executed"] += 1
                    results[key] = outcome
                    self._save(key, job, outcome)
        except BaseException:
            # Don't block behind queued work when the batch is going down.
            supervisor.shutdown(cancel=True)
            raise
        else:
            supervisor.shutdown()
        finally:
            for name, value in supervisor.stats.items():
                self.stats[name] += value
            counters_after = _counters_snapshot()
            for name in counters_after:
                self.stats[name] += counters_after[name] - counters_before[name]

        return [results.get(key) for key in order]

    def run_one(self, job: Job):
        return self.run([job])[0]

    # -- replay captures ---------------------------------------------------------

    def traces_root(self) -> Path:
        """The directory replay captures live in.

        ``<result store root>/traces``, so captures persist and are reused
        content-addressed across invocations.  Without a result store — or
        with ``use_cache=False``, which promises the store is neither read
        nor written — a runner-lifetime temporary directory (created on
        first use) backs them instead.
        """
        if self.store is not None and self.use_cache:
            return self.store.root / "traces"
        if self._trace_tmpdir is None:
            self._trace_tmpdir = tempfile.TemporaryDirectory(prefix="repro-traces-")
        return Path(self._trace_tmpdir.name)

    def _plan_captures(
        self, misses: list[tuple[str, Job]], record: settings.Settings
    ) -> tuple[list[tuple[str, dict]], dict[str, tuple[str, str]]]:
        """The capture jobs of a miss batch, and each swept job's route.

        A *sweep* is the miss jobs sharing one capture identity — same
        workload, private-level platform and budgets, different LLC
        policy — when there are two or more of them, or when the
        identity's artifact is already on disk (a lone miss then replays
        it instead of capturing in memory).  Returns one ``(capture key,
        worker payload)`` per sweep, and ``{sim key: (capture key,
        artifact path)}`` for every swept job.  The capture key and the
        artifact name both carry the identity's :func:`replay_key`, the
        address ``traces gc`` keeps the artifact by.  Both are empty when
        the batch's *record* pins the generic loop
        (``REPRO_NO_FASTPATH``), when nothing is swept, or when the store
        root is unavailable — every one of which runs the batch without
        replay.
        """
        # A batch served wholly from the store loads no capture module.
        if not misses or record.no_fastpath:
            return [], {}
        from repro.cpu.capture import job_identity

        sweeps: dict[tuple, list[tuple[str, Job]]] = {}
        for key, job in misses:
            if job.kind == "workload":
                identity = job_identity(
                    job.traces(), job.config, job.quota, job.warmup, job.master_seed
                )
                sweeps.setdefault(identity, []).append((key, job))
        # Where a lone miss's artifact may already be; a runner-lifetime
        # temporary root is not created just to look.
        on_disk = None
        if (self.store is not None and self.use_cache) or self._trace_tmpdir is not None:
            on_disk = ReplayStore(self.traces_root())
        swept = {
            identity: members
            for identity, members in sweeps.items()
            if len(members) >= 2
            or (on_disk is not None and on_disk.path_for(replay_key(identity)).is_file())
        }
        if not swept:
            return [], {}
        try:
            store = ReplayStore(self.traces_root())
        except OSError:
            return [], {}
        capture_jobs: list[tuple[str, dict]] = []
        routes: dict[str, tuple[str, str]] = {}
        for identity, members in swept.items():
            rkey = replay_key(identity)
            ckey = f"capture:{rkey}"
            capture_jobs.append((ckey, {"root": str(store.root), "identity": identity}))
            path = str(store.path_for(rkey))
            for key, _ in members:
                routes[key] = (ckey, path)
        return capture_jobs, routes

    def _execute(self, supervisor: Supervisor, misses: list[tuple[str, Job]]):
        """Dependency-edged execution: captures and sims share one queue.

        Every planned capture becomes a supervised job; each swept sim
        job depends on its capture's key, so the supervisor withholds it
        until the capture's outcome lands — and unrelated jobs flow
        freely around a slow (or hung, or crashed) capture.  A swept job
        is then handed its sweep's artifact path if the capture
        succeeded, and ``None`` (it captures in memory) if it was
        quarantined; inline and pool execution take the same route.  Capture outcomes
        never surface to the caller; only sim outcomes are yielded.
        """
        capture_jobs, routes = self._plan_captures(misses, supervisor.record)
        capture_keys = {ckey for ckey, _ in capture_jobs}
        captured: set[str] = set()

        def capture_for(key: str) -> str | None:
            route = routes.get(key)
            if route is None or route[0] not in captured:
                return None
            return route[1]

        def task_for(key, job, attempt):
            if key in capture_keys:
                return ("capture", (job, key, attempt))
            return ("sim", (job.to_dict(), capture_for(key), key, attempt))

        def inline_fn(key, job):
            if key in capture_keys:
                return _materialise_capture(job)
            return _run_sim(job, capture_for(key))

        def decode(job, data):
            if not isinstance(job, Job):
                return data  # capture outcome: the artifact path
            counters = data.pop("_counters", None)
            if counters:
                for name, value in counters.items():
                    self.stats[name] = self.stats.get(name, 0) + value
            return job.result_from_dict(data)

        for key, job, outcome in supervisor.run_jobs(
            capture_jobs + list(misses),
            worker_fn=_execute_task,
            task_for=task_for,
            inline_fn=inline_fn,
            decode=decode,
            dependencies={key: ckey for key, (ckey, _) in routes.items()},
        ):
            if key in capture_keys:
                # A quarantined capture only costs its sweep the replay
                # kernel: its jobs are handed no path.
                if not isinstance(outcome, FailureRecord):
                    captured.add(key)
                continue
            yield key, job, outcome

    # -- store plumbing ----------------------------------------------------------

    def _load(self, key: str, job: Job):
        if self.store is None or not self.use_cache:
            return None
        payload = self.store.get(key)
        if not payload or payload.get("schema") != SCHEMA_VERSION:
            return None
        if payload.get("kind") == "failure" or "result" not in payload:
            # A persisted FailureRecord is informational, not a result:
            # resuming re-executes the job (and overwrites the record on
            # success).
            return None
        try:
            result = job.result_from_dict(payload["result"])
        except (KeyError, TypeError):
            return None
        self.stats["store_hits"] += 1
        return result

    def _save(self, key: str, job: Job, result) -> None:
        if self.store is None or not self.use_cache:
            return
        self.store.put(
            key,
            {
                "schema": SCHEMA_VERSION,
                "kind": job.kind,
                "job": job.to_dict(),
                "result": result.to_dict(),
            },
        )

    def _record_failure(self, job: Job, failure: FailureRecord) -> None:
        """Persist a quarantined job so it is never silently dropped.

        The record lives at the job's own cache key — enumerable via
        :meth:`ResultStore.failures`, read as a *miss* by :meth:`_load`
        (so a resumed run retries the job) and overwritten by the result
        when a retry eventually succeeds.
        """
        if self.store is None or not self.use_cache:
            return
        self.store.put(
            failure.key,
            {
                "schema": SCHEMA_VERSION,
                "kind": "failure",
                "job": job.to_dict(),
                "failure": failure.to_dict(),
            },
        )
