"""Parallel experiment execution with a persistent result store.

The subsystem has three pieces:

* :mod:`repro.runner.jobs` — serialisable job descriptions
  (:class:`WorkloadJob`, :class:`AloneJob`, :class:`PolicySpec`) with
  stable content-addressed cache keys;
* :mod:`repro.runner.store` — :class:`ResultStore`, one JSON file per
  completed job under a ``results/`` directory, shared across invocations,
  with a typed query API (:class:`StoredResult`, ``records``/``query``)
  that aggregating consumers (:mod:`repro.report`, ``traces gc``) use
  instead of touching the JSON layout;
* :mod:`repro.runner.parallel` — :class:`ParallelRunner`, which fans job
  batches out over a process pool (``REPRO_JOBS`` workers, default
  ``os.cpu_count()``) and reads/writes the store around each run;
* :mod:`repro.runner.replaystore` — :class:`ReplayStore`, the
  content-addressed replay-capture artifacts a policy sweep shares (one
  private-level capture per platform, replayed by every swept job), plus
  the per-process bundle cache;
* :mod:`repro.runner.tracegc` — ``repro-experiments traces gc``, pruning
  replay captures no stored result references any more and quarantining
  corrupt artifacts;
* :mod:`repro.runner.supervisor` — :class:`Supervisor`, the
  future-per-job scheduler behind :class:`ParallelRunner` (retry with
  backoff via :class:`RetryPolicy`, wall-clock timeouts, pool-rebuild
  recovery, :class:`FailureRecord` quarantine);
* :mod:`repro.runner.faults` / :mod:`repro.runner.integrity` — the
  deterministic ``REPRO_FAULT`` injection harness and the checksum /
  quarantine plumbing that proves the failure semantics.

The experiments layer (:class:`repro.experiments.common.Runner`) sits on
top, keeping its in-process memo as the L1 cache above the store.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.policies.spec": ("PolicySpec", "policy_key"),
        "repro.runner.jobs": (
            "SCHEMA_VERSION",
            "AloneJob",
            "Job",
            "WorkloadJob",
            "job_from_dict",
        ),
        "repro.runner.parallel": ("ParallelRunner", "default_jobs"),
        "repro.runner.replaystore": ("ReplayStore",),
        "repro.runner.store": ("ResultStore", "StoredResult"),
        "repro.runner.supervisor": ("FailureRecord", "RetryPolicy"),
    },
)

__all__ = [
    "SCHEMA_VERSION",
    "AloneJob",
    "FailureRecord",
    "Job",
    "ParallelRunner",
    "PolicySpec",
    "ReplayStore",
    "ResultStore",
    "RetryPolicy",
    "StoredResult",
    "WorkloadJob",
    "default_jobs",
    "job_from_dict",
    "policy_key",
]
