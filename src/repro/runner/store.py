"""Persistent on-disk result store.

Each completed job is written as one JSON file under the store root,
``<root>/<key[:2]>/<key>.json``, where ``key`` is the job's stable
:meth:`~repro.runner.jobs.WorkloadJob.cache_key` (a SHA-256 over workload,
configuration, policy, budgets and master seed).  The two-level fan-out
keeps directories small for multi-thousand-run campaigns.

The store is the L2 cache of the experiment stack: the in-process
:class:`~repro.experiments.common.Runner` memo is L1, and this store makes
results survive *across invocations* — re-running a figure, or running a
later figure that shares runs with an earlier one, performs zero new
simulations against a warm store.

Writes are atomic (temp file + ``os.replace``), so concurrent workers and
interrupted runs can never leave a truncated entry behind; a corrupt or
unreadable entry is treated as a miss and overwritten on the next run.

Consumers that *aggregate* the store — the :mod:`repro.report` tournament
tables, ``traces gc`` — go through the typed query API
(:meth:`ResultStore.entries`, and its views :meth:`ResultStore.records` /
:meth:`ResultStore.failures` / :meth:`ResultStore.query`) rather than
walking the JSON layout themselves, so the on-disk encoding and its skip
rules stay private details of this module.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path


@dataclass(frozen=True)
class StoredResult:
    """One stored run, decoded: the job that produced it plus its payload.

    The job carries the full simulation identity (workload composition,
    complete :class:`~repro.sim.config.SystemConfig`, policy designation,
    budgets, master seed); the result payload stays in its raw dict form
    until :meth:`result` materialises it, so store scans that only filter
    on identity never pay result deserialisation.
    """

    key: str
    job: object  # Job; typed loosely to keep this module import-light
    payload: dict

    @property
    def kind(self) -> str:
        """``"workload"`` (multi-programmed run) or ``"alone"`` (baseline)."""
        return self.job.kind

    @cached_property
    def policy(self) -> str:
        """The policy identity label (``PolicySpec`` kwargs included)."""
        from repro.policies.spec import policy_key

        return policy_key(self.job.policy)

    @property
    def workload(self) -> str:
        """Workload name, or the benchmark name for an ``alone`` run."""
        job = self.job
        return job.workload_name if job.kind == "workload" else job.benchmark

    @property
    def benchmarks(self) -> tuple[str, ...]:
        job = self.job
        return job.benchmarks if job.kind == "workload" else (job.benchmark,)

    @property
    def seed(self) -> int:
        return self.job.master_seed

    @property
    def config(self):
        return self.job.config

    @property
    def cores(self) -> int:
        return self.job.config.num_cores

    def result(self):
        """The deserialised result record (``WorkloadResult``/``SingleRunResult``)."""
        return self.job.result_from_dict(self.payload["result"])


class ResultStore:
    """JSON-file-per-result persistent cache keyed by job cache keys."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored payload for *key*, or ``None`` on miss/corruption."""
        path = self.path_for(key)
        try:
            with path.open(encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, key: str, payload: dict) -> Path:
        """Atomically persist *payload* under *key*; returns the file path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.json")):
            # Only result files: ``traces/<key>.meta.json`` sidecars share
            # the glob but not the ``<key[:2]>/<key>.json`` layout.
            if self.path_for(path.stem) == path:
                yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # -- typed query API ---------------------------------------------------------

    def entries(self) -> Iterator[StoredResult | dict]:
        """Every stored entry, decoded once, in stable (key-sorted) order.

        The one enumeration of the store: a run yields a
        :class:`StoredResult`, a persisted failure record the dict
        :meth:`failures` describes.  Entries whose schema version differs
        from the current encoding, or whose job payload no longer
        reconstructs (corruption, a removed job kind), are skipped —
        exactly the entries the execution path would treat as cache
        misses.  :meth:`records` and :meth:`failures` are views of this
        pass; a consumer that needs both reads the store once through it.
        """
        from repro.runner.jobs import SCHEMA_VERSION, job_from_dict

        for key in self.keys():
            payload = self.get(key)
            if not payload or payload.get("schema") != SCHEMA_VERSION:
                continue
            if payload.get("kind") == "failure":
                failure = dict(payload.get("failure") or {})
                failure.setdefault("key", key)
                failure["job"] = payload.get("job")
                yield failure
                continue
            if "result" not in payload:
                continue
            try:
                job = job_from_dict(payload["job"])
            except (KeyError, TypeError, ValueError):
                continue
            yield StoredResult(key=key, job=job, payload=payload)

    def records(self) -> Iterator[StoredResult]:
        """Every decodable stored run (see :meth:`entries`); persisted
        failure records live at job keys too but are never results."""
        return (e for e in self.entries() if isinstance(e, StoredResult))

    def failures(self) -> Iterator[dict]:
        """Every persisted failure record (quarantined jobs), key-sorted.

        Yields the raw ``failure`` dicts written by the supervised runner
        (``key``/``kind``/``attempts``/``error``), augmented with the
        job payload under ``"job"`` so reports can name the lost cell.
        A failure record is replaced by the real result as soon as a
        resumed run succeeds, so this view always reflects the *current*
        holes in the store.
        """
        return (e for e in self.entries() if not isinstance(e, StoredResult))

    def query(
        self,
        *,
        kind: str | None = None,
        policy: str | None = None,
        workload: str | None = None,
        seed: int | None = None,
        cores: int | None = None,
        config_name: str | None = None,
    ) -> Iterator[StoredResult]:
        """Stored runs matching every given filter (``None`` = any).

        ``policy`` matches the policy identity label (a registry name, or
        a :meth:`~repro.policies.spec.PolicySpec.key` string for
        parameterised policies); ``workload`` matches the workload name —
        the benchmark name for ``alone`` records.
        """
        for record in self.records():
            if kind is not None and record.kind != kind:
                continue
            if policy is not None and record.policy != policy:
                continue
            if workload is not None and record.workload != workload:
                continue
            if seed is not None and record.seed != seed:
                continue
            if cores is not None and record.cores != cores:
                continue
            if config_name is not None and record.config.name != config_name:
                continue
            yield record
