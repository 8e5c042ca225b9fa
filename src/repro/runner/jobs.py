"""Serialisable job descriptions for the experiment runner.

A *job* is a self-contained, picklable description of one simulation:
either a multi-programmed workload run (:class:`WorkloadJob`, executed by
:func:`repro.sim.multi.run_workload`) or a single-application baseline run
(:class:`AloneJob`, executed by :func:`repro.sim.single.run_alone`).

Jobs round-trip through ``to_dict``/``from_dict`` so they can cross
process boundaries as plain JSON-safe payloads, and every job derives a
stable :meth:`cache_key` — a SHA-256 over its canonical JSON form, i.e.
over workload composition + full system configuration + policy + quotas +
master seed.  The key is what the persistent result store is indexed by,
so two invocations (or two different figures) that need the same run share
one simulation.

Policies with constructor arguments (Figure 1's duelling-set variants, the
ablation sweeps) are described by :class:`~repro.policies.spec.PolicySpec`
— a name plus canonicalised keyword arguments — instead of live policy
objects, which keeps those runs serialisable and cacheable too.

An ingested ``tgt:`` name is rebindable: re-ingesting it under another
budget or file registers new content under the same name.  So a job
carries, in ``targets``, the :class:`~repro.targets.registry.TargetSpec`
each of its ``tgt:`` names is bound to (:func:`bind_targets`, called by
the parallel runner in the parent).  The specs are part of the
payload and so of the cache key, and the job's sources are built from
them.  A job without targets leaves the field out of its payload, so its
key is the same as before the field existed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.policies.spec import PolicySpec
from repro.sim.config import SystemConfig
from repro.sim.results import SingleRunResult, WorkloadResult
from repro.trace.workloads import Workload

if TYPE_CHECKING:
    from repro.targets.registry import TargetSpec

#: Bump when the job/result encoding changes incompatibly; part of every
#: cache key so stale store entries are simply never hit.
SCHEMA_VERSION = 1


def _policy_to_payload(policy: str | PolicySpec) -> str | dict:
    return policy if isinstance(policy, str) else policy.to_dict()


def _policy_from_payload(payload: str | dict) -> str | PolicySpec:
    return payload if isinstance(payload, str) else PolicySpec.from_dict(payload)


def _targets_payload(targets: tuple[TargetSpec, ...]) -> dict:
    return {"targets": [spec.to_dict() for spec in targets]} if targets else {}


def _targets_from(data: dict) -> tuple[TargetSpec, ...]:
    if not data.get("targets"):
        return ()
    from repro.targets.registry import TargetSpec

    return tuple(TargetSpec.from_dict(entry) for entry in data["targets"])


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:40]


@dataclass(frozen=True)
class WorkloadJob:
    """One multi-programmed run: workload x config x policy x budgets x seed."""

    workload_name: str
    benchmarks: tuple[str, ...]
    config: SystemConfig
    policy: str | PolicySpec
    quota: int
    warmup: int
    master_seed: int
    #: The specs the ``tgt:`` names in ``benchmarks`` are bound to.
    targets: tuple[TargetSpec, ...] = ()

    kind = "workload"

    @staticmethod
    def for_workload(
        workload: Workload,
        config: SystemConfig,
        policy: str | PolicySpec,
        *,
        quota: int,
        warmup: int,
        master_seed: int,
    ) -> "WorkloadJob":
        return WorkloadJob(
            workload_name=workload.name,
            benchmarks=tuple(workload.benchmarks),
            config=config,
            policy=policy,
            quota=quota,
            warmup=warmup,
            master_seed=master_seed,
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "workload_name": self.workload_name,
            "benchmarks": list(self.benchmarks),
            "config": self.config.to_dict(),
            "policy": _policy_to_payload(self.policy),
            "quota": self.quota,
            "warmup": self.warmup,
            "master_seed": self.master_seed,
            **_targets_payload(self.targets),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadJob":
        return cls(
            workload_name=data["workload_name"],
            benchmarks=tuple(data["benchmarks"]),
            config=SystemConfig.from_dict(data["config"]),
            policy=_policy_from_payload(data["policy"]),
            quota=data["quota"],
            warmup=data["warmup"],
            master_seed=data["master_seed"],
            targets=_targets_from(data),
        )

    def cache_key(self) -> str:
        return _digest({"v": SCHEMA_VERSION, **self.to_dict()})

    def traces(self) -> tuple:
        """Each core's trace: its synthetic name, or its bound target spec."""
        bound = {spec.name: spec for spec in self.targets}
        return tuple(bound.get(name, name) for name in self.benchmarks)

    def execute(self, capture: str | None = None) -> WorkloadResult:
        """Run the job; *capture* is its sweep's replay-artifact path, if any.

        The parallel runner passes the path only once the sweep's capture
        job has succeeded; a damaged artifact loads as ``None`` and the
        run captures its own workload in memory instead.
        """
        from repro.runner.replaystore import cached_bundle
        from repro.sim.multi import run_workload

        workload = Workload(self.workload_name, self.benchmarks)
        return run_workload(
            workload,
            self.config,
            self.policy,
            quota=self.quota,
            warmup=self.warmup,
            master_seed=self.master_seed,
            bundle=None if capture is None else cached_bundle(capture),
            targets=self.targets,
        )

    def result_from_dict(self, data: dict) -> WorkloadResult:
        return WorkloadResult.from_dict(data)


@dataclass(frozen=True)
class AloneJob:
    """One single-application baseline/characterisation run."""

    benchmark: str
    config: SystemConfig
    policy: str
    quota: int
    warmup: int
    master_seed: int
    monitor: bool = False
    monitor_all_sets: bool = False
    #: The spec a ``tgt:`` ``benchmark`` is bound to.
    targets: tuple[TargetSpec, ...] = ()

    kind = "alone"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "benchmark": self.benchmark,
            "config": self.config.to_dict(),
            "policy": self.policy,
            "quota": self.quota,
            "warmup": self.warmup,
            "master_seed": self.master_seed,
            "monitor": self.monitor,
            "monitor_all_sets": self.monitor_all_sets,
            **_targets_payload(self.targets),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AloneJob":
        return cls(
            benchmark=data["benchmark"],
            config=SystemConfig.from_dict(data["config"]),
            policy=data["policy"],
            quota=data["quota"],
            warmup=data["warmup"],
            master_seed=data["master_seed"],
            monitor=data.get("monitor", False),
            monitor_all_sets=data.get("monitor_all_sets", False),
            targets=_targets_from(data),
        )

    def cache_key(self) -> str:
        return _digest({"v": SCHEMA_VERSION, **self.to_dict()})

    def execute(self) -> SingleRunResult:
        from repro.sim.single import run_alone

        return run_alone(
            self.benchmark,
            self.config,
            policy=self.policy,
            quota=self.quota,
            warmup=self.warmup,
            master_seed=self.master_seed,
            monitor=self.monitor,
            monitor_all_sets=self.monitor_all_sets,
            targets=self.targets,
        )

    def result_from_dict(self, data: dict) -> SingleRunResult:
        return SingleRunResult.from_dict(data)


Job = WorkloadJob | AloneJob

_JOB_KINDS = {WorkloadJob.kind: WorkloadJob, AloneJob.kind: AloneJob}


def bind_targets(job: Job) -> Job:
    """*job* with each of its ``tgt:`` names bound to the spec registered
    under it now; *job* itself when it names no target or is bound already.

    Raises ``ValueError`` for a name that was never ingested.
    """
    names = job.benchmarks if job.kind == "workload" else (job.benchmark,)
    wanted = sorted({name for name in names if name.startswith("tgt:")})
    if job.targets or not wanted:
        return job
    from repro.targets.registry import require_target

    return replace(job, targets=tuple(require_target(name) for name in wanted))


def job_from_dict(data: dict) -> Job:
    """Reconstruct a job from its ``to_dict`` payload (dispatch on kind)."""
    kind = data.get("kind")
    cls = _JOB_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown job kind {kind!r}")
    return cls.from_dict(data)
