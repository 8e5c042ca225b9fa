"""Synthetic result stores with exactly-known metrics.

The report maths (geomeans, bootstrap intervals, win matrices) is tested
against hand-constructed stores: every benchmark's solo IPC is pinned to
1.0, so a workload record's weighted speed-up is simply the sum of the
shared-mode IPCs the test chose.  Snapshots are built with
``instructions=1000`` so ``llc_mpki`` equals the chosen miss count.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cpu.core import CoreSnapshot
from repro.runner import SCHEMA_VERSION, AloneJob, ResultStore, WorkloadJob
from repro.sim.config import SystemConfig
from repro.sim.results import SingleRunResult, WorkloadResult
from repro.trace.workloads import Workload

BASE_CONFIG = SystemConfig.scaled(4)

#: Benchmarks every synthetic workload draws from (must exist in the
#: registry so ``Workload`` accepts them).
BENCH_POOL = ("lbm", "bzip", "deal", "omn")


def snapshot_for(ipc: float, llc_misses: int = 10) -> CoreSnapshot:
    return CoreSnapshot(
        instructions=1000.0,
        cycles=1000.0 / ipc,
        accesses=1000,
        l1_misses=100,
        l2_misses=50,
        llc_accesses=50,
        llc_misses=llc_misses,
        llc_bypasses=0,
    )


def put_result(store: ResultStore, job, result) -> str:
    key = job.cache_key()
    store.put(
        key,
        {
            "schema": SCHEMA_VERSION,
            "kind": job.kind,
            "job": job.to_dict(),
            "result": result.to_dict(),
        },
    )
    return key


def put_alone(
    store: ResultStore,
    benchmark: str,
    *,
    seed: int = 0,
    ipc: float = 1.0,
    config: SystemConfig = BASE_CONFIG,
    quota: int = 900,
    monitor: bool = False,
    targets: tuple = (),
) -> str:
    job = AloneJob(
        benchmark=benchmark,
        config=config.with_cores(1),
        policy="tadrrip",
        quota=quota,
        warmup=100,
        master_seed=seed,
        monitor=monitor,
        targets=targets,
    )
    result = SingleRunResult(
        benchmark=benchmark,
        config_name=job.config.name,
        policy="tadrrip",
        snapshot=snapshot_for(ipc),
    )
    return put_result(store, job, result)


def put_workload(
    store: ResultStore,
    *,
    workload: str = "mix-0",
    benchmarks: tuple[str, ...] = BENCH_POOL,
    policy="tadrrip",
    seed: int = 0,
    ipcs: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0),
    llc_misses: int = 10,
    config: SystemConfig = BASE_CONFIG,
    targets: tuple = (),
) -> str:
    job = WorkloadJob.for_workload(
        Workload(workload, benchmarks),
        config.with_cores(len(benchmarks)),
        policy,
        quota=800,
        warmup=200,
        master_seed=seed,
    )
    job = replace(job, targets=targets)
    result = WorkloadResult(
        workload_name=workload,
        benchmarks=benchmarks,
        config_name=job.config.name,
        policy=str(policy),
        snapshots=[snapshot_for(ipc, llc_misses) for ipc in ipcs],
    )
    return put_result(store, job, result)


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "results")


class SyntheticStore:
    """A result store plus bound helpers for populating it."""

    pool = BENCH_POOL

    def __init__(self, store: ResultStore) -> None:
        self.store = store

    def put_alone(self, benchmark: str, **kwargs) -> str:
        return put_alone(self.store, benchmark, **kwargs)

    def put_workload(self, **kwargs) -> str:
        return put_workload(self.store, **kwargs)

    def put_suite(
        self,
        *,
        policy_ipcs: dict[str, tuple[float, ...]],
        workloads: tuple[str, ...] = ("mix-0",),
        seeds: tuple[int, ...] = (0,),
        llc_misses: dict[str, int] | None = None,
    ) -> None:
        """A full grid: every policy on every (workload, seed) + baselines."""
        for seed in seeds:
            for benchmark in BENCH_POOL:
                self.put_alone(benchmark, seed=seed)
            for workload in workloads:
                for policy, ipcs in policy_ipcs.items():
                    self.put_workload(
                        workload=workload,
                        policy=policy,
                        seed=seed,
                        ipcs=ipcs,
                        llc_misses=(llc_misses or {}).get(policy, 10),
                    )


@pytest.fixture
def synth(store) -> SyntheticStore:
    return SyntheticStore(store)
