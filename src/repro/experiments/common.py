"""Shared infrastructure for the paper-figure experiments.

All experiments run through a :class:`Runner`, which owns the system
configuration and layers three caches over the simulation drivers:

* **L1** — an in-process memo of :class:`WorkloadResult`s and
  ``IPC_alone`` baselines, so e.g. Figure 3's TA-DRRIP runs are reused by
  Figure 4/5's per-application analysis and Table 7's metric table within
  one invocation;
* **L2** — an optional persistent :class:`~repro.runner.store.ResultStore`
  (``results_dir``), keyed by a stable hash of workload + configuration +
  policy + budgets + master seed, so results are shared *across*
  invocations;
* **execution** — a :class:`~repro.runner.parallel.ParallelRunner` that
  shards cache misses over a process pool (``jobs`` workers, defaulting
  to ``REPRO_JOBS`` / CPU count).

Figure modules call :meth:`Runner.prefetch` up front with every
(workload, policy) pair they are about to consume; the pool simulates the
misses in parallel and the figures' sequential loops then hit the L1 memo.

Budgets honour the ``REPRO_SCALE`` environment variable: ``REPRO_SCALE=1``
(default) runs a representative subsample of each suite in CI-friendly
time; larger values approach the paper's full workload counts.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro.metrics.throughput import compute_all_metrics, weighted_speedup
from repro.policies.base import ReplacementPolicy
from repro.runner import (
    ParallelRunner,
    PolicySpec,
    ResultStore,
    RetryPolicy,
    WorkloadJob,
    policy_key,
)
from repro.sim.config import SystemConfig
from repro.sim.results import WorkloadResult
from repro.sim.single import AloneCache
from repro.trace.workloads import TABLE6, Workload, design_suite

#: The policies compared in Figures 3 and 8, paper naming and order.
FIGURE_POLICIES = ("adapt_bp32", "lru", "ship", "eaf", "adapt_ins")
BASELINE_POLICY = "tadrrip"


def scale_factor() -> float:
    """The ``REPRO_SCALE`` knob (>= 0.1)."""
    try:
        value = float(os.environ.get("REPRO_SCALE", "1.0"))
    except ValueError:
        value = 1.0
    return max(0.1, value)


@dataclass(frozen=True)
class ExperimentSettings:
    """Run budgets for one experiment campaign."""

    master_seed: int = 0
    quota: int = 20_000  # measured accesses per core
    warmup: int = 7_000  # warm-up accesses per core
    alone_quota: int = 25_000
    alone_warmup: int = 4_000
    #: Per-suite workload counts (paper counts scaled down by default).
    workloads: dict[int, int] = field(
        default_factory=lambda: {4: 6, 8: 4, 16: 6, 20: 2, 24: 2}
    )
    #: Which workload roster :meth:`suite` composes: the ``synthetic``
    #: Table 6 samples, the ingested ``real`` targets, or ``all`` (both).
    benchmark_set: str = "synthetic"

    @staticmethod
    def from_env() -> "ExperimentSettings":
        s = scale_factor()
        base = ExperimentSettings()
        scaled = {
            cores: max(2, min(TABLE6[cores].num_workloads, round(n * s)))
            for cores, n in base.workloads.items()
        }
        return ExperimentSettings(workloads=scaled)

    def suite(self, cores: int) -> list[Workload]:
        count = self.workloads[cores]
        synthetic = design_suite(cores, count, self.master_seed)
        if self.benchmark_set == "synthetic":
            return synthetic
        from repro.targets.suite import real_suite

        real = real_suite(cores, count, self.master_seed)
        if self.benchmark_set == "real":
            return real
        if self.benchmark_set == "all":
            return synthetic + real
        raise ValueError(
            f"unknown benchmark set {self.benchmark_set!r}; "
            "options: synthetic, real, all"
        )


def config_for_cores(base: SystemConfig, cores: int) -> SystemConfig:
    """The platform for a given suite, following Section 4.3.

    "For 4 and 8-core workloads, we study with 4MB and 8MB shared caches
    while 16, 20 and 24-core workloads are studied with a 16MB cache" —
    i.e. the LLC shrinks proportionally below 16 cores (so per-application
    pressure stays in the studied regime), and stays fixed above, which is
    the #cores >= #ways scenario.  A floor of 64 sets protects miniature
    test configurations.
    """
    config = base.with_cores(cores)
    if cores < 16:
        factor = 16 // cores
        sets = max(64, base.llc.num_sets // factor)
        if sets != base.llc.num_sets:
            config = config.with_llc(num_sets=sets)
    return config


class Runner:
    """Memoising, parallelising front-end over the simulation drivers.

    Parameters
    ----------
    jobs:
        Worker-process count for cache misses (``None`` → ``REPRO_JOBS`` /
        CPU count; ``1`` → everything runs inline in this process).
    results_dir:
        Root of the persistent result store; ``None`` disables the store
        and keeps only the in-process memo.
    use_cache:
        When ``False``, the persistent store is bypassed entirely.
    retry:
        Failure-handling knobs for the supervised pool (``None`` → the
        ``REPRO_MAX_RETRIES``/``REPRO_JOB_TIMEOUT`` environment defaults).
    """

    def __init__(
        self,
        config: SystemConfig,
        settings: ExperimentSettings | None = None,
        *,
        jobs: int | None = None,
        results_dir: str | Path | None = None,
        use_cache: bool = True,
        retry: RetryPolicy | None = None,
    ):
        self.config = config
        self.settings = settings or ExperimentSettings.from_env()
        self.store = ResultStore(results_dir) if results_dir else None
        self.pool = ParallelRunner(
            jobs=jobs, store=self.store, use_cache=use_cache, retry=retry
        )
        self._alone_caches: dict[str, AloneCache] = {}
        self._runs: dict[tuple[str, str, str], WorkloadResult] = {}

    def close(self) -> None:
        """Release pool-lifetime resources (temporary trace directories)."""
        self.pool.close()

    # -- baselines ---------------------------------------------------------------

    def _alone_cache(self, config: SystemConfig) -> AloneCache:
        cache = self._alone_caches.get(config.name)
        if cache is None:
            cache = AloneCache(
                config,
                quota=self.settings.alone_quota,
                warmup=self.settings.alone_warmup,
                master_seed=self.settings.master_seed,
                pool=self.pool,
            )
            self._alone_caches[config.name] = cache
        return cache

    def alone_ipcs(self, workload: Workload, config: SystemConfig | None = None) -> list[float]:
        config = config or self.config
        return self._alone_cache(config).ipcs(workload.benchmarks)

    # -- multi-programmed runs -----------------------------------------------------

    def _memo_key(
        self,
        workload: Workload,
        policy: str | PolicySpec | ReplacementPolicy,
        config: SystemConfig,
    ) -> tuple[str, str, str]:
        if isinstance(policy, ReplacementPolicy):
            label = f"obj:{policy.name}:{id(policy)}"
        else:
            label = policy_key(policy)
        return (workload.name, label, config.name)

    def _job(
        self, workload: Workload, policy: str | PolicySpec, config: SystemConfig
    ) -> WorkloadJob:
        # Canonicalise the config to the workload's core count so every
        # call site derives the same cache key for the same effective run.
        if workload.cores != config.num_cores:
            config = config.with_cores(workload.cores)
        return WorkloadJob.for_workload(
            workload,
            config,
            policy,
            quota=self.settings.quota,
            warmup=self.settings.warmup,
            master_seed=self.settings.master_seed,
        )

    def run(
        self,
        workload: Workload,
        policy: str | PolicySpec | ReplacementPolicy,
        config: SystemConfig | None = None,
    ) -> WorkloadResult:
        config = config or self.config
        key = self._memo_key(workload, policy, config)
        result = self._runs.get(key)
        if result is None:
            if isinstance(policy, ReplacementPolicy):
                # Live policy objects are not serialisable: run in-process,
                # bypassing the pool and the persistent store.
                from repro.sim.multi import run_workload

                result = run_workload(
                    workload,
                    config,
                    policy,
                    quota=self.settings.quota,
                    warmup=self.settings.warmup,
                    master_seed=self.settings.master_seed,
                )
            else:
                result = self.pool.run_one(self._job(workload, policy, config))
                if result is None:
                    failure = (
                        self.pool.last_failures[-1]
                        if self.pool.last_failures
                        else None
                    )
                    detail = f": {failure.error}" if failure else ""
                    raise RuntimeError(
                        f"run quarantined after "
                        f"{failure.attempts if failure else '?'} attempts"
                        f" ({workload.name}, {policy_key(policy)}){detail}"
                    )
            self._runs[key] = result
        return result

    def prefetch(
        self,
        workloads: Iterable[Workload],
        policies: Iterable[str | PolicySpec],
        config: SystemConfig | None = None,
        *,
        alone: bool = True,
    ) -> None:
        """Batch-simulate every missing (workload, policy) pair in parallel.

        Also prefetches the ``IPC_alone`` baselines of every benchmark in
        *workloads* (unless ``alone=False``), since the throughput metrics
        need them immediately after.
        """
        workloads = list(workloads)
        policies = list(policies)
        self.prefetch_pairs(
            ((w, p) for w in workloads for p in policies), config, alone=alone
        )

    def prefetch_pairs(
        self,
        pairs: Iterable[tuple[Workload, str | PolicySpec]],
        config: SystemConfig | None = None,
        *,
        alone: bool = True,
    ) -> None:
        """Like :meth:`prefetch` but over explicit (workload, policy) pairs —
        Figure 1's per-workload forced-BRRIP variants need this shape."""
        config = config or self.config
        pending: list[tuple[tuple[str, str, str], WorkloadJob]] = []
        seen: set[tuple[str, str, str]] = set()
        benchmarks: set[str] = set()
        for workload, policy in pairs:
            benchmarks.update(workload.benchmarks)
            key = self._memo_key(workload, policy, config)
            if key in self._runs or key in seen:
                continue
            seen.add(key)
            pending.append((key, self._job(workload, policy, config)))
        if pending:
            results = self.pool.run([job for _, job in pending])
            for (key, _), result in zip(pending, results):
                # A quarantined job leaves a None hole: keep it out of the
                # memo, so a later run()/re-prefetch retries instead of
                # serving the hole.
                if result is not None:
                    self._runs[key] = result
        if alone and benchmarks:
            self._alone_cache(config).prefetch(sorted(benchmarks))

    # -- derived metrics ----------------------------------------------------------------

    def weighted_speedup(
        self,
        workload: Workload,
        policy: str | PolicySpec | ReplacementPolicy,
        config: SystemConfig | None = None,
    ) -> float:
        result = self.run(workload, policy, config)
        return weighted_speedup(result.ipcs, self.alone_ipcs(workload, config))

    def relative_ws(
        self,
        workload: Workload,
        policy: str | PolicySpec | ReplacementPolicy,
        config: SystemConfig | None = None,
        baseline: str = BASELINE_POLICY,
    ) -> float:
        """Per-workload speed-up over the TA-DRRIP baseline (figure y-axis)."""
        return self.weighted_speedup(workload, policy, config) / self.weighted_speedup(
            workload, baseline, config
        )

    def all_metrics(
        self,
        workload: Workload,
        policy: str | PolicySpec | ReplacementPolicy,
        config: SystemConfig | None = None,
    ) -> dict[str, float]:
        result = self.run(workload, policy, config)
        return compute_all_metrics(result.ipcs, self.alone_ipcs(workload, config))

    # -- bookkeeping --------------------------------------------------------------------

    def cache_summary(self) -> str:
        """One line describing how much work the caches saved."""
        stats = self.pool.stats
        where = f" in {self.store.root}" if self.store else ""
        failed = (
            f", {stats['failed']} failed (resumable)" if stats["failed"] else ""
        )
        return (
            f"runner: {stats['executed']} simulated, "
            f"{stats['store_hits']} from store{where}, "
            f"{len(self._runs)} workload runs memoised{failed}"
        )


def format_series(label: str, values: list[float]) -> str:
    body = " ".join(f"{v:.3f}" for v in values)
    return f"{label:<12} {body}"


def geometric_mean_gain(values: list[float]) -> float:
    """Mean percentage gain of a series of baseline-relative ratios."""
    from repro.util.stats import geometric_mean

    return (geometric_mean(values) - 1.0) * 100.0
