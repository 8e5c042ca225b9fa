"""Single-application runs: IPC_alone baselines and Table 4 characterisation.

``run_alone`` executes one benchmark on a single-core instance of the
platform (the whole LLC to itself), which is how the paper obtains the
IPC_alone denominators of the weighted-speed-up metric and the standalone
Footprint-number / L2-MPKI columns of Table 4.

``AloneCache`` memoises those runs per (benchmark, configuration): a 16-core
experiment suite reuses the same 36 baselines across every workload and
policy.
"""

from __future__ import annotations

from repro.sim.config import SystemConfig
from repro.sim.results import SingleRunResult
from repro.trace.benchmarks import BENCHMARKS


def run_alone(
    benchmark: str,
    config: SystemConfig,
    *,
    policy: str = "tadrrip",
    quota: int = 30_000,
    warmup: int = 5_000,
    master_seed: int = 0,
    monitor: bool = False,
    monitor_all_sets: bool = False,
) -> SingleRunResult:
    """Run *benchmark* alone; optionally attach passive footprint monitors."""
    # The platform and kernels load here, not at module import: an
    # :class:`AloneCache` served wholly from the result store needs none.
    from repro.core.monitor import MonitoredPolicy
    from repro.cpu.engine import MulticoreEngine
    from repro.sim.build import build_hierarchy, geometry_of, resolve_policy
    from repro.trace.benchmarks import make_source

    spec = BENCHMARKS.get(benchmark)
    if spec is None and benchmark.startswith("tgt:"):
        # Ingested targets resolve through the active registry (raises
        # with ingest guidance when the target is unknown there).
        from repro.targets.registry import require_target

        spec = require_target(benchmark)
    if spec is None:
        raise ValueError(f"unknown benchmark {benchmark!r}")
    solo_config = config.with_cores(1)
    llc_policy = resolve_policy(policy, solo_config)
    monitored: MonitoredPolicy | None = None
    if monitor:
        configs = {"sampled": (solo_config.monitor_sets, solo_config.monitor_entries)}
        if monitor_all_sets:
            # The Fpn(A) column: every set monitored, 32-entry arrays (the
            # paper uses 32 entries "only to report the upper-bound").
            configs["all"] = (solo_config.llc.num_sets, 32)
        monitored = MonitoredPolicy(
            llc_policy, configs, solo_config.partial_tag_bits
        )
        llc_policy = monitored
    hierarchy = build_hierarchy(solo_config, llc_policy)
    source = make_source(spec, geometry_of(solo_config), 0, master_seed)
    engine = MulticoreEngine(
        hierarchy,
        [source],
        quota_per_core=quota,
        interval_misses=solo_config.effective_interval,
        warmup_accesses=warmup,
    )
    # Snapshots, monitors and the LLC policy are all that is read, so the
    # private levels' end state is not reconstructed.
    snapshots = engine.run(finalize=False)
    footprints: dict[str, float] = {}
    if monitored is not None:
        footprints = {
            label: monitored.mean_footprint(label, 0) for label in monitored.samplers
        }
    return SingleRunResult(
        benchmark=benchmark,
        config_name=solo_config.name,
        policy=hierarchy.llc.policy.describe(),
        snapshot=snapshots[0],
        footprints=footprints,
        intervals=engine.intervals_completed,
    )


class AloneCache:
    """Memoised IPC_alone lookups shared by an experiment suite.

    When constructed with a :class:`~repro.runner.parallel.ParallelRunner`,
    misses are executed through it — which means they hit the persistent
    result store across invocations and can be batch-prefetched in
    parallel via :meth:`prefetch`.  Without a pool the cache falls back to
    direct in-process :func:`run_alone` calls.
    """

    def __init__(
        self,
        config: SystemConfig,
        *,
        policy: str = "tadrrip",
        quota: int = 30_000,
        warmup: int = 5_000,
        master_seed: int = 0,
        pool=None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.quota = quota
        self.warmup = warmup
        self.master_seed = master_seed
        self.pool = pool
        self._results: dict[str, SingleRunResult] = {}

    def job_for(self, benchmark: str):
        """The serialisable job description for one baseline run.

        The config is canonicalised to one core — exactly what
        :func:`run_alone` simulates — so every suite that shares a
        platform (16/20/24-core studies on the same LLC) derives the same
        cache key and shares one set of baselines in the result store.
        """
        from repro.runner.jobs import AloneJob

        return AloneJob(
            benchmark=benchmark,
            config=self.config.with_cores(1),
            policy=self.policy,
            quota=self.quota,
            warmup=self.warmup,
            master_seed=self.master_seed,
        )

    def prefetch(self, benchmarks: tuple[str, ...] | list[str]) -> None:
        """Batch-run the missing benchmarks (in parallel when pooled)."""
        missing = sorted({b for b in benchmarks if b not in self._results})
        if not missing:
            return
        if self.pool is None:
            for benchmark in missing:
                self.result(benchmark)
            return
        for benchmark, result in zip(
            missing, self.pool.run([self.job_for(b) for b in missing])
        ):
            # A quarantined baseline leaves a None hole; keep it out of
            # the memo so a later lookup retries (and can then raise).
            if result is not None:
                self._results[benchmark] = result

    def result(self, benchmark: str) -> SingleRunResult:
        cached = self._results.get(benchmark)
        if cached is None:
            if self.pool is not None:
                cached = self.pool.run_one(self.job_for(benchmark))
                if cached is None:
                    failure = (
                        self.pool.last_failures[-1]
                        if getattr(self.pool, "last_failures", None)
                        else None
                    )
                    detail = f": {failure.error}" if failure else ""
                    raise RuntimeError(
                        f"IPC_alone baseline for {benchmark!r} quarantined"
                        f"{detail}"
                    )
            else:
                cached = run_alone(
                    benchmark,
                    self.config,
                    policy=self.policy,
                    quota=self.quota,
                    warmup=self.warmup,
                    master_seed=self.master_seed,
                )
            self._results[benchmark] = cached
        return cached

    def ipc(self, benchmark: str) -> float:
        return self.result(benchmark).ipc

    def ipcs(self, benchmarks: tuple[str, ...]) -> list[float]:
        return [self.ipc(b) for b in benchmarks]
