"""The standing policy tournament: all policies x workloads x seeds.

The replay engine made the marginal cost of one more LLC policy
approximately LLC-only, so this driver runs *wide* by default: every
distinct registered policy (:func:`repro.policies.registry.tournament_policies`)
over the Table 6 suites of the selected core counts, repeated across N
master seeds (each seed re-samples workload composition *and* the trace
streams).

Execution goes through the ordinary experiment
:class:`~repro.experiments.common.Runner`, which means:

* every (workload, policies) batch is prefetched through
  :class:`~repro.runner.parallel.ParallelRunner` — the runner schedules
  one private-level **capture** per swept platform ahead of the batch via
  the replay manifest, and replays every policy at LLC-only cost;
* every result (and every ``IPC_alone`` baseline the report's
  weighted-speed-up metric needs) lands in the persistent result store,
  which is exactly what ``repro-experiments report`` aggregates.

The driver itself renders only a scheduling summary; ranking, confidence
intervals and regression tracking are the report subsystem's job
(:mod:`repro.report`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.experiments.common import (
    ExperimentSettings,
    Runner,
    config_for_cores,
)
from repro.policies.registry import make_policy, tournament_policies
from repro.sim.config import SystemConfig

#: Default suites swept: the 4-core study keeps a full-roster tournament
#: CI-friendly; pass ``--cores 4 8 16`` to widen.
DEFAULT_CORES = (4,)


@dataclass
class TournamentRun:
    """What one tournament invocation scheduled and executed."""

    policies: tuple[str, ...]
    cores: tuple[int, ...]
    seeds: tuple[int, ...]
    #: (cores, seed) -> number of workloads swept.
    suites: dict[tuple[int, int], int] = field(default_factory=dict)
    scheduled: int = 0
    executed: int = 0
    store_hits: int = 0
    #: Cells quarantined after exhausting retries (holes in the grid).
    failed: int = 0
    results_dir: str | None = None

    def render(self) -> str:
        lines = [
            f"== tournament: {len(self.policies)} policies x "
            f"{sum(self.suites.values())} workloads x {len(self.seeds)} seeds ==",
            f"policies: {' '.join(self.policies)}",
        ]
        for (cores, seed), count in sorted(self.suites.items()):
            lines.append(f"  {cores}-core suite, seed {seed}: {count} workloads")
        summary = (
            f"{self.scheduled} runs scheduled: {self.executed} simulated, "
            f"{self.store_hits} already in store"
        )
        if self.failed:
            summary += f", {self.failed} FAILED (quarantined)"
        lines.append(summary)
        if self.failed:
            lines.append(
                "re-run with --resume to re-execute only the failed cells"
            )
        if self.results_dir:
            lines.append(
                f"results persisted in {self.results_dir} — "
                "aggregate with: repro-experiments report"
            )
        return "\n".join(lines)


def _validate_policies(policies: tuple[str, ...]) -> None:
    """Fail fast on unknown names before any simulation is scheduled."""
    for name in policies:
        make_policy(name)


def run_tournament(
    base_config: SystemConfig | None = None,
    *,
    policies: tuple[str, ...] | None = None,
    cores: tuple[int, ...] = DEFAULT_CORES,
    seeds: tuple[int, ...] = (0, 1, 2),
    workloads: int | None = None,
    benchmark_set: str | None = None,
    jobs: int | None = None,
    results_dir: str | Path | None = "results",
    use_cache: bool = True,
    settings: ExperimentSettings | None = None,
    retry=None,
) -> TournamentRun:
    """Schedule the full tournament grid through the parallel runner.

    Parameters mirror the CLI: *seeds* are the master seeds swept,
    *workloads* optionally caps each suite (default: the
    ``REPRO_SCALE``-scaled Table 6 counts), *policies* defaults to every
    distinct registered policy, and *benchmark_set* picks the roster
    (``synthetic``/``real``/``all`` — the real set runs the targets
    ingested into the store's ``traces/`` directory).  The baseline
    policy is always included — the report normalises against it.
    """
    from repro.experiments.common import BASELINE_POLICY

    roster = tuple(policies) if policies else tournament_policies()
    if BASELINE_POLICY not in roster:
        roster = (BASELINE_POLICY, *roster)
    _validate_policies(roster)
    base_settings = settings or ExperimentSettings.from_env()
    if benchmark_set is not None:
        base_settings = replace(base_settings, benchmark_set=benchmark_set)
    if base_settings.benchmark_set != "synthetic" and results_dir:
        # tgt: names resolve through the active targets directory; the
        # store that holds the ingested buffers is the natural default.
        from repro.targets import activate

        activate(results_dir)
    run = TournamentRun(
        policies=roster,
        cores=tuple(cores),
        seeds=tuple(seeds),
        results_dir=str(results_dir) if results_dir else None,
    )
    for seed in seeds:
        seed_settings = replace(base_settings, master_seed=seed)
        runner = Runner(
            base_config or SystemConfig.scaled(16),
            seed_settings,
            jobs=jobs,
            results_dir=results_dir,
            use_cache=use_cache,
            retry=retry,
        )
        try:
            for core_count in cores:
                config = config_for_cores(runner.config, core_count)
                suite = seed_settings.suite(core_count)
                if workloads is not None:
                    suite = suite[:workloads]
                run.suites[(core_count, seed)] = len(suite)
                run.scheduled += len(suite) * len(roster)
                # One batch per (seed, suite): every policy sweeps every
                # workload, so the runner captures each platform once and
                # replays the whole roster at LLC speed.
                runner.prefetch(suite, roster, config)
            run.executed += runner.pool.stats["executed"]
            run.store_hits += runner.pool.stats["store_hits"]
            run.failed += runner.pool.stats["failed"]
        finally:
            runner.close()
    return run
