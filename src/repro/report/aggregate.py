"""Aggregate the result store into per-policy tournament statistics.

The tournament driver fills the persistent store with one
:class:`~repro.sim.results.WorkloadResult` per (policy, workload, seed)
plus the single-application ``IPC_alone`` baselines the throughput metrics
need.  This module turns those raw records into ranked statistics:

* one :class:`Cell` per (policy, workload, seed, target binding) — the
  weighted speed-up against the solo baselines, its ratio over the
  baseline policy on the same workload (the paper's y-axis), and the mean
  LLC MPKI;
* one :class:`PolicySummary` per policy — geometric means over its cells
  with a seed-clustered bootstrap confidence interval
  (:mod:`repro.report.stats`);
* a head-to-head win matrix — for every policy pair, the share of common
  cells where the row policy beats the column policy, or ``None`` when
  the pair shares no cells (rendered ``-``, excluded from win rates — a
  genuine 50% tie and "never met" must stay distinguishable).

Everything is read in one pass of the store's typed entry API
(:meth:`~repro.runner.store.ResultStore.entries`); this module has no
knowledge of the on-disk JSON layout.  Records that cannot be aggregated —
parameterised :class:`~repro.policies.spec.PolicySpec` sweeps from the
ablation figures, runs whose solo baselines or baseline-policy partner
were never simulated — are counted and skipped, so a store shared with
figure campaigns still reports cleanly on its tournament subset.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

from repro.metrics.throughput import weighted_speedup
from repro.report.stats import cluster_bootstrap_ci
from repro.runner.store import ResultStore, StoredResult
from repro.util.stats import arithmetic_mean, geometric_mean

#: The reference everything is normalised against — the paper's baseline.
DEFAULT_BASELINE = "tadrrip"


@dataclass(frozen=True)
class Cell:
    """One measured (policy, workload, seed) tournament entry."""

    policy: str
    workload: str
    config_name: str
    cores: int
    seed: int
    #: Weighted speed-up over the solo-execution baselines.
    ws: float
    #: ``ws`` normalised to the baseline policy on the same workload/seed.
    rel_ws: float
    #: Mean LLC misses per kilo-instruction across the workload's cores.
    llc_mpki: float
    #: What the workload's ``tgt:`` names were bound to, one
    #: :class:`~repro.targets.registry.TargetSpec` each (empty when synthetic).
    targets: tuple = ()

    def slot_key(self) -> tuple:
        """The workload slot: same workload, platform and bound target
        content."""
        return (self.workload, self.config_name, self.targets)

    def group_key(self) -> tuple:
        """The comparison group: one workload slot under one seed."""
        return (*self.slot_key(), self.seed)


@dataclass
class TournamentData:
    """Every aggregatable cell in a store, plus what had to be skipped."""

    baseline: str
    cells: list[Cell] = field(default_factory=list)
    #: Stable identity strings of every aggregated run (policy, workload,
    #: platform, seed, budgets) — the input to the snapshot config hash.
    identities: list[str] = field(default_factory=list)
    skipped_parameterised: int = 0
    skipped_no_alone: int = 0
    skipped_no_baseline: int = 0
    #: Cells whose workload ran at least one ingested real-trace target
    #: (``tgt:`` benchmark names; see :mod:`repro.targets`).
    real_cells: int = 0
    #: Jobs the supervised runner quarantined (persisted failure records)
    #: — holes in the grid, re-executed by ``tournament --resume``.
    failed_cells: int = 0

    @property
    def policies(self) -> list[str]:
        return sorted({c.policy for c in self.cells})

    @property
    def seeds(self) -> list[int]:
        return sorted({c.seed for c in self.cells})

    @property
    def workloads(self) -> list[str]:
        return sorted({c.workload for c in self.cells})

    @property
    def slots(self) -> int:
        """How many workload slots (:meth:`Cell.slot_key`) the cells fill:
        one ``tgt:`` workload run under two bindings is one name in
        :attr:`workloads` but two slots."""
        return len({c.slot_key() for c in self.cells})


@dataclass(frozen=True)
class PolicySummary:
    """One ranked row of the tournament table."""

    policy: str
    cells: int
    rel_ws_geomean: float
    rel_ws_ci: tuple[float, float]
    ws_geomean: float
    llc_mpki_mean: float
    #: Mean head-to-head score against every other policy (ties count
    #: half); pairs with no common cells are excluded, ``None`` when the
    #: policy shares cells with no other policy at all.
    win_rate: float | None


@dataclass
class TournamentReport:
    """The aggregated store: ranked summaries plus the full win matrix."""

    data: TournamentData
    summaries: list[PolicySummary]  # ranked best-first by rel_ws_geomean
    win_matrix: dict[str, dict[str, float | None]]

    def summary_for(self, policy: str) -> PolicySummary | None:
        for summary in self.summaries:
            if summary.policy == policy:
                return summary
        return None


def _config_identity(config) -> str:
    """A canonical string for one platform (name alone can alias)."""
    return json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))


def _add_alone(alone: dict, record: StoredResult, platform) -> None:
    """Fold one ``alone`` run into the ``IPC_alone`` lookup *alone*:
    ``(benchmark, seed, solo-platform, binding) -> (rank, IPC_alone)``.

    ``binding`` is the run's bound :class:`~repro.targets.registry.TargetSpec`
    tuple (empty for a synthetic benchmark), so two ingests under one
    ``tgt:`` name keep separate baselines.  When a benchmark was measured
    more than once (different budgets, a monitored Table 4
    characterisation run), the highest-quota unmonitored run wins —
    monitors are passive so the IPC matches, but preferring the plain run
    keeps the choice canonical.
    """
    job = record.job
    key = (job.benchmark, job.master_seed, platform(job.config), job.targets)
    rank = (0 if job.monitor else 1, job.quota)
    if key not in alone or alone[key][0] < rank:
        alone[key] = (rank, record.result().ipc)


def _workload_ws(record: StoredResult, alone, solo: str) -> tuple[float, float] | None:
    """(weighted speed-up, mean LLC MPKI) for one workload record whose
    solo platform identity is *solo*."""
    job = record.job
    bound = {spec.name: (spec,) for spec in job.targets}
    baselines = []
    for benchmark in job.benchmarks:
        entry = alone.get((benchmark, job.master_seed, solo, bound.get(benchmark, ())))
        if entry is None:
            return None
        baselines.append(entry[1])
    result = record.result()
    return (
        weighted_speedup(result.ipcs, baselines),
        arithmetic_mean(result.llc_mpkis),
    )


def gather(store: ResultStore, baseline: str = DEFAULT_BASELINE) -> TournamentData:
    """Collect every tournament-shaped cell from *store*.

    A cell needs three things: a plain (non-parameterised) policy name, a
    solo baseline for each of its benchmarks under the same platform, seed
    and target binding, and a baseline-policy run of the same workload,
    platform, seed and binding to normalise against.  Records missing any
    of them are counted per reason.

    The store is read in one pass (:meth:`ResultStore.entries`), so each
    stored file is opened and decoded once, and each distinct platform's
    identity string is built once.
    """
    data = TournamentData(baseline=baseline)
    platform = functools.cache(_config_identity)

    @functools.cache
    def solo_platform(config) -> str:
        return platform(config.with_cores(1))

    alone: dict[tuple, tuple[tuple[int, int], float]] = {}
    workload_records: list[StoredResult] = []
    for entry in store.entries():
        if not isinstance(entry, StoredResult):
            data.failed_cells += 1
        elif entry.kind == "alone":
            _add_alone(alone, entry, platform)
        else:
            workload_records.append(entry)
    # (workload, platform, seed, binding) -> policy -> (record, ws, mpki)
    groups: dict[tuple, dict[str, tuple[StoredResult, float, float]]] = {}
    for record in workload_records:
        job = record.job
        if not isinstance(job.policy, str):
            data.skipped_parameterised += 1
            continue
        measured = _workload_ws(record, alone, solo_platform(job.config))
        if measured is None:
            data.skipped_no_alone += 1
            continue
        key = (job.workload_name, job.config.name, job.master_seed, job.targets)
        groups.setdefault(key, {})[job.policy] = (record, *measured)
    for (workload, config_name, seed, targets), by_policy in sorted(
        groups.items(), key=lambda item: _group_order(item[0])
    ):
        base = by_policy.get(baseline)
        if base is None:
            data.skipped_no_baseline += len(by_policy)
            continue
        base_ws = base[1]
        bound = "".join(f"|{spec.name}={spec.key}" for spec in targets)
        for policy, (record, ws, mpki) in sorted(by_policy.items()):
            job = record.job
            if any(b.startswith("tgt:") for b in job.benchmarks):
                data.real_cells += 1
            data.cells.append(
                Cell(
                    policy=policy,
                    workload=workload,
                    config_name=config_name,
                    cores=record.cores,
                    seed=seed,
                    ws=ws,
                    rel_ws=ws / base_ws,
                    llc_mpki=mpki,
                    targets=targets,
                )
            )
            data.identities.append(
                f"{policy}|{workload}|{config_name}|{seed}"
                f"|q{job.quota}|w{job.warmup}{bound}"
            )
    data.identities.sort()
    return data


def _group_order(key: tuple) -> tuple:
    """Sort key of a ``gather`` group: bindings order by content key."""
    workload, config_name, seed, targets = key
    return (workload, config_name, seed, tuple(spec.key for spec in targets))


def _win_matrix(data: TournamentData) -> dict[str, dict[str, float | None]]:
    """Pairwise head-to-head scores over common (workload, seed) cells;
    ``None`` for pairs that never met in the same group."""
    by_group: dict[tuple, dict[str, float]] = {}
    for cell in data.cells:
        by_group.setdefault(cell.group_key(), {})[cell.policy] = cell.ws
    policies = data.policies
    scores = {a: dict.fromkeys(policies, 0.0) for a in policies}
    counts = {a: dict.fromkeys(policies, 0) for a in policies}
    for group in by_group.values():
        present = sorted(group)
        for i, a in enumerate(present):
            for b in present[i + 1 :]:
                counts[a][b] += 1
                counts[b][a] += 1
                if group[a] > group[b]:
                    scores[a][b] += 1.0
                elif group[b] > group[a]:
                    scores[b][a] += 1.0
                else:
                    scores[a][b] += 0.5
                    scores[b][a] += 0.5
    return {
        a: {
            b: (scores[a][b] / counts[a][b]) if counts[a][b] else None
            for b in policies
            if b != a
        }
        for a in policies
    }


def aggregate(
    data: TournamentData,
    *,
    confidence: float = 0.95,
    n_resamples: int | None = None,
) -> TournamentReport:
    """Rank the gathered cells into per-policy summaries + win matrix."""
    from repro.report.stats import DEFAULT_RESAMPLES

    n_resamples = DEFAULT_RESAMPLES if n_resamples is None else n_resamples
    win_matrix = _win_matrix(data)
    summaries = []
    for policy in data.policies:
        cells = [c for c in data.cells if c.policy == policy]
        by_seed: dict[int, list[float]] = {}
        for cell in cells:
            by_seed.setdefault(cell.seed, []).append(cell.rel_ws)
        ci = cluster_bootstrap_ci(
            [by_seed[s] for s in sorted(by_seed)],
            confidence=confidence,
            n_resamples=n_resamples,
        )
        met = [v for v in win_matrix.get(policy, {}).values() if v is not None]
        summaries.append(
            PolicySummary(
                policy=policy,
                cells=len(cells),
                rel_ws_geomean=geometric_mean([c.rel_ws for c in cells]),
                rel_ws_ci=ci,
                ws_geomean=geometric_mean([c.ws for c in cells]),
                llc_mpki_mean=arithmetic_mean([c.llc_mpki for c in cells]),
                win_rate=arithmetic_mean(met) if met else None,
            )
        )
    summaries.sort(key=lambda s: (-s.rel_ws_geomean, s.policy))
    return TournamentReport(data=data, summaries=summaries, win_matrix=win_matrix)


def report_from_store(
    store: ResultStore,
    *,
    baseline: str = DEFAULT_BASELINE,
    confidence: float = 0.95,
    n_resamples: int | None = None,
) -> TournamentReport:
    """Gather + aggregate in one call (the ``report`` command entry)."""
    return aggregate(
        gather(store, baseline), confidence=confidence, n_resamples=n_resamples
    )
