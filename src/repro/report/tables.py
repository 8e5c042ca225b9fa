"""Text rendering of the tournament report.

Three views over one :class:`~repro.report.aggregate.TournamentReport`:

* the **ranked table** — one row per policy, best first, with the
  seed-clustered bootstrap confidence interval next to each geomean;
* the **per-workload breakdown** — rel-WS geomeans per (policy, workload
  slot), the view that shows *where* a policy earns its rank;
* the **head-to-head win matrix** — the share of common cells where the
  row policy beats the column policy (``-`` for pairs that share none).

All three are plain monospace tables in the style of the paper-figure
renderers, so ``repro-experiments report`` output diffs cleanly in CI
artifacts.
"""

from __future__ import annotations

from repro.report.aggregate import TournamentReport
from repro.util.stats import geometric_mean


def render_ranked(report: TournamentReport) -> str:
    """The headline ranking with confidence intervals."""
    data = report.data
    header = (
        f"== policy tournament: {len(data.cells)} cells "
        f"({len(data.policies)} policies x {data.slots} workload slots "
        f"x {len(data.seeds)} seeds), rel WS over {data.baseline} =="
    )
    lines = [
        header,
        "rank  policy        rel WS   95% CI             WS geomean  LLC MPKI   win%  cells",
    ]
    for rank, s in enumerate(report.summaries, start=1):
        lo, hi = s.rel_ws_ci
        win = f"{s.win_rate * 100:>5.1f}" if s.win_rate is not None else f"{'-':>5}"
        lines.append(
            f"{rank:>4}  {s.policy:<12} {s.rel_ws_geomean:>7.4f}  "
            f"[{lo:.4f}, {hi:.4f}]  {s.ws_geomean:>10.4f}  "
            f"{s.llc_mpki_mean:>8.2f}  {win}  {s.cells:>5}"
        )
    if data.real_cells:
        rest = len(data.cells) - data.real_cells
        lines.append(
            f"({data.real_cells} cells ran ingested real-workload traces"
            + (f"; the other {rest} are synthetic)" if rest else ")")
        )
    skipped = (
        data.skipped_parameterised + data.skipped_no_alone + data.skipped_no_baseline
    )
    if skipped:
        lines.append(
            f"(skipped {data.skipped_parameterised} parameterised, "
            f"{data.skipped_no_alone} without solo baselines, "
            f"{data.skipped_no_baseline} without a {data.baseline} partner)"
        )
    if data.failed_cells:
        lines.append(
            f"({data.failed_cells} quarantined cells are holes in this grid "
            "— re-execute with: repro-experiments tournament --resume)"
        )
    return "\n".join(lines)


def render_breakdown(report: TournamentReport) -> str:
    """Per-workload rel-WS geomeans (columns: workload slots, over seeds)."""
    data = report.data
    workloads = data.workloads
    lines = [
        "== per-workload rel WS geomean (over "
        f"{len(data.seeds)} seed{'s' if len(data.seeds) != 1 else ''}) =="
    ]
    name_width = max([len("policy")] + [len(p) for p in data.policies])
    col = max(9, max((len(w) for w in workloads), default=9))
    lines.append(
        " ".join([f"{'policy':<{name_width}}"] + [f"{w:>{col}}" for w in workloads])
    )
    ranked = [s.policy for s in report.summaries]
    per_cell: dict[tuple[str, str], list[float]] = {}
    for cell in data.cells:
        per_cell.setdefault((cell.policy, cell.workload), []).append(cell.rel_ws)
    for policy in ranked:
        row = [f"{policy:<{name_width}}"]
        for workload in workloads:
            values = per_cell.get((policy, workload))
            row.append(f"{geometric_mean(values):>{col}.4f}" if values else f"{'-':>{col}}")
        lines.append(" ".join(row))
    return "\n".join(lines)


def render_win_matrix(report: TournamentReport) -> str:
    """Head-to-head shares: row policy's win % against each column policy."""
    policies = [s.policy for s in report.summaries]
    lines = ["== head-to-head win % (row beats column) =="]
    name_width = max([len("policy")] + [len(p) for p in policies])
    col = max(7, max((len(p) for p in policies), default=7))
    lines.append(
        " ".join([f"{'policy':<{name_width}}"] + [f"{p:>{col}}" for p in policies])
    )
    for a in policies:
        row = [f"{a:<{name_width}}"]
        for b in policies:
            share = None if a == b else report.win_matrix[a][b]
            row.append(
                f"{'-':>{col}}" if share is None else f"{share * 100:>{col}.1f}"
            )
        lines.append(" ".join(row))
    return "\n".join(lines)


def render_report(report: TournamentReport) -> str:
    """The full ``repro-experiments report`` text output."""
    return "\n\n".join(
        [render_ranked(report), render_breakdown(report), render_win_matrix(report)]
    )
