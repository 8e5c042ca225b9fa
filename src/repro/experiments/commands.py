"""The ``repro-experiments`` subcommands, registered on import.

Three families share the :mod:`repro.experiments.cli` registry:

* **paper artifacts** — one subcommand per figure/table (``fig1`` ...
  ``table7``, ``ablations``), each declaring only the flags it actually
  honours: ``--cores`` exists only where the artifact is core-count
  parameterised, ``--seed`` only on simulation-backed commands (the
  static ``table2``/``table3`` renderings reject it);
* **maintenance** — ``golden`` (fixture verify/regen), ``profile``
  (cProfile any experiment), ``traces gc`` (prune unreferenced shared
  buffers), ``list``;
* **the tournament pipeline** — ``tournament`` (schedule all policies x
  workloads x seeds into the store) and ``report`` (aggregate the store
  into ranked tables, write the ``BENCH_tournament.json`` snapshot, and
  optionally diff a baseline snapshot: exit 1 on significant regression,
  exit 3 when the snapshots are not comparable).  When ``--out`` and
  ``--baseline`` resolve to the same file the committed baseline is kept,
  never overwritten.

Every command builds its budgets from ``REPRO_SCALE`` exactly like the
pytest benches, and every simulation-backed command shares one memoising
runner per invocation (misses sharded over ``--jobs`` workers, results
persisted under ``--results-dir``).
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.experiments.cli import (
    add_benchmark_set_flag,
    add_seed_flag,
    add_sim_flags,
    add_store_flags,
    register_command,
)

if TYPE_CHECKING:
    from repro.experiments.common import ExperimentSettings, Runner
    from repro.sim.config import SystemConfig

# -- shared construction -----------------------------------------------------------


def _settings_from(args) -> ExperimentSettings:
    """The invocation's budgets: ``REPRO_SCALE`` scaled, ``--seed`` and
    ``--benchmark-set`` applied.

    When a results dir is given, it also becomes the active targets
    directory (unless ``REPRO_TARGETS_DIR`` pins one), which is where the
    runner binds ``tgt:`` names to their registered specs.
    """
    from repro.experiments.common import ExperimentSettings
    from repro.targets import activate

    settings = ExperimentSettings.from_env()
    seed = getattr(args, "seed", 0)
    if seed:
        settings = replace(settings, master_seed=seed)
    benchmark_set = getattr(args, "benchmark_set", "synthetic")
    if benchmark_set != "synthetic":
        settings = replace(settings, benchmark_set=benchmark_set)
    results_dir = getattr(args, "results_dir", None)
    if results_dir:
        activate(results_dir)
    return settings


def _config_from(args) -> SystemConfig:
    from repro.sim.config import SystemConfig

    return SystemConfig.scaled(getattr(args, "cores", 16))


def _retry_from(args):
    """Failure-handling policy: env defaults, CLI flags layered on top."""
    from repro.runner import RetryPolicy

    return RetryPolicy.from_env().with_overrides(
        max_retries=getattr(args, "max_retries", None),
        job_timeout=getattr(args, "job_timeout", None),
    )


def _runner_from(args, *, inline: bool = False) -> Runner:
    from repro.experiments.common import Runner

    if inline:
        return Runner(
            _config_from(args), _settings_from(args), jobs=1, results_dir=None, use_cache=False
        )
    return Runner(
        _config_from(args),
        _settings_from(args),
        jobs=args.jobs,
        results_dir=args.results_dir or None,
        use_cache=not args.no_cache,
        retry=_retry_from(args),
    )


def _execute_experiment(name: str, runner: Runner) -> None:
    """Run one named experiment and print its rendering."""
    from repro.experiments.ablation import (
        run_interval_ablation,
        run_monitor_sets_ablation,
        run_priority_range_ablation,
    )
    from repro.experiments.fig1 import run_fig1
    from repro.experiments.fig6 import run_fig6
    from repro.experiments.fig7 import run_fig7
    from repro.experiments.perapp import run_perapp
    from repro.experiments.scurves import run_scurve
    from repro.experiments.table4 import run_table4
    from repro.experiments.table7 import run_table7
    from repro.experiments.tables import render_table2, render_table3, render_table6

    config, settings = runner.config, runner.settings
    if name == "fig1":
        print(run_fig1(runner, config.num_cores).render())
    elif name == "fig3":
        print(run_scurve(runner, 16).render())
    elif name == "fig4":
        result = run_perapp(runner, 16)
        print(result.render(thrashing=True))
        print()
        print(result.render(thrashing=False))
    elif name == "fig6":
        print(run_fig6(runner, config.num_cores).render())
    elif name == "fig7":
        print(run_fig7(runner).render())
    elif name == "fig8":
        for n in (4, 8, 20, 24):
            print(run_scurve(runner, n).render())
            print()
    elif name == "table2":
        print(render_table2())
    elif name == "table3":
        print(render_table3(config))
    elif name == "table4":
        print(run_table4(config, settings, pool=runner.pool).render())
    elif name == "table6":
        print(render_table6(settings.master_seed))
    elif name == "table7":
        print(run_table7(runner).render())
    elif name == "ablations":
        print(run_priority_range_ablation(runner).render())
        print(run_interval_ablation(runner).render())
        print(run_monitor_sets_ablation(runner).render())
    else:  # pragma: no cover - registry and choices guard this
        raise ValueError(f"unknown experiment {name!r}")


# -- paper artifacts ---------------------------------------------------------------

#: name -> (help line, simulation-backed, honours --cores)
EXPERIMENTS: dict[str, tuple[str, bool, bool]] = {
    "fig1": ("Figure 1: duelling-set sensitivity of DIP-style policies", True, True),
    "fig3": ("Figure 3: 16-core weighted-speed-up s-curves", True, False),
    "fig4": ("Figures 4/5: per-application speed-up split", True, False),
    "fig6": ("Figure 6: bypass-wrapper comparison", True, True),
    "fig7": ("Figure 7: large-cache sensitivity", True, False),
    "fig8": ("Figure 8: 4/8/20/24-core scaling s-curves", True, False),
    "table2": ("Table 2: hardware cost comparison (static)", False, False),
    "table3": ("Table 3: evaluated system configuration (static)", False, True),
    "table4": ("Table 4: benchmark characterisation", True, True),
    "table6": ("Table 6: workload-design examples", False, False),
    "table7": ("Table 7: throughput-metric comparison", True, False),
    "ablations": ("Priority-range / interval / monitor-set ablations", True, False),
}


def _register_experiments() -> None:
    for name, (help_line, simulated, cores) in EXPERIMENTS.items():

        def configure(parser, simulated=simulated, cores=cores, name=name):
            if simulated:
                add_sim_flags(parser, cores=cores)
            elif cores:
                parser.add_argument(
                    "--cores", type=int, default=16, help="platform core count"
                )
            elif name == "table6":
                add_seed_flag(parser)

        def run(args, name=name, simulated=simulated):
            runner = _runner_from(args, inline=not simulated)
            try:
                _execute_experiment(name, runner)
                if simulated:
                    print(runner.cache_summary(), file=sys.stderr)
            finally:
                runner.close()
            return 0

        register_command(name, help=help_line, configure=configure)(run)


_register_experiments()


# -- tournament + report -----------------------------------------------------------


def _configure_tournament(parser) -> None:
    parser.add_argument(
        "--seeds",
        type=int,
        default=3,
        help="number of master seeds swept (seed, seed+1, ...)",
    )
    parser.add_argument(
        "--cores",
        type=int,
        nargs="+",
        default=None,
        help="suite core counts to sweep (default: 4)",
    )
    parser.add_argument(
        "--policies",
        nargs="+",
        default=None,
        metavar="POLICY",
        help="policy roster (default: every distinct registered policy)",
    )
    parser.add_argument(
        "--workloads",
        type=int,
        default=None,
        help="cap the workloads per suite (default: REPRO_SCALE-scaled Table 6 counts)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="re-execute only the failed/missing cells of an interrupted "
        "sweep (requires --results-dir; completed cells come from the store)",
    )
    add_seed_flag(parser)
    add_benchmark_set_flag(parser)
    add_store_flags(parser)


@register_command(
    "tournament",
    help="run all policies x workloads x N seeds into the result store",
    configure=_configure_tournament,
)
def _cmd_tournament(args) -> int:
    from repro.experiments.tournament import DEFAULT_CORES, run_tournament

    if args.seeds < 1:
        print("tournament needs --seeds >= 1", file=sys.stderr)
        return 2
    if args.resume:
        # Resume rides on the content-addressed store: completed cells
        # are hits, failed/missing cells are the only misses executed.
        if not args.results_dir:
            print("tournament --resume needs --results-dir", file=sys.stderr)
            return 2
        if args.no_cache:
            print(
                "tournament --resume contradicts --no-cache "
                "(resume replays the store)",
                file=sys.stderr,
            )
            return 2
        from repro.runner.store import ResultStore

        holes = sum(1 for _ in ResultStore(args.results_dir).failures())
        print(
            f"resuming: {holes} quarantined cells (plus any missing ones) "
            "will be re-executed",
            file=sys.stderr,
        )
    if not args.results_dir:
        print(
            "warning: no --results-dir; results will not be aggregatable "
            "by 'repro-experiments report'",
            file=sys.stderr,
        )
    try:
        run = run_tournament(
            policies=tuple(args.policies) if args.policies else None,
            cores=tuple(args.cores) if args.cores else DEFAULT_CORES,
            seeds=tuple(range(args.seed, args.seed + args.seeds)),
            workloads=args.workloads,
            benchmark_set=args.benchmark_set,
            jobs=args.jobs,
            results_dir=args.results_dir or None,
            use_cache=not args.no_cache,
            retry=_retry_from(args),
        )
    except ValueError as exc:  # unknown policy/core-count, before simulating
        print(f"tournament: {exc}", file=sys.stderr)
        return 2
    print(run.render())
    return 0


def _configure_report(parser) -> None:
    parser.add_argument(
        "--results-dir",
        default="results",
        help="result store to aggregate (the tournament's --results-dir)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_tournament.json",
        help="where to write the trajectory snapshot",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="SNAPSHOT",
        help="diff against this committed snapshot; exit 1 on significant "
        "regression, 3 when the snapshots are not comparable",
    )
    parser.add_argument(
        "--baseline-policy",
        default=None,
        help="policy every cell is normalised against (default: tadrrip)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="relative rel-WS movement considered significant (default: 0.01)",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="bootstrap confidence level for the reported intervals",
    )
    parser.add_argument(
        "--no-kernel",
        action="store_true",
        help="skip the kernel-throughput probe in the snapshot",
    )


@register_command(
    "report",
    help="aggregate the store into ranked tables + BENCH_tournament.json",
    configure=_configure_report,
)
def _cmd_report(args) -> int:
    from repro.report import (
        DEFAULT_BASELINE,
        DEFAULT_THRESHOLD,
        build_snapshot,
        compare,
        load_snapshot,
        measure_kernel_throughput,
        render_report,
        report_from_store,
        write_snapshot,
    )
    from repro.runner.store import ResultStore

    if not args.results_dir:
        print("report needs a persistent store (--results-dir)", file=sys.stderr)
        return 2
    # Read the baseline before anything is written: with the default --out
    # (BENCH_tournament.json) both flags name the committed snapshot, and
    # writing first would clobber it and then diff the run against itself.
    baseline = None
    if args.baseline:
        try:
            baseline = load_snapshot(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"report: cannot read baseline: {exc}", file=sys.stderr)
            return 2
    store = ResultStore(args.results_dir)
    report = report_from_store(
        store,
        baseline=args.baseline_policy or DEFAULT_BASELINE,
        confidence=args.confidence,
    )
    if not report.data.cells:
        print(
            f"no tournament cells in {args.results_dir} — "
            "run 'repro-experiments tournament' first",
            file=sys.stderr,
        )
        return 2
    print(render_report(report))
    kernel = None if args.no_kernel else measure_kernel_throughput()
    snapshot = build_snapshot(report, kernel=kernel)
    if args.out:
        if args.baseline and Path(args.out).resolve() == Path(args.baseline).resolve():
            print(
                f"report: --out and --baseline both name {args.out}; keeping "
                "the committed baseline (pass a different --out to also "
                "write the fresh snapshot)",
                file=sys.stderr,
            )
        else:
            path = write_snapshot(snapshot, args.out)
            print(f"snapshot written to {path}", file=sys.stderr)
    if baseline is not None:
        verdict = compare(
            snapshot,
            baseline,
            threshold=DEFAULT_THRESHOLD if args.threshold is None else args.threshold,
        )
        print()
        print(verdict.render())
        if not verdict.comparable:
            return 3
        if verdict.has_regressions:
            return 1
    return 0


# -- maintenance -------------------------------------------------------------------


def _configure_golden(parser) -> None:
    parser.add_argument(
        "--regen",
        action="store_true",
        help="rewrite the golden-master fixtures instead of verifying",
    )
    parser.add_argument(
        "--fixtures-dir",
        default=None,
        help="fixture directory (default: tests/golden/fixtures)",
    )


@register_command(
    "golden",
    help="verify (or --regen) the kernel golden-master fixtures",
    configure=_configure_golden,
)
def _cmd_golden(args) -> int:
    """Fixtures pin the simulation kernel's exact behaviour for every
    registered policy (see :mod:`repro.golden`).  Regenerate only after an
    *intentional* behaviour change, then review the fixture diff."""
    from repro.golden import verify_fixtures, write_fixtures

    if args.regen:
        written = write_fixtures(args.fixtures_dir)
        print(f"regenerated {len(written)} golden fixtures in {written[0].parent}")
        return 0
    failures = verify_fixtures(args.fixtures_dir)
    if not failures:
        print("golden fixtures verified: kernel behaviour is bit-identical")
        return 0
    for name, problems in sorted(failures.items()):
        print(f"FAIL {name}")
        for problem in problems:
            print(f"  {problem}")
    print(
        f"{len(failures)} golden case(s) diverged; if intentional, re-run "
        "with --regen and review the fixture diff"
    )
    return 1


def _configure_profile(parser) -> None:
    parser.add_argument(
        "target",
        choices=sorted(EXPERIMENTS),
        help="the experiment to run under cProfile (e.g. fig3)",
    )
    parser.add_argument("--cores", type=int, default=16, help="platform core count")
    add_seed_flag(parser)
    parser.add_argument(
        "--top",
        type=int,
        default=25,
        help="number of cumulative-time rows to print",
    )
    parser.add_argument(
        "--profile-out",
        default=None,
        help="also dump raw pstats data to this file "
        "(inspectable with snakeviz / pstats)",
    )


@register_command(
    "profile",
    help="run one experiment under cProfile (inline, store bypassed)",
    configure=_configure_profile,
)
def _cmd_profile(args) -> int:
    """The bench runs inline (one process, store bypassed) so the profile
    captures real simulation work rather than pickling or cache reads —
    exactly the view a perf PR needs to locate hot spots."""
    import cProfile
    import io
    import pstats

    runner = _runner_from(args, inline=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        _execute_experiment(args.target, runner)
    finally:
        profiler.disable()
        runner.close()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(args.top)
    print(stream.getvalue())
    if args.profile_out:
        stats.dump_stats(args.profile_out)
        print(f"raw profile written to {args.profile_out}", file=sys.stderr)
    print(runner.cache_summary(), file=sys.stderr)
    return 0


def _configure_traces(parser) -> None:
    parser.add_argument(
        "action",
        choices=["gc", "ls"],
        help="'gc' prunes unreferenced artifacts, 'ls' lists every artifact "
        "with its provenance",
    )
    parser.add_argument(
        "--results-dir",
        default="results",
        help="persistent result store root",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be pruned without deleting (gc only)",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="move corrupt referenced artifacts to traces/quarantine/ "
        "(they are regenerated on the next sweep; gc only)",
    )


@register_command(
    "traces",
    help="trace-artifact maintenance: 'traces gc' prunes, 'traces ls' "
    "lists with provenance",
    configure=_configure_traces,
)
def _cmd_traces(args) -> int:
    """``gc`` walks the persistent result store through its typed query
    API, collects the replay captures every stored result references
    (plus the target buffers ``targets.json`` pins), and deletes the rest
    of ``<results-dir>/traces/``.  ``ls`` only enumerates, rendering each
    artifact's provenance from its meta sidecar."""
    from repro.runner.tracegc import collect_garbage, list_traces

    if not args.results_dir:
        print(
            f"traces {args.action} needs a persistent store (--results-dir)",
            file=sys.stderr,
        )
        return 2
    if args.action == "ls":
        print(list_traces(args.results_dir).render())
        return 0
    report = collect_garbage(args.results_dir, dry_run=args.dry_run, fix=args.fix)
    print(report.render())
    return 0


# -- targets (real-workload trace frontend) ----------------------------------------


def _configure_targets(parser) -> None:
    parser.add_argument(
        "action",
        choices=["list", "ingest", "info"],
        help="'ingest' trace files, 'list' registered targets, "
        "'info' one target's provenance",
    )
    parser.add_argument(
        "items",
        nargs="*",
        metavar="ITEM",
        help="trace files (ingest) or target names (info)",
    )
    parser.add_argument(
        "--format",
        choices=["champsim", "drcachesim", "lackey"],
        default=None,
        dest="fmt",
        help="trace format (default: inferred from the file name)",
    )
    parser.add_argument(
        "--name",
        default=None,
        help="registry name for the ingested target "
        "(single file only; default: derived from the file name)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="down-sampling cap in accesses (default: REPRO_TRACE_BUDGET "
        "x REPRO_SCALE)",
    )
    parser.add_argument(
        "--block-size", type=int, default=64, help="cache block size in bytes"
    )
    parser.add_argument(
        "--mlp",
        type=float,
        default=2.0,
        help="memory-level parallelism assumed by the core model",
    )
    parser.add_argument(
        "--base-cpi",
        type=float,
        default=1.0,
        help="non-memory CPI assumed by the core model",
    )
    parser.add_argument(
        "--results-dir",
        default="results",
        help="store whose traces/ directory receives the ingested buffers",
    )


@register_command(
    "targets",
    help="real-workload traces: ingest ChampSim/drcachesim/lackey files "
    "as tournament benchmarks",
    configure=_configure_targets,
)
def _cmd_targets(args) -> int:
    """Ingestion materialises each trace once, content-addressed, under
    ``<results-dir>/traces/`` (see :mod:`repro.targets`); ingested targets
    then join any suite via ``--benchmark-set real``/``all``."""
    from repro.runner.integrity import read_meta
    from repro.targets import FormatError, ingest_file, load_registry
    from repro.targets.registry import buffer_path, lookup_target

    if not args.results_dir:
        print("targets needs a persistent store (--results-dir)", file=sys.stderr)
        return 2
    directory = Path(args.results_dir) / "traces"

    if args.action == "list":
        registry = load_registry(directory)
        if not registry:
            print(
                f"no targets ingested under {directory} — "
                "run: repro-experiments targets ingest <trace-file>"
            )
            return 0
        for name in sorted(registry):
            spec = registry[name]
            print(
                f"{name:<28} [{spec.fmt}] origin={spec.origin} "
                f"accesses={spec.n_accesses} budget={spec.budget} "
                f"ipa={spec.instructions_per_access:.2f}"
            )
        return 0

    if not args.items:
        print(
            f"targets {args.action}: needs at least one "
            f"{'trace file' if args.action == 'ingest' else 'target name'}",
            file=sys.stderr,
        )
        return 2

    if args.action == "ingest":
        if args.name and len(args.items) > 1:
            print(
                "targets ingest: --name applies to a single file", file=sys.stderr
            )
            return 2
        for item in args.items:
            try:
                spec, reused = ingest_file(
                    item,
                    args.fmt,
                    directory=directory,
                    name=args.name,
                    budget=args.budget,
                    block_size=args.block_size,
                    mlp=args.mlp,
                    base_cpi=args.base_cpi,
                )
            except (FormatError, OSError, ValueError) as exc:
                print(f"targets ingest: {item}: {exc}", file=sys.stderr)
                return 2
            verb = "reused" if reused else "ingested"
            print(
                f"{verb} {spec.name} -> target-{spec.key}.npy "
                f"[{spec.fmt}] {spec.n_accesses} accesses "
                f"({spec.n_chunks} chunks, budget {spec.budget})"
            )
        return 0

    # info: registered targets first, then raw buffer names/keys — the
    # meta sidecars make provenance uniform across both kinds.
    status = 0
    for item in args.items:
        spec = lookup_target(item, directory)
        if spec is not None:
            meta = read_meta(buffer_path(directory, spec.key)) or {}
            print(f"{spec.name}:")
            print(f"  buffer     target-{spec.key}.npy")
            print(f"  format     {spec.fmt}")
            print(f"  origin     {spec.origin}")
            print(f"  source     sha256:{spec.source_sha256}")
            print(f"  budget     {spec.budget}")
            print(
                f"  accesses   {spec.n_accesses} "
                f"({spec.n_chunks} chunks of 4096)"
            )
            print(f"  ipa        {spec.instructions_per_access:.3f}")
            print(f"  core model mlp={spec.mlp} base_cpi={spec.base_cpi}")
            if meta.get("instructions"):
                print(f"  instrs     {meta['instructions']}")
            continue
        # Fall back to any artifact in the traces dir (by file name or
        # target key) so `targets info <file>` prints its provenance.
        from repro.runner.tracegc import provenance_line

        candidates = [
            p
            for p in (directory / item, directory / f"target-{item}.npy")
            if p.is_file()
        ]
        if candidates:
            print(f"{candidates[0].name}: {provenance_line(candidates[0])}")
            continue
        print(f"targets info: unknown target {item!r}", file=sys.stderr)
        status = 2
    return status


@register_command("list", help="list every available subcommand")
def _cmd_list(args) -> int:
    from repro.experiments.cli import COMMANDS

    for name, command in COMMANDS.items():
        if name == "list":
            continue
        print(f"{name:<12} {command.help}" if command.help else name)
    return 0
