"""End-to-end benchmark of the ``repro.experiments`` CLI, with a traced per-layer split.

Usage (from the repository root)::

    python benchmarks/perf/bench.py --workload sweep4_cold --seed 0
    python benchmarks/perf/bench.py --workload sweep4_cold --seed 0 --trace
    python benchmarks/perf/bench.py --all --out .bench_out/pass1

One closed-loop client: this process starts one CLI invocation at a time
as a subprocess and waits for it to exit before starting the next.  Every
invocation runs at ``REPRO_SCALE=0.1 --jobs 2`` with every inherited
``REPRO_*`` variable dropped, so no kill switch can change the kernel
under measurement.  The seed reaches the program only through the
command line it generates: as the tournament's ``--seed``, or, for the
synthetic cold grids, as the order of the grid (see :class:`Workload`).

A run sets up (five CLI warm-up rounds plus the workload's preparation),
times as many invocations as fit in ``--seconds``, checks the simulated
results against ``expected.json`` and ``BENCH_tournament.json``, and
prints one ``name value unit`` line per metric.  The last line of stdout
is a JSON object with ``correct``, ``attempted``, ``failed`` and the
``BENCHMARK.json`` metrics: end-to-end ones, or with ``--trace`` the
per-layer ones from one extra traced rep (see :mod:`tracer`).  The exit
code is 1 when any result is wrong or any invocation failed, and 2 when
set-up fails (no result line is printed then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
CONTRACT = HERE.parents[1] / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"

SCALE = "0.1"
JOBS = 2
SETUP_ROUNDS = 5
#: Wall-clock limit of one workload's run, set-up included.
RUN_LIMIT_S = 170.0
FIXTURES = ("toy-champsim.trace.gz", "toy.drcachesim.txt", "toy.lackey.out")
SUMMARY = re.compile(
    r"(\d+) runs scheduled: (\d+) simulated, (\d+) already in store(?:, (\d+) FAILED)?"
)

#: End-to-end metric -> unit.
E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "cells/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "failed_frac": "ratio",
}


@dataclass(frozen=True)
class Workload:
    """One timed tournament invocation and how to prepare for it."""

    name: str
    #: Tournament flags besides ``--seed``, ``--jobs`` and ``--results-dir``.
    flags: tuple[str, ...]
    #: Nominal seconds per timed rep on a 2-CPU container; sizes the rep
    #: count so that a run measures about ``--seconds``.
    rep_s: float
    #: ``(flag, values)`` for a synthetic grid.  The master seed picks the
    #: workload mixes, and the mixes alone move host time 3.6x between
    #: master seeds 0-7, so such a grid keeps the committed smoke's master
    #: seed 0 and the bench seed orders *values* instead (empty: the
    #: committed snapshot's policy roster).  Otherwise the bench seed is
    #: the tournament's ``--seed``.
    ordered: tuple[str, tuple[str, ...]] | None = None
    #: Set-up fills one store; each rep reads it, then runs ``report``.
    warm: bool = False
    #: Set-up ingests the target fixtures; reps run the ``tgt:`` path.
    real: bool = False
    #: At master seed 0 the report snapshot must equal ``BENCH_tournament.json``.
    snapshot: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep4_cold", ("--seeds", "2"), 9.0, ("--policies", ()), snapshot=True),
        Workload(
            "sweep16_cold",
            ("--cores", "16", "--workloads", "1", "--seeds", "1"),
            14.0,
            ("--policies", ()),
        ),
        Workload(
            "nosweep_cold",
            ("--policies", "tadrrip", "--seeds", "4"),
            14.5,
            ("--cores", ("4", "8")),
        ),
        Workload("warm_report", ("--seeds", "2"), 0.75, warm=True, snapshot=True),
        Workload("real_cold", ("--benchmark-set", "real", "--seeds", "2"), 4.5, real=True),
    )
}


class SetupError(RuntimeError):
    """Set-up failed: there is nothing to measure."""


@dataclass
class Call:
    """One finished CLI invocation, with its process tree's resource use."""

    args: list[str]
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Rep:
    """One timed rep: a tournament, plus a report on ``warm_report``."""

    calls: list[Call]
    digest: str | None = None
    snapshot: Path | None = None

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.calls)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.calls)


@dataclass
class Checks:
    """Operation counts and every correctness failure of a run."""

    attempted: int = 0
    failed: int = 0
    cells: int = 0
    jobs: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def count(self, call: Call) -> None:
        """Count *call*'s jobs (a tournament) or the call itself."""
        match = SUMMARY.search(call.stdout) if call.args[0] == "tournament" else None
        if match:
            scheduled, simulated, hits, quarantined = (int(g or 0) for g in match.groups())
            self.cells = scheduled
            self.jobs = {"simulated": simulated, "store_hits": hits, "quarantined": quarantined}
            self.attempted += simulated + hits + quarantined
            self.failed += quarantined
            if quarantined:
                self.errors.append(f"{quarantined} jobs quarantined")
        else:
            self.attempted += 1
            if call.args[0] == "tournament" and call.code == 0:
                self.errors.append("tournament printed no scheduling summary")
        if call.code != 0:
            self.failed += 1
            tail = call.stderr.strip().splitlines()[-3:]
            self.errors.append(f"{call.args[0]} exited {call.code}: {' | '.join(tail)}")


def summarize(values: list[float]) -> dict:
    """n, median and quartiles (``statistics.quantiles(n=4)``) of *values*."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "values": values,
    }


def results_digest(store: Path) -> tuple[str, int]:
    """sha256 over the canonical JSON of every stored result, and their number.

    Results are ordered by their canonical text rather than by store key,
    so re-keying the store leaves the digest of identical results alone.
    """
    blobs = []
    for path in store.glob("*/*.json"):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(payload, dict) and "result" in payload:
            blobs.append(json.dumps(payload["result"], sort_keys=True, separators=(",", ":")))
    digest = hashlib.sha256()
    for blob in sorted(blobs):
        digest.update(blob.encode() + b"\n")
    return digest.hexdigest(), len(blobs)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Session:
    """Runs CLI invocations against one source tree from one work directory."""

    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env.update(REPRO_SCALE=SCALE, PYTHONPATH=str(root / "src"), TMPDIR=str(work))

    def call(
        self, args: list, log: Path, *, spans: Path | None = None, env: dict | None = None
    ) -> Call:
        """Run one invocation to completion; resource use from ``wait4``."""
        args = [str(a) for a in args]
        if spans is None:
            cmd = [sys.executable, "-m", "repro.experiments", *args]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *args]
        log.parent.mkdir(parents=True, exist_ok=True)
        out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd,
                cwd=self.work,
                env={**self.env, **(env or {})},
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        # The CLI joins its pool before exiting; anything left in its
        # session (a worker it abandoned) must not outlive the rep.
        _kill_group(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL and time.monotonic() >= self.deadline:
            err_path.write_text(err_path.read_text() + f"\nkilled after {timeout:.0f} s\n")
        return Call(
            args=args,
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(),
            stderr=err_path.read_text(),
        )

    def setup_call(self, args: list, log: Path) -> Call:
        call = self.call(args, log)
        if call.code != 0:
            command = " ".join(call.args)
            raise SetupError(f"{command} exited {call.code}:\n{call.stderr.strip()}")
        return call


def grid(workload: Workload, seed: int, roster: list[str]) -> tuple[int, list[str]]:
    """``(master seed, tournament arguments)`` of *workload* at bench *seed*."""
    if workload.ordered is None:
        return seed, ["tournament", *workload.flags, "--seed", str(seed)]
    flag, values = workload.ordered
    order = list(values or roster)
    random.Random(seed).shuffle(order)
    return 0, ["tournament", *workload.flags, flag, *order, "--seed", "0"]


def read_snapshot(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def snapshot_errors(snapshot: dict, reference: dict, label: str) -> list[str]:
    """Differences in ``config_hash`` or any ``policies`` entry."""
    return [
        f"snapshot {key} differs from {label}"
        for key in ("config_hash", "policies")
        if snapshot.get(key) != reference.get(key)
    ]


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, root: Path, work: Path
) -> dict:
    """Set up, time, check and (optionally) trace one workload; the result record."""
    session = Session(root, work, time.monotonic() + RUN_LIMIT_S)
    checks = Checks()
    try:
        committed = json.loads((root / "BENCH_tournament.json").read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read the committed snapshot: {exc}") from exc
    master_seed, tournament = grid(workload, seed, sorted(committed.get("policies", {})))
    fixtures = [root / "tests" / "targets" / "fixtures" / name for name in FIXTURES]
    extra_env = {}

    setup = []
    for i in range(SETUP_ROUNDS):
        elapsed = session.setup_call(["list"], work / f"setup{i}" / "list").wall_s
        if workload.real:
            registry = work / f"setup{i}" / "targets"
            ingest = ["targets", "ingest", *fixtures, "--results-dir", registry]
            elapsed += session.setup_call(ingest, work / f"setup{i}" / "ingest").wall_s
            extra_env = {"REPRO_TARGETS_DIR": str(registry / "traces")}
        setup.append(elapsed)
    fill_s = None
    if workload.warm:
        fill = [*tournament, "--jobs", JOBS, "--results-dir", work / "warm"]
        fill_s = session.setup_call(fill, work / "fill").wall_s

    def rep(tag: str, spans: Path | None = None) -> Rep:
        rep_dir = work / tag
        store = work / "warm" if workload.warm else rep_dir / "store"
        args = [*tournament, "--jobs", JOBS, "--results-dir", store]
        result = Rep([session.call(args, rep_dir / "tournament", spans=spans, env=extra_env)])
        snapshot = rep_dir / "snapshot.json"
        report = ["report", "--results-dir", store, "--no-kernel", "--out", snapshot]
        if workload.warm:
            result.calls.append(session.call(report, rep_dir / "report", spans=spans))
            result.snapshot = snapshot
        for call in result.calls:
            checks.count(call)
        if workload.warm and checks.jobs.get("simulated"):
            checks.errors.append(f"{tag}: the warm store did not serve every job")
        try:
            result.digest, records = results_digest(store)
        except ValueError as exc:
            checks.errors.append(f"{tag}: unreadable store record: {exc}")
        else:
            if not records:
                checks.errors.append(f"{tag}: no results in the store")
        if workload.snapshot and not workload.warm and tag == "rep0":
            # Untimed: the cold store's report, for the snapshot check.
            checks.count(session.call(report, rep_dir / "report"))
            result.snapshot = snapshot
        if not workload.warm:
            shutil.rmtree(store, ignore_errors=True)
        return result

    budget = seconds / 2 if trace else seconds
    reps = [rep(f"rep{i}") for i in range(max(1, int(budget // workload.rep_s)))]
    checked = list(reps)
    if trace:
        spans = work / "spans"
        checked.append(rep("traced", spans))
        if workload.real:
            # Ingest runs in set-up; trace one more into a scratch registry.
            ingest = ["targets", "ingest", *fixtures, "--results-dir", work / "traced-targets"]
            checks.count(session.call(ingest, work / "traced-ingest", spans=spans))

    # -- correctness ----------------------------------------------------------------
    digest = reps[0].digest
    digests = {r.digest for r in checked}
    if len(digests) > 1:
        checks.errors.append(f"reps disagree on results_sha256: {sorted(map(str, digests))}")
    pinned = json.loads(EXPECTED.read_text())["results_sha256"].get(workload.name, {})
    if pinned.get(str(master_seed), digest) != digest:
        checks.errors.append(f"results_sha256 {digest} != expected {pinned[str(master_seed)]}")
    snapshots = [read_snapshot(r.snapshot) for r in checked if r.snapshot]
    if None in snapshots:
        checks.errors.append("a report wrote no readable snapshot")
    elif snapshots:
        for snapshot in snapshots[1:]:
            checks.errors += snapshot_errors(snapshot, snapshots[0], "rep0's")
        if master_seed == 0:
            checks.errors += snapshot_errors(snapshots[0], committed, "BENCH_tournament.json")

    # -- metrics --------------------------------------------------------------------
    walls = [r.wall_s for r in reps]
    samples = {
        "setup_s": summarize(setup),
        "wall_s": summarize(walls),
        "cpu_s": summarize([r.cpu_s for r in reps]),
        "peak_rss_mb": summarize([r.rss_mb for r in reps]),
    }
    wall = samples["wall_s"]["median"]
    metrics = {
        "setup_s": samples["setup_s"]["median"],
        "wall_s": wall,
        "cells_per_s": checks.cells / wall,
        "cpu_s": samples["cpu_s"]["median"],
        "peak_rss_mb": max(r.rss_mb for r in reps),
        "failed_frac": checks.failed / max(1, checks.attempted),
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "invocation": tournament,
        "master_seed": master_seed,
        "correct": not checks.errors,
        "errors": checks.errors,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "cells": checks.cells,
        "jobs": checks.jobs,
        "results_sha256": digest,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in E2E.items()},
        "samples": samples,
        "fill_s": fill_s,
    }
    if trace:
        spans_found, missing = layers.load_spans(work / "spans")
        per_layer, tails = layers.per_layer(spans_found, missing)
        per_layer["tracing.overhead_frac"] = checked[-1].wall_s / wall - 1.0
        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
        units["tracing.overhead_frac"] = "ratio"
        record["layers"] = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
        record["tails"] = tails
        record["missing"] = missing
    return record


def host_info(root: Path) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    describe = None
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            )
            describe = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            describe = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "git": describe,
    }


def _fmt(value) -> str:
    return "null" if value is None else repr(value)


def print_record(record: dict) -> None:
    """One ``name value unit`` line per end-to-end and per-layer metric."""
    for section in ("metrics", "layers"):
        for name, entry in record.get(section, {}).items():
            print(f"{name} {_fmt(entry['value'])} {entry['unit']}")


def contract_line(record: dict, contract: dict) -> str:
    """The last stdout line: the ``BENCHMARK.json`` metrics of this run."""
    section, names = ("layers", "per_layer") if record["trace"] else ("metrics", "end_to_end")
    values = record[section]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m["name"]: values[m["name"]] for m in contract[names]},
        }
    )


def write_record(record: dict, out: Path | None) -> None:
    if out is None:
        return
    out.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if record["trace"] else ""
    path = out / f"{record['workload']}-seed{record['seed']}{suffix}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def render_table(records: list[dict], total_s: float) -> str:
    columns = list(E2E)
    lines = [f"{'workload':<14}" + "".join(f"{c:>13}" for c in columns) + f"{'correct':>9}"]
    for record in records:
        cells = "".join(f"{record['metrics'][c]['value']:>13.4g}" for c in columns)
        lines.append(f"{record['workload']:<14}{cells}{str(record['correct']):>9}")
    lines.append(f"total pass time {total_s:.1f} s")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="every workload in sequence")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=20.0, help="measurement time per workload"
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="add one traced rep and report the per-layer split",
    )
    parser.add_argument("--out", type=Path, default=None, help="directory for the JSON records")
    parser.add_argument(
        "--root",
        type=Path,
        default=HERE.parents[1],
        help="source tree to measure (default: this one)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.all and len(os.sched_getaffinity(0)) < JOBS:
        print(f"bench: --all needs {JOBS} CPUs (it runs --jobs {JOBS})", file=sys.stderr)
        return 2
    contract = json.loads(CONTRACT.read_text())
    host = host_info(root)
    names = list(WORKLOADS) if args.all else [args.workload]

    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    records = []
    start = time.perf_counter()
    try:
        for name in names:
            work = work_root / name
            work.mkdir()
            try:
                record = run_workload(
                    WORKLOADS[name], args.seed, args.seconds, bool(args.trace), root, work
                )
            except SetupError as exc:
                print(f"bench: {name}: set-up failed: {exc}", file=sys.stderr)
                return 2
            record["host"] = host
            records.append(record)
            write_record(record, args.out)
            shutil.rmtree(work, ignore_errors=True)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for record in records:
        for error in record["errors"]:
            print(f"ERROR {record['workload']}: {error}", file=sys.stderr)
    if args.all:
        print(render_table(records, time.perf_counter() - start))
    else:
        print_record(records[0])
        print(contract_line(records[0], contract))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
