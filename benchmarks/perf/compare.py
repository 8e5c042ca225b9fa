"""Parent-vs-change comparison with the benchmark's own rule.

Usage (from the repository root; both trees are measured by *this*
benchmark code, so only the code under test differs)::

    python benchmarks/perf/compare.py PARENT_ROOT CHANGE_ROOT --workload sweep4_cold

Runs ``--pairs`` alternating pairs per workload (even pairs run the parent
first, odd pairs the change first), keeps every record under ``--out``,
and prints per workload and end-to-end metric each side's median and
quartiles, the change's win fraction, and a verdict:

* ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's IQR;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's ``BENCHMARK.json`` bound;
* ``unresolved``: either side's IQR is wider than the bound, unless every
  change run reads better than every parent run;
* ``unchanged``: otherwise.

A differing ``results_sha256`` is reported as ``behaviour changed``, and
more failed operations on the change side void any gain.  Exit code 1
when any metric regressed or behaviour changed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from bench import CONTRACT, HERE, WORKLOADS, summarize


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare paired samples of one metric; ``better`` is ``lower``/``higher``."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p, c = summarize(parent), summarize(change)
    gain = sign * (p["median"] - c["median"])
    spreads = [(s["q3"] - s["q1"]) / abs(s["median"]) for s in (p, c) if s["median"]]
    spread = max(spreads, default=0.0)
    all_better = all(sign * (pv - cv) > 0 for pv in parent for cv in change)
    pairs = min(len(parent), len(change))
    if wins >= 0.9 * pairs and gain > p["q3"] - p["q1"]:
        label = "improved"
    elif -gain > bound * abs(p["median"]):
        label = "regressed"
    elif spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {"verdict": label, "wins": wins, "pairs": pairs, "parent": p, "change": c}


def compare_records(parent: list[dict], change: list[dict], contract: dict) -> dict:
    """Verdict per end-to-end metric, plus behaviour and failure checks."""
    metrics = {}
    for metric in contract["end_to_end"]:
        name = metric["name"]
        metrics[name] = verdict(
            [r["metrics"][name]["value"] for r in parent],
            [r["metrics"][name]["value"] for r in change],
            metric["better"],
            metric["bound"],
        )
    parent_digests = {r["results_sha256"] for r in parent}
    change_digests = {r["results_sha256"] for r in change}
    more_failed = sum(r["failed"] for r in change) > sum(r["failed"] for r in parent)
    if more_failed:
        for result in metrics.values():
            if result["verdict"] == "improved":
                result["verdict"] = "unchanged"
    return {
        "metrics": metrics,
        "behaviour_changed": parent_digests != change_digests,
        "more_failed": more_failed,
    }


def run_side(root: Path, workload: str, seed: int, seconds: float, out: Path) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "bench.py"),
        "--root",
        str(root),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--out",
        str(out),
    ]
    subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False)
    path = out / f"{workload}-seed{seed}.json"
    if not path.is_file():
        raise SystemExit(f"compare: {root} produced no record for {workload} (see {out})")
    return json.loads(path.read_text())


def render(workload: str, result: dict) -> list[str]:
    lines = []
    for name, r in result["metrics"].items():
        p, c = r["parent"], r["change"]
        lines.append(
            f"{workload:<14}{name:<13}"
            f"{p['median']:>11.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f"{c['median']:>11.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
            f"  wins {r['wins']}/{r['pairs']}  {r['verdict']}"
        )
    if result["behaviour_changed"]:
        lines.append(f"{workload:<14}behaviour changed: results_sha256 differs")
    if result["more_failed"]:
        lines.append(f"{workload:<14}more operations failed on the change; no gain counts")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="parent-vs-change benchmark comparison")
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument(
        "--out", type=Path, default=Path(".bench_out") / f"compare-{int(time.time())}"
    )
    args = parser.parse_args(argv)
    if args.pairs < 10:
        print("compare: the rule needs at least 10 pairs", file=sys.stderr)
        return 2
    contract = json.loads(CONTRACT.read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    failed = False
    header = f"{'workload':<14}{'metric':<13}{'parent median [q1, q3]':>30}"
    lines = [header + f"{'change median [q1, q3]':>30}"]
    for workload in args.workload or list(WORKLOADS):
        records: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = args.out / side / f"pair{i}"
                record = run_side(sides[side], workload, args.seed, args.seconds, out)
                records[side].append(record)
        result = compare_records(records["parent"], records["change"], contract)
        verdicts = args.out / f"{workload}-verdict.json"
        verdicts.write_text(json.dumps(result, indent=2) + "\n")
        lines += render(workload, result)
        regressed = any(r["verdict"] == "regressed" for r in result["metrics"].values())
        failed |= result["behaviour_changed"] or regressed
    print("\n".join(lines))
    print(f"records under {args.out}; {args.pairs} runs per side", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
