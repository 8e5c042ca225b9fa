"""Per-layer metrics from the spans a traced rep recorded (see :mod:`tracer`).

Conventions: ``*_s`` is busy seconds summed over processes, ``*_n`` a
count, ``*_self_s`` a span's time minus the part of it its child spans
cover, ``*_tail`` the highest of p80/p90 with at least ten samples beyond
it.  A metric reads ``None`` when a span it depends on could not be
wrapped, or when it is a ratio or percentile with nothing to divide or
rank.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

NS = 1e9

#: Spans that are one unit of pool work: a job or a capture.
JOB_SPANS = ("sim.workload", "sim.alone", "capture.materialise")

#: Metric -> (unit, span names it is computed from).
METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cli.import_s": ("s", ("cli.import",)),
    "tournament.plan_self_s": ("s", ("tournament.run",)),
    "runner.batch_n": ("count", ("runner.batch",)),
    "runner.batch_s": ("s", ("runner.batch",)),
    "runner.worker_busy_s": ("s", JOB_SPANS),
    "runner.worker_idle_frac": ("ratio", ("runner.batch", *JOB_SPANS)),
    "store.get_n": ("count", ("store.get",)),
    "store.get_s": ("s", ("store.get",)),
    "store.put_n": ("count", ("store.put",)),
    "store.put_s": ("s", ("store.put",)),
    "store.hit_frac": ("ratio", ("store.get",)),
    "trace.materialise_n": ("count", ("trace.materialise",)),
    "trace.materialise_s": ("s", ("trace.materialise",)),
    "capture.n": ("count", ("capture.kernel",)),
    "capture.kernel_s": ("s", ("capture.kernel",)),
    "capture.save_s": ("s", ("capture.save",)),
    "bundle.load_n": ("count", ("bundle.load",)),
    "bundle.load_s": ("s", ("bundle.load",)),
    "bundle.loads_per_capture": ("ratio", ("bundle.load", "capture.kernel")),
    "replay.n": ("count", ("replay",)),
    "replay.busy_s": ("s", ("replay",)),
    "replay.busy_frac": ("ratio", ("replay", *JOB_SPANS)),
    "replay.declined_n": ("count", ("replay",)),
    "replay.ns_per_access": ("ns", ("replay",)),
    "replay.cell_s_p50": ("s", ("replay",)),
    "replay.cell_s_tail": ("s", ("replay",)),
    "fused.n": ("count", ("fused",)),
    "fused.busy_s": ("s", ("fused",)),
    "fused.busy_frac": ("ratio", ("fused", *JOB_SPANS)),
    "fused.declined_n": ("count", ("fused",)),
    "fused.ns_per_access": ("ns", ("fused",)),
    "sim.workload_n": ("count", ("sim.workload",)),
    "sim.alone_n": ("count", ("sim.alone",)),
    "sim.job_self_s": ("s", ("sim.workload", "sim.alone")),
    "sim.job_s_p50": ("s", ("sim.workload", "sim.alone")),
    "sim.job_s_tail": ("s", ("sim.workload", "sim.alone")),
    "targets.ingest_s": ("s", ("targets.ingest",)),
    "targets.source_n": ("count", ("targets.source",)),
    "targets.source_s": ("s", ("targets.source",)),
    "report.gather_s": ("s", ("report.gather",)),
    "report.aggregate_s": ("s", ("report.aggregate",)),
    "report.render_s": ("s", ("report.render",)),
    "report.snapshot_s": ("s", ("report.snapshot",)),
}


def load_spans(directory: str | Path) -> tuple[list[dict], list[str]]:
    """Every recorded span under *directory*, plus the unwrapped target names."""
    directory = Path(directory)
    spans: list[dict] = []
    for path in sorted(directory.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    missing: set[str] = set()
    for path in directory.glob("missing-*.json"):
        missing.update(json.loads(path.read_text(encoding="utf-8")))
    return spans, sorted(missing)


def duration(span: dict) -> float:
    return (span["end"] - span["start"]) / NS


def covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(span: dict, children: list[dict]) -> float:
    """*span*'s seconds not covered by any child (children clipped to it)."""
    clipped = [
        (max(c["start"], span["start"]), min(c["end"], span["end"]))
        for c in children
        if c["end"] > span["start"] and c["start"] < span["end"]
    ]
    return (span["end"] - span["start"] - covered(clipped)) / NS


def tail(values: list[float]) -> tuple[int, float] | None:
    """``(percentile, value)``: the highest of p90/p80 with >= 10 samples beyond."""
    if len(values) < 2:
        return None
    deciles = statistics.quantiles(values, n=10)
    for pct in (90, 80):
        cut = deciles[pct // 10 - 1]
        if sum(1 for v in values if v > cut) >= 10:
            return pct, cut
    return None


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def per_layer(spans: list[dict], missing: list[str] = ()) -> tuple[dict, dict]:
    """``(metrics, tails)``: every :data:`METRICS` value, and which
    percentile each ``*_tail`` reports with its sample count."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span.get("parent") is not None:
            children[span["parent"]].append(span)

    def busy(*names: str) -> float:
        return sum((duration(s) for name in names for s in by_name[name]), 0.0)

    def count(*names: str) -> int:
        return sum(len(by_name[name]) for name in names)

    def self_sum(*names: str) -> float:
        return sum(self_time(s, children[s["id"]]) for name in names for s in by_name[name])

    def kernel(name: str) -> tuple[list[dict], float | None]:
        ran = [s for s in by_name[name] if not s.get("declined")]
        accesses = sum(s.get("accesses", 0) for s in ran)
        ns = sum(s["end"] - s["start"] for s in ran)
        return ran, _ratio(ns, accesses)

    worker_busy = busy(*JOB_SPANS)
    # Idle share of the forked workers: a batch's workers are the child
    # processes whose spans are rooted under it.
    capacity = 0.0
    forked_busy = 0.0
    for batch in by_name["runner.batch"]:
        rooted = [
            s
            for s in children[batch["id"]]
            if s["pid"] != batch["pid"] and s["name"] in JOB_SPANS
        ]
        if rooted:
            capacity += len({s["pid"] for s in rooted}) * duration(batch)
            forked_busy += sum(duration(s) for s in rooted)
    replays, replay_ns = kernel("replay")
    fused, fused_ns = kernel("fused")
    replay_cells = [duration(s) for s in replays]
    jobs = [duration(s) for s in by_name["sim.workload"] + by_name["sim.alone"]]
    gets = by_name["store.get"]
    tails: dict[str, dict] = {}

    def tail_of(name: str, values: list[float]) -> float | None:
        found = tail(values)
        tails[name] = {"pct": found[0] if found else None, "n": len(values)}
        return found[1] if found else None

    metrics = {
        "cli.import_s": busy("cli.import"),
        "tournament.plan_self_s": self_sum("tournament.run"),
        "runner.batch_n": count("runner.batch"),
        "runner.batch_s": busy("runner.batch"),
        "runner.worker_busy_s": worker_busy,
        "runner.worker_idle_frac": 1.0 - forked_busy / capacity if capacity else None,
        "store.get_n": len(gets),
        "store.get_s": busy("store.get"),
        "store.put_n": count("store.put"),
        "store.put_s": busy("store.put"),
        "store.hit_frac": _ratio(sum(1 for s in gets if s.get("hit")), len(gets)),
        "trace.materialise_n": count("trace.materialise"),
        "trace.materialise_s": busy("trace.materialise"),
        "capture.n": count("capture.kernel"),
        "capture.kernel_s": busy("capture.kernel"),
        "capture.save_s": busy("capture.save"),
        "bundle.load_n": count("bundle.load"),
        "bundle.load_s": busy("bundle.load"),
        "bundle.loads_per_capture": _ratio(count("bundle.load"), count("capture.kernel")),
        "replay.n": count("replay"),
        "replay.busy_s": busy("replay"),
        "replay.busy_frac": _ratio(busy("replay"), worker_busy),
        "replay.declined_n": count("replay") - len(replays),
        "replay.ns_per_access": replay_ns,
        "replay.cell_s_p50": statistics.median(replay_cells) if replay_cells else None,
        "replay.cell_s_tail": tail_of("replay.cell_s_tail", replay_cells),
        "fused.n": count("fused"),
        "fused.busy_s": busy("fused"),
        "fused.busy_frac": _ratio(busy("fused"), worker_busy),
        "fused.declined_n": count("fused") - len(fused),
        "fused.ns_per_access": fused_ns,
        "sim.workload_n": count("sim.workload"),
        "sim.alone_n": count("sim.alone"),
        "sim.job_self_s": self_sum("sim.workload", "sim.alone"),
        "sim.job_s_p50": statistics.median(jobs) if jobs else None,
        "sim.job_s_tail": tail_of("sim.job_s_tail", jobs),
        "targets.ingest_s": busy("targets.ingest"),
        "targets.source_n": count("targets.source"),
        "targets.source_s": busy("targets.source"),
        "report.gather_s": busy("report.gather"),
        "report.aggregate_s": busy("report.aggregate"),
        "report.render_s": busy("report.render"),
        "report.snapshot_s": busy("report.snapshot"),
    }
    absent = set(missing)
    for name, (_, sources) in METRICS.items():
        if absent.intersection(sources):
            metrics[name] = None
    return metrics, tails
