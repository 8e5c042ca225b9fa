"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` (~3 s).
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import bench
import compare
import layers
import pytest
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(name, sid, start, end, parent=None, pid=1, **extra):
    return {
        "name": name,
        "id": sid,
        "parent": parent,
        "pid": pid,
        "req": None,
        "start": int(start * 1e9),
        "end": int(end * 1e9),
        **extra,
    }


def scrubbed_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(REPRO_SCALE="0.1", PYTHONPATH=str(ROOT / "src"))
    return env


class TestSpanArithmetic:
    def test_nested_children_are_subtracted(self):
        parent = span("p", "p", 0, 10)
        children = [span("a", "a", 1, 3, "p"), span("b", "b", 5, 6, "p")]
        assert layers.self_time(parent, children) == pytest.approx(7.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        parent = span("p", "p", 0, 10)
        children = [
            span("a", "a", 1, 5, "p", pid=2),
            span("b", "b", 3, 7, "p", pid=3),
            span("c", "c", 9, 12, "p", pid=2),
        ]
        # Covered: [1, 7] and [9, 10] (the overhang past the parent is clipped).
        assert layers.self_time(parent, children) == pytest.approx(3.0)

    def test_per_layer_self_time_and_worker_idle(self):
        spans = [
            span("tournament.run", "t", 0, 10),
            span("runner.batch", "b", 2, 9, "t"),
            span("sim.workload", "w1", 2, 8, "b", pid=2),
            span("sim.alone", "w2", 3, 6, "b", pid=3),
            span("replay", "r", 2.5, 7.5, "w1", pid=2, declined=False, accesses=1000),
        ]
        metrics, _ = layers.per_layer(spans)
        assert metrics["tournament.plan_self_s"] == pytest.approx(3.0)
        assert metrics["runner.worker_busy_s"] == pytest.approx(9.0)
        # Two workers over a 7 s batch: 14 s of capacity, 9 s busy.
        assert metrics["runner.worker_idle_frac"] == pytest.approx(1 - 9 / 14)
        assert metrics["sim.job_self_s"] == pytest.approx(1.0 + 3.0)
        assert metrics["replay.ns_per_access"] == pytest.approx(5e9 / 1000)
        assert metrics["replay.busy_frac"] == pytest.approx(5 / 9)

    def test_declined_kernel_calls_are_counted_apart(self):
        spans = [
            span("fused", "a", 0, 1, declined=True, accesses=0),
            span("fused", "b", 1, 3, declined=False, accesses=4),
        ]
        metrics, _ = layers.per_layer(spans)
        assert (metrics["fused.n"], metrics["fused.declined_n"]) == (2, 1)
        assert metrics["fused.ns_per_access"] == pytest.approx(2e9 / 4)

    def test_tail_is_the_highest_percentile_with_ten_beyond(self):
        assert layers.tail([1.0] * 30) is None
        pct, value = layers.tail([float(i) for i in range(60)])
        assert pct == 80 and sum(1 for v in range(60) if v > value) >= 10
        assert layers.tail([float(i) for i in range(200)])[0] == 90


class TestRecorder:
    def test_fork_resets_the_stack_and_roots_children_under_the_batch(self, tmp_path):
        recorder = tracer.Recorder(tmp_path)
        batch = recorder.open("runner.batch", own_request=True)
        buffered = recorder.open("store.get")
        recorder.close(buffered)  # buffered, not flushed: the batch is still open
        pid = os.fork()
        if pid == 0:
            try:
                job = recorder.open("sim.workload", "job-key")
                recorder.close(recorder.open("replay"))
                recorder.close(job)
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
        recorder.close(batch)
        spans, _ = layers.load_spans(tmp_path)
        child = {s["name"]: s for s in spans if s["pid"] == pid}
        assert set(child) == {"sim.workload", "replay"}
        assert child["sim.workload"]["parent"] == batch["id"]
        assert child["replay"]["parent"] == child["sim.workload"]["id"]
        assert child["replay"]["req"] == "job-key"
        mine = sorted(s["name"] for s in spans if s["pid"] == os.getpid())
        assert mine == ["runner.batch", "store.get"]
        assert {s["req"] for s in spans if s["pid"] == os.getpid()} == {batch["id"]}

    def test_missing_wrap_target_reads_null_not_a_crash(self, tmp_path):
        recorder = tracer.Recorder(tmp_path)
        missing = tracer.install(
            recorder,
            (
                tracer.Target("replay", "json", "no_such_function"),
                tracer.Target("fused", "no_such_module", "run_fast"),
            ),
        )
        assert missing == ["replay", "fused"]
        metrics, _ = layers.per_layer([], missing)
        assert metrics["replay.busy_s"] is None
        assert metrics["fused.n"] is None
        assert metrics["store.get_n"] == 0

    def test_traced_grid_covers_every_layer(self, tmp_path):
        spans_dir = tmp_path / "spans"
        grid = "--workloads 1 --seeds 1 --policies tadrrip lru --jobs 2".split()
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_dir), "--", "tournament"]
        cmd += [*grid, "--results-dir", str(tmp_path / "store")]
        subprocess.run(
            cmd, cwd=tmp_path, env=scrubbed_env(), check=True, capture_output=True, timeout=120
        )
        spans, missing = layers.load_spans(spans_dir)
        assert missing == []
        expected = {"trace", "capture", "bundle", "replay", "fused", "sim", "store", "runner"}
        assert expected <= {s["name"].split(".")[0] for s in spans}
        (cli,) = [s for s in spans if s["name"] == "cli.main"]
        assert any(s["pid"] != cli["pid"] for s in spans), "no worker spans were flushed"


class TestBenchmarkSurface:
    def test_every_metric_name_is_printable(self):
        contract = json.loads(bench.CONTRACT.read_text())
        names = [
            *bench.E2E,
            *layers.METRICS,
            *(m["name"] for m in contract["end_to_end"] + contract["per_layer"]),
            *(w["name"] for w in contract["workloads"]),
        ]
        assert all(NAME.fullmatch(name) for name in names)
        record = {
            "workload": "w",
            "errors": [],
            "metrics": {"wall_s": {"value": 1.5, "unit": "s"}},
            "layers": {"replay.ns_per_access": {"value": None, "unit": "ns"}},
        }
        out = io.StringIO()
        with redirect_stdout(out):
            bench.print_record(record)
        for line in out.getvalue().splitlines():
            name, _, unit = line.split(" ")
            assert NAME.fullmatch(name) and unit

    def test_contract_matches_the_harness(self):
        contract = json.loads(bench.CONTRACT.read_text())
        assert [w["name"] for w in contract["workloads"]] == list(bench.WORKLOADS)
        for metric in contract["end_to_end"]:
            assert bench.E2E[metric["name"]] == metric["unit"]
        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
        units["tracing.overhead_frac"] = "ratio"
        for metric in contract["per_layer"]:
            assert units[metric["name"]] == metric["unit"]

    def test_synthetic_grids_keep_master_seed_zero_and_order_by_seed(self):
        roster = ["a", "b", "c", "tadrrip"]
        master, args = bench.grid(bench.WORKLOADS["sweep4_cold"], 7, roster)
        assert master == 0 and args[-2:] == ["--seed", "0"]
        assert sorted(args[args.index("--policies") + 1 : -2]) == roster
        assert bench.grid(bench.WORKLOADS["sweep4_cold"], 7, roster) == (master, args)
        master, args = bench.grid(bench.WORKLOADS["real_cold"], 7, roster)
        assert master == 7 and args[-2:] == ["--seed", "7"]

    def test_setup_failure_exits_nonzero_without_a_result(self, tmp_path):
        committed = (ROOT / "BENCH_tournament.json").read_text()
        (tmp_path / "BENCH_tournament.json").write_text(committed)
        cmd = [sys.executable, str(HERE / "bench.py"), "--workload", "real_cold"]
        cmd += ["--root", str(tmp_path)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
        assert not (tmp_path / ".bench_tmp").exists()

    def test_all_refuses_fewer_cpus_than_jobs(self, monkeypatch):
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0})
        assert bench.main(["--all"]) == 2


class TestCompare:
    PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]

    def test_clear_gain_is_improved(self):
        faster = [v * 0.8 for v in self.PARENT]
        result = compare.verdict(self.PARENT, faster, "lower", 0.1)
        assert result["verdict"] == "improved" and result["wins"] == 10

    def test_higher_is_better_metrics_flip_direction(self):
        more = [v * 1.2 for v in self.PARENT]
        assert compare.verdict(self.PARENT, more, "higher", 0.1)["verdict"] == "improved"
        assert compare.verdict(self.PARENT, more, "lower", 0.1)["verdict"] == "regressed"

    def test_worse_by_more_than_the_bound_is_regressed(self):
        slower = [v * 1.15 for v in self.PARENT]
        assert compare.verdict(self.PARENT, slower, "lower", 0.1)["verdict"] == "regressed"

    def test_same_distribution_is_unchanged(self):
        result = compare.verdict(self.PARENT, self.PARENT[::-1], "lower", 0.1)
        assert result["verdict"] == "unchanged"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
        change = [v * 0.97 for v in noisy[::-1]]
        assert compare.verdict(noisy, change, "lower", 0.1)["verdict"] == "unresolved"

    def test_eight_wins_in_ten_is_not_a_gain(self):
        change = [v * 0.9 for v in self.PARENT[:8]] + [v * 1.01 for v in self.PARENT[8:]]
        assert compare.verdict(self.PARENT, change, "lower", 0.1)["verdict"] == "unchanged"

    def test_records_flag_behaviour_change_and_void_gains_on_more_failures(self):
        contract = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.1}]}

        def record(value, digest, failed):
            metrics = {"wall_s": {"value": value}}
            return {"metrics": metrics, "results_sha256": digest, "failed": failed}

        parent = [record(v, "x", 0) for v in self.PARENT]
        change = [record(v * 0.8, "y", 1) for v in self.PARENT]
        result = compare.compare_records(parent, change, contract)
        assert result["behaviour_changed"] and result["more_failed"]
        assert result["metrics"]["wall_s"]["verdict"] == "unchanged"
