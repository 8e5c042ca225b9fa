"""``repro-experiments traces gc``: prune unreferenced trace artifacts."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.__main__ import main
from repro.runner import ParallelRunner, ResultStore, WorkloadJob
from repro.runner.integrity import write_checksum, write_meta
from repro.runner.tracegc import collect_garbage
from repro.sim.build import geometry_of
from repro.sim.config import SystemConfig
from repro.targets import ingest_file
from repro.targets.registry import TRACE_DTYPE
from repro.trace.workloads import Workload

LACKEY_FIXTURE = Path(__file__).parents[1] / "targets" / "fixtures" / "toy.lackey.out"


@pytest.fixture
def populated_store(tmp_path):
    config = SystemConfig.scaled(16).with_cores(2)
    workload = Workload("g", ("mcf", "libq"))
    jobs = [
        WorkloadJob.for_workload(
            workload, config, policy, quota=300, warmup=80, master_seed=0
        )
        for policy in ("lru", "srrip", "ship")
    ]
    root = tmp_path / "results"
    ParallelRunner(jobs=1, store=ResultStore(root)).run(jobs)
    return root


class TestCollectGarbage:
    def test_referenced_buffers_survive(self, populated_store):
        traces = populated_store / "traces"
        before = sorted(p.name for p in traces.iterdir())
        # The sweep captured one replay artifact and wrote no trace buffer.
        assert any(name.startswith("replay-") for name in before)
        assert not any(name.endswith(".npy") for name in before)
        report = collect_garbage(populated_store)
        assert report.removed == []
        assert sorted(p.name for p in traces.iterdir()) == before

    def test_orphans_are_pruned(self, populated_store):
        traces = populated_store / "traces"
        orphan_trace = traces / ("ab" * 20 + ".npy")
        orphan_trace.write_bytes(b"x" * 64)
        orphan_replay = traces / ("replay-" + "cd" * 20 + ".npz")
        orphan_replay.write_bytes(b"y" * 64)
        report = collect_garbage(populated_store)
        assert sorted(report.removed) == sorted(
            [orphan_trace.name, orphan_replay.name]
        )
        assert report.freed_bytes == 128
        assert not orphan_trace.exists() and not orphan_replay.exists()

    def test_replay_artifacts_survive_a_slack_change(self, populated_store):
        """Artifacts are matched by their embedded capture identity, so a
        capture written with another slack (which changes the content
        address) is kept while a stored result references its identity."""
        from repro.cpu.capture import capture_workload, job_identity
        from repro.runner.replaystore import replay_key, save_bundle

        traces = populated_store / "traces"
        config = SystemConfig.scaled(16).with_cores(2)
        identity = job_identity(("mcf", "libq"), config, 300, 80, 0)
        other = traces / f"replay-{replay_key(identity, 0.9)}.npz"
        save_bundle(capture_workload(identity, slack=0.9), other)
        write_checksum(other)
        before = {p.name for p in traces.glob("replay-*.npz")}
        assert len(before) == 2 and other.name in before
        report = collect_garbage(populated_store)
        assert report.removed == []
        assert {p.name for p in traces.glob("replay-*.npz")} == before

    def test_stale_tmp_files_are_pruned_after_grace(self, populated_store):
        import os
        import time

        traces = populated_store / "traces"
        stale = traces / "tmpabc123.tmp"
        stale.write_bytes(b"partial write")
        old = time.time() - 2 * 3600
        os.utime(stale, (old, old))
        fresh = traces / "tmpdef456.tmp"
        fresh.write_bytes(b"live writer")
        report = collect_garbage(populated_store)
        assert stale.name in report.removed and not stale.exists()
        # A young .tmp may belong to a writer that is still running.
        assert fresh.exists() and fresh.name in report.kept

    def test_dry_run_deletes_nothing(self, populated_store):
        traces = populated_store / "traces"
        orphan = traces / ("ef" * 20 + ".npy")
        orphan.write_bytes(b"z" * 32)
        report = collect_garbage(populated_store, dry_run=True)
        assert report.dry_run and orphan.name in report.removed
        assert orphan.exists()

    def test_target_sweep_capture_survives(self, tmp_path, monkeypatch):
        """A ``tgt:`` sweep's capture is identified by the target's spec,
        and a stored result that ran it keeps it."""
        from repro.runner.replaystore import load_meta

        root = tmp_path / "results"
        spec, _ = ingest_file(LACKEY_FIXTURE, directory=root / "traces")
        monkeypatch.setenv("REPRO_TARGETS_DIR", str(root / "traces"))
        config = SystemConfig.scaled(16).with_cores(2)
        workload = Workload("t", (spec.name, "mcf"))
        jobs = [
            WorkloadJob.for_workload(
                workload, config, policy, quota=300, warmup=80, master_seed=0
            )
            for policy in ("lru", "srrip")
        ]
        ParallelRunner(jobs=1, store=ResultStore(root)).run(jobs)
        (capture,) = (root / "traces").glob("replay-*.npz")
        assert load_meta(capture)["benchmarks"] == [spec.to_dict(), "mcf"]
        report = collect_garbage(root)
        assert report.removed == [] and capture.name in report.kept

    def test_results_without_traces_dir(self, tmp_path):
        report = collect_garbage(tmp_path / "empty")
        assert report.removed == [] and report.kept == []


class TestCorruptDetection:
    def _damage_one(self, populated_store, pattern):
        from repro.runner.faults import corrupt_file

        target = next(iter(sorted((populated_store / "traces").glob(pattern))))
        corrupt_file(target)
        return target

    def test_corrupt_referenced_replay_is_reported_not_deleted(
        self, populated_store
    ):
        target = self._damage_one(populated_store, "replay-*.npz")
        report = collect_garbage(populated_store)
        assert target.name in report.corrupt
        # Without --fix the evidence stays put (and is never "removed").
        assert target.exists()
        assert target.name not in report.removed

    def test_fix_quarantines_corrupt_artifacts(self, populated_store):
        ingest_file(LACKEY_FIXTURE, directory=populated_store / "traces")
        trace = self._damage_one(populated_store, "target-*.npy")
        replay = self._damage_one(populated_store, "replay-*.npz")
        report = collect_garbage(populated_store, fix=True)
        assert {trace.name, replay.name} <= set(report.corrupt)
        quarantine = populated_store / "traces" / "quarantine"
        assert not trace.exists() and (quarantine / trace.name).exists()
        assert not replay.exists() and (quarantine / replay.name).exists()
        # A later pass reports what the quarantine holds.
        again = collect_garbage(populated_store)
        assert {trace.name, replay.name} <= set(again.quarantined)
        assert again.corrupt == []

    def test_dry_run_never_quarantines(self, populated_store):
        target = self._damage_one(populated_store, "replay-*.npz")
        report = collect_garbage(populated_store, dry_run=True, fix=True)
        assert target.name in report.corrupt and target.exists()

    def test_orphan_sidecars_are_swept_with_their_artifact(
        self, populated_store
    ):
        traces = populated_store / "traces"
        orphan = traces / ("ab" * 20 + ".npy")
        orphan.write_bytes(b"x" * 64)
        sidecar = traces / (orphan.name + ".sha256")
        sidecar.write_text("0" * 64 + "\n")
        report = collect_garbage(populated_store)
        assert orphan.name in report.removed and sidecar.name in report.removed
        assert not orphan.exists() and not sidecar.exists()
        # Sidecars of kept artifacts survive.
        assert list(traces.glob("*.sha256"))


def _legacy_buffer_name(job, core_id: int) -> str:
    """The content address older builds gave one core's synthetic trace
    buffer: generator identity plus a chunk count covering twice the
    job's ``warmup + quota``."""
    geometry = geometry_of(job.config)
    n_chunks = -(-round((job.quota + job.warmup) * 2.0) // 4096)
    blob = json.dumps(
        {
            "v": 1,
            "benchmark": job.benchmarks[core_id],
            "llc_num_sets": geometry.llc_num_sets,
            "l2_blocks": geometry.l2_blocks,
            "l1_blocks": geometry.l1_blocks,
            "core_id": core_id,
            "master_seed": job.master_seed,
            "chunk": 4096,
            "n_chunks": n_chunks,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:40] + ".npy"


def _save_format1(bundle, traces: Path) -> Path:
    """Write *bundle* as format-1 builds did: checkpoints decoded inside
    the JSON meta blob, under the content address format 1 gave it."""
    from repro.cpu.capture import job_identity

    meta = dict(bundle.meta, format=1)
    identity = job_identity(
        tuple(meta["benchmarks"]),
        SystemConfig.scaled(16).with_cores(2),
        meta["quota"],
        meta["warmup"],
        meta["master_seed"],
    )
    key = json.dumps(
        {"v": 1, "identity": list(identity), "slack": meta["slack"]},
        sort_keys=True,
        separators=(",", ":"),
    )
    path = traces / f"replay-{hashlib.sha256(key.encode()).hexdigest()[:40]}.npz"
    blob = {
        "meta": meta,
        "tapes": [
            {
                "checkpoints": [json.loads(c) for c in tape.checkpoints],
                "baseline": tape.baseline,
                "finish": tape.finish,
                "length": tape.length,
            }
            for tape in bundle.tapes
        ],
    }
    arrays = {"meta_json": np.frombuffer(json.dumps(blob).encode(), dtype=np.uint8)}
    for i, tape in enumerate(bundle.tapes):
        arrays[f"steps_{i}"] = tape.steps_array()
        arrays[f"events_{i}"] = tape.events_array()
    np.savez(path, **arrays)
    write_checksum(path)
    return path


class TestOlderStores:
    def test_superseded_capture_format_is_garbage(self, populated_store):
        """A checksummed capture of an older CAPTURE_FORMAT is removed with
        its sidecar even though a stored result references its identity —
        no current build can look it up — and is not reported as corrupt;
        a damaged current-format capture still is."""
        from repro.runner.faults import corrupt_file
        from repro.runner.replaystore import load_bundle
        from repro.runner.tracegc import list_traces

        traces = populated_store / "traces"
        (current,) = sorted(traces.glob("replay-*.npz"))
        old = _save_format1(load_bundle(current), traces)
        assert old.name != current.name
        assert "format=1 (superseded)" in dict(
            (name, line) for name, _, line in list_traces(populated_store).entries
        )[old.name]
        corrupt_file(current)

        report = collect_garbage(populated_store)

        assert sorted(report.removed) == sorted([old.name, f"{old.name}.sha256"])
        assert not old.exists() and not (traces / f"{old.name}.sha256").exists()
        assert report.corrupt == [current.name]
        assert current.exists()

    def test_synthetic_buffers_are_removed(self, populated_store):
        """Synthetic trace buffers (and their sidecars) that older builds
        wrote are garbage even when a stored result's job would have
        mapped them; pinned targets and referenced captures stay."""
        traces = populated_store / "traces"
        spec, _ = ingest_file(LACKEY_FIXTURE, directory=traces)
        target = traces / f"target-{spec.key}.npy"
        replays = sorted(traces.glob("replay-*.npz"))
        job = next(iter(ResultStore(populated_store).records())).job
        legacy = []
        for core_id in range(len(job.benchmarks)):
            path = traces / _legacy_buffer_name(job, core_id)
            np.save(path, np.zeros(4096, dtype=TRACE_DTYPE))
            write_checksum(path)
            write_meta(path, {"kind": "synthetic", "core_id": core_id})
            legacy += [path.name, f"{path.name}.sha256", f"{path.name}.meta.json"]

        report = collect_garbage(populated_store)

        assert sorted(report.removed) == sorted(legacy)
        assert not any((traces / name).exists() for name in legacy)
        assert replays and all(p.exists() for p in replays)
        assert target.exists()
        assert (traces / f"{target.name}.sha256").exists()
        assert (traces / f"{target.name}.meta.json").exists()
        assert report.corrupt == []


class TestCli:
    def test_traces_gc_subcommand(self, populated_store, capsys):
        orphan = populated_store / "traces" / ("0f" * 20 + ".npy")
        orphan.write_bytes(b"o")
        assert main(["traces", "gc", "--results-dir", str(populated_store)]) == 0
        out = capsys.readouterr().out
        assert "removed" in out and orphan.name in out
        assert not orphan.exists()

    def test_traces_gc_fix_flag(self, populated_store, capsys):
        from repro.runner.faults import corrupt_file

        target = next(iter(sorted((populated_store / "traces").glob("replay-*.npz"))))
        corrupt_file(target)
        assert (
            main(["traces", "gc", "--fix", "--results-dir", str(populated_store)])
            == 0
        )
        out = capsys.readouterr().out
        assert "quarantined" in out and target.name in out
        assert not target.exists()
        assert (populated_store / "traces" / "quarantine" / target.name).exists()

    def test_traces_requires_gc_action(self):
        with pytest.raises(SystemExit):
            main(["traces", "prune"])

    def test_gc_requires_store(self, capsys):
        assert main(["traces", "gc", "--results-dir", ""]) == 2
