"""Garbage collection for the ``traces/`` directory of a result store.

Long-lived stores accumulate replay-capture artifacts
(:mod:`repro.runner.replaystore`) under ``<store>/traces/``.  They are
pure caches — deleting one only costs a re-capture — but nothing ever
pruned them, so heavily-used stores grew without bound.

``collect_garbage`` walks every stored result (via the store's typed
:meth:`~repro.runner.store.ResultStore.records` API — this module knows
nothing about the on-disk JSON layout) and keeps a ``replay-*.npz``
exactly when its name is the address a runner would look it up by:
``replay-{replay_key(job_identity(...))}.npz`` for some stored workload
result.  Everything else is garbage — orphans, captures of a superseded
``CAPTURE_FORMAT`` and captures written by builds that hashed more into
the address alike, since no runner can ever look them up again.
Ingested ``target-*.npy`` buffers are pinned by the ``targets.json``
registry instead; any other ``.npy`` — such as the synthetic trace
buffers older builds wrote — is garbage.

The pass also *audits* the buffers it keeps: a kept artifact whose
checksum sidecar no longer matches — or, for a capture, whose npz
structure no longer loads — is reported as corrupt, and moved to
``traces/quarantine/`` under ``--fix`` (the next sweep regenerates it
from a plain miss).
Orphaned ``.sha256`` sidecars are swept with their artifacts.  Exposed
as ``repro-experiments traces gc``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.runner.integrity import (
    CHECKSUM_SUFFIX,
    META_SUFFIX,
    quarantine,
    quarantined_artifacts,
    read_meta,
    verify_artifact,
)
from repro.runner.store import ResultStore

#: Orphaned ``.tmp`` files (crashed atomic writes) younger than this are
#: left alone — they may belong to a writer that is still running.
_TMP_GRACE_SECONDS = 3600.0


@dataclass
class GcReport:
    """What a collection pass found and did."""

    results_scanned: int
    referenced: int
    kept: list[str]
    removed: list[str]
    freed_bytes: int
    dry_run: bool
    #: Referenced artifacts whose checksum/structure check failed.
    corrupt: list[str] = field(default_factory=list)
    #: Whether corrupt artifacts were moved to quarantine this pass.
    fix: bool = False
    #: Artifacts already held in ``traces/quarantine/``.
    quarantined: list[str] = field(default_factory=list)
    #: Kept ingested-target buffers: file name -> provenance line.
    targets: dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        action = "would remove" if self.dry_run else "removed"
        lines = [
            f"traces gc: {self.results_scanned} stored results scanned, "
            f"{self.referenced} replay captures referenced",
            f"{len(self.kept)} kept, {len(self.removed)} {action} "
            f"({self.freed_bytes / 1024:.0f} KiB)",
        ]
        lines.extend(f"  - {name}" for name in self.removed)
        if self.targets:
            lines.append(
                f"{len(self.targets)} ingested target buffers pinned by "
                "targets.json:"
            )
            lines.extend(
                f"  + {name}  {provenance}"
                for name, provenance in sorted(self.targets.items())
            )
        if self.corrupt:
            verdict = (
                "quarantined" if self.fix and not self.dry_run
                else "found (rerun with --fix to quarantine)"
            )
            lines.append(f"{len(self.corrupt)} corrupt artifacts {verdict}")
            lines.extend(f"  ! {name}" for name in self.corrupt)
        if self.quarantined:
            lines.append(
                f"{len(self.quarantined)} artifacts held in quarantine/"
            )
        return "\n".join(lines)


def _referenced(store: ResultStore) -> tuple[int, set[str]]:
    """What the currently-stored results reference.

    Returns ``(results scanned, replay-capture file names)``: each stored
    workload result's capture address, computed exactly as the runner
    computes it when it plans the capture.
    """
    from repro.cpu.capture import job_identity
    from repro.runner.replaystore import replay_key

    scanned = 0
    names: set[str] = set()
    for record in store.records():
        job = record.job
        scanned += 1
        if job.kind == "workload":
            identity = job_identity(
                job.traces(), job.config, job.quota, job.warmup, job.master_seed
            )
            names.add(f"replay-{replay_key(identity)}.npz")
    return scanned, names


def _registry_names(traces_dir: Path) -> tuple[set[str], dict[str, str]]:
    """Target buffers pinned by ``targets.json``: (file names, provenance).

    Ingested traces are referenced by the registry rather than by stored
    results — a freshly ingested target must survive gc before its first
    sweep ever runs.
    """
    from repro.targets.registry import load_registry

    names: set[str] = set()
    provenance: dict[str, str] = {}
    for spec in load_registry(traces_dir).values():
        file_name = f"target-{spec.key}.npy"
        names.add(file_name)
        entry = (
            f"{spec.name} [{spec.fmt}] origin={spec.origin} "
            f"src={spec.source_sha256[:12]} budget={spec.budget}"
        )
        # Two registry names over one buffer (same content ingested twice
        # under different names) render on one line.
        if file_name in provenance:
            entry = f"{provenance[file_name]} + {spec.name}"
        provenance[file_name] = entry
    return names, provenance


def provenance_line(path: Path) -> str:
    """One human line describing an artifact's origin (from sidecars)."""
    meta = read_meta(path)
    if meta is None:
        if path.name.startswith("replay-") and path.suffix == ".npz":
            from repro.runner.replaystore import load_meta

            from repro.cpu.capture import CAPTURE_FORMAT

            inner = load_meta(path)
            if inner is not None:
                benchmarks = ",".join(
                    name if isinstance(name, str) else str(name.get("name"))
                    for name in inner.get("benchmarks", [])
                )
                line = (
                    f"replay capture [{benchmarks}] "
                    f"seed={inner.get('master_seed', '?')}"
                )
                if inner.get("format") != CAPTURE_FORMAT:
                    line += f" format={inner.get('format')} (superseded)"
                return line
        return "(no provenance recorded)"
    if meta.get("kind") == "target":
        return (
            f"ingested [{meta.get('format', '?')}] "
            f"origin={meta.get('origin', '?')} "
            f"src={str(meta.get('source_sha256', ''))[:12]} "
            f"budget={meta.get('budget', '?')} "
            f"accesses={meta.get('accesses', '?')}"
        )
    return f"(unrecognised meta kind {meta.get('kind')!r})"


def collect_garbage(
    results_dir: str | Path, dry_run: bool = False, fix: bool = False
) -> GcReport:
    """Prune unreferenced artifacts under ``<results_dir>/traces``.

    With *fix*, referenced-but-corrupt artifacts (checksum mismatch, or a
    replay npz whose structure no longer loads) are moved to
    ``traces/quarantine/`` so the next sweep regenerates them; without it
    they are only reported.
    """
    from repro.runner.replaystore import load_meta

    store = ResultStore(results_dir)
    scanned, replay_names = _referenced(store)
    traces_dir = store.root / "traces"
    target_names, target_provenance = _registry_names(traces_dir)
    kept: list[str] = []
    removed: list[str] = []
    corrupt: list[str] = []
    kept_targets: dict[str, str] = {}
    freed = 0
    if traces_dir.is_dir():
        now = time.time()
        candidates = sorted(
            p
            for pattern in ("*.npy", "replay-*.npz", "*.tmp")
            for p in traces_dir.glob(pattern)
        )
        for path in candidates:
            is_target = path.name in target_names
            if is_target or path.name in replay_names:
                if verify_artifact(path) is False or (
                    not is_target and load_meta(path) is None
                ):
                    corrupt.append(path.name)
                    if fix and not dry_run:
                        kind = "trace" if is_target else "replay"
                        quarantine(path, reason=f"{kind} integrity check failed")
                        continue
                kept.append(path.name)
                if is_target:
                    kept_targets[path.name] = target_provenance[path.name]
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            if path.suffix == ".tmp" and now - stat.st_mtime < _TMP_GRACE_SECONDS:
                # A crashed atomic write leaves one behind — but a young
                # one may still belong to a live writer.
                kept.append(path.name)
                continue
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    kept.append(path.name)
                    continue
            removed.append(path.name)
            freed += stat.st_size
        # Sweep sidecars (checksum + provenance meta) whose artifact is
        # gone (just removed, moved to quarantine, or deleted out-of-band).
        removed_names = set(removed)
        for suffix in (CHECKSUM_SUFFIX, META_SUFFIX):
            for sidecar in sorted(traces_dir.glob(f"*{suffix}")):
                base = sidecar.with_name(sidecar.name[: -len(suffix)])
                if base.exists() and base.name not in removed_names:
                    continue
                try:
                    size = sidecar.stat().st_size
                    if not dry_run:
                        sidecar.unlink()
                except OSError:
                    continue
                removed.append(sidecar.name)
                freed += size
    return GcReport(
        results_scanned=scanned,
        referenced=len(replay_names),
        kept=kept,
        removed=removed,
        freed_bytes=freed,
        dry_run=dry_run,
        corrupt=corrupt,
        fix=fix,
        quarantined=[p.name for p in quarantined_artifacts(traces_dir)],
        targets=kept_targets,
    )


# -- inventory (``traces ls``) -------------------------------------------------


@dataclass
class TraceInventory:
    """Every artifact under ``<store>/traces``, with provenance."""

    root: Path
    #: ``(file name, size bytes, provenance line)`` in name order.
    entries: list[tuple[str, int, str]] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)

    def render(self) -> str:
        if not self.entries and not self.quarantined:
            return f"traces ls: no artifacts under {self.root}"
        total = sum(size for _, size, _ in self.entries)
        lines = [
            f"traces ls: {len(self.entries)} artifacts "
            f"({total / 1024:.0f} KiB) under {self.root}"
        ]
        lines.extend(
            f"  {name:<52} {size / 1024:>8.0f} KiB  {provenance}"
            for name, size, provenance in self.entries
        )
        if self.quarantined:
            lines.append(
                f"{len(self.quarantined)} artifacts held in quarantine/"
            )
            lines.extend(f"  ! {name}" for name in self.quarantined)
        return "\n".join(lines)


def list_traces(results_dir: str | Path) -> TraceInventory:
    """Enumerate the trace/replay artifacts of a store with provenance.

    Ingested target buffers render their source provenance (format,
    origin checksum, budget) from the meta sidecar; replay captures the
    identity embedded in the archive.  Exposed as
    ``repro-experiments traces ls``.
    """
    traces_dir = ResultStore(results_dir).root / "traces"
    inventory = TraceInventory(root=traces_dir)
    if not traces_dir.is_dir():
        return inventory
    for path in sorted(
        p
        for pattern in ("*.npy", "replay-*.npz")
        for p in traces_dir.glob(pattern)
    ):
        try:
            size = path.stat().st_size
        except OSError:
            continue
        inventory.entries.append((path.name, size, provenance_line(path)))
    inventory.quarantined = [
        p.name for p in quarantined_artifacts(traces_dir)
    ]
    return inventory
