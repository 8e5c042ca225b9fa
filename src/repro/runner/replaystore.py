"""Content-addressed replay-capture artifacts and the per-path bundle cache.

The result store's ``traces/`` directory holds one ``replay-<key>.npz``
per distinct ``(workload, private-level platform, budgets, seed)``, next
to the ingested ``target-<key>.npy`` buffers of :mod:`repro.targets`.
Each artifact holds the private-level streams a whole policy sweep
replays through the LLC-filtered kernel (:mod:`repro.cpu.replay`).

Artifacts are structured-NumPy end to end — per core a ``uint8`` step
stream, structured event records, and the private-state checkpoints as
one ``uint8`` member of concatenated encoded-JSON blobs with a table of
their access indices and end offsets; plus one JSON meta blob (the
capture's meta, baseline/finish stat records).  Loading slices the
checkpoint blobs back into ``bytes`` without decoding any: the replay
kernel decodes only the one it restores.  Files are written atomically
and addressed by :func:`replay_key`, a SHA-256 over the
:class:`~repro.cpu.capture.CaptureIdentity` and ``CAPTURE_FORMAT``, so a
stale, foreign or superseded file is simply never loaded.  An artifact
is the bundle :func:`~repro.cpu.capture.capture_workload` returns, every
core recorded to its quota completion: the same capture an unswept run
makes in memory.

The lifecycle is driven by :class:`~repro.runner.parallel.ParallelRunner`:

1. the parent builds each miss's identity with
   :func:`~repro.cpu.capture.job_identity`, and schedules one **capture
   job** per identity that two or more misses share, ahead of the batch
   (through the same worker pool, so captures parallelise); the job
   carries the identity to :meth:`ReplayStore.materialise`;
2. each swept sim task carries its own sweep's artifact path — known to
   the parent from :meth:`ReplayStore.path_for` — once that capture has
   succeeded, and ``None`` otherwise;
3. :meth:`repro.runner.jobs.WorkloadJob.execute` loads the path through
   :func:`cached_bundle` (a small per-process LRU, so a worker loads each
   artifact once per sweep) and hands the bundle to
   :func:`repro.sim.multi.run_workload`, which replays it when its
   identity equals the run's (:func:`~repro.cpu.capture.engine_identity`)
   and otherwise captures the run's own workload in memory; a loaded
   tape that a run outlives is extended live from its tape-end
   checkpoint (:func:`~repro.cpu.capture.extend_tape`), and the
   extension stays on the cached bundle for the sweep's later replays;
4. files persist and are reused content-addressed by later invocations,
   until ``traces gc`` (:mod:`repro.runner.tracegc`) removes the ones
   no stored result's identity hashes to.

Results are bit-identical whichever kernel runs a job.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.runner import faults
from repro.runner.integrity import quarantine, verify_artifact, write_checksum

if TYPE_CHECKING:
    from repro.cpu.capture import CaptureBundle, CaptureIdentity

_KEY_LEN = 40

#: One row per checkpoint: its access index and the end offset of its
#: blob in the tape's concatenated ``checkpoints_{i}`` member.
CHECKPOINT_DTYPE = np.dtype([("index", "<u8"), ("end", "<u8")])


def replay_key(identity: CaptureIdentity) -> str:
    """Content address of one capture artifact: its identity and format.

    Hashes the identity's values in field order: renaming a
    :class:`~repro.cpu.capture.CaptureIdentity` field keeps every key,
    reordering the fields changes them all.
    """
    from repro.cpu.capture import CAPTURE_FORMAT

    blob = json.dumps(
        {"v": CAPTURE_FORMAT, "identity": list(identity.to_meta().values())},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:_KEY_LEN]


def save_bundle(bundle: CaptureBundle, path: Path) -> None:
    """Atomically write *bundle* as one ``.npz`` (arrays + JSON meta blob)."""
    blob = {
        "meta": bundle.meta,
        "tapes": [
            {
                "baseline": tape.baseline,
                "finish": tape.finish,
                "length": tape.length,
            }
            for tape in bundle.tapes
        ],
    }
    arrays = {
        "meta_json": np.frombuffer(json.dumps(blob).encode(), dtype=np.uint8)
    }
    for i, tape in enumerate(bundle.tapes):
        arrays[f"steps_{i}"] = tape.steps_array()
        arrays[f"events_{i}"] = tape.events_array()
        table = np.empty(len(tape.checkpoints), dtype=CHECKPOINT_DTYPE)
        table["index"] = tape.checkpoint_index
        table["end"] = np.cumsum([len(c) for c in tape.checkpoints], dtype=np.uint64)
        arrays[f"checkpoint_table_{i}"] = table
        arrays[f"checkpoints_{i}"] = np.frombuffer(
            b"".join(tape.checkpoints), dtype=np.uint8
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_meta(path: Path | str) -> dict | None:
    """Just an artifact's meta block (no tapes); ``None`` on any damage.

    Any ``CAPTURE_FORMAT`` is returned as written: callers that go on to
    use the artifact compare ``meta["format"]`` themselves, and ``traces
    ls`` names a superseded format.
    """
    try:
        with np.load(path, allow_pickle=False) as npz:
            blob = json.loads(bytes(npz["meta_json"]).decode())
            meta = blob["meta"]
    except Exception:
        # "Any damage" includes mid-file corruption, which surfaces as
        # BadZipFile/UnicodeDecodeError/... depending on which bytes hit.
        return None
    if not isinstance(meta, dict):
        return None
    return meta


def load_bundle(path: Path | str) -> CaptureBundle | None:
    """Load an artifact back into a live bundle; ``None`` on any damage."""
    from repro.cpu.capture import CAPTURE_FORMAT, EVENT_DTYPE, CaptureBundle, CoreTape

    try:
        with np.load(path, allow_pickle=False) as npz:
            blob = json.loads(bytes(npz["meta_json"]).decode())
            meta = blob["meta"]
            if meta.get("format") != CAPTURE_FORMAT:
                return None
            tapes = []
            for i, rec in enumerate(blob["tapes"]):
                events = npz[f"events_{i}"]
                if events.dtype != EVENT_DTYPE:
                    return None
                table = npz[f"checkpoint_table_{i}"]
                if table.dtype != CHECKPOINT_DTYPE:
                    return None
                blobs = npz[f"checkpoints_{i}"]
                tape = CoreTape()
                tape.steps = bytearray(npz[f"steps_{i}"])
                tape.set_events(events)
                ends = table["end"].tolist()
                tape.checkpoints = [
                    blobs[start:end].tobytes()
                    for start, end in zip([0] + ends, ends)
                ]
                tape.checkpoint_index = array("Q", table["index"].tolist())
                tape.baseline = rec["baseline"]
                tape.finish = rec["finish"]
                tape.length = rec["length"]
                tapes.append(tape)
    except Exception:
        # Same contract as load_meta: any damage reads as a miss.
        return None
    return CaptureBundle(meta, tapes)


class ReplayStore:
    """Capture artifacts under a store's ``traces/`` directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / f"replay-{key}.npz"

    def materialise(self, identity: CaptureIdentity) -> Path:
        """Capture (or find) the artifact of *identity*; returns its path."""
        from repro.cpu import capture

        path = self.path_for(replay_key(identity))
        if path.is_file() and verify_artifact(path) is False:
            # Damage found before reuse: preserve the evidence out of the
            # live namespace and fall through to a fresh capture.
            quarantine(path, reason="replay checksum mismatch")
        if not path.is_file():
            bundle = capture.capture_workload(identity)
            save_bundle(bundle, path)
            write_checksum(path)
            faults.corrupt_artifact("replay", path, path.name)
        return path


# -- per-process bundle cache --------------------------------------------------

#: Path -> loaded bundle (LRU), so a sweep's jobs reuse one load (and share
#: any live tape extensions within the process).  Bounded: a loaded bundle
#: holds about its artifact's size in memory (~25 B per event plus the
#: still-encoded checkpoints), so an unbounded cache would grow a
#: long-lived worker by one platform per sweep.
_BUNDLES: "OrderedDict[str, CaptureBundle | None]" = OrderedDict()
_BUNDLE_CACHE_LIMIT = 4

#: Monotonic per-process counter of artifact loads from disk; the parallel
#: runner ships per-task deltas back and aggregates them into
#: ``runner.stats`` — a sweep should load each artifact once per worker,
#: not once per job.
REGISTRY_STATS = {"bundle_loads": 0}


def cached_bundle(path: str | Path) -> CaptureBundle | None:
    """The capture bundle stored at *path*, or ``None``.

    Loads the artifact on first use and caches it per path; an unreadable
    or damaged file caches as a permanent miss, so the affected jobs
    simply capture their own workloads in memory.
    """
    path = str(path)
    if path not in _BUNDLES:
        while len(_BUNDLES) >= _BUNDLE_CACHE_LIMIT:
            _BUNDLES.popitem(last=False)
        if verify_artifact(path) is False:
            # Checksum mismatch: a corrupt .npz may still *load* with
            # wrong tape data, so quarantine instead of trusting it.
            quarantine(path, reason="replay checksum mismatch")
            _BUNDLES[path] = None
        else:
            bundle = load_bundle(path)
            if bundle is None and os.path.isfile(path):
                # Structurally unreadable (truncated/damaged npz): the
                # next materialise should re-capture, not re-reuse it.
                quarantine(path, reason="replay unreadable")
            if bundle is not None:
                REGISTRY_STATS["bundle_loads"] += 1
            _BUNDLES[path] = bundle
    else:
        _BUNDLES.move_to_end(path)
    return _BUNDLES[path]
