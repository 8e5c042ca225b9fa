"""Ingestion: materialise an external trace once, content-addressed.

The pipeline parses a trace file through its streaming decoder
(:mod:`repro.targets.formats`) and writes the decoded accesses as one
flat ``TRACE_DTYPE`` buffer — ``target-<key>.npy`` — under a store's
``traces/`` directory, next to the replay captures.  The
buffer is *raw* (no per-core address offset): the offset depends on core
placement and is applied at serve time by
:class:`~repro.targets.registry.IngestedTraceSource`, so one ingest
serves every workload mix that includes the target.

**Content address.**  ``key = sha256({version, source sha256, block
size, budget, chunk})`` — everything that changes the produced bytes and
nothing that doesn't.  Re-ingesting the same file under the same budget
finds the existing buffer and writes nothing; the committed golden tests
assert byte-identity across re-ingestions.

**Down-sampling.**  Decoding stops after *budget* accesses (the leading
prefix — the standard "first N" truncation, deterministic and
single-pass over compressed streams).  The budget resolves as
``REPRO_TRACE_BUDGET`` (default 1,048,576) scaled by ``REPRO_SCALE``,
floored at one chunk; an explicit ``--budget`` bypasses scaling.  Traces
shorter than a whole number of chunks are tiled cyclically up to the
chunk boundary, so the buffer always serves full chunks.

Each buffer gets the standard ``.sha256`` integrity sidecar (same
quarantine machinery as every other artifact) plus a ``.meta.json``
provenance sidecar (format, origin, source digest, budget) that
``targets info`` and ``traces ls`` render.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from repro import settings
from repro.targets.formats import FormatError, detect_format, iter_chunks, open_stream
from repro.targets.registry import (
    TARGET_PREFIX,
    TRACE_DTYPE,
    TargetSpec,
    buffer_path,
    load_registry,
    save_registry,
)

#: Default down-sampling cap, in accesses (before ``REPRO_SCALE``).
DEFAULT_BUDGET = settings.DEFAULT_TRACE_BUDGET
#: Bump when the ingest encoding changes; part of every content address.
INGEST_VERSION = 1

#: Fallback instructions-per-access when a format carries no instruction
#: records; clamp bounds keep the core timing model sane either way.
DEFAULT_IPA = 3.0
IPA_BOUNDS = (1.0, 1000.0)

_CHUNK = 4096  # == TraceSource.CHUNK (asserted in tests)


def trace_budget(budget: int | None = None) -> int:
    """The effective down-sampling cap for this ingestion.

    Explicit *budget* wins verbatim; otherwise ``REPRO_TRACE_BUDGET``
    (default 1,048,576 accesses) scaled by ``REPRO_SCALE``.  Always at
    least one chunk.
    """
    if budget is None:
        record = settings.current()
        budget = round(record.trace_budget * record.scale)
    return max(_CHUNK, int(budget))


def ingest_key(source_sha256: str, block_size: int, budget: int) -> str:
    """Content address of one ingested buffer."""
    blob = json.dumps(
        {
            "v": INGEST_VERSION,
            "source": source_sha256,
            "block_size": block_size,
            "budget": budget,
            "chunk": _CHUNK,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:40]


def default_name(path: str | Path) -> str:
    """``tgt:``-prefixed registry name derived from the file name."""
    stem = Path(path).name.lower()
    for suffix in (".gz", ".xz", ".trace", ".txt", ".out", ".log", ".dr"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    slug = re.sub(r"[^a-z0-9_.-]+", "-", stem).strip("-.") or "trace"
    return TARGET_PREFIX + slug


def _decode(path: Path, fmt: str, block_size: int, budget: int):
    """Decode the leading *budget* accesses; single pass, bounded memory."""
    addr_parts: list[np.ndarray] = []
    pc_parts: list[np.ndarray] = []
    write_parts: list[np.ndarray] = []
    total = 0
    instructions = 0
    with open_stream(path) as stream:
        for batch in iter_chunks(stream, fmt, block_size):
            take = min(len(batch.addrs), budget - total)
            if take:
                addr_parts.append(batch.addrs[:take])
                pc_parts.append(batch.pcs[:take])
                write_parts.append(batch.writes[:take])
                total += take
            # The instruction count covers the consumed prefix (the final
            # partially-taken batch rounds up — a bounded approximation).
            instructions += batch.instructions
            if total >= budget:
                break
    if total == 0:
        raise FormatError(f"no memory accesses decoded from {path.name}")
    return (
        np.concatenate(addr_parts),
        np.concatenate(pc_parts),
        np.concatenate(write_parts),
        instructions,
    )


def _tile(arr: np.ndarray, length: int) -> np.ndarray:
    """Cyclically extend *arr* to exactly *length* elements."""
    if len(arr) == length:
        return arr
    reps = -(-length // len(arr))
    return np.tile(arr, reps)[:length]


def ingest_file(
    path: str | Path,
    fmt: str | None = None,
    *,
    directory: str | Path,
    name: str | None = None,
    budget: int | None = None,
    block_size: int = 64,
    mlp: float = 2.0,
    base_cpi: float = 1.0,
) -> tuple[TargetSpec, bool]:
    """Ingest one trace file into *directory*; returns ``(spec, reused)``.

    Idempotent: an existing (checksum-clean) buffer for the same content
    address is reused without re-parsing, and the registry entry is
    refreshed either way.
    """
    from repro.runner.integrity import (
        file_digest,
        quarantine,
        read_meta,
        verify_artifact,
        write_checksum,
        write_meta,
    )

    path = Path(path)
    directory = Path(directory)
    fmt = fmt or detect_format(path)
    source_sha = file_digest(path)
    budget = trace_budget(budget)
    key = ingest_key(source_sha, block_size, budget)
    out_path = buffer_path(directory, key)
    name = name or default_name(path)
    if not name.startswith(TARGET_PREFIX):
        name = TARGET_PREFIX + name

    if out_path.is_file() and verify_artifact(out_path) is False:
        quarantine(out_path, reason="target trace checksum mismatch")
    meta = read_meta(out_path) if out_path.is_file() else None
    reused = meta is not None
    if not reused:
        addrs, pcs, writes, instructions = _decode(path, fmt, block_size, budget)
        n_accesses = len(addrs)
        n_chunks = -(-n_accesses // _CHUNK)
        length = n_chunks * _CHUNK
        out = np.empty(length, dtype=TRACE_DTYPE)
        out["addr"] = _tile(addrs, length)
        out["pc"] = _tile(pcs, length)
        out["write"] = _tile(writes, length)
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, out)
            os.replace(tmp, out_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        write_checksum(out_path)
        ipa = instructions / n_accesses if instructions else DEFAULT_IPA
        ipa = min(max(ipa, IPA_BOUNDS[0]), IPA_BOUNDS[1])
        meta = {
            "kind": "target",
            "format": fmt,
            "origin": path.name,
            "source_sha256": source_sha,
            "budget": budget,
            "accesses": n_accesses,
            "instructions": instructions,
            "instructions_per_access": ipa,
            "block_size": block_size,
            "n_chunks": n_chunks,
            "version": INGEST_VERSION,
        }
        write_meta(out_path, meta)

    spec = TargetSpec(
        name=name,
        key=key,
        fmt=fmt,
        origin=path.name,
        source_sha256=source_sha,
        budget=budget,
        n_accesses=int(meta["accesses"]),
        n_chunks=int(meta["n_chunks"]),
        instructions_per_access=float(meta["instructions_per_access"]),
        block_size=block_size,
        mlp=mlp,
        base_cpi=base_cpi,
    )
    targets = dict(load_registry(directory))
    targets[name] = spec
    save_registry(directory, targets)
    return spec, reused


def ingest_target(target, staging_dir: str | Path, *, directory: str | Path):
    """Fetch + ingest every trace file of a :class:`~repro.targets.target.Target`.

    Names multi-file targets ``<target.name>-<file-slug>``; a single-file
    target keeps the plain target name.
    """
    trace_set = target.trace_set(staging_dir)
    specs = []
    for tf in trace_set:
        name = target.name
        if len(trace_set) > 1:
            name = f"{target.name}-{default_name(tf.path)[len(TARGET_PREFIX):]}"
        spec, _ = ingest_file(
            tf.path,
            tf.fmt,
            directory=directory,
            name=name,
            block_size=target.block_size,
            mlp=target.mlp,
            base_cpi=target.base_cpi,
        )
        specs.append(spec)
    return specs
