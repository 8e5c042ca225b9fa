"""The ingested-target registry and its memmapped trace source.

Ingestion (:mod:`repro.targets.ingest`) materialises every external trace
once as a content-addressed buffer (``target-<key>.npy``) under a store's
``traces/`` directory and records it in a ``targets.json`` registry next
to the buffers.  This module is the *consumption* side:

* :class:`TargetSpec` — the registry entry; it carries exactly the
  core-model attributes the simulator reads off a benchmark spec
  (``name``/``base_cpi``/``mlp``), so everything downstream of
  :func:`repro.trace.benchmarks.make_source` treats ingested and
  synthetic workloads identically;
* :class:`IngestedTraceSource` — a drop-in for
  :class:`~repro.trace.benchmarks.TraceSource` that memory-maps the
  ingested buffer read-only and serves it chunk-by-chunk (cycling at the
  end, matching the paper's "re-execute finished applications" rule),
  with the standard per-core address offset applied at serve time so any
  core placement replays the same bytes;
* the **active directory** — where ``tgt:`` names resolve and buffers
  live: ``REPRO_TARGETS_DIR`` when set, else the ``<results-dir>/traces``
  a command passed to :func:`activate`.  The :mod:`repro.settings`
  record's ``targets_dir`` holds it, and a batch's parent hands that
  record to its pool workers.  The parent also binds each job's ``tgt:``
  names to their specs (:func:`repro.runner.jobs.bind_targets`), so a
  worker builds its sources from those specs and only maps their buffers
  from the active directory; it never reads ``targets.json``.

Target names are namespaced with the ``tgt:`` prefix so they can never
collide with the synthetic roster, and every lookup that touches the
roster (workload validation, suite composition, job execution) branches
on :func:`is_target` alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro import settings

#: Namespace prefix separating ingested targets from synthetic benchmarks.
TARGET_PREFIX = "tgt:"
#: The switch that pins the active targets directory (see :func:`activate`).
ENV_TARGETS_DIR = "REPRO_TARGETS_DIR"
#: Registry file name, next to the buffers it describes.
REGISTRY_NAME = "targets.json"
#: Bump when the registry schema changes.
REGISTRY_VERSION = 1
#: One record per access; ``np.load(mmap_mode="r")`` maps it zero-copy.
TRACE_DTYPE = np.dtype([("addr", "<i8"), ("pc", "<i8"), ("write", "?")])


def is_target(name: object) -> bool:
    """Whether a benchmark name denotes an ingested target."""
    return isinstance(name, str) and name.startswith(TARGET_PREFIX)


@dataclass(frozen=True)
class TargetSpec:
    """One ingested trace, as registered in ``targets.json``.

    ``mlp``/``base_cpi`` fill the same role as on
    :class:`~repro.trace.benchmarks.BenchmarkSpec` (the core timing model
    reads them); external formats carry no such microarchitectural
    metadata, so they are ingest-time parameters with neutral defaults.
    """

    name: str  # tgt:-prefixed registry name
    key: str  # ingest content address (see ingest.ingest_key)
    fmt: str  # source format (champsim/drcachesim/lackey)
    origin: str  # original file name, for provenance display
    source_sha256: str  # digest of the raw input file
    budget: int  # down-sampling cap applied at ingest
    n_accesses: int  # accesses decoded before tiling
    n_chunks: int  # buffer length in CHUNK units
    instructions_per_access: float
    block_size: int = 64
    mlp: float = 2.0
    base_cpi: float = 1.0

    #: Duck-type marker :func:`~repro.trace.benchmarks.make_source`
    #: dispatches on.
    kind = "target"

    @property
    def thrashing(self) -> bool:
        """Real traces carry no Footprint-number; never constraint-picked."""
        return False

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "TargetSpec":
        return TargetSpec(**data)


# -- the active directory ------------------------------------------------------


def activate(results_dir: str | Path) -> Path:
    """Make ``<results_dir>/traces`` the active targets directory.

    An explicit ``REPRO_TARGETS_DIR`` wins — a user pointing the variable
    at a shared ingest cache keeps it across every command.  Returns the
    directory now active.  The environment is left alone: the directory
    reaches pool workers in the batch's settings record.
    """
    settings.activate_targets_dir(Path(results_dir) / "traces")
    return active_dir()


def active_dir(directory: str | Path | None = None) -> Path | None:
    """The targets directory to resolve against (explicit beats active)."""
    if directory is not None:
        return Path(directory)
    active = settings.current().targets_dir
    return Path(active) if active else None


def registry_path(directory: str | Path) -> Path:
    return Path(directory) / REGISTRY_NAME


def buffer_path(directory: str | Path, key: str) -> Path:
    return Path(directory) / f"target-{key}.npy"


def load_registry(directory: str | Path | None = None) -> dict[str, TargetSpec]:
    """Every registered target in the (given or active) directory."""
    directory = active_dir(directory)
    if directory is None:
        return {}
    try:
        raw = json.loads(registry_path(directory).read_text(encoding="utf-8"))
        return {
            name: TargetSpec.from_dict(entry)
            for name, entry in raw.get("targets", {}).items()
        }
    except (OSError, ValueError, TypeError):
        return {}


def save_registry(
    directory: str | Path, targets: dict[str, TargetSpec]
) -> Path:
    """Atomically (re)write ``targets.json`` — deterministic bytes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = registry_path(directory)
    blob = json.dumps(
        {
            "version": REGISTRY_VERSION,
            "targets": {
                name: targets[name].to_dict() for name in sorted(targets)
            },
        },
        indent=2,
        sort_keys=True,
    )
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(blob + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


def lookup_target(
    name: str, directory: str | Path | None = None
) -> TargetSpec | None:
    """The spec registered under *name* (``tgt:`` optional), or ``None``."""
    if not name.startswith(TARGET_PREFIX):
        name = TARGET_PREFIX + name
    return load_registry(directory).get(name)


def require_target(name: str, directory: str | Path | None = None) -> TargetSpec:
    spec = lookup_target(name, directory)
    if spec is None:
        where = active_dir(directory)
        hint = (
            f"no registry in {where}"
            if where is not None
            else f"no targets directory active (set {ENV_TARGETS_DIR} or pass "
            "--results-dir to a command that ingested it)"
        )
        raise ValueError(
            f"target {name!r} is not ingested ({hint}); "
            "run: repro-experiments targets ingest <trace-file>"
        )
    return spec


# -- the trace source ----------------------------------------------------------

#: Path -> mapped buffer; every source over the same target in a process
#: shares one read-only mapping (and all processes share page cache).
_MAPS: dict[str, np.ndarray] = {}


def _map_buffer(path: Path) -> np.ndarray:
    from repro.runner.integrity import quarantine, verify_artifact

    arr = _MAPS.get(str(path))
    if arr is not None:
        return arr
    if verify_artifact(path) is False:
        quarantine(path, reason="target trace checksum mismatch")
        raise ValueError(
            f"ingested trace {path.name} failed its checksum and was "
            "quarantined; re-run: repro-experiments targets ingest"
        )
    try:
        arr = np.load(path, mmap_mode="r")
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot map ingested trace {path}: {exc}") from exc
    if arr.dtype != TRACE_DTYPE or arr.ndim != 1 or len(arr) == 0:
        raise ValueError(f"ingested trace {path.name} has an unexpected layout")
    _MAPS[str(path)] = arr
    return arr


class IngestedTraceSource:
    """Chunked replay of an ingested buffer; drop-in for ``TraceSource``.

    Implements the full source contract the kernels consume —
    ``next_access``/``next_chunk``/``commit``/``restart`` plus the
    ``instructions_per_access`` and ``spec.base_cpi``/``spec.mlp`` core
    parameters — against a read-only memory map, so the generic loop and
    the capture and replay kernels all run unchanged with zero re-parsing.
    The stream cycles when a run consumes more than the buffer holds
    (deterministically, and at the same chunk boundaries on every path,
    which keeps the kernels bit-identical to each other).
    """

    CHUNK = 4096  # must equal TraceSource.CHUNK (asserted in tests)

    __slots__ = (
        "spec",
        "geometry",
        "core_id",
        "master_seed",
        "address_offset",
        "instructions_per_access",
        "chunks_generated",
        "_buffer",
        "_n_chunks",
        "_cursor",
        "_addrs",
        "_pcs",
        "_writes",
        "_pos",
    )

    def __init__(
        self,
        spec: TargetSpec,
        geometry,
        core_id: int,
        master_seed: int = 0,
        directory: str | Path | None = None,
    ) -> None:
        where = active_dir(directory)
        if where is None:
            raise ValueError(
                f"cannot resolve target {spec.name!r}: no targets directory "
                f"active (set {ENV_TARGETS_DIR})"
            )
        self.spec = spec
        self.geometry = geometry
        self.core_id = core_id
        self.master_seed = master_seed
        self.address_offset = (core_id + 1) << 36
        self.instructions_per_access = spec.instructions_per_access
        self._buffer = _map_buffer(buffer_path(where, spec.key))
        self._n_chunks = len(self._buffer) // self.CHUNK
        if self._n_chunks == 0:
            raise ValueError(
                f"ingested trace for {spec.name!r} is shorter than one chunk"
            )
        self._cursor = 0
        self._addrs = np.empty(0, dtype=np.int64)
        self._pcs = np.empty(0, dtype=np.int64)
        self._writes = np.empty(0, dtype=bool)
        self._pos = 0
        self.chunks_generated = 0

    def _refill(self) -> None:
        start = (self._cursor % self._n_chunks) * self.CHUNK
        block = self._buffer[start : start + self.CHUNK]
        # The per-core offset is the only transformation; one vectorised
        # add per 4096 accesses, the map itself stays untouched.
        self._addrs = block["addr"] + self.address_offset
        self._pcs = np.asarray(block["pc"])
        self._writes = np.asarray(block["write"])
        self._pos = 0
        self._cursor += 1
        self.chunks_generated += 1

    def next_access(self) -> tuple[int, int, bool]:
        if self._pos >= len(self._addrs):
            self._refill()
        pos = self._pos
        self._pos = pos + 1
        return int(self._addrs[pos]), int(self._pcs[pos]), bool(self._writes[pos])

    def next_chunk(self) -> tuple:
        if self._pos >= len(self._addrs):
            self._refill()
        return self._addrs, self._pcs, self._writes, self._pos

    def commit(self, pos: int) -> None:
        self._pos = pos

    def restart(self) -> None:
        """Back to the trace's beginning (finished apps re-execute)."""
        self._cursor = 0
        self._addrs = np.empty(0, dtype=np.int64)
        self._pos = 0


def make_target_source(
    spec: TargetSpec | str,
    geometry,
    core_id: int,
    master_seed: int = 0,
    directory: str | Path | None = None,
) -> IngestedTraceSource:
    """Construct the source for one target (name or resolved spec)."""
    if isinstance(spec, str):
        spec = require_target(spec, directory)
    return IngestedTraceSource(spec, geometry, core_id, master_seed, directory)
