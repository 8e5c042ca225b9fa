"""Artifact integrity: checksum sidecars and the quarantine area.

Ingested target buffers (``target-<key>.npy``) and replay captures
(``replay-<key>.npz``) are content-addressed caches, but a *silently
corrupt* cache is worse than a missing one — a bit-flipped ``.npy``
still loads and would feed wrong accesses into a simulation.  Every artifact therefore
gets a ``<name>.sha256`` sidecar written right after the atomic rename,
and every reader verifies it before mapping/loading.

A failed verification never crashes the reader: the damaged artifact
(plus its sidecar) is moved into a ``quarantine/`` directory next to it
— preserved for inspection, out of the content-addressed namespace — so
the next materialisation sees a plain miss and regenerates/recaptures.
Artifacts written before checksums existed have no sidecar and verify
as ``None`` (unknown); they are still subject to the structural checks
the loaders already performed.

``repro-experiments traces gc`` reports quarantine contents and, with
``--fix``, moves freshly detected corrupt artifacts there itself.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

CHECKSUM_SUFFIX = ".sha256"
META_SUFFIX = ".meta.json"
QUARANTINE_DIRNAME = "quarantine"


def checksum_path(path: str | Path) -> Path:
    return Path(str(path) + CHECKSUM_SUFFIX)


def meta_path(path: str | Path) -> Path:
    """The provenance sidecar of an artifact (``<name>.meta.json``)."""
    return Path(str(path) + META_SUFFIX)


def write_meta(path: str | Path, meta: dict) -> Path:
    """Write an artifact's provenance sidecar (deterministic bytes)."""
    import json

    sidecar = meta_path(path)
    sidecar.write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return sidecar


def read_meta(path: str | Path) -> dict | None:
    """The provenance sidecar's contents, or ``None`` (absent/unreadable)."""
    import json

    try:
        meta = json.loads(meta_path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return meta if isinstance(meta, dict) else None


def file_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_checksum(path: str | Path) -> Path:
    """Write the sidecar for an artifact that was just persisted."""
    sidecar = checksum_path(path)
    sidecar.write_text(file_digest(path) + "\n", encoding="utf-8")
    return sidecar


def verify_artifact(path: str | Path) -> bool | None:
    """``True`` checksum matches, ``False`` mismatch/unreadable, ``None``
    when no sidecar exists (a pre-checksum artifact — unknown)."""
    sidecar = checksum_path(path)
    try:
        expected = sidecar.read_text(encoding="utf-8").strip()
    except OSError:
        return None
    try:
        return file_digest(path) == expected
    except OSError:
        return False


def quarantine_dir(root: str | Path) -> Path:
    return Path(root) / QUARANTINE_DIRNAME


def quarantine(path: str | Path, reason: str = "") -> Path | None:
    """Move a damaged artifact (and its sidecar) into ``quarantine/``.

    Returns the new location, or ``None`` when the move failed — e.g. a
    concurrent reader already quarantined it, which is fine: the goal
    (artifact out of the live namespace) is met either way.
    """
    path = Path(path)
    target_dir = path.parent / QUARANTINE_DIRNAME
    try:
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / path.name
        os.replace(path, target)
    except OSError:
        return None
    for sidecar in (checksum_path(path), meta_path(path)):
        if sidecar.is_file():
            try:
                os.replace(sidecar, target_dir / sidecar.name)
            except OSError:
                pass
    if reason:
        try:
            (target_dir / (path.name + ".reason")).write_text(
                reason + "\n", encoding="utf-8"
            )
        except OSError:
            pass
    return target


def quarantined_artifacts(root: str | Path) -> list[Path]:
    """Every artifact currently held in ``<root>/quarantine/``."""
    directory = quarantine_dir(root)
    if not directory.is_dir():
        return []
    return sorted(
        p
        for p in directory.iterdir()
        if p.is_file()
        and not p.name.endswith(CHECKSUM_SUFFIX)
        and not p.name.endswith(META_SUFFIX)
        and not p.name.endswith(".reason")
    )
