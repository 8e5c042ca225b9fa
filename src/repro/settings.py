"""The one reader of the environment: every ``REPRO_*`` switch, parsed once.

:func:`read` parses the nine switches into a frozen :class:`Settings`
record, with each switch's default and its fallback for an unparsable
value.  No other module under ``src/`` reads ``os.environ``.  The record
is read when called, never at import, so a test's ``monkeypatch.setenv``
takes effect on the next read.

A batch's parent reads the record once and installs it in each of its
pool workers (:func:`install`, the pool initializer), and around each job
it runs inline (:func:`installed`).  Code that may run inside a job asks
:func:`current`, which returns the installed record, so a worker never
reads its own environment.

The module imports nothing outside the standard library at import time:
the CLI reads it before deciding whether to load numpy.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.runner.faults import Directive

#: ``REPRO_TRACE_BUDGET``'s default: accesses kept per ingested trace,
#: before ``REPRO_SCALE``.
DEFAULT_TRACE_BUDGET = 1_048_576


@dataclass(frozen=True)
class Settings:
    """What the environment says, parsed; :func:`read` holds the defaults."""

    #: ``REPRO_SCALE``: budget multiplier, at least 0.1 (default 1; junk or
    #: a non-finite value reads as the default).
    scale: float
    #: ``REPRO_JOBS`` when a positive int, else the CPU count.
    jobs: int
    #: ``REPRO_NO_FASTPATH``: any non-empty value pins the generic loop.
    no_fastpath: bool
    #: ``REPRO_MAX_RETRIES``: retries after the first attempt (default 2).
    max_retries: int
    #: ``REPRO_JOB_TIMEOUT``: per-attempt wall-clock limit; ``None`` is off.
    job_timeout: float | None
    #: ``REPRO_RETRY_BACKOFF``: the first backoff step (default 0.05 s).
    retry_backoff: float
    #: ``REPRO_FAULT``: the parsed fault-injection plan (empty: none).
    fault: tuple[Directive, ...]
    #: ``REPRO_TARGETS_DIR``, else the directory the invocation activated
    #: (:func:`repro.targets.registry.activate`), else ``None``.
    targets_dir: str | None
    #: ``REPRO_TRACE_BUDGET``: accesses kept per ingested trace, unscaled.
    trace_budget: int


def _int(raw: str, default: int) -> int:
    try:
        return int(raw)
    except ValueError:
        return default


def _float(raw: str, default: float) -> float:
    try:
        return float(raw)
    except ValueError:
        return default


def _scale(raw: str) -> float:
    value = _float(raw, 1.0)
    return max(0.1, value) if math.isfinite(value) else 1.0


def _fault_plan(raw: str) -> tuple[Directive, ...]:
    # Imported here: the fault grammar's module reads its plan from this one.
    from repro.runner.faults import parse_plan

    try:
        return parse_plan(raw)
    except ValueError as exc:
        raise ValueError(f"REPRO_FAULT={raw!r}: {exc}") from None


#: The targets directory :func:`activate_targets_dir` set for this process.
_activated_targets_dir: str | None = None


def activate_targets_dir(directory: str | Path) -> None:
    """Default ``REPRO_TARGETS_DIR`` to *directory* for later reads."""
    global _activated_targets_dir
    _activated_targets_dir = str(directory)


def read() -> Settings:
    """Parse every switch from ``os.environ`` now.

    Raises ``ValueError`` naming ``REPRO_FAULT`` when its plan does not
    parse: a chaos run that silently injected nothing would pass vacuously.
    """
    env = os.environ
    jobs = _int(env.get("REPRO_JOBS", ""), 0)
    timeout = _float(env.get("REPRO_JOB_TIMEOUT", ""), 0.0)
    return Settings(
        scale=_scale(env.get("REPRO_SCALE", "")),
        jobs=jobs if jobs > 0 else os.cpu_count() or 1,
        no_fastpath=bool(env.get("REPRO_NO_FASTPATH")),
        max_retries=max(0, _int(env.get("REPRO_MAX_RETRIES", ""), 2)),
        job_timeout=timeout if timeout > 0 else None,
        retry_backoff=max(0.0, _float(env.get("REPRO_RETRY_BACKOFF", ""), 0.05)),
        fault=_fault_plan(env.get("REPRO_FAULT", "")),
        targets_dir=env.get("REPRO_TARGETS_DIR") or _activated_targets_dir,
        trace_budget=_int(env.get("REPRO_TRACE_BUDGET", ""), DEFAULT_TRACE_BUDGET),
    )


#: The record a batch's parent installed in this process, if any.
_installed: Settings | None = None


def install(record: Settings | None) -> None:
    """Make *record* this process's settings (``None``: read the environment)."""
    global _installed
    _installed = record


@contextmanager
def installed(record: Settings) -> Iterator[None]:
    """Run the block under *record*, then restore what was installed before."""
    previous = _installed
    install(record)
    try:
        yield
    finally:
        install(previous)


def current() -> Settings:
    """The installed record, else a fresh :func:`read` of the environment."""
    return _installed if _installed is not None else read()
