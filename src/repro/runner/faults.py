"""Deterministic fault injection for the supervised runner.

The ``REPRO_FAULT`` environment variable turns controlled failures on in
every process that executes jobs — the parent, pool workers, capture
jobs — so the retry/timeout/quarantine machinery of
:mod:`repro.runner.supervisor` can be exercised end to end, in tests and
in the nightly chaos CI job.  Injection happens only at the *job
boundary* (before a job's simulation starts) and at *artifact write
time* (after a replay capture is persisted), never inside the simulation
kernels, so a retried job reproduces its result bit for bit and a run
that survives injected noise is bit-identical to a fault-free run.

Grammar — a comma-separated list of directives::

    REPRO_FAULT = directive[,directive ...]
    directive   = "crash:" trigger                  # raise before executing
                | "kill:" trigger                   # os._exit in a pool worker
                                                    #   (-> BrokenProcessPool);
                                                    #   degrades to a crash inline
                | "hang:" trigger [":" seconds]     # sleep (default 30 s) before
                                                    #   executing -> wall-clock
                                                    #   timeouts fire
                | "poison:" substring               # always crash jobs whose
                                                    #   cache key contains substring
                | "corrupt-artifact:" kind [":" trigger]
                                                    # damage a freshly written
                                                    #   artifact; the only
                                                    #   kind is "replay"
    trigger     = probability                      # float in [0, 1], drawn
                                                    #   deterministically per
                                                    #   (directive, key, attempt)
                | "@" N                             # always on attempts <= N,
                                                    #   never after ("@0" =
                                                    #   transient: first attempt
                                                    #   fails, the retry succeeds)

Examples: ``REPRO_FAULT=crash:0.1`` fails ~10% of attempts;
``REPRO_FAULT=crash:@0`` fails every first attempt (and only those);
``REPRO_FAULT=hang:@0:2.0,corrupt-artifact:replay`` hangs first attempts
for two seconds and corrupts every replay capture on disk.

Every decision is a pure function of ``(directive, key, attempt)`` via
SHA-256, so runs are reproducible across processes, worker counts and
invocations — no RNG state is involved.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

ENV_VAR = "REPRO_FAULT"

#: Directive kinds, in the order they are applied at the job boundary.
KINDS = ("hang", "crash", "kill", "poison", "corrupt-artifact")

_DEFAULT_HANG_SECONDS = 30.0


class InjectedFault(RuntimeError):
    """Base of every injected failure (so handlers can special-case it)."""


class InjectedCrash(InjectedFault):
    """The exception ``crash``/``poison`` (and inline ``kill``) raise."""


def unit_draw(tag: str, key: str, attempt: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for one decision point."""
    blob = f"{tag}|{key}|{attempt}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / 2.0**64


@dataclass(frozen=True)
class Directive:
    """One parsed ``REPRO_FAULT`` clause."""

    kind: str
    prob: float | None = None
    max_attempt: int | None = None
    match: str | None = None
    #: ``hang`` seconds or ``corrupt-artifact`` artifact kind.
    arg: str | None = None

    def fires(self, key: str, attempt: int) -> bool:
        if self.match is not None:
            return self.match in key
        if self.max_attempt is not None:
            return attempt <= self.max_attempt
        if self.prob is None:
            return False
        return unit_draw(self.kind, key, attempt) < self.prob


def _parse_trigger(token: str, directive: str) -> tuple[float | None, int | None]:
    if token.startswith("@"):
        try:
            return None, int(token[1:])
        except ValueError:
            raise ValueError(f"bad attempt limit in {ENV_VAR} directive {directive!r}")
    try:
        prob = float(token)
    except ValueError:
        raise ValueError(f"bad probability in {ENV_VAR} directive {directive!r}")
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability out of [0, 1] in {ENV_VAR} directive {directive!r}")
    return prob, None


def parse_plan(raw: str) -> tuple[Directive, ...]:
    """Parse one ``REPRO_FAULT`` value; raises ``ValueError`` on typos.

    A malformed harness spec must fail loudly — silently injecting no
    faults would make a chaos run vacuously green.
    """
    directives: list[Directive] = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        kind = fields[0]
        if kind not in KINDS:
            raise ValueError(f"unknown {ENV_VAR} directive kind {kind!r} in {part!r}")
        if kind == "poison":
            if len(fields) != 2 or not fields[1]:
                raise ValueError(f"poison needs a key substring: {part!r}")
            directives.append(Directive(kind, match=fields[1]))
        elif kind == "corrupt-artifact":
            if len(fields) not in (2, 3) or fields[1] != "replay":
                raise ValueError(f"corrupt-artifact needs a kind (replay): {part!r}")
            prob, max_attempt = _parse_trigger(
                fields[2] if len(fields) == 3 else "1.0", part
            )
            directives.append(
                Directive(kind, prob=prob, max_attempt=max_attempt, arg=fields[1])
            )
        elif kind == "hang":
            if len(fields) not in (2, 3):
                raise ValueError(f"hang needs a trigger: {part!r}")
            prob, max_attempt = _parse_trigger(fields[1], part)
            seconds = fields[2] if len(fields) == 3 else str(_DEFAULT_HANG_SECONDS)
            try:
                float(seconds)
            except ValueError:
                raise ValueError(f"bad hang duration in {part!r}")
            directives.append(
                Directive(kind, prob=prob, max_attempt=max_attempt, arg=seconds)
            )
        else:  # crash | kill
            if len(fields) != 2:
                raise ValueError(f"{kind} needs a trigger: {part!r}")
            prob, max_attempt = _parse_trigger(fields[1], part)
            directives.append(Directive(kind, prob=prob, max_attempt=max_attempt))
    return tuple(directives)


#: (raw env string, parsed plan) — re-parsed whenever the variable changes,
#: so monkeypatched tests and long-lived workers both see the live value.
_CACHE: tuple[str, tuple[Directive, ...]] | None = None


def plan() -> tuple[Directive, ...]:
    global _CACHE
    raw = os.environ.get(ENV_VAR, "")
    if _CACHE is None or _CACHE[0] != raw:
        _CACHE = (raw, parse_plan(raw))
    return _CACHE[1]


def active() -> bool:
    """Whether any fault directive is currently installed."""
    return bool(plan())


def maybe_fail(key: str, attempt: int, *, allow_exit: bool = False) -> None:
    """Apply every firing job-boundary directive for ``(key, attempt)``.

    ``hang`` sleeps (the job still runs afterwards — a hang is *slow*,
    not wrong; the supervisor's wall-clock timeout is what turns it into
    a failure).  ``kill`` hard-exits the process only when *allow_exit*
    is set (pool workers, where it surfaces as ``BrokenProcessPool``);
    inline it degrades to an ordinary injected crash — killing the
    parent would take the whole campaign down, which is exactly what the
    supervisor exists to prevent.
    """
    for directive in plan():
        if directive.kind == "corrupt-artifact":
            continue
        if not directive.fires(key, attempt):
            continue
        if directive.kind == "hang":
            time.sleep(float(directive.arg or _DEFAULT_HANG_SECONDS))
        elif directive.kind == "kill" and allow_exit:
            os._exit(42)
        else:
            raise InjectedCrash(
                f"injected {directive.kind} (key={key[:12]}, attempt={attempt})"
            )


def corrupt_artifact(kind: str, path: object, key: str) -> bool:
    """Damage a freshly written artifact if a directive says so.

    *key* should be the artifact's stable content address (its file
    name), so the same artifact is corrupted — or spared —
    deterministically on every run.  Returns whether damage was done.
    """
    fired = any(
        d.kind == "corrupt-artifact" and d.arg == kind and d.fires(key, 0)
        for d in plan()
    )
    if fired:
        corrupt_file(path)
    return fired


def corrupt_file(path: object) -> None:
    """Overwrite a few bytes mid-file — the disk-corruption model.

    Mid-file damage is the nasty case: a ``.npy`` still *loads* (with
    silently wrong data), which only the checksum sidecar catches.
    """
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.seek(max(0, size // 2))
        fh.write(b"\xde\xad\xbe\xef\xfa\xce\xd0\x0d")
