"""The fast kernel's entry point.

The engine has two kernels: the generic reference loop
(:meth:`repro.cpu.engine.MulticoreEngine._run_generic`) and capture +
replay.  :meth:`~repro.cpu.engine.MulticoreEngine.run` is the one place
that picks between them: it calls :func:`run_fast` unless the
``REPRO_NO_FASTPATH`` switch (:mod:`repro.settings`) is set, and falls
back to the generic loop when that returns ``None``.

:func:`run_fast` replays the capture bundle it is handed
(:mod:`repro.cpu.replay`) when the bundle matches the engine — the policy
sweeps' shared captures — and otherwise captures the engine's own
workload in memory (:mod:`repro.cpu.capture`) and replays that.  Both
kernels mutate the same state objects in the same order, so they are
bit-for-bit equivalent; the golden-master suite under ``tests/golden/``
machine-checks it for every registered policy on both the plain and the
prefetch-enabled platforms.
"""

from __future__ import annotations


def run_fast(engine, bundle=None, finalize: bool = True) -> list | None:
    """Run *engine* to completion on the capture + replay kernel.

    Replays *bundle* when it serves the engine; otherwise captures the
    engine's own workload in memory and replays that.  Returns the
    per-core snapshots, or ``None`` when no capture can serve the engine
    (:func:`repro.cpu.capture.engine_identity`); the caller then runs the
    generic loop.  ``finalize`` is :func:`repro.cpu.replay.run_replay`'s:
    callers that read only the snapshots and the LLC side pass ``False``.

    The in-memory capture is the one a sweep saves: it stops at each
    core's quota completion, and a co-runner that outlives its quota
    continues its stream on the capture's own simulator,
    :data:`~repro.cpu.capture.EXTENSION_STEP` accesses at a time, so
    little is captured past the run's end.

    The kernels are looked up as module attributes at call time, so a
    wrapper installed on either (the benchmark tracer's) sees every call.
    """
    from repro.cpu import capture, replay

    if bundle is not None:
        snapshots = replay.run_replay(engine, bundle, finalize=finalize)
        if snapshots is not None:
            return snapshots
    identity = capture.engine_identity(engine)
    if identity is None:
        return None
    return replay.run_replay(engine, capture.capture_workload(identity), finalize=finalize)
