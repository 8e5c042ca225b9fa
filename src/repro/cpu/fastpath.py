"""The fast kernel's entry point and its LLC inline-dispatch plan.

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

:class:`LlcDispatch` is the replay kernel's plan for running an LLC
policy's hooks inline through the :class:`~repro.policies.base.FastPathOps`
protocol.
"""

from __future__ import annotations

from repro.policies.base import ReplacementPolicy

#: Inline-dispatch modes for the LLC hit/victim/fill hooks.
_CALL, _RRIP, _STACK, _SHIP, _ADAPT = 0, 1, 2, 3, 4
#: Inline-dispatch modes for the LLC eviction hook.
_EV_NONE, _EV_CALL, _EV_SHIP, _EV_EAF = 0, 1, 2, 3

_MASK64 = (1 << 64) - 1


class LlcDispatch:
    """Resolved inline-dispatch plan for one bound LLC policy.

    Computed once per run from the policy's :class:`FastPathOps` by
    :func:`resolve_llc_dispatch` and unpacked by the replay kernel
    (:mod:`repro.cpu.replay`): hooks a policy left at known implementations
    run inline there, overridden ones stay method calls.
    """

    __slots__ = (
        "hit_mode",
        "victim_mode",
        "fill_mode",
        "evict_mode",
        "call_on_miss",
        "rows",
        "next_mru",
        "next_lru",
        "max_code",
        "ship_sigs",
        "ship_outcomes",
        "shct",
        "shct_max",
        "shct_entries",
        "sig_bits",
        "sig_mask",
        "sig_salt_shift",
        "eaf",
        "eaf_mults",
        "eaf_size",
        "eaf_capacity",
        "samplers",
        "duel_roles",
        "duel_psels",
    )


def resolve_llc_dispatch(policy) -> LlcDispatch:
    """Map a bound policy's fast-ops onto concrete inline-dispatch modes."""
    d = LlcDispatch()
    ops = policy.fast_ops()
    cls = type(policy)
    call_on_miss = cls.on_miss is not ReplacementPolicy.on_miss
    call_on_evict = cls.on_evict is not ReplacementPolicy.on_evict
    d.ship_sigs = d.ship_outcomes = d.shct = None
    d.shct_max = d.shct_entries = d.sig_bits = d.sig_mask = 0
    d.sig_salt_shift = None
    d.eaf = None
    d.eaf_mults = ()
    d.eaf_size = d.eaf_capacity = 0
    d.samplers = None
    d.duel_roles = d.duel_psels = None
    if ops is None:
        d.hit_mode = d.victim_mode = d.fill_mode = _CALL
        d.evict_mode = _EV_CALL if call_on_evict else _EV_NONE
        d.rows = d.next_mru = d.next_lru = None
        d.max_code = 0
    else:
        kind = ops.kind
        base_mode = _STACK if kind == "stack" else _RRIP
        hit_kind = _SHIP if kind == "ship" else _ADAPT if kind == "adapt" else base_mode
        fill_kind = _SHIP if kind == "ship" else base_mode
        d.hit_mode = hit_kind if ops.hit_inline else _CALL
        d.victim_mode = base_mode if ops.victim_inline else _CALL
        d.fill_mode = fill_kind if ops.fill_inline else _CALL
        if kind == "ship" and ops.evict_inline:
            d.evict_mode = _EV_SHIP
        elif kind == "eaf" and ops.evict_inline:
            d.evict_mode = _EV_EAF
        elif call_on_evict:
            d.evict_mode = _EV_CALL
        else:
            d.evict_mode = _EV_NONE
        d.rows = ops.rows
        d.next_mru, d.next_lru = ops.next_mru, ops.next_lru
        d.max_code = ops.max_code
        if kind == "ship":
            d.ship_sigs, d.ship_outcomes = ops.ship_sigs, ops.ship_outcomes
            d.shct = ops.shct
            d.shct_max = ops.shct_max
            d.shct_entries = ops.shct_entries
            d.sig_bits = ops.sig_bits
            d.sig_mask = (1 << ops.sig_bits) - 1
            d.sig_salt_shift = ops.sig_salt_shift
        elif kind == "eaf":
            eaf = ops.eaf_filter
            d.eaf = eaf
            d.eaf_mults = tuple(eaf._MULTIPLIERS[: eaf.num_hashes])
            d.eaf_size = eaf.size
            d.eaf_capacity = eaf.capacity
        elif kind == "adapt":
            d.samplers = ops.samplers
        if ops.miss_inline:
            # Duelling PSEL movement executes inline; the PSEL object's
            # ``value`` is written through so decide_insertion (a call)
            # observes every update.
            call_on_miss = False
            d.duel_roles = ops.duel_roles
            d.duel_psels = ops.duel_psels
    d.call_on_miss = call_on_miss
    return d


def run_fast(engine, bundle=None, finalize: bool = True) -> list | None:
    """Run *engine* to completion on the capture + replay kernel.

    Replays *bundle* when it serves the engine; otherwise captures the
    engine's own workload in memory and replays that.  Returns the
    per-core snapshots, or ``None`` when no capture can serve the engine
    (:func:`repro.cpu.capture.engine_identity`); the caller then runs the
    generic loop.  ``finalize`` is :func:`repro.cpu.replay.run_replay`'s:
    callers that read only the snapshots and the LLC side pass ``False``.

    The in-memory capture has no slack: a co-runner that outlives its
    quota continues its stream on the capture's own simulator,
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
    return replay.run_replay(engine, capture.capture_workload(identity, 0.0), finalize=finalize)
