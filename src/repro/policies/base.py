"""Replacement-policy interface shared by every LLC policy.

The cache owns the *architectural* state of each line (block address, valid,
dirty, owner core); the policy owns whatever *replacement* state it needs
(recency stacks, RRPV arrays, signatures, duelling counters).  The cache
drives the policy through five hooks:

``decide_insertion``
    Called on a miss *before* any allocation.  Returns a policy-specific
    insertion code (for RRIP policies, the RRPV to insert with; for
    recency-stack policies, a stack position code) or :data:`BYPASS` to skip
    allocation entirely.  Bypass is the mechanism behind the paper's
    ADAPT_bp32 variant and the Figure 6 study.

``victim``
    Called when an allocation needs a way and the set is full.  Returns the
    way index to evict.  RRIP policies may age the set as a side effect
    (incrementing all RRPVs until one reaches 3), which is why victim
    selection is a policy method rather than a pure function.

``on_fill``
    Called after the line is installed, with the insertion code previously
    returned by ``decide_insertion``.

``on_hit``
    Called on every lookup hit.  ``is_demand`` distinguishes demand accesses
    from prefetches and writebacks — the paper (footnote 4) updates recency
    state on demand accesses only.  The block address is passed through so
    monitoring policies (ADAPT's Footprint-number sampler observes *all*
    demand accesses, hits included) can sample it.

``on_evict``
    Called when a valid line is replaced (or invalidated), with whether the
    line was reused since insertion — the learning signal for SHiP and the
    address capture point for EAF.

Policies that observe misses for set-duelling additionally implement
``on_miss``, called for every demand miss with the set index.
"""

from __future__ import annotations

from typing import Any

#: Sentinel returned by :meth:`ReplacementPolicy.decide_insertion` to skip
#: allocation.  ``None`` is deliberately not used so a buggy hook that falls
#: through without returning fails loudly in the cache.
BYPASS: Any = object()


class FastPathOps:
    """Narrow fast-path protocol: preallocated per-set replacement metadata.

    The replay kernel (:func:`repro.cpu.replay.run_replay`) asks each LLC
    policy for its :class:`FastPathOps` via :meth:`ReplacementPolicy.fast_ops`
    once per run and maps them onto its inline-dispatch modes.  A
    policy that opts in exposes the *same* per-set integer arrays its object
    API mutates, plus flags saying which of the hot hooks (demand-hit
    promotion, victim selection, fill, eviction training, duel-miss
    accounting) are known implementations the kernel may execute inline
    instead of through a method call.  A policy that overrides a hook
    beyond what its kind describes keeps that hook as a call and still gets
    the others inlined — behaviour is identical either way, only the
    dispatch differs.

    ``kind`` selects the inline interpretation:

    * ``"rrip"`` — ``rows`` holds per-set RRPV arrays; promotion writes 0,
      the victim is found by aging the set to ``max_code``, a fill writes
      the insertion code verbatim.
    * ``"stack"`` — ``rows`` holds per-set recency stamps with the per-set
      ``next_mru``/``next_lru`` clocks; promotion and MRU fills stamp from
      ``next_mru``, LRU fills stamp from ``next_lru``, the victim is the
      minimum stamp.
    * ``"ship"`` — RRIP rows plus SHiP's per-line signature/outcome arrays
      (``ship_sigs``/``ship_outcomes``) and the shared SHCT: demand-hit
      promotion also trains the line's signature, fills record the folded
      PC signature, evictions of never-reused lines decrement the SHCT.
    * ``"eaf"`` — plain RRIP rows; evictions insert the victim address into
      ``eaf_filter`` (clearing it when full).
    * ``"adapt"`` — plain RRIP rows; demand hits additionally tap the
      per-application Footprint ``samplers`` (monitored sets only).

    Orthogonally, ``miss_inline`` promotes a set-duelling ``on_miss``
    (DIP/DRRIP/TA-DRRIP PSEL movement) to inline execution: ``duel_roles``
    holds one ``{set: role}`` dict per core and ``duel_psels`` the
    corresponding :class:`~repro.util.counters.PselCounter` objects (the
    kernel writes their ``value`` through, so ``decide_insertion`` calls
    observe every update).
    """

    __slots__ = (
        "kind",
        "rows",
        "max_code",
        "next_mru",
        "next_lru",
        "hit_inline",
        "victim_inline",
        "fill_inline",
        "evict_inline",
        "miss_inline",
        "ship_sigs",
        "ship_outcomes",
        "shct",
        "shct_max",
        "shct_entries",
        "sig_bits",
        "sig_salt_shift",
        "eaf_filter",
        "samplers",
        "duel_roles",
        "duel_psels",
    )

    def __init__(
        self,
        kind: str,
        rows: list,
        *,
        max_code: int = 0,
        next_mru: list | None = None,
        next_lru: list | None = None,
        hit_inline: bool = False,
        victim_inline: bool = False,
        fill_inline: bool = False,
        evict_inline: bool = False,
        miss_inline: bool = False,
        ship_sigs: list | None = None,
        ship_outcomes: list | None = None,
        shct: list | None = None,
        shct_max: int = 0,
        shct_entries: int = 0,
        sig_bits: int = 0,
        sig_salt_shift: int | None = None,
        eaf_filter: Any = None,
        samplers: list | None = None,
        duel_roles: list | None = None,
        duel_psels: list | None = None,
    ) -> None:
        self.kind = kind
        self.rows = rows
        self.max_code = max_code
        self.next_mru = next_mru
        self.next_lru = next_lru
        self.hit_inline = hit_inline
        self.victim_inline = victim_inline
        self.fill_inline = fill_inline
        self.evict_inline = evict_inline
        self.miss_inline = miss_inline
        self.ship_sigs = ship_sigs
        self.ship_outcomes = ship_outcomes
        self.shct = shct
        self.shct_max = shct_max
        self.shct_entries = shct_entries
        self.sig_bits = sig_bits
        self.sig_salt_shift = sig_salt_shift
        self.eaf_filter = eaf_filter
        self.samplers = samplers
        self.duel_roles = duel_roles
        self.duel_psels = duel_psels


class ReplacementPolicy:
    """Base class with the no-op default behaviour.

    Subclasses must implement :meth:`decide_insertion`, :meth:`victim`,
    :meth:`on_fill` and :meth:`on_hit`; the remaining hooks default to
    no-ops.  ``bind`` is called exactly once by the owning cache before any
    traffic and tells the policy the cache geometry.
    """

    #: Human-readable registry name, overridden by subclasses.
    name = "base"

    def __init__(self) -> None:
        self.num_sets = 0
        self.ways = 0
        self.num_cores = 1

    # -- lifecycle ---------------------------------------------------------

    def bind(self, num_sets: int, ways: int, num_cores: int) -> None:
        """Allocate per-line replacement state for the given geometry."""
        self.num_sets = num_sets
        self.ways = ways
        self.num_cores = num_cores

    # -- decision hooks ----------------------------------------------------

    def decide_insertion(
        self, set_idx: int, core_id: int, pc: int, block_addr: int, is_demand: bool
    ) -> Any:
        raise NotImplementedError

    def victim(self, set_idx: int, core_id: int) -> int:
        raise NotImplementedError

    # -- notification hooks ------------------------------------------------

    def on_fill(
        self,
        set_idx: int,
        way: int,
        insertion: Any,
        core_id: int,
        pc: int,
        block_addr: int,
        is_demand: bool,
    ) -> None:
        raise NotImplementedError

    def on_hit(
        self, set_idx: int, way: int, core_id: int, is_demand: bool, block_addr: int = -1
    ) -> None:
        raise NotImplementedError

    def on_evict(
        self, set_idx: int, way: int, core_id: int, block_addr: int, was_reused: bool
    ) -> None:
        """Victim notification; default no-op."""

    def on_miss(self, set_idx: int, core_id: int, is_demand: bool) -> None:
        """Demand-miss notification for set-duelling learners; default no-op."""

    def end_interval(self) -> None:
        """Periodic hook driven by the engine's miss-interval clock.

        ADAPT recomputes Footprint-numbers here; other policies ignore it.
        """

    # -- fast-path protocol ------------------------------------------------

    def fast_ops(self) -> FastPathOps | None:
        """Metadata arrays for the replay kernel, or ``None`` to opt out.

        Only valid after :meth:`bind`.  The default is to opt out, which
        makes the kernel drive this policy through the five hooks above —
        wrappers (bypass, monitoring) and any custom policy work unchanged.
        """
        return None

    # -- introspection -----------------------------------------------------

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"
