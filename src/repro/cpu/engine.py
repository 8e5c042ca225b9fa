"""Event-driven multi-core interleaving engine.

The engine keeps a min-heap of ``(ready_time, core)`` events.  At each
step the earliest-ready core issues its next memory access into the shared
hierarchy; the observed latency (divided by the benchmark's MLP factor)
plus the compute gap between accesses schedules the core's next event.
This couples co-runner progress through every shared resource — LLC
capacity, LLC banks, the VPC arbiter and DRAM banks — which is exactly the
feedback loop replacement-policy interference studies need.

The engine also owns the paper's **interval clock**: every
``interval_misses`` demand misses at the shared LLC it calls the LLC
policy's ``end_interval`` hook, which is where ADAPT recomputes
Footprint-numbers (Section 3.1: 1M misses on the paper's 16MB cache,
i.e. 4x the number of LLC blocks — the ratio we default to).

Methodology (Section 4.1): like the paper's 200M-instruction fast-forward,
``warmup_accesses`` warms all structures before measurement begins (per
core, statistics baseline at warm-up completion and are subtracted at
snapshot time).  Every core then runs until it completes its measured
quota; cores that finish early *keep running* (the paper re-executes
finished applications) so contention stays representative, but their
statistics are frozen at quota completion.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro import settings
from repro.cache.hierarchy import CacheHierarchy
from repro.cpu import fastpath
from repro.cpu.core import CoreSnapshot, CoreState
from repro.trace.benchmarks import TraceSource


class _Baseline:
    """Per-core counter values at warm-up completion."""

    __slots__ = ("time", "instructions", "accesses", "l1", "l2", "llc", "bypasses")

    def __init__(self) -> None:
        self.time = 0.0
        self.instructions = 0.0
        self.accesses = 0
        self.l1 = 0
        self.l2 = 0
        self.llc = (0, 0)  # (demand accesses, demand misses)
        self.bypasses = 0


class MulticoreEngine:
    """Drives N cores' trace sources through a shared hierarchy."""

    __slots__ = (
        "hierarchy",
        "sources",
        "cores",
        "interval_misses",
        "warmup_accesses",
        "_baselines",
        "_miss_clock",
        "intervals_completed",
        "now",
    )

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        sources: list[TraceSource],
        quota_per_core: int,
        interval_misses: int | None = None,
        warmup_accesses: int = 0,
    ) -> None:
        if len(sources) != hierarchy.num_cores:
            raise ValueError("need exactly one trace source per core")
        self.hierarchy = hierarchy
        self.sources = sources
        self.cores = [
            CoreState(i, src, quota_per_core) for i, src in enumerate(sources)
        ]
        if interval_misses is None:
            interval_misses = 4 * hierarchy.llc.num_blocks
        self.interval_misses = interval_misses
        self.warmup_accesses = warmup_accesses
        self._baselines = [_Baseline() for _ in self.cores]
        self._miss_clock = 0
        self.intervals_completed = 0
        self.now = 0.0

    # -- snapshots ----------------------------------------------------------------

    def _record_baseline(self, core: CoreState, t: float) -> None:
        cid = core.core_id
        h = self.hierarchy
        base = self._baselines[cid]
        base.time = t
        base.instructions = core.instructions
        base.accesses = core.accesses
        base.l1 = h.l1s[cid].stats.demand_misses[0]
        base.l2 = h.l2s[cid].stats.demand_misses[0]
        base.llc = (h.llc.stats.demand_accesses(cid), h.llc.stats.demand_misses[cid])
        base.bypasses = h.llc.stats.bypasses[cid]

    def _take_snapshot(self, core: CoreState, t: float) -> CoreSnapshot:
        cid = core.core_id
        h = self.hierarchy
        base = self._baselines[cid]
        return CoreSnapshot(
            instructions=core.instructions - base.instructions,
            cycles=t - base.time,
            accesses=core.accesses - base.accesses,
            l1_misses=h.l1s[cid].stats.demand_misses[0] - base.l1,
            l2_misses=h.l2s[cid].stats.demand_misses[0] - base.l2,
            llc_accesses=h.llc.stats.demand_accesses(cid) - base.llc[0],
            llc_misses=h.llc.stats.demand_misses[cid] - base.llc[1],
            llc_bypasses=h.llc.stats.bypasses[cid] - base.bypasses,
        )

    # -- main loop -------------------------------------------------------------------

    def run(
        self,
        force_generic: bool = False,
        *,
        bundle=None,
        finalize: bool = True,
    ) -> list[CoreSnapshot]:
        """Run warm-up then measurement to completion; one snapshot per core.

        The one place a kernel is chosen.  Unless ``force_generic`` or the
        ``REPRO_NO_FASTPATH`` switch (:mod:`repro.settings`) pins the
        generic loop, the run goes to capture + replay
        (:func:`repro.cpu.fastpath.run_fast`): it replays *bundle*, a
        policy sweep's shared capture, when that matches this engine, and
        otherwise captures this engine's own workload in memory first.  An
        engine the capture cannot serve falls back to the generic loop.
        Behaviour is bit-for-bit identical either way (machine-checked by
        the golden-master suite).

        With ``finalize`` (the default) the private caches, sources and
        prefetchers end exactly where the generic loop leaves them.
        Callers that read only the snapshots and the LLC side pass
        ``finalize=False`` to skip that reconstruction.
        """
        if not force_generic and not settings.current().no_fastpath:
            snapshots = fastpath.run_fast(self, bundle, finalize)
            if snapshots is not None:
                return snapshots
        return self._run_generic()

    def _run_generic(self) -> list[CoreSnapshot]:
        """The reference one-access-at-a-time loop (fallback kernel)."""
        hierarchy = self.hierarchy
        access = hierarchy.access
        l1_latency = hierarchy.l1_latency
        llc_policy = hierarchy.llc.policy
        interval = self.interval_misses
        warmup = self.warmup_accesses
        cores = self.cores
        remaining = len(cores)
        warming = len(cores) if warmup > 0 else 0
        if warmup == 0:
            for core in cores:
                self._record_baseline(core, 0.0)

        heap: list[tuple[float, int]] = [(0.0, c.core_id) for c in cores]

        while remaining:
            t, cid = heappop(heap)
            core = cores[cid]
            addr, pc, is_write = core.source.next_access()
            outcome = access(cid, addr, pc, is_write, t)

            core.accesses += 1
            core.instructions += core.instructions_per_access
            stall = outcome.latency - l1_latency
            if stall < 0.0:
                stall = 0.0
            next_t = t + core.compute_cycles_per_access + stall * core.inverse_mlp

            if outcome.llc_demand_miss:
                self._miss_clock += 1
                if self._miss_clock >= interval:
                    llc_policy.end_interval()
                    self._miss_clock = 0
                    self.intervals_completed += 1

            if warming and core.accesses == warmup:
                self._record_baseline(core, next_t)
                warming -= 1

            if (
                not core.finished
                and core.accesses >= core.quota + self._baselines[cid].accesses
                and (warmup == 0 or core.accesses > warmup)
            ):
                core.finished = True
                core.snapshot = self._take_snapshot(core, next_t)
                remaining -= 1
                if remaining == 0:
                    self.now = next_t
                    break

            heappush(heap, (next_t, cid))

        self.now = max(self.now, max(c.snapshot.cycles for c in cores))
        return [c.snapshot for c in cores]
