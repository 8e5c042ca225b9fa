"""LLC-filtered replay kernel: sweep policies at LLC speed.

The fast half of the engine's two kernels.  Because the hierarchy is
non-inclusive, the private levels behave identically under every LLC
policy; this kernel consumes a capture bundle (:mod:`repro.cpu.capture`)
— per-core step streams, LLC-bound event streams and private-state
checkpoints recorded once — and simulates only:

* the shared LLC (any policy, through the
  :class:`~repro.cpu.fastpath.LlcDispatch` inline plan), the
  bank/DRAM/arbiter/MSHR/write-back timing models, and
* each core's clock: the generic loop's exact floating-point recurrence
  re-executed over the recorded step codes, with the demand-fetch
  completion time feeding back into the stall term.

Event-bearing accesses are merged across cores in the generic loop's
``(time, core)`` heap order, so every LLC mutation, PSEL/SHCT/monitor
update, interval tick and timing-model counter lands in the identical
order with identical timestamps — the two kernels are bit-for-bit
equivalent, which the golden differential suite machine-checks.

Eligibility: a bundle whose capture identity equals the engine's
(:func:`repro.cpu.capture.engine_identity`); ``run_replay`` returns
``None`` otherwise.  :func:`repro.cpu.fastpath.run_fast` is its caller:
it replays the bundle a policy sweep hands a run, and otherwise the
run's own in-memory capture.

When a run outlives a captured stream (heavy completion-time skew between
co-runners) the affected core switches to live private-level continuation
— bit-identical, just no longer amortised.  After the run, the engine's
private caches, sources and prefetchers are reconstructed to the exact
policy-dependent stop point from the nearest checkpoint, so the engine is
indistinguishable from a generic-loop run.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush

from repro.cpu import capture as cap
from repro.cpu.core import CoreSnapshot
from repro.cpu.fastpath import (
    _ADAPT,
    _CALL,
    _EV_CALL,
    _EV_EAF,
    _EV_SHIP,
    _MASK64,
    _RRIP,
    _SHIP,
    _STACK,
    resolve_llc_dispatch,
)
from repro.policies.base import BYPASS


#: Event/step codes shared with the capture pass — aliased (and hoisted to
#: closure locals below) so a renumbering in :mod:`repro.cpu.capture`
#: cannot silently desynchronise the dispatch here.
EV_WB0, EV_WB1, EV_ND = cap.EV_WB0, cap.EV_WB1, cap.EV_ND
EV_DEMAND, EV_BASELINE, EV_SNAPSHOT = cap.EV_DEMAND, cap.EV_BASELINE, cap.EV_SNAPSHOT
STEP_L2HIT, STEP_LLC = cap.STEP_L2HIT, cap.STEP_LLC


def run_replay(engine, bundle, finalize: bool = True) -> list | None:
    """Run *engine* to completion by replaying a capture bundle.

    Returns the per-core snapshots, or ``None`` when the bundle cannot
    serve the engine: its identity differs from the engine's
    (:func:`repro.cpu.capture.engine_identity`), or its format or tape
    count is wrong.  The caller must then capture the engine's own
    workload or run the generic loop.

    With ``finalize`` (the default), the engine's private caches, sources
    and prefetchers are reconstructed to the exact policy-dependent stop
    point, so the whole engine ends bit-for-bit identical to a
    generic-loop run.  Sweep drivers that consume only the returned
    snapshots (and the LLC-side state, which is always exact) pass
    ``finalize=False`` to skip that reconstruction — the private levels
    then simply keep their pristine pre-run state.
    """
    identity = cap.engine_identity(engine)
    if identity is None or identity != bundle.identity():
        return None

    h = engine.hierarchy
    llc = h.llc
    cores = engine.cores
    n = h.num_cores
    tapes = bundle.tapes
    warmup = identity.warmup
    finish_count = identity.quota + warmup

    # -- LLC state (any policy; inline what the FastPathOps allow) ----------
    llc_mask = llc.set_mask
    llc_ways = llc.ways
    llc_lookup, llc_valid = cap._residency(llc)
    llc_addrs = llc.addrs
    llc_dirty = llc.dirty
    llc_owner = llc.owner
    llc_reused = llc.reused
    llc_occ = llc.occupancy
    s3 = llc.stats
    llc_dh, llc_dm = s3.demand_hits, s3.demand_misses
    llc_oh, llc_om = s3.other_hits, s3.other_misses
    llc_by, llc_wbarr = s3.bypasses, s3.writeback_arrivals
    llc_ev, llc_dev, llc_fl = s3.evictions, s3.dirty_evictions, s3.fills

    policy = llc.policy
    d = resolve_llc_dispatch(policy)
    call_on_miss = d.call_on_miss
    hit_mode = d.hit_mode
    victim_mode = d.victim_mode
    fill_mode = d.fill_mode
    evict_mode = d.evict_mode
    rows3 = d.rows
    nmru3, nlru3 = d.next_mru, d.next_lru
    max3 = d.max_code
    sig3, out3, shct3 = d.ship_sigs, d.ship_outcomes, d.shct
    shct_max3 = d.shct_max
    sig_entries3 = d.shct_entries
    sig_bits3 = d.sig_bits
    sig_mask3 = d.sig_mask
    salt3 = d.sig_salt_shift
    eaf3 = d.eaf
    eaf_mults3 = d.eaf_mults
    eaf_size3, eaf_cap3 = d.eaf_size, d.eaf_capacity
    samplers3 = d.samplers
    duel_roles3, duel_psels3 = d.duel_roles, d.duel_psels
    p_on_hit = policy.on_hit
    p_on_miss = policy.on_miss
    p_on_evict = policy.on_evict
    p_on_fill = policy.on_fill
    p_decide = policy.decide_insertion
    p_victim = policy.victim
    end_interval = policy.end_interval

    # -- timing models ------------------------------------------------------
    l1_latency = h.l1_latency
    l2_latency = h.l2_latency
    banks = h.llc_banks
    bank_mask = banks.num_banks - 1
    bank_free = banks._free_at
    bank_occ = banks.occupancy
    bank_lat = banks.latency
    dram = h.dram
    dram_mask = dram.num_banks - 1
    dram_bpr = dram.blocks_per_row
    dram_open = dram._open_row
    dram_busy = dram._busy_until
    dram_hit = dram.row_hit_cycles
    dram_conf = dram.row_conflict_cycles
    dram_occ = dram.bank_occupancy
    arb = h.arbiter
    arb_virtual = arb._virtual
    arb_window = arb.window
    arb_cost = arb.service_cycles * arb.num_cores
    mshr = h.llc_mshr
    msh_heap = mshr._completions if mshr is not None else None
    msh_by = mshr._by_block if mshr is not None else None
    msh_entries = mshr.entries if mshr is not None else 0
    llc_wb = h.llc_wb_buffer

    dram_reads = dram.reads
    dram_writes = dram.writes
    dram_rowhits = dram.row_hits
    dram_rowconf = dram.row_conflicts
    bank_accs = banks.accesses
    bank_confs = banks.conflicts
    arb_reqs = arb.requests
    arb_throt = arb.throttled
    mshr_merged = mshr.merged if mshr is not None else 0
    mshr_stalls = mshr.stalls if mshr is not None else 0
    msh_get = msh_by.get if msh_by is not None else None
    llc_get = llc_lookup.get
    llc_sets = llc.num_sets

    if llc_wb is not None:
        wb3_heap = llc_wb._retires
        wb3_entries = llc_wb.entries
        wb3_retire_at = llc_wb.retire_at
        wb3_drain = llc_wb.drain_cycles
        wb3_stalls = llc_wb.stalls
        wb3_admitted = llc_wb.admitted
        wb3_last = llc_wb._last_retire
    else:
        wb3_stalls = wb3_admitted = 0
        wb3_last = 0.0

    def wb_to_dram(addr, now):
        nonlocal wb3_stalls, wb3_admitted, wb3_last
        nonlocal dram_writes, dram_rowhits, dram_rowconf
        start = now
        if llc_wb is not None:
            while wb3_heap and wb3_heap[0] <= start:
                heappop(wb3_heap)
            if len(wb3_heap) >= wb3_entries:
                start = wb3_heap[0]
                wb3_stalls += 1
                while wb3_heap and wb3_heap[0] <= start:
                    heappop(wb3_heap)
            if len(wb3_heap) >= wb3_retire_at:
                retire = (wb3_last if wb3_last > start else start) + wb3_drain
            else:
                retire = start + wb3_drain
            wb3_last = retire
            heappush(wb3_heap, retire)
            wb3_admitted += 1
        dram_writes += 1
        dram_row = addr // dram_bpr
        bank = (dram_row & dram_mask) ^ ((dram_row >> 8) & dram_mask)
        bstart = dram_busy[bank]
        if bstart < start:
            bstart = start
        if dram_open[bank] == dram_row:
            dram_rowhits += 1
        else:
            dram_rowconf += 1
            dram_open[bank] = dram_row
        dram_busy[bank] = bstart + dram_occ

    # -- engine bookkeeping --------------------------------------------------
    interval = engine.interval_misses
    no_warmup = warmup == 0
    baselines = engine._baselines
    remaining = n
    if no_warmup:
        for core in cores:
            engine._record_baseline(core, 0.0)
    miss_clock = engine._miss_clock
    intervals_completed = engine.intervals_completed

    #: Per-core resume point: first unprocessed access index and its issue
    #: time (set after every processed event group; the final cut walk
    #: restarts from here).
    resume_idx = [0] * n
    resume_t = [0.0] * n
    cut = [0.0, -1]  # (t_F, cid_F): the run-ending access in heap order
    final_next_t = [0.0]
    # Shared capture codes as closure locals for the hot dispatch below.
    ev_wb0, ev_wb1, ev_nd = EV_WB0, EV_WB1, EV_ND
    ev_demand, ev_baseline = EV_DEMAND, EV_BASELINE
    step_l2hit, step_llc = STEP_L2HIT, STEP_LLC

    # -- per-core compiled closures -----------------------------------------

    def compile_core(cid):
        tape = tapes[cid]
        steps = tape.steps  # bytearray; grows in place on live extension
        ev_step = tape.ev_step
        ev_kind = tape.ev_kind
        ev_addr = tape.ev_addr
        ev_pc = tape.ev_pc
        core = cores[cid]
        comp_c = core.compute_cycles_per_access
        imlp_c = core.inverse_mlp
        base = baselines[cid]

        if samplers3 is not None:
            smp3 = samplers3[cid]
            mon_get = smp3._index_of.get
            mon_arrays = smp3._arrays
        else:
            smp3 = mon_get = mon_arrays = None
        if duel_psels3 is not None:
            d_psel = duel_psels3[cid]
            d_get = duel_roles3[cid].get
            d_max = d_psel.max_value
        else:
            d_psel = d_get = None
            d_max = 0
        wb2 = h.l2_wb_buffers[cid] if h.l2_wb_buffers is not None else None
        if wb2 is not None:
            wb2_heap = wb2._retires
            wb2_entries = wb2.entries
            wb2_retire_at = wb2.retire_at
            wb2_drain = wb2.drain_cycles
            wb2_stalls = wb2.stalls
            wb2_admitted = wb2.admitted
            wb2_last = wb2._last_retire
        else:
            wb2_stalls = wb2_admitted = 0
            wb2_last = 0.0

        def sync_core():
            if wb2 is not None:
                wb2.stalls = wb2_stalls
                wb2.admitted = wb2_admitted
                wb2._last_retire = wb2_last

        def llc_fill(addr, s, pc, decision, is_write, is_demand):
            """Select a victim if needed and install *addr* in the LLC.

            The single fill sequence both LLC miss flavours share (demand
            reads and L2-victim write-backs); returns
            ``(victim_addr, victim_dirty)``.
            """
            victim_addr = -1
            victim_dirty = False
            row = llc_addrs[s]
            if llc_valid[s] < llc_ways:
                way = row.index(-1)
                llc_valid[s] += 1
            else:
                if victim_mode == _RRIP:
                    rrow = rows3[s]
                    current_max = max(rrow)
                    if current_max < max3:
                        delta = max3 - current_max
                        rrow[:] = [v + delta for v in rrow]
                    way = rrow.index(max3)
                elif victim_mode == _STACK:
                    srow = rows3[s]
                    way = srow.index(min(srow))
                else:
                    way = p_victim(s, cid)
                victim_addr = row[way]
                victim_dirty = llc_dirty[s][way]
                victim_owner = llc_owner[s][way]
                if evict_mode == _EV_SHIP:
                    if not out3[s][way]:
                        sg = sig3[s][way]
                        v = shct3[sg]
                        if v > 0:
                            shct3[sg] = v - 1
                elif evict_mode == _EV_EAF:
                    mixed = (victim_addr ^ (victim_addr >> 17)) + 0x9E37
                    bits = eaf3._bits
                    for mult in eaf_mults3:
                        bits[(((mixed * mult) & _MASK64) >> 31) % eaf_size3] = 1
                    ins = eaf3.inserted + 1
                    eaf3.inserted = ins
                    if ins >= eaf_cap3:
                        eaf3.clear()
                elif evict_mode == _EV_CALL:
                    p_on_evict(
                        s,
                        way,
                        victim_owner,
                        victim_addr,
                        llc_reused[s][way],
                    )
                llc_ev[victim_owner] += 1
                if victim_dirty:
                    llc_dev[victim_owner] += 1
                llc_occ[victim_owner] -= 1
                del llc_lookup[victim_addr]
            row[way] = addr
            llc_lookup[addr] = way
            llc_dirty[s][way] = is_write
            llc_owner[s][way] = cid
            llc_reused[s][way] = False
            llc_occ[cid] += 1
            llc_fl[cid] += 1
            if fill_mode == _RRIP:
                rows3[s][way] = decision
            elif fill_mode == _SHIP:
                rows3[s][way] = decision
                value = pc if salt3 is None else pc ^ (cid << salt3)
                folded = 0
                while value:
                    folded ^= value & sig_mask3
                    value >>= sig_bits3
                sig3[s][way] = folded % sig_entries3
                out3[s][way] = not is_demand
            elif fill_mode == _STACK:
                if decision == 1:  # MRU_INSERT
                    st = nmru3[s]
                    rows3[s][way] = st
                    nmru3[s] = st + 1
                else:
                    st = nlru3[s]
                    rows3[s][way] = st
                    nlru3[s] = st - 1
            else:
                p_on_fill(s, way, decision, cid, pc, addr, is_demand)
            return victim_addr, victim_dirty

        def wb_to_llc(addr, now):
            """A dirty L2 victim arrives at the LLC (non-demand write)."""
            nonlocal wb2_stalls, wb2_admitted, wb2_last, bank_accs, bank_confs
            start = now
            if wb2 is not None:
                while wb2_heap and wb2_heap[0] <= start:
                    heappop(wb2_heap)
                if len(wb2_heap) >= wb2_entries:
                    start = wb2_heap[0]
                    wb2_stalls += 1
                    while wb2_heap and wb2_heap[0] <= start:
                        heappop(wb2_heap)
                if len(wb2_heap) >= wb2_retire_at:
                    retire = (wb2_last if wb2_last > start else start) + wb2_drain
                else:
                    retire = start + wb2_drain
                wb2_last = retire
                heappush(wb2_heap, retire)
                wb2_admitted += 1
            s = addr & llc_mask
            way = llc_get(addr, -1)
            llc_wbarr[cid] += 1
            bypassed = False
            victim_addr = -1
            victim_dirty = False
            if way >= 0:
                llc_oh[cid] += 1
                llc_dirty[s][way] = True
                if hit_mode == _CALL:
                    p_on_hit(s, way, cid, False, addr)
            else:
                llc_om[cid] += 1
                if call_on_miss:
                    p_on_miss(s, cid, False)
                decision = p_decide(s, cid, 0, addr, False)
                if decision is BYPASS:
                    llc_by[cid] += 1
                    bypassed = True
                else:
                    victim_addr, victim_dirty = llc_fill(
                        addr, s, 0, decision, True, False
                    )
            bank = (addr & bank_mask) ^ ((addr >> 8) & bank_mask)
            bstart = bank_free[bank]
            if bstart > start:
                bank_confs += 1
            else:
                bstart = start
            bank_free[bank] = bstart + bank_occ
            bank_accs += 1
            if bypassed:
                wb_to_dram(addr, start)
            elif victim_dirty:
                wb_to_dram(victim_addr, start)

        def nondemand_llc(addr, pc, now):
            """The LLC-and-below half of ``fetch_nondemand`` (arbiter on)."""
            nonlocal arb_reqs, arb_throt, bank_accs, bank_confs
            nonlocal mshr_merged, mshr_stalls
            nonlocal dram_reads, dram_rowhits, dram_rowconf
            t_l2 = now + l1_latency
            t_in = t_l2 + l2_latency
            arb_reqs += 1
            vclock = arb_virtual[cid]
            start = t_in
            earliest = vclock - arb_window
            if earliest > t_in:
                start = earliest
                arb_throt += 1
            base_v = vclock if vclock > start else start
            arb_virtual[cid] = base_v + arb_cost

            s = addr & llc_mask
            way = llc_get(addr, -1)
            llc_hit = way >= 0
            victim_addr = -1
            victim_dirty = False
            if llc_hit:
                llc_oh[cid] += 1
                if hit_mode == _CALL:
                    p_on_hit(s, way, cid, False, addr)
            else:
                llc_om[cid] += 1
                if call_on_miss:
                    p_on_miss(s, cid, False)
                decision = p_decide(s, cid, pc, addr, False)
                if decision is BYPASS:
                    llc_by[cid] += 1
                else:
                    victim_addr, victim_dirty = llc_fill(
                        addr, s, pc, decision, False, False
                    )
            bank = (addr & bank_mask) ^ ((addr >> 8) & bank_mask)
            bstart = bank_free[bank]
            if bstart > start:
                bank_confs += 1
            else:
                bstart = start
            bank_free[bank] = bstart + bank_occ
            bank_accs += 1
            t_bank = bstart + bank_lat
            if llc_hit:
                return
            if victim_dirty:
                wb_to_dram(victim_addr, t_bank)

            t_dram = t_bank
            if mshr is not None:
                done = msh_get(addr)
                if done is not None and done > t_bank:
                    mshr_merged += 1
                    return
                while msh_heap and msh_heap[0] <= t_dram:
                    heappop(msh_heap)
                if not msh_heap:
                    msh_by.clear()
                elif len(msh_by) > 2 * len(msh_heap):
                    keep = {blk: tt for blk, tt in msh_by.items() if tt > t_dram}
                    msh_by.clear()
                    msh_by.update(keep)
                if len(msh_heap) >= msh_entries:
                    t_dram = msh_heap[0]
                    mshr_stalls += 1
                    while msh_heap and msh_heap[0] <= t_dram:
                        heappop(msh_heap)
                    if not msh_heap:
                        msh_by.clear()
                    elif len(msh_by) > 2 * len(msh_heap):
                        keep = {
                            blk: tt for blk, tt in msh_by.items() if tt > t_dram
                        }
                        msh_by.clear()
                        msh_by.update(keep)
            dram_reads += 1
            dram_row = addr // dram_bpr
            bank = (dram_row & dram_mask) ^ ((dram_row >> 8) & dram_mask)
            dstart = dram_busy[bank]
            if dstart < t_dram:
                dstart = t_dram
            if dram_open[bank] == dram_row:
                latency = dram_hit
                dram_rowhits += 1
            else:
                latency = dram_conf
                dram_rowconf += 1
                dram_open[bank] = dram_row
            dram_busy[bank] = dstart + dram_occ
            done = dstart + latency
            if mshr is not None:
                heappush(msh_heap, done)
                msh_by[addr] = done

        def demand_llc(addr, pc, now):
            """The LLC-and-below half of ``fetch_below`` (arbiter on).

            Returns ``(completion_time, llc_demand_miss)``.
            """
            nonlocal arb_reqs, arb_throt, bank_accs, bank_confs
            nonlocal mshr_merged, mshr_stalls
            nonlocal dram_reads, dram_rowhits, dram_rowconf
            t_l2 = now + l1_latency
            t_in = t_l2 + l2_latency
            arb_reqs += 1
            vclock = arb_virtual[cid]
            start = t_in
            earliest = vclock - arb_window
            if earliest > t_in:
                start = earliest
                arb_throt += 1
            base_v = vclock if vclock > start else start
            arb_virtual[cid] = base_v + arb_cost

            s = addr & llc_mask
            way = llc_get(addr, -1)
            llc_hit = way >= 0
            victim_addr = -1
            victim_dirty = False
            if llc_hit:
                llc_dh[cid] += 1
                llc_reused[s][way] = True
                if hit_mode == _RRIP:
                    rows3[s][way] = 0
                elif hit_mode == _SHIP:
                    rows3[s][way] = 0
                    out3[s][way] = True
                    sg = sig3[s][way]
                    v = shct3[sg]
                    if v < shct_max3:
                        shct3[sg] = v + 1
                elif hit_mode == _ADAPT:
                    rows3[s][way] = 0
                    ai = mon_get(s)
                    if ai is not None:
                        smp3.samples += 1
                        mon_arrays[ai].observe(addr // llc_sets)
                elif hit_mode == _STACK:
                    st = nmru3[s]
                    rows3[s][way] = st
                    nmru3[s] = st + 1
                else:
                    p_on_hit(s, way, cid, True, addr)
            else:
                llc_dm[cid] += 1
                if d_psel is not None:
                    role = d_get(s, -1)
                    if role == 0:
                        v = d_psel.value + 1
                        if v <= d_max:
                            d_psel.value = v
                    elif role == 1:
                        v = d_psel.value - 1
                        if v >= 0:
                            d_psel.value = v
                elif call_on_miss:
                    p_on_miss(s, cid, True)
                decision = p_decide(s, cid, pc, addr, True)
                if decision is BYPASS:
                    llc_by[cid] += 1
                else:
                    victim_addr, victim_dirty = llc_fill(
                        addr, s, pc, decision, False, True
                    )
            bank = (addr & bank_mask) ^ ((addr >> 8) & bank_mask)
            bstart = bank_free[bank]
            if bstart > start:
                bank_confs += 1
            else:
                bstart = start
            bank_free[bank] = bstart + bank_occ
            bank_accs += 1
            t_bank = bstart + bank_lat
            if llc_hit:
                return t_bank, False
            if victim_dirty:
                wb_to_dram(victim_addr, t_bank)

            t_dram = t_bank
            if mshr is not None:
                done = msh_get(addr)
                if done is not None and done > t_bank:
                    mshr_merged += 1
                    return done, True
                while msh_heap and msh_heap[0] <= t_dram:
                    heappop(msh_heap)
                if not msh_heap:
                    msh_by.clear()
                elif len(msh_by) > 2 * len(msh_heap):
                    keep = {blk: tt for blk, tt in msh_by.items() if tt > t_dram}
                    msh_by.clear()
                    msh_by.update(keep)
                if len(msh_heap) >= msh_entries:
                    t_dram = msh_heap[0]
                    mshr_stalls += 1
                    while msh_heap and msh_heap[0] <= t_dram:
                        heappop(msh_heap)
                    if not msh_heap:
                        msh_by.clear()
                    elif len(msh_by) > 2 * len(msh_heap):
                        keep = {
                            blk: tt for blk, tt in msh_by.items() if tt > t_dram
                        }
                        msh_by.clear()
                        msh_by.update(keep)
            dram_reads += 1
            dram_row = addr // dram_bpr
            bank = (dram_row & dram_mask) ^ ((dram_row >> 8) & dram_mask)
            dstart = dram_busy[bank]
            if dstart < t_dram:
                dstart = t_dram
            if dram_open[bank] == dram_row:
                latency = dram_hit
                dram_rowhits += 1
            else:
                latency = dram_conf
                dram_rowconf += 1
                dram_open[bank] = dram_row
            dram_busy[bank] = dstart + dram_occ
            done = dstart + latency
            if mshr is not None:
                heappush(msh_heap, done)
                msh_by[addr] = done
            return done, True

        # -- the clock + event cursor ----------------------------------------

        # idx: next step to walk; t: issue time of access ``idx``; p: next
        # event-stream entry; e_cur: its access index, or -1 once p has run
        # off the n_ev captured events.  The clock walk reproduces the
        # generic loop's per-access float recurrence op for op.  Each event field
        # is read exactly once: the read that ends a group becomes e_cur.
        idx = 0
        t_clock = 0.0
        p = 0
        n_ev = len(ev_step)
        e_cur = ev_step[0] if n_ev else -1
        step = cap.EXTENSION_STEP

        def seek_event():
            """Walk the clock to the next event-bearing access.

            Returns its issue time; extends the tape live
            (:data:`~repro.cpu.capture.EXTENSION_STEP` accesses per call)
            when the run has outgrown the captured stream.  A core
            whose extension produced no event yet returns a *provisional*
            wake-up at the issue time of its first ungenerated access —
            a lower bound on any future event, so heap order is preserved
            and a core gone LLC-silent can never stall the other cores'
            run to completion (each wake-up makes one step of progress).
            """
            nonlocal idx, t_clock, e_cur, n_ev
            e = e_cur
            if e < 0:
                cap.extend_tape(bundle, cid, step)
                n_ev = len(ev_step)
                e = e_cur = ev_step[p] if p < n_ev else -1
                if e < 0:
                    e = len(steps)
            i = idx
            t = t_clock
            while i < e:
                if steps[i]:
                    t_l2 = t + l1_latency
                    done = t_l2 + l2_latency
                    latency = done - t
                    stall = latency - l1_latency
                    if stall < 0.0:
                        stall = 0.0
                    t = t + comp_c + stall * imlp_c
                else:
                    t = t + comp_c
                i += 1
            idx = i
            t_clock = t
            return t

        def process(t):
            """Process the pending event group; returns the next event time
            (or ``None`` once the whole run has completed)."""
            nonlocal miss_clock, intervals_completed, remaining
            nonlocal idx, t_clock, p, e_cur
            e = e_cur
            if e < 0:
                # Provisional wake-up: no event generated yet — extend by
                # another step and reschedule.
                return seek_event()
            code = steps[e]
            saw_baseline = False
            saw_snapshot = False
            k = ev_kind[p]
            p1 = p + 1
            nxt = ev_step[p1] if p1 < n_ev else -1
            if k == ev_demand and nxt != e:
                # Overwhelmingly common group shape: one demand fetch.
                done, demand_missed = demand_llc(ev_addr[p], ev_pc[p], t)
                p = p1
            else:
                done = 0.0
                demand_missed = False
                while True:
                    if k == ev_demand:
                        done, demand_missed = demand_llc(ev_addr[p], ev_pc[p], t)
                    elif k == ev_wb0:
                        wb_to_llc(ev_addr[p], t)
                    elif k == ev_wb1:
                        wb_to_llc(ev_addr[p], t + l1_latency)
                    elif k == ev_nd:
                        nondemand_llc(ev_addr[p], ev_pc[p], t)
                    elif k == ev_baseline:
                        saw_baseline = True
                    else:
                        saw_snapshot = True
                    p = p1
                    if nxt != e:
                        break
                    k = ev_kind[p]
                    p1 = p + 1
                    nxt = ev_step[p1] if p1 < n_ev else -1
            e_cur = nxt

            if code == step_llc:
                latency = done - t
                stall = latency - l1_latency
                if stall < 0.0:
                    stall = 0.0
                next_t = t + comp_c + stall * imlp_c
            elif code == step_l2hit:
                t_l2 = t + l1_latency
                done = t_l2 + l2_latency
                latency = done - t
                stall = latency - l1_latency
                if stall < 0.0:
                    stall = 0.0
                next_t = t + comp_c + stall * imlp_c
            else:
                next_t = t + comp_c

            if demand_missed:
                miss_clock += 1
                if miss_clock >= interval:
                    end_interval()
                    miss_clock = 0
                    intervals_completed += 1

            if saw_baseline:
                rec = tape.baseline
                base.time = next_t
                base.instructions = rec["instructions"]
                base.accesses = warmup
                base.l1 = rec["l1_demand_misses"]
                base.l2 = rec["l2_demand_misses"]
                base.llc = (llc_dh[cid] + llc_dm[cid], llc_dm[cid])
                base.bypasses = llc_by[cid]

            if saw_snapshot:
                rec = tape.finish
                core.finished = True
                core.snapshot = CoreSnapshot(
                    instructions=rec["instructions"] - base.instructions,
                    cycles=next_t - base.time,
                    accesses=finish_count - base.accesses,
                    l1_misses=rec["l1_demand_misses"] - base.l1,
                    l2_misses=rec["l2_demand_misses"] - base.l2,
                    llc_accesses=(llc_dh[cid] + llc_dm[cid]) - base.llc[0],
                    llc_misses=llc_dm[cid] - base.llc[1],
                    llc_bypasses=llc_by[cid] - base.bypasses,
                )
                remaining -= 1
                if remaining == 0:
                    cut[0] = t
                    cut[1] = cid
                    final_next_t[0] = next_t
                    resume_idx[cid] = e + 1
                    resume_t[cid] = next_t
                    return None

            idx = e + 1
            t_clock = next_t
            resume_idx[cid] = e + 1
            resume_t[cid] = next_t
            return seek_event()

        def cut_walk(t_f, cid_f):
            """How many of this core's accesses the generic loop would have
            processed before the run-ending access ``(t_f, cid_f)``."""
            i = resume_idx[cid]
            t = resume_t[cid]
            while t < t_f or (t == t_f and cid < cid_f):
                if steps[i]:
                    t_l2 = t + l1_latency
                    done = t_l2 + l2_latency
                    latency = done - t
                    stall = latency - l1_latency
                    if stall < 0.0:
                        stall = 0.0
                    t = t + comp_c + stall * imlp_c
                else:
                    t = t + comp_c
                i += 1
            return i

        return seek_event, process, cut_walk, sync_core

    seekers = [None] * n
    processors = [None] * n
    cut_walks = [None] * n
    core_syncs = [None] * n
    for cid in range(n):
        seekers[cid], processors[cid], cut_walks[cid], core_syncs[cid] = compile_core(cid)

    # -- the replay loop -----------------------------------------------------
    # A burst heap: keep processing one core's event groups while its next
    # event is still the earliest — the order the generic loop's
    # pop/push sequence produces.
    try:
        heap: list[tuple[float, int]] = []
        for cid in range(n):
            heappush(heap, (seekers[cid](), cid))
        running = True
        while running:
            t, cid = heappop(heap)
            proc = processors[cid]
            if heap:
                head = heap[0]
                while True:
                    nxt = proc(t)
                    if nxt is None:
                        running = False
                        break
                    head_t = head[0]
                    if nxt < head_t or (nxt == head_t and cid < head[1]):
                        t = nxt
                        continue
                    heappush(heap, (nxt, cid))
                    break
            else:
                while True:
                    nxt = proc(t)
                    if nxt is None:
                        running = False
                        break
                    t = nxt
    finally:
        # Write the loop-local timing/counter state back, so the timing
        # models end exactly as a generic-loop run leaves them.
        engine._miss_clock = miss_clock
        engine.intervals_completed = intervals_completed
        dram.reads = dram_reads
        dram.writes = dram_writes
        dram.row_hits = dram_rowhits
        dram.row_conflicts = dram_rowconf
        banks.accesses = bank_accs
        banks.conflicts = bank_confs
        arb.requests = arb_reqs
        arb.throttled = arb_throt
        if mshr is not None:
            mshr.merged = mshr_merged
            mshr.stalls = mshr_stalls
        if llc_wb is not None:
            llc_wb.stalls = wb3_stalls
            llc_wb.admitted = wb3_admitted
            llc_wb._last_retire = wb3_last
        for sync in core_syncs:
            sync()

    # -- final private-level reconstruction ----------------------------------
    if finalize:
        t_f, cid_f = cut[0], cut[1]
        prefetches_issued = 0
        for cid in range(n):
            n_i = finish_count if cid == cid_f else cut_walks[cid](t_f, cid_f)
            tape = tapes[cid]
            ck = tape.checkpoint(bisect_right(tape.checkpoint_index, n_i) - 1)
            source = engine.sources[cid]
            pf = h.l2_prefetchers[cid] if h.l2_prefetchers is not None else None
            sim = cap.PrivateCoreSim(
                h.l1s[cid], h.l2s[cid], pf, h.l1_next_line_prefetch, source
            )
            sim.restore_state(ck)
            cap.advance_source(source, ck["index"])
            sim.run(n_i - ck["index"])
            core = cores[cid]
            core.accesses = n_i
            core.instructions = sim.instr
            prefetches_issued += sim.pf_issued
        h.prefetches_issued = prefetches_issued

    engine.now = final_next_t[0]
    engine.now = max(engine.now, max(c.snapshot.cycles for c in cores))
    return [c.snapshot for c in cores]
