"""Capture pass for the LLC-filtered replay engine.

Because the hierarchy is non-inclusive, each core's private-cache contents
— and therefore its sequence of LLC-bound demand misses, L2 write-backs
and prefetcher issues — depend only on that core's fixed address stream,
never on the LLC policy or on timing; only the *timestamps* of those
events vary between policies.  A policy sweep therefore re-simulates the
identical L1/L2 behaviour once per swept policy for nothing.

This module runs the private levels (L1 LRU, L2 DRRIP, both prefetcher
shapes) **once** per distinct ``(trace identity, geometry, private-level
config)`` and records, per core:

* a **step stream** — one byte per access classifying its private-time
  cost: L1 hit (``STEP_HIT``), L1-miss/L2-hit (``STEP_L2HIT``) or
  L2 miss reaching the LLC (``STEP_LLC``).  The replay kernel
  (:mod:`repro.cpu.replay`) re-executes exactly the generic engine loop's
  floating-point clock recurrence over this stream, so reconstructed
  timestamps are bit-for-bit identical;
* an **event stream** — the ordered LLC-bound interactions each access
  performs (L2→LLC write-backs at their two fixed time offsets, non-demand
  prefetch fetches, the demand fetch itself) plus the engine's
  warm-up-baseline and quota-completion markers, which must be replayed in
  global ``(time, core)`` order because they read live LLC statistics;
* **private-state checkpoints** — snapshots of the L1/L2 contents,
  replacement state, stats, and prefetcher tables at quota completion,
  at regular intervals after it and at the stream end, kept as encoded
  JSON bytes from the moment they are taken.  Every core of a run has
  completed its quota when the run stops, so none is needed earlier.
  Only the one being restored is ever decoded: the replay finaliser
  reconstructs the exact private-level end state at the run's
  policy-dependent stop point from the nearest one with a bounded
  re-simulation, and live extension resumes from the tape-end one.

Every content operation mutates the same cache, policy and prefetcher
state in the same order as the generic engine loop
(:meth:`repro.cpu.engine.MulticoreEngine._run_generic` through
:class:`~repro.cache.hierarchy.CacheHierarchy`), which the golden
differential suite machine-checks.

What a capture depends on is its :class:`CaptureIdentity`, built from a
job by :func:`job_identity` and from an engine by :func:`engine_identity`;
a capture serves exactly the runs whose identity equals its own.  A policy
sweep's capture is saved once and handed to every swept run
(:mod:`repro.runner.replaystore`); any other fast run captures its own
workload in memory first (:func:`repro.cpu.fastpath.run_fast`).
"""

from __future__ import annotations

import json
from array import array
from typing import NamedTuple

import numpy as np

from repro.cache.prefetch import StrideEntry
from repro.policies.drrip import DrripPolicy
from repro.policies.lru import LruPolicy
from repro.trace.benchmarks import Geometry, TraceSource, make_source

#: Step-stream codes: the access's private-time cost class.
STEP_HIT, STEP_L2HIT, STEP_LLC = 0, 1, 2

#: Event-stream kinds, in the exact order the generic loop performs them.
#: ``EV_WB0``/``EV_WB1`` are L2→LLC write-backs arriving at ``t`` (dirty L1
#: victim path) and ``t + l1_latency`` (demand/prefetch L2-fill path);
#: ``EV_ND`` is a non-demand (prefetch) LLC fetch, ``EV_DEMAND`` the demand
#: fetch whose completion time feeds the core's clock.  ``EV_BASELINE`` and
#: ``EV_SNAPSHOT`` mark the engine's warm-up and quota-completion points.
EV_WB0, EV_WB1, EV_ND, EV_DEMAND, EV_BASELINE, EV_SNAPSHOT = 0, 1, 2, 3, 4, 5

#: One record per LLC-bound event; ``step`` is the 0-based access index.
EVENT_DTYPE = np.dtype([("step", "<u8"), ("kind", "u1"), ("addr", "<i8"), ("pc", "<i8")])

#: Capture artifact layout version (part of every content address).
CAPTURE_FORMAT = 2

#: Captured-stream over-provisioning beyond the quota-completion index.
#: Cores that finish early keep running until the slowest core completes,
#: so each stream is captured ``1 + slack`` times the per-core access
#: budget; a replay that outruns a stream switches to live private-level
#: continuation (bit-identical, and the extension is appended to the
#: bundle so later replays of the same bundle reuse it).  Typical mixes
#: overrun by a few percent, so the default stays lean.
REPLAY_SLACK = 0.25

#: Accesses one live extension appends to a stream.  Small, because how
#: far a run outlives its stream is not known in advance, and every
#: access captured past the run's end is wasted private-level work.
EXTENSION_STEP = 256

#: Private-state checkpoints are spaced 1/_TARGET_CHECKPOINTS of the
#: stream apart (the replay finaliser re-simulates at most one
#: inter-checkpoint span per core, so denser checkpoints trade a little
#: capture memory for faster finalised replays).
_TARGET_CHECKPOINTS = 24


class CaptureIdentity(NamedTuple):
    """Everything a capture's streams depend on, and nothing they don't.

    Traces, private-level geometry, prefetch configuration, run budgets,
    seed and chunk size.  A synthetic trace is its benchmark name; an
    ingested one is its registered
    :class:`~repro.targets.registry.TargetSpec` (the buffer's content key
    and the core-model parameters its source reads), so re-ingesting a
    ``tgt:`` name under other content changes the identity.  The LLC
    policy, LLC associativity and every latency live on the replay side,
    so a whole policy sweep (and LLC-way studies on the same set count)
    shares one capture.  The field
    order is the one :func:`repro.runner.replaystore.replay_key` hashes,
    so it is part of every artifact's name.

    A capture's meta is these fields (:meth:`to_meta`) plus ``format``,
    ``slack`` and ``length``.
    """

    benchmarks: tuple
    l1_sets: int
    l1_ways: int
    l2_sets: int
    l2_ways: int
    llc_sets: int
    l1_next_line_prefetch: bool
    l2_stride_prefetch: bool
    #: 0 when ``l2_stride_prefetch`` is off.
    l2_prefetch_degree: int
    quota: int
    warmup: int
    master_seed: int
    chunk: int

    def to_meta(self) -> dict:
        """The fields as JSON values (:meth:`from_meta` inverts it)."""
        fields = self._asdict()
        fields["benchmarks"] = [
            name if isinstance(name, str) else name.to_dict() for name in self.benchmarks
        ]
        return fields

    @classmethod
    def from_meta(cls, meta: dict) -> CaptureIdentity:
        """The identity a capture's meta records."""
        fields = {name: meta[name] for name in cls._fields}
        fields["benchmarks"] = tuple(map(_trace_from_meta, fields["benchmarks"]))
        if not fields["l2_stride_prefetch"]:
            # Older builds saved the configured degree here.
            fields["l2_prefetch_degree"] = 0
        return cls(**fields)

    def geometry(self) -> Geometry:
        """The calibration geometry the capture's sources are built for."""
        return Geometry(
            llc_num_sets=self.llc_sets,
            l2_blocks=self.l2_sets * self.l2_ways,
            l1_blocks=self.l1_sets * self.l1_ways,
        )


def _trace_from_meta(entry: str | dict):
    """One trace of :meth:`CaptureIdentity.to_meta`'s ``benchmarks``."""
    if isinstance(entry, str):
        return entry
    # Imported only for a target: it loads the whole targets package.
    from repro.targets.registry import TargetSpec

    return TargetSpec.from_dict(entry)


def job_identity(
    benchmarks: tuple, config, quota: int, warmup: int, master_seed: int
) -> CaptureIdentity:
    """The identity of a job's capture: *benchmarks* on *config*'s platform.

    *benchmarks* holds each core's trace as the identity does
    (:meth:`repro.runner.jobs.WorkloadJob.traces`).
    """
    stride = bool(config.l2_stride_prefetch)
    return CaptureIdentity(
        tuple(benchmarks),
        config.l1.num_sets,
        config.l1.ways,
        config.l2.num_sets,
        config.l2.ways,
        config.llc.num_sets,
        bool(config.l1_next_line_prefetch),
        stride,
        int(config.l2_prefetch_degree) if stride else 0,
        int(quota),
        int(warmup),
        int(master_seed),
        TraceSource.CHUNK,
    )


def engine_identity(engine) -> CaptureIdentity | None:
    """The identity of the capture that can serve *engine*, or ``None``.

    A capture simulates plain-LRU L1s and plain-DRRIP L2s and rebuilds each
    core's source from its trace, so it serves only cores that have
    not run yet, with one quota, fed by unread chunked sources that name
    their trace and were built for their own core, one seed and the
    hierarchy's geometry.  Any other engine runs the generic loop;
    duck-typed sources (instrumentation wrappers exposing only
    ``next_access``) are among them.
    """
    h = engine.hierarchy
    for cache in h.l1s:
        if type(cache.policy) is not LruPolicy:
            return None
    for cache in h.l2s:
        if type(cache.policy) is not DrripPolicy:
            return None
    l1, l2, pfs = h.l1s[0], h.l2s[0], h.l2_prefetchers
    identity = CaptureIdentity(
        (),
        l1.num_sets,
        l1.ways,
        l2.num_sets,
        l2.ways,
        h.llc.num_sets,
        bool(h.l1_next_line_prefetch),
        pfs is not None,
        pfs[0].degree if pfs is not None else 0,
        engine.cores[0].quota,
        engine.warmup_accesses,
        getattr(engine.sources[0], "master_seed", None),
        TraceSource.CHUNK,
    )
    geometry = identity.geometry()
    names = []
    for cid, (core, source) in enumerate(zip(engine.cores, engine.sources)):
        spec = getattr(source, "spec", None)
        if (
            spec is None
            or not hasattr(source, "next_chunk")
            or getattr(source, "CHUNK", None) != identity.chunk
            or getattr(source, "chunks_generated", 1)
            or getattr(source, "geometry", None) != geometry
            or getattr(source, "core_id", None) != cid
            or getattr(source, "master_seed", None) != identity.master_seed
            or core.quota != identity.quota
            or core.accesses
        ):
            return None
        names.append(spec if getattr(spec, "kind", None) == "target" else spec.name)
    return identity._replace(benchmarks=tuple(names))


def _checkpoint_interval(length: int) -> int:
    """Accesses between private-state checkpoints on a *length*-access stream."""
    return max(TraceSource.CHUNK, -(-length // _TARGET_CHECKPOINTS))


def _decode_chunk(source, set_mask: int, limit: int) -> tuple:
    """Fetch and pre-decode the next *limit* accesses of the current chunk.

    ``next_chunk`` hands back NumPy arrays; the per-access loop wants plain
    Python scalars (dict keys, arbitrary-precision arithmetic) and the L1
    set index of every access.  Both conversions are done here with
    vectorised NumPy operations, on at most *limit* accesses from the
    source's position to the end of its chunk, so a short run decodes (and
    holds) no more than it reads.

    Returns ``(addrs, sets, pcs, writes, position)``, the lists starting at
    the chunk offset ``position``.
    """
    arr_addrs, arr_pcs, arr_writes, pos = source.next_chunk()
    end = pos + limit
    addrs = arr_addrs[pos:end]
    return (
        addrs.tolist(),
        (addrs & set_mask).tolist(),
        arr_pcs[pos:end].tolist(),
        arr_writes[pos:end].tolist(),
        pos,
    )


def _residency(cache) -> tuple[dict, list[int]]:
    """Kernel-local residency index: ``{addr: way}`` plus valid ways per set.

    A block address determines its set, so one flat dict per cache is
    unambiguous.  Built from the cache's current contents (normally empty)
    and maintained by the kernel in lock-step with the address arrays.
    """
    lookup: dict[int, int] = {}
    valid: list[int] = []
    for row in cache.addrs:
        count = 0
        for way, addr in enumerate(row):
            if addr != -1:
                lookup[addr] = way
                count += 1
        valid.append(count)
    return lookup, valid


class CoreTape:
    """One core's captured stream: steps, events, checkpoints, markers.

    The streams live in fixed-width containers from capture to replay:
    ``steps`` is a ``bytearray`` of step codes, and the event columns are
    ``ev_step`` (``array("Q")``), ``ev_kind`` (``bytearray``), ``ev_addr``
    and ``ev_pc`` (``array("q")``), 25 bytes per event.  All of them grow
    in place on live extension, so no buffer view of them may outlive the
    statement that takes it.

    ``checkpoints`` holds each private-state snapshot as its encoded JSON
    ``bytes`` and ``checkpoint_index`` (``array("Q")``) the access index
    it was taken at, in increasing order.  Append through
    :meth:`add_checkpoint`; :meth:`checkpoint` decodes one.
    """

    __slots__ = (
        "steps",
        "ev_step",
        "ev_kind",
        "ev_addr",
        "ev_pc",
        "checkpoints",
        "checkpoint_index",
        "baseline",
        "finish",
        "length",
        "live_sim",
    )

    def __init__(self) -> None:
        self.steps = bytearray()
        self.ev_step = array("Q")
        self.ev_kind = bytearray()
        self.ev_addr = array("q")
        self.ev_pc = array("q")
        self.checkpoints: list[bytes] = []
        self.checkpoint_index = array("Q")
        self.baseline: dict | None = None
        self.finish: dict | None = None
        self.length = 0
        #: Continuation simulator at the tape end: the capture's own on a
        #: slack-free capture, else attached by the replay kernel when a run
        #: first outlives the stream.
        self.live_sim: PrivateCoreSim | None = None

    def add_checkpoint(self, state: dict) -> None:
        """Encode and append a :meth:`PrivateCoreSim.snapshot_state`."""
        self.checkpoints.append(json.dumps(state, separators=(",", ":")).encode())
        self.checkpoint_index.append(state["index"])

    def checkpoint(self, i: int) -> dict:
        """Decode checkpoint *i* (a fresh object on every call)."""
        return json.loads(self.checkpoints[i])

    def events_array(self) -> np.ndarray:
        """The event columns as ``EVENT_DTYPE`` records."""
        out = np.empty(len(self.ev_step), dtype=EVENT_DTYPE)
        out["step"] = np.frombuffer(self.ev_step, dtype=np.uint64)
        out["kind"] = np.frombuffer(self.ev_kind, dtype=np.uint8)
        out["addr"] = np.frombuffer(self.ev_addr, dtype=np.int64)
        out["pc"] = np.frombuffer(self.ev_pc, dtype=np.int64)
        return out

    def set_events(self, events: np.ndarray) -> None:
        """Fill the event columns from ``EVENT_DTYPE`` records.

        Each column is converted once, straight into its container; the
        explicit dtypes make numpy handle the records' byte order.
        """
        n = len(events)
        self.ev_step = array("Q", [0]) * n
        self.ev_kind = bytearray(n)
        self.ev_addr = array("q", [0]) * n
        self.ev_pc = array("q", [0]) * n
        np.frombuffer(self.ev_step, dtype=np.uint64)[:] = events["step"]
        np.frombuffer(self.ev_kind, dtype=np.uint8)[:] = events["kind"]
        np.frombuffer(self.ev_addr, dtype=np.int64)[:] = events["addr"]
        np.frombuffer(self.ev_pc, dtype=np.int64)[:] = events["pc"]

    def steps_array(self) -> np.ndarray:
        return np.frombuffer(bytes(self.steps), dtype=np.uint8)


class CaptureBundle:
    """A full platform capture: one :class:`CoreTape` per core plus meta."""

    __slots__ = ("meta", "tapes")

    def __init__(self, meta: dict, tapes: list[CoreTape]) -> None:
        self.meta = meta
        self.tapes = tapes

    def identity(self) -> CaptureIdentity | None:
        """The identity of the runs this bundle serves; ``None`` when its
        format or tape count is wrong."""
        if self.meta.get("format") != CAPTURE_FORMAT:
            return None
        identity = CaptureIdentity.from_meta(self.meta)
        return identity if len(self.tapes) == len(identity.benchmarks) else None


class PrivateCoreSim:
    """Private-level content simulator for one core.

    Mirrors the generic loop's L1/L2/prefetcher behaviour exactly (same
    state objects, same mutation order); used three ways:

    * **capture** — ``run(n, record=True)`` appends step codes and LLC
      events to a :class:`CoreTape`;
    * **live continuation** — the replay kernel resumes a tape-end
      checkpoint on scratch objects and keeps recording when a run
      outlives the captured stream;
    * **reconstruction** — the replay finaliser resumes the engine's *own*
      cache/prefetcher/source objects from a checkpoint and re-simulates
      (``record=False``) up to the exact access index where the generic
      loop would have stopped.
    """

    __slots__ = (
        "l1",
        "l2",
        "prefetcher",
        "l1_next_line",
        "source",
        "instructions_per_access",
        "count",
        "instr",
        "pf_issued",
        "tape",
        "_lookup1",
        "_valid1",
        "_lookup2",
        "_valid2",
        "_psel_val",
        "_tick_cnt",
        "_buf",
        "_base",
        "_pos",
        "_len",
    )

    def __init__(
        self,
        l1,
        l2,
        prefetcher,
        l1_next_line: bool,
        source,
        tape: CoreTape | None = None,
    ) -> None:
        if type(l1.policy) is not LruPolicy:
            raise ValueError("capture requires a plain-LRU L1")
        if type(l2.policy) is not DrripPolicy:
            raise ValueError("capture requires a plain-DRRIP L2")
        self.l1 = l1
        self.l2 = l2
        self.prefetcher = prefetcher
        self.l1_next_line = l1_next_line
        self.source = source
        self.instructions_per_access = source.instructions_per_access
        self.count = 0
        self.instr = 0.0
        self.pf_issued = 0
        self.tape = tape
        self._lookup1, self._valid1 = _residency(l1)
        self._lookup2, self._valid2 = _residency(l2)
        self._psel_val = l2.policy._psel.value
        self._tick_cnt = l2.policy._ticker._count
        self._buf = None
        self._base = 0
        self._pos = 0
        self._len = 0

    # -- state transfer ------------------------------------------------------

    def sync(self) -> None:
        """Write localized scalar state back to the policy objects."""
        self.l2.policy._psel.value = self._psel_val
        self.l2.policy._ticker._count = self._tick_cnt

    def snapshot_state(self) -> dict:
        """JSON-safe checkpoint of the full private-level state."""
        self.sync()
        l1, l2 = self.l1, self.l2
        pf = self.prefetcher
        state = {
            "index": self.count,
            "instr": self.instr,
            "pf_issued": self.pf_issued,
            "l1": {
                "addrs": [row[:] for row in l1.addrs],
                "dirty": [row[:] for row in l1.dirty],
                "reused": [row[:] for row in l1.reused],
                "occupancy": list(l1.occupancy),
                "stats": l1.stats.snapshot(),
                "stamp": [row[:] for row in l1.policy._stamp],
                "next_mru": list(l1.policy._next_mru),
                "next_lru": list(l1.policy._next_lru),
            },
            "l2": {
                "addrs": [row[:] for row in l2.addrs],
                "dirty": [row[:] for row in l2.dirty],
                "reused": [row[:] for row in l2.reused],
                "occupancy": list(l2.occupancy),
                "stats": l2.stats.snapshot(),
                "rrpv": [row[:] for row in l2.policy.rrpv],
                "psel_value": l2.policy._psel.value,
                "ticker_count": l2.policy._ticker._count,
            },
            "pf": None,
        }
        if pf is not None:
            state["pf"] = {
                "table": [
                    [pc, e.last_addr, e.stride, e.confidence]
                    for pc, e in pf._table.items()
                ],
                "trained": pf.trained,
                "issued": pf.issued,
            }
        return state

    def restore_state(self, state: dict) -> None:
        """Load a checkpoint into the held objects (deep copies)."""
        l1, l2 = self.l1, self.l2
        c1, c2 = state["l1"], state["l2"]
        for target, rows in (
            (l1.addrs, c1["addrs"]),
            (l1.dirty, c1["dirty"]),
            (l1.reused, c1["reused"]),
            (l1.policy._stamp, c1["stamp"]),
            (l2.addrs, c2["addrs"]),
            (l2.dirty, c2["dirty"]),
            (l2.reused, c2["reused"]),
            (l2.policy.rrpv, c2["rrpv"]),
        ):
            for row, src in zip(target, rows):
                row[:] = src
        l1.occupancy[:] = c1["occupancy"]
        l2.occupancy[:] = c2["occupancy"]
        l1.policy._next_mru[:] = c1["next_mru"]
        l1.policy._next_lru[:] = c1["next_lru"]
        for stats, snap in ((l1.stats, c1["stats"]), (l2.stats, c2["stats"])):
            for field, values in snap.items():
                getattr(stats, field)[:] = values
        l2.policy._psel.value = c2["psel_value"]
        l2.policy._ticker._count = c2["ticker_count"]
        pf = self.prefetcher
        if pf is not None and state["pf"] is not None:
            pf._table.clear()
            for pc, last, stride, conf in state["pf"]["table"]:
                entry = StrideEntry(last)
                entry.stride = stride
                entry.confidence = conf
                pf._table[pc] = entry
            pf.trained = state["pf"]["trained"]
            pf.issued = state["pf"]["issued"]
        self.count = state["index"]
        self.instr = state["instr"]
        self.pf_issued = state["pf_issued"]
        self._lookup1, self._valid1 = _residency(l1)
        self._lookup2, self._valid2 = _residency(l2)
        self._psel_val = l2.policy._psel.value
        self._tick_cnt = l2.policy._ticker._count

    def release_chunk(self) -> None:
        """Drop the decoded accesses; the next :meth:`run` decodes again
        from the source's committed position."""
        self._buf = None
        self._pos = self._len = 0

    # -- the private-level loop ---------------------------------------------

    def run(self, n: int, record: bool = True) -> None:
        """Process the next *n* accesses, mirroring the generic loop.

        With ``record``, step codes and LLC-bound events are appended to
        the tape; without, only the private state advances (the
        reconstruction mode).
        """
        if n <= 0:
            return
        l1, l2 = self.l1, self.l2
        source = self.source
        mask1 = l1.set_mask
        lookup1, valid1 = self._lookup1, self._valid1
        get1 = lookup1.get
        rows1 = l1.addrs
        dirty1 = l1.dirty
        reused1 = l1.reused
        occ1 = l1.occupancy
        st1 = l1.stats
        dh1, dm1, om1 = st1.demand_hits, st1.demand_misses, st1.other_misses
        ev1, dev1, fl1 = st1.evictions, st1.dirty_evictions, st1.fills
        stamp1 = l1.policy._stamp
        nmru1 = l1.policy._next_mru

        mask2 = l2.set_mask
        ways2 = l2.ways
        lookup2, valid2 = self._lookup2, self._valid2
        l2_get = lookup2.get
        rows2 = l2.addrs
        dirty2 = l2.dirty
        reused2 = l2.reused
        occ2 = l2.occupancy
        st2 = l2.stats
        dh2, dm2 = st2.demand_hits, st2.demand_misses
        oh2, om2 = st2.other_hits, st2.other_misses
        wba2 = st2.writeback_arrivals
        ev2, dev2, fl2 = st2.evictions, st2.dirty_evictions, st2.fills
        pol2 = l2.policy
        rrpv2 = pol2.rrpv
        maxr2 = pol2.max_rrpv
        psel_val = self._psel_val
        psel_max = pol2._psel.max_value
        psel_thr = pol2._psel.threshold
        tick_cnt = self._tick_cnt
        tick_phase = pol2._ticker._phase
        tick_den = pol2._ticker.denominator
        roles_get = pol2._duel.roles_for(0).get

        pf2 = self.prefetcher
        pf2_train = pf2.train if pf2 is not None else None
        l1_pf = self.l1_next_line
        pf_issued = self.pf_issued

        tape = self.tape
        if record:
            steps_append = tape.steps.append
            evs_append = tape.ev_step.append
            evk_append = tape.ev_kind.append
            eva_append = tape.ev_addr.append
            evp_append = tape.ev_pc.append
        count = self.count
        instr = self.instr
        ipa = self.instructions_per_access

        def l2_fill(addr, s, insertion, dirty):
            """Select a victim if needed and install *addr* in the L2."""
            victim_addr = -1
            victim_dirty = False
            row = rows2[s]
            if valid2[s] < ways2:
                way = row.index(-1)
                valid2[s] += 1
            else:
                rrow = rrpv2[s]
                current_max = max(rrow)
                if current_max < maxr2:
                    delta = maxr2 - current_max
                    rrow[:] = [v + delta for v in rrow]
                way = rrow.index(maxr2)
                victim_addr = row[way]
                victim_dirty = dirty2[s][way]
                ev2[0] += 1
                if victim_dirty:
                    dev2[0] += 1
                occ2[0] -= 1
                del lookup2[victim_addr]
            row[way] = addr
            lookup2[addr] = way
            dirty2[s][way] = dirty
            reused2[s][way] = False
            occ2[0] += 1
            fl2[0] += 1
            rrpv2[s][way] = insertion
            return victim_addr, victim_dirty

        def l1_victim_to_l2(addr):
            """Dirty L1 victim → private L2; may emit a WB0 event."""
            s = addr & mask2
            way = l2_get(addr, -1)
            wba2[0] += 1
            if way >= 0:
                oh2[0] += 1
                dirty2[s][way] = True
                return
            om2[0] += 1
            victim_addr, victim_dirty = l2_fill(addr, s, maxr2, True)
            if victim_dirty and record:
                evs_append(count)
                evk_append(EV_WB0)
                eva_append(victim_addr)
                evp_append(0)

        def fetch_nondemand(addr, pc):
            """Prefetch fill below L1; may emit WB1 + ND events."""
            nonlocal pf_issued
            s = addr & mask2
            way = l2_get(addr, -1)
            if way >= 0:
                oh2[0] += 1
                return
            om2[0] += 1
            victim_addr, victim_dirty = l2_fill(addr, s, maxr2, False)
            if record:
                if victim_dirty:
                    evs_append(count)
                    evk_append(EV_WB1)
                    eva_append(victim_addr)
                    evp_append(0)
                evs_append(count)
                evk_append(EV_ND)
                eva_append(addr)
                evp_append(pc)

        # ``buf`` holds decoded accesses from chunk offset ``base`` on;
        # ``pos`` indexes it.
        buf = self._buf
        base = self._base
        pos = self._pos
        length = self._len
        remaining = n
        while remaining:
            if pos >= length:
                if buf is not None:
                    source.commit(base + pos)
                # With no buffer (fresh, restored or released sim) the
                # source's own position is authoritative — committing the
                # local one would rewind a state-advanced source.
                buf = _decode_chunk(source, mask1, remaining)
                base = buf[4]
                pos = 0
                length = len(buf[0])
            buf_a, buf_s, buf_p, buf_w = buf[0], buf[1], buf[2], buf[3]
            take = length - pos
            if take > remaining:
                take = remaining
            remaining -= take
            for _ in range(take):
                addr = buf_a[pos]
                way = get1(addr, -1)
                if way >= 0:
                    dh1[0] += 1
                    s = buf_s[pos]
                    reused1[s][way] = True
                    if buf_w[pos]:
                        dirty1[s][way] = True
                    stamp = nmru1[s]
                    stamp1[s][way] = stamp
                    nmru1[s] = stamp + 1
                    if record:
                        steps_append(STEP_HIT)
                else:
                    s = buf_s[pos]
                    pc = buf_p[pos]
                    is_write = buf_w[pos]
                    dm1[0] += 1
                    victim_addr = -1
                    victim_dirty = False
                    row = rows1[s]
                    if valid1[s] < len(row):
                        way = row.index(-1)
                        valid1[s] += 1
                    else:
                        srow = stamp1[s]
                        way = srow.index(min(srow))
                        victim_addr = row[way]
                        victim_dirty = dirty1[s][way]
                        ev1[0] += 1
                        if victim_dirty:
                            dev1[0] += 1
                        occ1[0] -= 1
                        del lookup1[victim_addr]
                    row[way] = addr
                    lookup1[addr] = way
                    dirty1[s][way] = is_write
                    reused1[s][way] = False
                    occ1[0] += 1
                    fl1[0] += 1
                    stamp = nmru1[s]
                    stamp1[s][way] = stamp
                    nmru1[s] = stamp + 1
                    if victim_dirty:
                        l1_victim_to_l2(victim_addr)

                    # fetch_below: the demand path into the L2.
                    s = addr & mask2
                    way = l2_get(addr, -1)
                    if way >= 0:
                        dh2[0] += 1
                        reused2[s][way] = True
                        rrpv2[s][way] = 0  # demand-hit promotion
                        if record:
                            steps_append(STEP_L2HIT)
                    else:
                        dm2[0] += 1
                        # DRRIP on_miss + decide_insertion (demand).
                        leader = roles_get(s, -1)
                        if leader == 0:  # SRRIP leader missed
                            value = psel_val + 1
                            psel_val = value if value <= psel_max else psel_max
                        elif leader == 1:  # BRRIP leader missed
                            value = psel_val - 1
                            psel_val = value if value >= 0 else 0
                        if leader == 0:
                            insertion = maxr2 - 1
                        elif leader == 1 or psel_val >= psel_thr:
                            fired = tick_cnt == tick_phase
                            tick_cnt += 1
                            if tick_cnt == tick_den:
                                tick_cnt = 0
                            insertion = maxr2 - 1 if fired else maxr2
                        else:
                            insertion = maxr2 - 1
                        victim_addr, victim_dirty = l2_fill(addr, s, insertion, False)
                        if victim_dirty and record:
                            evs_append(count)
                            evk_append(EV_WB1)
                            eva_append(victim_addr)
                            evp_append(0)
                        if pf2_train is not None:
                            for pfa in pf2_train(pc, addr):
                                if pfa >= 0 and pfa not in lookup2:
                                    pf_issued += 1
                                    fetch_nondemand(pfa, pc)
                        if record:
                            evs_append(count)
                            evk_append(EV_DEMAND)
                            eva_append(addr)
                            evp_append(pc)
                            steps_append(STEP_LLC)

                    if l1_pf:
                        pfa = addr + 1
                        if pfa not in lookup1:
                            pf_issued += 1
                            om1[0] += 1
                            victim_addr = -1
                            victim_dirty = False
                            s = pfa & mask1
                            row = rows1[s]
                            if valid1[s] < len(row):
                                way = row.index(-1)
                                valid1[s] += 1
                            else:
                                srow = stamp1[s]
                                way = srow.index(min(srow))
                                victim_addr = row[way]
                                victim_dirty = dirty1[s][way]
                                ev1[0] += 1
                                if victim_dirty:
                                    dev1[0] += 1
                                occ1[0] -= 1
                                del lookup1[victim_addr]
                            row[way] = pfa
                            lookup1[pfa] = way
                            dirty1[s][way] = False
                            reused1[s][way] = False
                            occ1[0] += 1
                            fl1[0] += 1
                            stamp = nmru1[s]
                            stamp1[s][way] = stamp
                            nmru1[s] = stamp + 1
                            if victim_dirty:
                                l1_victim_to_l2(victim_addr)
                            fetch_nondemand(pfa, buf_p[pos])
                pos += 1
                count += 1
                instr += ipa

        source.commit(base + pos)
        self._buf = buf
        self._base = base
        self._pos = pos
        self._len = length
        self.count = count
        self.instr = instr
        self.pf_issued = pf_issued
        self._psel_val = psel_val
        self._tick_cnt = tick_cnt
        self.sync()
        if record:
            tape.length = count


# -- capture drivers -----------------------------------------------------------


def _fresh_private_level(identity: CaptureIdentity, core_id: int):
    """One core's private caches + prefetcher, exactly as the builder wires them."""
    from repro.cache.cache import SetAssociativeCache
    from repro.cache.prefetch import StridePrefetcher

    l1 = SetAssociativeCache(
        f"l1d-{core_id}", identity.l1_sets, identity.l1_ways, LruPolicy(), num_cores=1
    )
    l2 = SetAssociativeCache(
        f"l2-{core_id}", identity.l2_sets, identity.l2_ways, DrripPolicy(), num_cores=1
    )
    prefetcher = (
        StridePrefetcher(degree=identity.l2_prefetch_degree)
        if identity.l2_stride_prefetch
        else None
    )
    return l1, l2, prefetcher


def advance_source(source, n: int) -> None:
    """State-only advance of *source* past *n* accesses.

    Replicates the kernels' chunked consumption pattern exactly (refills at
    the same boundaries, same commit positions), so the source's generator
    state, chunk count and read position match a simulated run of length
    ``n`` bit-for-bit.
    """
    consumed = 0
    while consumed < n:
        _addrs, _pcs, _writes, pos = source.next_chunk()
        length = len(_addrs)
        take = length - pos
        if take > n - consumed:
            take = n - consumed
        source.commit(pos + take)
        consumed += take


def capture_workload(identity: CaptureIdentity, slack: float = REPLAY_SLACK) -> CaptureBundle:
    """Capture the private-level streams of one :class:`CaptureIdentity`.

    Builds fresh sources and private levels (independent of any engine),
    simulates each core ``(quota + warmup) * (1 + slack)`` accesses, and
    returns the bundle the replay kernel consumes.  Sources go through
    :func:`repro.trace.benchmarks.make_source`, like every other run.
    """
    warmup = identity.warmup
    finish = identity.quota + warmup
    n_cap = finish + int(round(slack * finish))
    interval = _checkpoint_interval(n_cap)
    meta = {"format": CAPTURE_FORMAT, **identity.to_meta(), "slack": slack, "length": n_cap}
    geometry = identity.geometry()

    tapes: list[CoreTape] = []
    for core_id, name in enumerate(identity.benchmarks):
        source = make_source(name, geometry, core_id, identity.master_seed)
        l1, l2, prefetcher = _fresh_private_level(identity, core_id)
        tape = CoreTape()
        sim = PrivateCoreSim(
            l1, l2, prefetcher, identity.l1_next_line_prefetch, source, tape
        )
        # Checkpoints from quota completion on: every core of a run has
        # reached it when the run ends, so the finaliser never restores an
        # earlier one.
        boundaries = {finish, n_cap}
        boundaries.update(range(interval * (finish // interval + 1), n_cap, interval))
        if warmup > 0:
            boundaries.add(warmup)
        done = 0
        for boundary in sorted(boundaries):
            sim.run(boundary - done)
            done = boundary
            if boundary == warmup and warmup > 0:
                tape.baseline = {
                    "l1_demand_misses": l1.stats.demand_misses[0],
                    "l2_demand_misses": l2.stats.demand_misses[0],
                    "instructions": sim.instr,
                }
                tape.ev_step.append(boundary - 1)
                tape.ev_kind.append(EV_BASELINE)
                tape.ev_addr.append(0)
                tape.ev_pc.append(0)
            if boundary == finish:
                tape.finish = {
                    "l1_demand_misses": l1.stats.demand_misses[0],
                    "l2_demand_misses": l2.stats.demand_misses[0],
                    "instructions": sim.instr,
                }
                tape.ev_step.append(boundary - 1)
                tape.ev_kind.append(EV_SNAPSHOT)
                tape.ev_addr.append(0)
                tape.ev_pc.append(0)
            if boundary >= finish:
                tape.add_checkpoint(sim.snapshot_state())
        if n_cap == finish:
            # Without slack, every co-runner that outlives its own quota
            # continues the stream: keep the simulator on the tape for that,
            # rather than rebuild it from the tape-end checkpoint.
            sim.release_chunk()
            tape.live_sim = sim
        tapes.append(tape)

    return CaptureBundle(meta, tapes)


def extend_tape(bundle: CaptureBundle, core_id: int, n: int) -> None:
    """Live continuation: append *n* more captured accesses to one tape.

    Used by the replay kernel when a run outlives the captured stream
    (heavy completion-time skew between co-runners).  The continuation
    runs on the tape's continuation simulator: the capture's own on a
    slack-free capture, else scratch private levels resumed from the
    tape-end checkpoint — the engine's own objects stay untouched for the
    final reconstruction — and appends a checkpoint every interval so the
    finaliser can pick up near the new end.
    """
    tape = bundle.tapes[core_id]
    sim = tape.live_sim
    if sim is None:
        identity = CaptureIdentity.from_meta(bundle.meta)
        l1, l2, prefetcher = _fresh_private_level(identity, core_id)
        source = make_source(
            identity.benchmarks[core_id],
            identity.geometry(),
            core_id,
            identity.master_seed,
        )
        sim = PrivateCoreSim(
            l1, l2, prefetcher, identity.l1_next_line_prefetch, source, tape
        )
        sim.restore_state(tape.checkpoint(-1))
        advance_source(source, tape.checkpoint_index[-1])
        tape.live_sim = sim
    sim.run(n)
    # Keep the capture pass's checkpoint density: further extension resumes
    # from the persistent live_sim, and the replay finaliser only needs a
    # checkpoint within one interval of the final cut — appending one per
    # extension step would bloat long overruns for no benefit.
    interval = _checkpoint_interval(bundle.meta["length"])
    if sim.count - tape.checkpoint_index[-1] >= interval:
        tape.add_checkpoint(sim.snapshot_state())
