"""The 38 named synthetic benchmarks standing in for SPEC/PARSEC (Table 4).

The paper characterises each benchmark by two observables: its
**Footprint-number** (unique LLC-set accesses per interval, measured alone
on the 16MB/16-way cache) and its **L2-MPKI** (misses per kilo-instruction
arriving at the LLC).  Table 5 then classifies memory intensity from those
two numbers.  Since ADAPT and all baselines consume *only* the reference
stream, a synthetic generator calibrated to the same (Footprint-number,
L2-MPKI) pair exercises the same policy behaviour — this is the documented
substitution for the unavailable SPEC traces.

Each :class:`BenchmarkSpec` carries the paper's measured values
(``fpn``, ``l2_mpki`` from Table 4, Fpn(A) column), the access-pattern
shape, and core-model parameters.  Working-set sizes are expressed in
units of LLC sets, so the same spec scales to any cache geometry:
``working_set_blocks = fpn_target x llc_num_sets`` puts exactly
``fpn_target`` unique blocks in each set per full sweep.

The generator emits two interleaved streams:

* a **hot stream** (fits in L1) that soaks up the benchmark's low-MPKI
  instruction budget, and
* the **footprint stream** over the working set, whose rate is calibrated
  so the L2 miss traffic lands near the Table 4 MPKI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.patterns import AccessPattern, make_pattern
from repro.util.rng import derive_seed

#: Memory-intensity classes of Table 5.
CLASSES = ("VL", "L", "M", "H", "VH")


@dataclass(frozen=True)
class BenchmarkSpec:
    """Static description of one synthetic benchmark."""

    name: str
    paper_class: str  # Table 4 "Type" column
    fpn: float  # Table 4 Fpn(A): target Footprint-number
    l2_mpki: float  # Table 4 L2-MPKI target
    pattern: str  # one of repro.trace.patterns.PATTERN_KINDS
    mlp: float = 2.0  # memory-level parallelism (latency overlap factor)
    write_fraction: float = 0.3
    base_cpi: float = 1.0  # non-memory CPI of the 4-way OoO core
    #: Fraction of footprint accesses issued from *shared* library PCs
    #: (memcpy/memset-style loops common to all applications).  These PCs
    #: alias in any shared PC-signature table, which is the realistic
    #: mechanism behind SHiP's difficulty separating applications at high
    #: core counts (Section 5.1).  Streaming codes are dominated by such
    #: loops; pointer-heavy codes less so.
    library_pc_fraction: float = 0.6
    #: Fraction of footprint accesses that *echo* a recently touched block
    #: (short-distance reuse that misses the private levels but usually
    #: hits a just-inserted LLC line).  Real thrashing applications are not
    #: single-use streams — astar touches 32 blocks/set yet has only 4.4
    #: MPKI, and the paper notes cactusADM's lines are "reused immediately
    #: after insertion" (why bypassing hurts it, Section 5.2).  Echo reuse
    #: keeps PC-signature outcome counters mixed, reproducing SHiP's
    #: inability to mark thrashing applications distant (Section 5.1).
    echo_fraction: float = 0.0
    #: Echo reuse distance bounds, in own footprint accesses.  Must
    #: exceed the private L1+L2 reach (else the echo never arrives at
    #: the LLC) while staying within typical LLC residence.
    echo_distance: tuple[int, int] = (500, 1500)
    pattern_kwargs: dict = field(default_factory=dict)

    @property
    def thrashing(self) -> bool:
        """Footprint-number >= 16: the paper's Least-priority candidates."""
        return self.fpn >= 16

    def working_set_blocks(self, llc_num_sets: int) -> int:
        return max(4, round(self.fpn * llc_num_sets))


def _spec(name, klass, fpn, mpki, pattern, **kw) -> BenchmarkSpec:
    return BenchmarkSpec(name, klass, fpn, mpki, pattern, **kw)


#: Table 4, in paper order.  Pattern choices follow the paper's own
#: characterisation: Low-priority applications get the mixed
#: ``{a}^k{s}^d`` shape TA-DRRIP attributes to them; memory-intensive
#: small-footprint applications (art, bzip, mcf, ...) are random-in-WS;
#: thrashing applications are streaming sweeps; pointer-heavy codes are
#: shuffled cycles.
BENCHMARKS: dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in [
        # -- Very Low intensity ------------------------------------------------
        _spec("black", "VL", 7.0, 0.67, "random", mlp=2.0, echo_fraction=0.15),
        _spec("calc", "VL", 1.33, 0.05, "random", mlp=1.5),
        _spec("craf", "VL", 2.2, 0.61, "random", mlp=1.5, echo_fraction=0.1),
        _spec("deal", "VL", 2.48, 0.5, "random", mlp=1.5, echo_fraction=0.1),
        _spec("eon", "VL", 1.2, 0.02, "cyclic", mlp=1.5),
        _spec("fmine", "VL", 6.18, 0.34, "random", mlp=2.0),
        _spec("h26", "VL", 2.35, 0.13, "random", mlp=2.0),
        _spec("nam", "VL", 2.02, 0.09, "shuffled", mlp=1.5),
        _spec("sphnx", "VL", 5.2, 0.35, "random", mlp=2.0),
        _spec("tont", "VL", 1.6, 0.75, "random", mlp=1.5, echo_fraction=0.1),
        _spec("swapt", "VL", 1.0, 0.06, "cyclic", mlp=1.5),
        # -- Low intensity --------------------------------------------------------
        _spec("gcc", "L", 3.4, 1.34, "random", mlp=2.0, echo_fraction=0.15),
        _spec("mesa", "L", 8.61, 1.2, "random", mlp=2.0, echo_fraction=0.15),
        _spec("pben", "L", 11.2, 2.34, "mixed", mlp=2.0, echo_fraction=0.1),
        _spec("vort", "L", 8.4, 1.45, "random", mlp=2.0, echo_fraction=0.15),
        _spec("vpr", "L", 13.7, 1.53, "mixed", mlp=1.5, echo_fraction=0.1),
        _spec("fsim", "L", 10.2, 1.5, "mixed", mlp=2.0, echo_fraction=0.1),
        _spec("sclust", "L", 8.7, 1.75, "random", mlp=2.0, echo_fraction=0.1),
        # -- Medium intensity --------------------------------------------------------
        _spec("art", "M", 3.39, 26.67, "random", mlp=2.5, echo_fraction=0.1),
        _spec("bzip", "M", 4.15, 25.25, "random", mlp=2.0, echo_fraction=0.1),
        _spec("gap", "M", 23.12, 1.28, "cyclic", mlp=2.0, library_pc_fraction=0.8, echo_fraction=0.2),
        _spec("gob", "M", 16.8, 1.28, "cyclic", mlp=2.0, library_pc_fraction=0.8, echo_fraction=0.2),
        _spec("hmm", "M", 7.15, 2.75, "random", mlp=2.0, echo_fraction=0.1),
        _spec("lesl", "M", 6.7, 20.92, "random", mlp=2.5, echo_fraction=0.1),
        _spec("mcf", "M", 11.9, 24.9, "mixed", mlp=1.2, echo_fraction=0.1, pattern_kwargs={"k": 14, "d": 10}),
        _spec("omn", "M", 4.8, 6.46, "random", mlp=1.5, echo_fraction=0.1),
        _spec("sopl", "M", 10.6, 6.17, "mixed", mlp=2.0, echo_fraction=0.1),
        _spec("twolf", "M", 1.7, 16.5, "random", mlp=1.2),
        _spec("wup", "M", 24.2, 1.34, "cyclic", mlp=2.0, library_pc_fraction=0.8, echo_fraction=0.2),
        # -- High intensity (thrashing) --------------------------------------------------
        _spec("apsi", "H", 32.0, 10.58, "cyclic", mlp=3.0, library_pc_fraction=0.85, echo_fraction=0.15),
        _spec("astar", "H", 32.0, 4.44, "shuffled", mlp=1.5, library_pc_fraction=0.5, echo_fraction=0.3, echo_distance=(400, 1200)),
        _spec("gzip", "H", 32.0, 8.18, "cyclic", mlp=2.5, library_pc_fraction=0.8, echo_fraction=0.18),
        _spec("libq", "H", 29.7, 15.11, "cyclic", mlp=4.0, library_pc_fraction=0.9, echo_fraction=0.06),
        _spec("milc", "H", 31.42, 22.31, "shuffled", mlp=2.5, library_pc_fraction=0.8, echo_fraction=0.12),
        _spec("wrf", "H", 32.0, 6.6, "cyclic", mlp=2.5, library_pc_fraction=0.85, echo_fraction=0.2),
        # -- Very High intensity (thrashing) -------------------------------------------------
        _spec("cact", "VH", 32.0, 42.11, "mixed", mlp=2.0, echo_fraction=0.35,
              echo_distance=(300, 900), pattern_kwargs={"k": 6, "d": 26}),
        _spec("lbm", "VH", 32.0, 48.46, "cyclic", mlp=4.0, write_fraction=0.45, library_pc_fraction=0.9, echo_fraction=0.04),
        _spec("STRM", "VH", 32.0, 26.18, "cyclic", mlp=4.0, write_fraction=0.5, library_pc_fraction=0.95, echo_fraction=0.02),
    ]
}

#: The eleven applications Figure 1b treats as thrashing.
THRASHING_BENCHMARKS = tuple(
    name for name, spec in BENCHMARKS.items() if spec.thrashing
)


def benchmarks_by_class(klass: str) -> list[str]:
    """Benchmark names in one Table 5 class, in table order."""
    if klass not in CLASSES:
        raise ValueError(f"unknown class {klass!r}; options: {CLASSES}")
    return [name for name, spec in BENCHMARKS.items() if spec.paper_class == klass]


@dataclass(frozen=True)
class Geometry:
    """The cache sizes a generator calibrates against (in blocks)."""

    llc_num_sets: int
    l2_blocks: int
    l1_blocks: int


class TraceSource:
    """A running instance of one benchmark on one core.

    Produces ``(block_addr, pc, is_write)`` triples through chunked NumPy
    generation.  Each core owns a disjoint address-space slice (multi-
    programmed workloads share no data), applied via a high-bit offset.
    """

    CHUNK = 4096
    #: Hot-region size in blocks (fits comfortably in any L1 we model).
    HOT_SPAN = 48
    #: The shared "library text" PCs every application executes.
    LIBRARY_PC_BASE = 0x40_0000

    __slots__ = (
        "spec",
        "geometry",
        "core_id",
        "master_seed",
        "address_offset",
        "_rng",
        "working_set_blocks",
        "pattern",
        "footprint_apki",
        "hot_apki",
        "apki",
        "_private_pc_base",
        "_echo_window",
        "_echo_tail",
        "instructions_per_access",
        "_hot_fraction",
        "_hot_base",
        "_addrs",
        "_pcs",
        "_writes",
        "_pos",
        "chunks_generated",
    )

    def __init__(
        self,
        spec: BenchmarkSpec,
        geometry: Geometry,
        core_id: int,
        master_seed: int = 0,
    ) -> None:
        self.spec = spec
        self.geometry = geometry
        self.core_id = core_id
        self.master_seed = master_seed
        self.address_offset = (core_id + 1) << 36
        seed = derive_seed(master_seed, f"trace/{spec.name}/core{core_id}")
        self._rng = np.random.default_rng(seed)
        ws = spec.working_set_blocks(geometry.llc_num_sets)
        self.working_set_blocks = ws
        self.pattern: AccessPattern = make_pattern(
            spec.pattern, ws, seed=seed ^ 0xA5A5, **spec.pattern_kwargs
        )
        self.footprint_apki, self.hot_apki = self._calibrate(ws)
        self.apki = self.footprint_apki + self.hot_apki
        # Private text segment: distinct per (benchmark, core).
        self._private_pc_base = 0x50_0000 + (
            derive_seed(master_seed, f"pc/{spec.name}/{core_id}") % 0x1000
        ) * 0x40
        self._echo_window = max(spec.echo_distance[1], 1)
        self._echo_tail = np.empty(0, dtype=np.int64)
        self.instructions_per_access = 1000.0 / self.apki
        self._hot_fraction = self.hot_apki / self.apki
        # Hot region sits just above the working set in the address space.
        self._hot_base = ws
        self._addrs: list[int] = []
        self._pcs: list[int] = []
        self._writes: list[bool] = []
        self._pos = 0
        #: Number of CHUNK-sized batches generated so far — together with
        #: the generator state this pins the source's RNG consumption, which
        #: the golden-master harness records to detect any change in *when*
        #: randomness is drawn, not just in what it produced.
        self.chunks_generated = 0

    # -- calibration ------------------------------------------------------------

    def _calibrate(self, ws: int) -> tuple[float, float]:
        """Choose stream rates so L2-MPKI lands near the Table 4 target.

        A footprint access misses the L2 with probability ``p_miss``
        (estimated from the working set vs. L2 capacity), so the footprint
        rate is ``l2_mpki / p_miss`` accesses per kilo-instruction.  The
        hot stream contributes a fixed L1-resident rate so every benchmark
        keeps a realistic share of cache-hitting traffic.
        """
        l2 = self.geometry.l2_blocks
        if ws > 2 * l2:
            p_miss = 0.95
        elif ws > l2:
            p_miss = 0.6
        elif ws > l2 // 2:
            p_miss = 0.25
        else:
            p_miss = 0.05
        footprint_apki = self.spec.l2_mpki / p_miss
        # Bound the total rate: the simulator's cost scales with accesses,
        # and an APKI beyond ~120 adds nothing but runtime.
        footprint_apki = min(max(footprint_apki, 1.0), 110.0)
        hot_apki = max(6.0, 0.25 * footprint_apki)
        return footprint_apki, hot_apki

    # -- chunked generation ---------------------------------------------------------

    def _refill(self) -> None:
        """Generate the next CHUNK of ``(addrs, pcs, writes)`` arrays.

        Advances the generator/pattern/echo state exactly one chunk.
        Buffers stay NumPy end-to-end: chunked consumers (the capture
        pass) pre-decode them with vectorised operations, and
        the one-at-a-time path converts to native scalars per access.
        """
        n = self.CHUNK
        rng = self._rng
        hot_mask = rng.random(n) < self._hot_fraction
        n_hot = int(hot_mask.sum())
        addrs = np.empty(n, dtype=np.int64)
        addrs[hot_mask] = self._hot_base + rng.integers(
            0, self.HOT_SPAN, size=n_hot, dtype=np.int64
        )
        footprint = self.pattern.chunk(n - n_hot, rng)
        footprint = self._apply_echo(footprint, rng)
        addrs[~hot_mask] = footprint
        # PCs.  Two realism properties matter for PC-signature predictors
        # (SHiP): (i) a fraction of every application's accesses issue from
        # *shared library* PCs (memcpy/memset-style loops are identical
        # across applications), and (ii) within an application, PCs are
        # *uncorrelated* with the reuse fate of the line — a loop body's
        # loads touch streaming and resident data alike, so a signature
        # observes the application's aggregate reuse mix rather than a pure
        # stream.  Both are what limits per-line PC prediction at high core
        # counts (the paper measures SHiP predicting distant reuse for only
        # ~3% of misses, Section 5.1).
        pcs = self._private_pc_base + (
            rng.integers(0, 8, size=n, dtype=np.int64) * 4
        )
        lib_mask = rng.random(n) < self.spec.library_pc_fraction
        pcs[lib_mask] = self.LIBRARY_PC_BASE + (
            rng.integers(0, 4, size=int(lib_mask.sum()), dtype=np.int64) * 4
        )
        writes = rng.random(n) < self.spec.write_fraction
        addrs += self.address_offset
        self.chunks_generated += 1
        self._addrs, self._pcs, self._writes = addrs, pcs, writes
        self._pos = 0

    def _apply_echo(self, footprint: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Replace a fraction of footprint accesses with short-range reuse.

        An echoed access re-touches the block the stream emitted ``d``
        accesses earlier (``d`` drawn from the spec's echo-distance range),
        looking back across chunk boundaries through a small history ring.
        """
        spec = self.spec
        if spec.echo_fraction <= 0.0 or len(footprint) == 0:
            self._echo_tail = footprint[-self._echo_window:]
            return footprint
        n = len(footprint)
        combined = np.concatenate([self._echo_tail, footprint])
        offset = len(self._echo_tail)
        mask = rng.random(n) < spec.echo_fraction
        idx = np.nonzero(mask)[0]
        if len(idx):
            lo, hi = spec.echo_distance
            dist = rng.integers(lo, hi + 1, size=len(idx))
            src = np.maximum(idx + offset - dist, 0)
            footprint = footprint.copy()
            footprint[idx] = combined[src]
        self._echo_tail = combined[-self._echo_window:]
        return footprint

    def next_access(self) -> tuple[int, int, bool]:
        """The next ``(block_addr, pc, is_write)`` triple (native scalars)."""
        if self._pos >= len(self._addrs):
            self._refill()
        pos = self._pos
        self._pos = pos + 1
        # Native conversions keep the generic engine loop free of NumPy
        # scalar types (dict keys, signature folding and EAF hashing must
        # use arbitrary-precision Python ints).
        return int(self._addrs[pos]), int(self._pcs[pos]), bool(self._writes[pos])

    # -- batched consumption (capture pass) -----------------------------------

    def next_chunk(self) -> tuple:
        """Current ``(addrs, pcs, writes, position)`` NumPy buffers.

        The capture pass (:mod:`repro.cpu.capture`) pre-decodes these
        arrays once per chunk (vectorised set-index masks, native-type
        conversion) — one Python call per ``CHUNK`` accesses instead of
        one :meth:`next_access` call per access.  Consumers own the read
        position until they hand it back via :meth:`commit`; generation
        order (and therefore RNG draw order) is identical to the
        one-at-a-time path because refills happen at the same boundaries.
        """
        if self._pos >= len(self._addrs):
            self._refill()
        return self._addrs, self._pcs, self._writes, self._pos

    def commit(self, pos: int) -> None:
        """Record that the caller consumed the buffers up to *pos*."""
        self._pos = pos

    def restart(self) -> None:
        """Back to the beginning (the paper re-executes finished apps)."""
        self.pattern.reset()
        self._addrs = []
        self._pos = 0


def make_source(
    spec: BenchmarkSpec | str,
    geometry: Geometry,
    core_id: int,
    master_seed: int = 0,
) -> TraceSource:
    """The trace source for one core: the one place sources are built.

    ``tgt:``-prefixed names (and resolved
    :class:`~repro.targets.registry.TargetSpec` objects) dispatch to the
    ingested-trace frontend, which memory-maps its own buffers; every
    other name gets a plain :class:`TraceSource` over its generator.

    The call goes through :meth:`repro.trace.shared.SharedTraceStore.materialise`,
    the attribute the end-to-end benchmark's tracer wraps to time this layer.
    """
    from repro.trace.shared import SharedTraceStore  # imports this module

    return SharedTraceStore.materialise(spec, geometry, core_id, master_seed)


def _build_source(
    spec: BenchmarkSpec | str, geometry: Geometry, core_id: int, master_seed: int
) -> TraceSource:
    """:func:`make_source`'s dispatch (see there)."""
    if isinstance(spec, str):
        if spec.startswith("tgt:"):
            from repro.targets.registry import make_target_source

            return make_target_source(spec, geometry, core_id, master_seed)
        spec = BENCHMARKS[spec]
    elif getattr(spec, "kind", None) == "target":
        from repro.targets.registry import make_target_source

        return make_target_source(spec, geometry, core_id, master_seed)
    return TraceSource(spec, geometry, core_id, master_seed)
