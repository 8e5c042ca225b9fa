"""Construct a full simulated platform from a :class:`SystemConfig`.

The factory wires the substrate together the way Table 3 describes it:
per-core L1D (LRU, optional next-line prefetch), per-core unified L2
(DRRIP), a shared banked LLC running the policy under study, the VPC
arbiter, MSHRs, write-back buffers and the row-hit/row-conflict DRAM.
"""

from __future__ import annotations

from repro.cache.banks import BankedLatencyModel
from repro.cache.cache import SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.mshr import Mshr
from repro.cache.prefetch import StridePrefetcher
from repro.cache.writeback import WriteBackBuffer
from repro.mem.arbiter import VpcArbiter
from repro.mem.dram import DramModel
from repro.policies.base import ReplacementPolicy
from repro.policies.drrip import DrripPolicy
from repro.policies.lru import LruPolicy
from repro.policies.registry import make_policy
from repro.policies.spec import PolicySpec
from repro.sim.config import SystemConfig
from repro.trace.benchmarks import Geometry, TraceSource, make_source
from repro.trace.workloads import Workload

#: Anything the builders accept as an LLC policy designation.
PolicyLike = str | PolicySpec | ReplacementPolicy


def resolve_policy(policy: PolicyLike, config: SystemConfig) -> ReplacementPolicy:
    """Turn a policy designation into an instance, wiring config-driven knobs.

    Accepts a registry name, a serialisable :class:`PolicySpec` (name +
    constructor arguments), or a pre-built instance.  ADAPT's monitoring
    parameters (sampled sets, array entries, partial tag width) come from
    the system configuration so experiments vary them in one place.
    """
    if isinstance(policy, ReplacementPolicy):
        return policy
    if isinstance(policy, PolicySpec):
        return policy.build(config)
    base = policy.partition("+")[0]
    if base.startswith("adapt"):
        return make_policy(
            policy,
            num_monitor_sets=config.monitor_sets,
            monitor_entries=config.monitor_entries,
            partial_tag_bits=config.partial_tag_bits,
        )
    return make_policy(policy)


def build_hierarchy(config: SystemConfig, llc_policy: PolicyLike) -> CacheHierarchy:
    """Build the Table 3 platform with *llc_policy* at the shared LLC."""
    n = config.num_cores
    l1s = [
        SetAssociativeCache(
            f"l1d-{i}", config.l1.num_sets, config.l1.ways, LruPolicy(), num_cores=1
        )
        for i in range(n)
    ]
    l2s = [
        SetAssociativeCache(
            f"l2-{i}", config.l2.num_sets, config.l2.ways, DrripPolicy(), num_cores=1
        )
        for i in range(n)
    ]
    llc = SetAssociativeCache(
        "llc",
        config.llc.num_sets,
        config.llc.ways,
        resolve_policy(llc_policy, config),
        num_cores=n,
    )
    return CacheHierarchy(
        l1s,
        l2s,
        llc,
        llc_banks=BankedLatencyModel(
            config.llc_banks, config.llc.latency, config.llc_bank_occupancy
        ),
        dram=DramModel(
            num_banks=config.dram_banks,
            row_hit_cycles=config.dram_row_hit,
            row_conflict_cycles=config.dram_row_conflict,
            row_bytes=config.dram_row_bytes,
            block_bytes=config.block_size,
        ),
        arbiter=VpcArbiter(n),
        l1_latency=config.l1.latency,
        l2_latency=config.l2.latency,
        llc_mshr=Mshr(config.llc_mshr_entries),
        l2_wb_buffers=[
            WriteBackBuffer(config.l2_wb_entries, config.l2_wb_retire_at, 4.0)
            for _ in range(n)
        ],
        llc_wb_buffer=WriteBackBuffer(
            config.llc_wb_entries, config.llc_wb_retire_at, 8.0
        ),
        l1_next_line_prefetch=config.l1_next_line_prefetch,
        l2_prefetchers=(
            [
                StridePrefetcher(degree=config.l2_prefetch_degree)
                for _ in range(n)
            ]
            if config.l2_stride_prefetch
            else None
        ),
    )


def geometry_of(config: SystemConfig) -> Geometry:
    """The calibration geometry trace generators need."""
    return Geometry(
        llc_num_sets=config.llc.num_sets,
        l2_blocks=config.l2.num_blocks,
        l1_blocks=config.l1.num_blocks,
    )


def build_sources(
    workload: Workload, config: SystemConfig, master_seed: int = 0, targets=()
) -> list[TraceSource]:
    """One calibrated trace source per core of *workload*.

    Construction goes through :func:`repro.trace.benchmarks.make_source`,
    so ingested ``tgt:`` targets and synthetic generators mix freely.  A
    ``tgt:`` name with a spec in *targets* (a job's bound
    :class:`~repro.targets.registry.TargetSpec` objects) is built from that
    spec; any other resolves through the active registry.
    """
    geometry = geometry_of(config)
    bound = {spec.name: spec for spec in targets}
    return [
        make_source(bound.get(name, name), geometry, core_id, master_seed)
        for core_id, name in enumerate(workload.benchmarks)
    ]
