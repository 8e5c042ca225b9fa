"""Multi-programmed workload runs — the paper's primary experiment shape.

``run_workload`` executes one Table 6 workload on the shared platform
under a given LLC policy and returns the per-application snapshots the
throughput metrics consume.  The forced-BRRIP variant of Figure 1 is
expressed by passing a pre-built policy instance.
"""

from __future__ import annotations

from repro.cpu.capture import CaptureBundle
from repro.cpu.engine import MulticoreEngine
from repro.policies.spec import policy_key
from repro.sim.build import PolicyLike, build_hierarchy, build_sources
from repro.sim.config import SystemConfig
from repro.sim.results import WorkloadResult
from repro.trace.workloads import Workload


def run_workload(
    workload: Workload,
    config: SystemConfig,
    policy: PolicyLike,
    *,
    quota: int = 30_000,
    warmup: int = 5_000,
    master_seed: int = 0,
    bundle: CaptureBundle | None = None,
) -> WorkloadResult:
    """Run *workload* under *policy*; every core measured over *quota* accesses.

    *bundle* is the private-level capture the parallel runner hands each
    job of a policy sweep; :meth:`MulticoreEngine.run` replays it when it
    matches the run and otherwise captures the run's own workload (see
    there).  Results are bit-identical on every route.  Only the returned
    snapshots and the LLC-side state are read, so the discarded
    private-cache end state is not reconstructed (``finalize=False``).
    """
    if workload.cores != config.num_cores:
        config = config.with_cores(workload.cores)
    hierarchy = build_hierarchy(config, policy)
    sources = build_sources(workload, config, master_seed)
    engine = MulticoreEngine(
        hierarchy,
        sources,
        quota_per_core=quota,
        interval_misses=config.effective_interval,
        warmup_accesses=warmup,
    )
    snapshots = engine.run(bundle=bundle, finalize=False)
    return WorkloadResult(
        workload_name=workload.name,
        benchmarks=workload.benchmarks,
        config_name=config.name,
        policy=policy.name if hasattr(policy, "describe") else policy_key(policy),
        snapshots=snapshots,
        intervals=engine.intervals_completed,
        policy_state=hierarchy.llc.policy.describe(),
    )
