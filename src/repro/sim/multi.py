"""Multi-programmed workload runs — the paper's primary experiment shape.

``run_workload`` executes one Table 6 workload on the shared platform
under a given LLC policy and returns the per-application snapshots the
throughput metrics consume.  The forced-BRRIP variant of Figure 1 is
expressed by passing a pre-built policy instance.
"""

from __future__ import annotations

from repro.cpu import replay
from repro.cpu.engine import MulticoreEngine
from repro.policies.spec import policy_key
from repro.sim.build import PolicyLike, build_hierarchy, build_sources
from repro.sim.config import SystemConfig
from repro.sim.results import WorkloadResult
from repro.trace.workloads import Workload


def kernel_selection() -> str:
    """The kernel a replay-eligible swept run resolves to, by precedence.

    The kill-switch family resolves deterministically (machine-checked in
    ``tests/sim/test_kernel_selection.py``):

    1. ``REPRO_NO_FASTPATH`` → ``"generic"`` (reference loop, everywhere);
    2. else ``REPRO_NO_REPLAY`` → ``"fast"`` (fused kernel, no replay);
    3. else → ``"replay"`` (LLC-filtered replay kernel).

    These two switches are the whole family.  Runs without a registered
    capture bundle (or failing replay eligibility) degrade along the same
    order: ``replay`` → ``fast`` → ``generic``.
    """
    from repro.cpu.fastpath import fastpath_enabled

    if not fastpath_enabled():
        return "generic"
    if not replay.replay_enabled():
        return "fast"
    return "replay"


def run_workload(
    workload: Workload,
    config: SystemConfig,
    policy: PolicyLike,
    *,
    quota: int = 30_000,
    warmup: int = 5_000,
    master_seed: int = 0,
) -> WorkloadResult:
    """Run *workload* under *policy*; every core measured over *quota* accesses.

    When the parallel runner has registered a replay-capture artifact for
    this run's identity (a policy sweep over one platform), the engine is
    driven through the LLC-filtered replay kernel instead of re-simulating
    the private levels — results are bit-identical; only the returned
    snapshots and the LLC-side state are materialised (the discarded
    private-cache end state is not reconstructed).
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
    snapshots = None
    if replay.replay_enabled():
        from repro.runner.replaystore import active_replay_bundle

        bundle = active_replay_bundle(
            workload.benchmarks, config, quota, warmup, master_seed
        )
        if bundle is not None:
            snapshots = replay.run_replay(engine, bundle, finalize=False)
    if snapshots is None:
        snapshots = engine.run()
    return WorkloadResult(
        workload_name=workload.name,
        benchmarks=workload.benchmarks,
        config_name=config.name,
        policy=policy.name if hasattr(policy, "describe") else policy_key(policy),
        snapshots=snapshots,
        intervals=engine.intervals_completed,
        policy_state=hierarchy.llc.policy.describe(),
    )
