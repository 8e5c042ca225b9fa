"""Property-based equivalence: inlined fast-ops vs method-call hooks.

For every policy exposing a native fast-op kind (SHiP, EAF, ADAPT, the
duelling DIP/DRRIP/TA-DRRIP family), hypothesis draws random run
parameters — workload mix, master seed, budgets, prefetch shape — and the
same platform is executed once on capture + replay (fast-ops inlined in
the replay kernel) and once on the generic loop (method-call hooks).  The *internal policy
state* must match element for element: SHCT counters, signature and
outcome arrays, Bloom-filter bits and reset counts, Footprint sampler
arrays, PSEL values, epsilon-ticker phases and RRPV/stamp rows.

This is a sharper check than output equivalence alone: a dispatch-mode
bug that happens not to change IPC in a short run (say, a missed SHCT
decrement) still flips a counter here.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import fastpath
from repro.cpu.engine import MulticoreEngine
from repro.golden import golden_config
from repro.sim.build import build_hierarchy, build_sources
from repro.trace.workloads import Workload

#: Policies whose fast-op kinds PR 3 promoted from ``_CALL`` dispatch.
FASTOP_POLICIES = ("ship", "eaf", "adapt_bp32", "adapt_ins", "tadrrip", "drrip", "dip")

BENCH_POOL = ("mcf", "libq", "gcc", "calc", "astar")


def _policy_state(policy) -> dict:
    """JSON-able snapshot of every piece of replacement/training state."""
    state: dict = {"describe": policy.describe()}
    if hasattr(policy, "rrpv"):
        state["rrpv"] = [list(row) for row in policy.rrpv]
    if hasattr(policy, "_stamp"):
        state["stamp"] = [list(row) for row in policy._stamp]
        state["next_mru"] = list(policy._next_mru)
        state["next_lru"] = list(policy._next_lru)
    if hasattr(policy, "shct"):  # SHiP
        state["shct"] = list(policy.shct)
        state["sigs"] = [list(row) for row in policy._line_sig]
        state["outcomes"] = [list(row) for row in policy._outcome]
        state["predictions"] = (
            policy.distant_predictions,
            policy.intermediate_predictions,
        )
    if getattr(policy, "filter", None) is not None:  # EAF
        fltr = policy.filter
        state["bloom"] = (bytes(fltr._bits).hex(), fltr.inserted, fltr.resets)
        state["predictions"] = (
            policy.present_predictions,
            policy.distant_predictions,
        )
    if hasattr(policy, "samplers") and policy.samplers:  # ADAPT
        state["samplers"] = [
            [
                (list(arr.tags), list(arr.rrpv), arr.unique_count)
                for arr in sampler._arrays
            ]
            + [sampler.samples]
            for sampler in policy.samplers
        ]
        state["buckets"] = [b.name for b in policy.buckets]
        state["footprints"] = list(policy.footprints)
    psel = getattr(policy, "_psel", None)
    if psel is not None:  # duelling families
        psels = psel if isinstance(psel, list) else [psel]
        state["psel"] = [p.value for p in psels]
    tickers = getattr(policy, "_tickers", None)
    ticker = getattr(policy, "_ticker", None)
    if tickers:
        state["tickers"] = [t._count for t in tickers]
    elif ticker is not None:
        state["ticker"] = ticker._count
    return state


def _run(policy_name, benchmarks, seed, quota, warmup, prefetch, force_generic):
    config = golden_config()
    if prefetch:
        config = replace(
            config, l1_next_line_prefetch=True, l2_stride_prefetch=True
        )
    hierarchy = build_hierarchy(config, policy_name)
    sources = build_sources(Workload("prop", benchmarks), config, seed)
    engine = MulticoreEngine(
        hierarchy,
        sources,
        quota_per_core=quota,
        interval_misses=config.effective_interval,
        warmup_accesses=warmup,
    )
    if force_generic:
        snapshots = engine._run_generic()
    else:
        snapshots = fastpath.run_fast(engine)
        assert snapshots is not None, "platform must be fast-path eligible"
    return (
        [s.to_dict() for s in snapshots],
        hierarchy.llc.stats.snapshot(),
        _policy_state(hierarchy.llc.policy),
    )


@pytest.mark.parametrize("policy_name", FASTOP_POLICIES)
@settings(max_examples=8, deadline=None)
@given(
    bench_a=st.sampled_from(BENCH_POOL),
    bench_b=st.sampled_from(BENCH_POOL),
    seed=st.integers(min_value=0, max_value=2**16),
    quota=st.integers(min_value=150, max_value=600),
    prefetch=st.booleans(),
)
def test_inlined_fastops_match_hook_calls(
    policy_name, bench_a, bench_b, seed, quota, prefetch
):
    warmup = quota // 4
    args = (policy_name, (bench_a, bench_b), seed, quota, warmup, prefetch)
    fast_snaps, fast_stats, fast_state = _run(*args, force_generic=False)
    gen_snaps, gen_stats, gen_state = _run(*args, force_generic=True)
    assert fast_snaps == gen_snaps
    assert fast_stats == gen_stats
    assert fast_state == gen_state
