"""Property-based equivalence: LLC-filtered replay vs the generic loop.

Hypothesis draws random run parameters — workload mix, master seed,
budgets, prefetch shape, continuation route — and the same platform is
executed once on the generic reference loop and once as capture + replay.  The
*internal LLC policy state* must match element for element (SHCT
counters, signature/outcome arrays, Bloom-filter bits, Footprint sampler
arrays, PSEL values, epsilon-ticker phases, RRPV/stamp rows), along with
the per-core snapshots and the full LLC stats block.

This is a sharper check than the golden differential alone: random
budgets move the warm-up boundary, the completion skew and the interval
clock across event-group shapes the committed fixtures never pin.  Every
capture stops at quota completion, so each run's co-runner continues its
stream live: on the capture's own simulator when the bundle is replayed
in memory, or on one rebuilt from the tape-end checkpoint when it is
saved and loaded first, the route a policy sweep takes.  A second
property pins replay against the generic reference loop, per-set LLC
residency (addresses, dirty bits, owners, reuse bits, occupancy)
included.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.capture import capture_workload, job_identity
from repro.cpu.engine import MulticoreEngine
from repro.cpu.replay import run_replay
from repro.golden import golden_config
from repro.sim.build import build_hierarchy, build_sources
from repro.trace.workloads import Workload
from tests.cpu.test_capture import ROUTES, routed
from tests.policies.test_fastops_property import _policy_state

#: Every inline family plus a wrapper composition (pure ``_CALL`` dispatch).
REPLAY_POLICIES = ("lru", "dip", "tadrrip", "ship", "eaf", "adapt_bp32", "tadrrip+bp")

BENCH_POOL = ("mcf", "libq", "gcc", "calc", "astar")


def _config(prefetch):
    config = golden_config()
    if prefetch:
        config = replace(config, l1_next_line_prefetch=True, l2_stride_prefetch=True)
    return config


def _engine(policy_name, benchmarks, seed, quota, warmup, prefetch):
    config = _config(prefetch)
    hierarchy = build_hierarchy(config, policy_name)
    sources = build_sources(Workload("prop", benchmarks), config, seed)
    return MulticoreEngine(
        hierarchy,
        sources,
        quota_per_core=quota,
        interval_misses=config.effective_interval,
        warmup_accesses=warmup,
    )


def _observe(engine, snapshots):
    return (
        [s.to_dict() for s in snapshots],
        engine.hierarchy.llc.stats.snapshot(),
        _policy_state(engine.hierarchy.llc.policy),
        engine.intervals_completed,
        engine.now,
    )


@pytest.mark.parametrize("policy_name", REPLAY_POLICIES)
@settings(max_examples=6, deadline=None)
@given(
    bench_a=st.sampled_from(BENCH_POOL),
    bench_b=st.sampled_from(BENCH_POOL),
    seed=st.integers(min_value=0, max_value=2**16),
    quota=st.integers(min_value=150, max_value=600),
    warmup=st.integers(min_value=0, max_value=200),
    prefetch=st.booleans(),
    route=st.sampled_from(ROUTES),
)
def test_replay_matches_generic_policy_state(
    policy_name, bench_a, bench_b, seed, quota, warmup, prefetch, route
):
    benchmarks = (bench_a, bench_b)
    reference = _engine(policy_name, benchmarks, seed, quota, warmup, prefetch)
    expected = _observe(reference, reference._run_generic())

    bundle = routed(
        capture_workload(job_identity(benchmarks, _config(prefetch), quota, warmup, seed)),
        route,
    )
    engine = _engine(policy_name, benchmarks, seed, quota, warmup, prefetch)
    replayed = run_replay(engine, bundle)
    assert replayed is not None, "platform must be replay eligible"
    assert _observe(engine, replayed) == expected


def _observe_residency(engine, snapshots):
    llc = engine.hierarchy.llc
    return _observe(engine, snapshots) + (
        llc.addrs,
        llc.dirty,
        llc.owner,
        llc.reused,
        list(llc.occupancy),
    )


@pytest.mark.parametrize("policy_name", REPLAY_POLICIES)
@settings(max_examples=4, deadline=None)
@given(
    bench_a=st.sampled_from(BENCH_POOL),
    bench_b=st.sampled_from(BENCH_POOL),
    seed=st.integers(min_value=0, max_value=2**16),
    quota=st.integers(min_value=150, max_value=600),
    warmup=st.integers(min_value=0, max_value=200),
    prefetch=st.booleans(),
    route=st.sampled_from(ROUTES),
)
def test_replay_matches_generic_residency(
    policy_name, bench_a, bench_b, seed, quota, warmup, prefetch, route
):
    benchmarks = (bench_a, bench_b)
    reference = _engine(policy_name, benchmarks, seed, quota, warmup, prefetch)
    expected = _observe_residency(reference, reference._run_generic())

    bundle = routed(
        capture_workload(job_identity(benchmarks, _config(prefetch), quota, warmup, seed)),
        route,
    )
    engine = _engine(policy_name, benchmarks, seed, quota, warmup, prefetch)
    replayed = run_replay(engine, bundle)
    assert replayed is not None, "platform must be replay eligible"
    assert _observe_residency(engine, replayed) == expected
