"""Replay vs the generic loop on a platform that stresses the timing models.

The golden platform never fills the LLC's MSHR file or a write-back
buffer, never throttles a core at the arbiter and, on most fixtures,
completes no monitoring interval.  This suite shrinks all of those on the
golden platform — 4-set direct-mapped private levels, 4 MSHRs, one-entry
write-back buffers, a zero-window arbiter, 100-miss intervals — with both
prefetchers on, so every branch of the replay kernel's LLC-and-below path
runs, and pins each policy's run to the generic reference loop: snapshots,
LLC state, policy state, every timing-model counter and, after
finalisation, the private levels.

The reach check keeps the platform honest: summed over the policies,
every rare counter must be non-zero, so a change to the workload or the
platform cannot silently stop exercising those paths.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.cpu.capture import capture_workload, job_identity
from repro.cpu.engine import MulticoreEngine
from repro.cpu.replay import run_replay
from repro.golden import golden_config
from repro.mem.arbiter import VpcArbiter
from repro.sim.build import build_hierarchy, build_sources
from repro.sim.config import CacheLevelConfig
from repro.trace.workloads import Workload
from tests.policies.test_fastops_property import _policy_state
from tests.policies.test_replay_property import REPLAY_POLICIES

BENCHMARKS = ("lbm", "milc")
SEED = 1
QUOTA = 1500
WARMUP = 200

CONFIG = replace(
    golden_config(),
    l1=CacheLevelConfig(4, 1, 3.0),
    l2=CacheLevelConfig(4, 1, 14.0),
    llc_mshr_entries=4,
    l2_wb_entries=1,
    l2_wb_retire_at=1,
    llc_wb_entries=1,
    llc_wb_retire_at=1,
    interval_misses=100,
    l1_next_line_prefetch=True,
    l2_stride_prefetch=True,
)


def _engine(policy):
    hierarchy = build_hierarchy(CONFIG, policy)
    # The throttle window is not a platform field: a zero window makes
    # every request issued ahead of the core's virtual clock wait.
    hierarchy.arbiter = VpcArbiter(CONFIG.num_cores, window=0.0)
    sources = build_sources(Workload("stress", BENCHMARKS), CONFIG, SEED)
    return MulticoreEngine(
        hierarchy,
        sources,
        quota_per_core=QUOTA,
        interval_misses=CONFIG.effective_interval,
        warmup_accesses=WARMUP,
    )


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, default=int).encode()).hexdigest()


def _observe(engine, snapshots) -> dict:
    h = engine.hierarchy
    llc = h.llc
    return {
        "snapshots": [s.to_dict() for s in snapshots],
        "llc_stats": llc.stats.snapshot(),
        "llc_residency": (llc.addrs, llc.dirty, llc.owner, llc.reused, list(llc.occupancy)),
        "policy": _policy_state(llc.policy),
        "intervals_completed": engine.intervals_completed,
        "now": engine.now,
        "mshr": (h.llc_mshr.merged, h.llc_mshr.stalls),
        "l2_wb": [(b.stalls, b.admitted) for b in h.l2_wb_buffers],
        "llc_wb": (h.llc_wb_buffer.stalls, h.llc_wb_buffer.admitted),
        "arbiter": (h.arbiter.requests, h.arbiter.throttled),
        "banks": (h.llc_banks.accesses, h.llc_banks.conflicts),
        "dram": (h.dram.reads, h.dram.writes, h.dram.row_hits, h.dram.row_conflicts),
        # Private state as finalisation leaves it.
        "private": {
            "l1_stats": [c.stats.snapshot() for c in h.l1s],
            "l2_stats": [c.stats.snapshot() for c in h.l2s],
            "l1_content": _digest([[c.addrs, c.dirty] for c in h.l1s]),
            "l2_content": _digest([[c.addrs, c.dirty] for c in h.l2s]),
            "prefetchers": [(p.trained, p.issued) for p in h.l2_prefetchers],
            "prefetches_issued": h.prefetches_issued,
            "cores": [(c.accesses, c.instructions) for c in engine.cores],
            "sources": [
                (s._pos, s.chunks_generated, _digest(s._rng.bit_generator.state))
                for s in engine.sources
            ],
        },
    }


@pytest.fixture(scope="module")
def observations():
    """``{policy: (generic, replay)}`` observations of every case."""
    identity = job_identity(BENCHMARKS, CONFIG, QUOTA, WARMUP, SEED)
    out = {}
    for policy in REPLAY_POLICIES:
        reference = _engine(policy)
        generic = _observe(reference, reference._run_generic())
        engine = _engine(policy)
        snapshots = run_replay(engine, capture_workload(identity), finalize=True)
        assert snapshots is not None, "the stressed platform must be replay eligible"
        out[policy] = (generic, _observe(engine, snapshots))
    return out


@pytest.mark.parametrize("policy", REPLAY_POLICIES)
def test_replay_matches_generic_on_a_stressed_platform(observations, policy):
    generic, replayed = observations[policy]
    for field in generic:
        assert replayed[field] == generic[field], field


def test_every_rare_path_is_reached(observations):
    generic = [g for g, _ in observations.values()]
    reached = {
        "mshr_merges": sum(g["mshr"][0] for g in generic),
        "mshr_stalls": sum(g["mshr"][1] for g in generic),
        "l2_wb_stalls": sum(s for g in generic for s, _ in g["l2_wb"]),
        "llc_wb_stalls": sum(g["llc_wb"][0] for g in generic),
        "arbiter_throttles": sum(g["arbiter"][1] for g in generic),
        "interval_ticks": sum(g["intervals_completed"] for g in generic),
    }
    assert all(reached.values()), reached
