"""Golden-master harness: pin the simulation kernel's exact behaviour.

The capture + replay kernel (:mod:`repro.cpu.capture`,
:mod:`repro.cpu.replay`, entered through :func:`repro.cpu.fastpath.run_fast`)
splits the per-access hot path for speed; its contract is that simulated
behaviour is **bit-for-bit identical** to the generic reference loop.  This module
machine-checks that contract two ways:

* **Committed fixtures** — :func:`run_case` executes one small,
  deterministic run for every registered policy on representative
  workloads and captures an exhaustive observation record: per-core
  snapshots (IPC/MPKI inputs as exact floats), every cache's full stats
  block, cache-content digests, timing-model counters (DRAM row state,
  bank conflicts, arbiter throttling, MSHR merges, write-back buffers),
  interval counts, the policy's self-description, and each trace source's
  RNG state digest plus chunk count (so a change in *when* randomness is
  drawn is caught, not just in what it produced).  ``tests/golden``
  asserts today's kernel reproduces the committed records exactly.
* **Differential runs** — the same case executed on both kernels
  (``force_generic=True`` vs capture + replay) must produce equal records.

Regenerate fixtures after an *intentional* behaviour change with::

    repro-experiments golden --regen

and review the fixture diff like any other code change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from repro.cpu import fastpath
from repro.cpu.engine import MulticoreEngine
from repro.policies.registry import available_policies
from repro.sim.build import build_hierarchy, build_sources
from repro.sim.config import CacheLevelConfig, SystemConfig
from repro.trace.workloads import Workload

#: Bumped when the fixture record format itself changes (not when simulated
#: behaviour changes — that is exactly what regeneration must make visible).
FIXTURE_FORMAT = 2

#: Every registered base policy, plus the bypass-wrapper composition the
#: Figure 6 study uses, so the wrapper's delegation is pinned too.
GOLDEN_POLICIES: tuple[str, ...] = tuple(available_policies()) + (
    "tadrrip+bp",
    "ship+bp",
)

#: Two-core mixes chosen to exercise complementary paths: a thrashing app
#: against a medium one (evictions, bypasses, dirty write-backs) and a
#: cache-friendly pair (hits, promotions, little DRAM traffic).
GOLDEN_WORKLOADS: dict[str, tuple[str, ...]] = {
    "thrash-mix": ("mcf", "libq"),
    "friendly-mix": ("gcc", "calc"),
}

#: Platform variants: the plain Table 3 shape, and the prefetch-everything
#: shape (L1 next-line plus per-core L2 stride prefetchers) that pins the
#: kernel's non-demand fetch path.
GOLDEN_PLATFORMS: dict[str, dict] = {
    "base": {},
    "prefetch": {"l1_next_line_prefetch": True, "l2_stride_prefetch": True},
}

#: Policies pinned on the prefetch platform: one per inline family (stack,
#: duelled RRIP, SHiP training, EAF filter, ADAPT monitor + bypass) — the
#: non-demand path is policy-independent beyond the hook dispatch, so this
#: subset covers every dispatch mode without doubling the whole suite.
PREFETCH_POLICIES: tuple[str, ...] = (
    "lru",
    "tadrrip",
    "ship",
    "eaf",
    "adapt_bp32",
)

#: Small budgets keep the full suite (16 policies x 2 workloads) in seconds.
QUOTA = 1_200
WARMUP = 300
MASTER_SEED = 0


def golden_config() -> SystemConfig:
    """The miniature two-core platform every golden case runs on."""
    return SystemConfig(
        name="golden-2core",
        num_cores=2,
        l1=CacheLevelConfig(num_sets=8, ways=4, latency=3.0),
        l2=CacheLevelConfig(num_sets=8, ways=8, latency=14.0),
        llc=CacheLevelConfig(num_sets=64, ways=16, latency=24.0),
        monitor_sets=16,
        interval_misses=1_500,
    )


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=int)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def case_name(policy: str, workload: str, platform: str = "base") -> str:
    suffix = "" if platform == "base" else "__pf"
    return f"{policy.replace('+', '_')}__{workload}{suffix}"


def iter_cases():
    """All ``(policy, workload_name, benchmarks, platform)`` golden cases."""
    for policy in GOLDEN_POLICIES:
        for workload, benchmarks in GOLDEN_WORKLOADS.items():
            yield policy, workload, benchmarks, "base"
    for policy in PREFETCH_POLICIES:
        for workload, benchmarks in GOLDEN_WORKLOADS.items():
            yield policy, workload, benchmarks, "prefetch"


def run_case(
    policy: str,
    benchmarks: tuple[str, ...],
    *,
    platform: str = "base",
    force_generic: bool = False,
    kernel: str | None = None,
    config: SystemConfig | None = None,
) -> dict:
    """Execute one golden case and return its exhaustive observation record.

    ``kernel`` selects the engine under test: ``"fast"`` (default, the
    engine's fast entry point: it captures its own workload in memory and
    replays it), ``"generic"`` (the reference loop; ``force_generic`` is
    the legacy spelling) or ``"replay"`` (capture the configured
    workload with an independent source set, then run the LLC-filtered
    replay kernel on it).  Every value is
    JSON-safe and round-trips exactly (floats serialise via
    ``repr`` and compare bit-for-bit after a load).
    """
    if kernel is None:
        kernel = "generic" if force_generic else "fast"
    if config is None:
        config = golden_config()
    # The platform overrides compose with an explicitly-passed config, so
    # run_case(..., platform="prefetch", config=...) cannot silently pin
    # the wrong platform.
    config = replace(config, **GOLDEN_PLATFORMS[platform])
    hierarchy = build_hierarchy(config, policy)
    sources = build_sources(Workload("golden", benchmarks), config, MASTER_SEED)
    engine = MulticoreEngine(
        hierarchy,
        sources,
        quota_per_core=QUOTA,
        interval_misses=config.effective_interval,
        warmup_accesses=WARMUP,
    )
    if kernel == "generic":
        snapshots = engine._run_generic()
    elif kernel == "replay":
        # Capture the private-level streams with an independent source set,
        # then drive the engine through the LLC-filtered replay kernel.
        from repro.cpu.capture import capture_workload, job_identity
        from repro.cpu.replay import run_replay

        bundle = capture_workload(
            job_identity(tuple(benchmarks), config, QUOTA, WARMUP, MASTER_SEED)
        )
        snapshots = run_replay(engine, bundle)
        if snapshots is None:
            raise RuntimeError("golden platform must be replay eligible")
    else:
        # Drive the fast kernel directly — bypassing the REPRO_NO_FASTPATH
        # kill switch — so the "fast" record always exercises the fast path
        # (otherwise the differential would compare generic to generic).
        snapshots = fastpath.run_fast(engine)
        if snapshots is None:
            raise RuntimeError("golden platform must be fast-path eligible")

    llc = hierarchy.llc
    dram = hierarchy.dram
    banks = hierarchy.llc_banks
    mshr = hierarchy.llc_mshr
    record = {
        "format": FIXTURE_FORMAT,
        "policy": policy,
        "platform": platform,
        "benchmarks": list(benchmarks),
        "config": config.name,
        "prefetches_issued": hierarchy.prefetches_issued,
        "l2_prefetchers": (
            [[p.trained, p.issued] for p in hierarchy.l2_prefetchers]
            if hierarchy.l2_prefetchers is not None
            else None
        ),
        "quota": QUOTA,
        "warmup": WARMUP,
        "master_seed": MASTER_SEED,
        "snapshots": [s.to_dict() for s in snapshots],
        "ipc": [s.ipc for s in snapshots],
        "llc_mpki": [s.llc_mpki for s in snapshots],
        "llc_stats": llc.stats.snapshot(),
        "l2_stats": [c.stats.snapshot() for c in hierarchy.l2s],
        "l1_stats": [c.stats.snapshot() for c in hierarchy.l1s],
        "llc_occupancy": list(llc.occupancy),
        "llc_content_digest": _digest(
            [llc.addrs, llc.dirty, llc.owner, llc.reused]
        ),
        "l2_content_digest": _digest(
            [[c.addrs, c.dirty] for c in hierarchy.l2s]
        ),
        "l1_content_digest": _digest(
            [[c.addrs, c.dirty] for c in hierarchy.l1s]
        ),
        "intervals_completed": engine.intervals_completed,
        "engine_now": engine.now,
        "policy_describe": llc.policy.describe(),
        "dram": {
            "reads": dram.reads,
            "writes": dram.writes,
            "row_hits": dram.row_hits,
            "row_conflicts": dram.row_conflicts,
        },
        "banks": {"accesses": banks.accesses, "conflicts": banks.conflicts},
        "arbiter": {
            "requests": hierarchy.arbiter.requests,
            "throttled": hierarchy.arbiter.throttled,
        },
        "mshr": {"merged": mshr.merged, "stalls": mshr.stalls},
        "wb_buffers": {
            "llc": [
                hierarchy.llc_wb_buffer.stalls,
                hierarchy.llc_wb_buffer.admitted,
            ],
            "l2": [[b.stalls, b.admitted] for b in hierarchy.l2_wb_buffers],
        },
        # RNG accounting: the generator state digests pin *what* was drawn
        # AND how much; chunk counts pin when the draws happened.
        "rng_state_digests": [
            _digest(src._rng.bit_generator.state) for src in sources
        ],
        "chunks_generated": [src.chunks_generated for src in sources],
        "trace_positions": [src._pos for src in sources],
    }
    return record


# -- fixture management --------------------------------------------------------


def default_fixture_dir() -> Path:
    """``tests/golden/fixtures`` relative to the repository root (cwd-based
    when the package is installed without the repo checkout)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "tests" / "golden" / "fixtures"
        if candidate.is_dir():
            return candidate
    return Path("tests/golden/fixtures")


def fixture_path(
    directory: Path, policy: str, workload: str, platform: str = "base"
) -> Path:
    return Path(directory) / f"{case_name(policy, workload, platform)}.json"


def write_fixtures(directory: Path | str | None = None) -> list[Path]:
    """Run every golden case on the fast kernel and write its fixture."""
    directory = Path(directory) if directory else default_fixture_dir()
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for policy, workload, benchmarks, platform in iter_cases():
        record = run_case(policy, benchmarks, platform=platform)
        path = fixture_path(directory, policy, workload, platform)
        with path.open("w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written


def compare_records(expected: dict, actual: dict) -> list[str]:
    """Human-readable list of mismatching keys (empty when bit-identical)."""
    problems = []
    for key in sorted(set(expected) | set(actual)):
        if expected.get(key) != actual.get(key):
            problems.append(
                f"{key}: expected {expected.get(key)!r}, got {actual.get(key)!r}"
            )
    return problems


def verify_fixtures(directory: Path | str | None = None) -> dict[str, list[str]]:
    """Re-run every case and diff against its committed fixture.

    Returns ``{case_name: [mismatch, ...]}`` — empty dict means everything
    is bit-identical.  Missing fixtures are reported as a mismatch.
    """
    directory = Path(directory) if directory else default_fixture_dir()
    failures: dict[str, list[str]] = {}
    for policy, workload, benchmarks, platform in iter_cases():
        name = case_name(policy, workload, platform)
        path = fixture_path(directory, policy, workload, platform)
        if not path.is_file():
            failures[name] = [f"missing fixture {path}"]
            continue
        with path.open(encoding="utf-8") as fh:
            expected = json.load(fh)
        actual = run_case(policy, benchmarks, platform=platform)
        problems = compare_records(expected, actual)
        if problems:
            failures[name] = problems
    return failures
