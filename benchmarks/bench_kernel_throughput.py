"""Accesses/second microbench of the raw engine loop (no runner/store).

Not a paper artifact: this tracks the simulator's own per-access cost, so
kernel regressions (or future wins) are visible in the recorded
``BENCH_*.json`` history across PRs.

Each scenario is driven through ``MulticoreEngine.run`` on both kernels:
the default one — the engine captures its own workload in memory
(:mod:`repro.cpu.capture`) and replays it (:mod:`repro.cpu.replay`), so
the "fast" arm times capture + replay together — and ``force_generic=True``,
the reference loop:

* ``hot_loop`` — a single core running an L1-resident VL-class application
  (``calc``).  Misses are rare, so this isolates the *kernel dispatch*
  cost per access: trace decode, L1 lookup/update, scheduling and
  bookkeeping.  This is the headline kernel-speedup number because the
  shared miss physics (DRAM, banks, MSHRs — identical work in both
  kernels) barely contributes.
* ``single_app`` — one medium-intensity application (``mcf``), the shape
  of every Table 4 / ``IPC_alone`` baseline run.
* ``multicore`` — the first Table 6 four-core mix under the headline
  ``adapt_bp32`` policy, the shape of the figure experiments.
* ``l1_prefetch`` / ``l2_prefetch`` — the ``single_app`` shape with the
  Table 3 next-line prefetcher and the Section 7 L2 stride prefetcher
  respectively.
* ``ship_llc`` — the four-core mix under SHiP, exercising the native
  ``"ship"`` fast-op kind (inline signature/outcome/SHCT training).
* ``llc_sweep`` — an eight-policy sweep over one four-core low-intensity
  mix, the shape ``ParallelRunner`` schedules for an s-curve point.  It
  compares *pipelines*: one shared capture plus eight replays against
  eight generic-loop runs.

Each scenario times the two arms alternately, round by round, so host load
that drifts during the bench weighs on both, and records the best round's
fast and generic accesses/second plus their ratio in ``extra_info``; the ``test_kernel_speedup_recorded`` summary asserts the
bit-identical kernels actually diverge in speed, with conservative
per-scenario gates (:data:`SPEEDUP_GATES`).
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro import settings
from repro.cpu.capture import capture_workload, job_identity
from repro.cpu.engine import MulticoreEngine
from repro.sim.build import build_hierarchy, build_sources
from repro.sim.config import SystemConfig
from repro.trace.workloads import Workload, design_suite

#: Measured accesses per core, scaled like the experiment budgets so
#: ``REPRO_SCALE=0.1`` smoke runs stay fast.
BASE_QUOTA = 40_000

_SPEEDUPS: dict[str, dict[str, float]] = {}


def _scenario(name: str):
    scale = min(settings.current().scale, 1.0)
    quota = max(2_000, round(BASE_QUOTA * scale))
    if name == "hot_loop":
        config = SystemConfig.scaled(16).with_cores(1)
        workload = Workload("hot", ("calc",))
        # The hot loop runs at ~1M accesses/s, so a fixed steady-state
        # budget costs milliseconds even in smoke runs; scaling it down
        # would just re-weight the one-off cold-start fills it is designed
        # to exclude from the dispatch-cost measurement.
        quota = BASE_QUOTA
    elif name == "single_app":
        config = SystemConfig.scaled(16).with_cores(1)
        workload = Workload("alone", ("mcf",))
    elif name == "multicore":
        config = SystemConfig.scaled(4)
        workload = design_suite(4, 1)[0]
        quota = max(1_000, quota // 4)
    elif name == "l1_prefetch":
        config = replace(
            SystemConfig.scaled(16).with_cores(1), l1_next_line_prefetch=True
        )
        workload = Workload("alone", ("mcf",))
    elif name == "l2_prefetch":
        config = replace(
            SystemConfig.scaled(16).with_cores(1), l2_stride_prefetch=True
        )
        workload = Workload("alone", ("mcf",))
    elif name == "ship_llc":
        config = SystemConfig.scaled(4)
        workload = design_suite(4, 1)[0]
        quota = max(1_000, quota // 4)
    else:  # pragma: no cover - defensive
        raise ValueError(name)
    policy = {"multicore": "adapt_bp32", "ship_llc": "ship"}.get(name, "tadrrip")
    return config, workload, policy, quota


def _engine(name: str) -> MulticoreEngine:
    config, workload, policy, quota = _scenario(name)
    hierarchy = build_hierarchy(config, policy)
    sources = build_sources(workload, config)
    return MulticoreEngine(hierarchy, sources, quota_per_core=quota)


def _seconds_per_access(name: str, force_generic: bool) -> float:
    """One timed ``engine.run`` of *name* on the chosen kernel."""
    engine = _engine(name)
    start = time.perf_counter()
    engine.run(force_generic=force_generic)
    elapsed = time.perf_counter() - start
    return elapsed / sum(core.accesses for core in engine.cores)


def _accesses_per_second(name: str, repeats: int = 3) -> tuple[float, float]:
    """Best-of-*repeats* ``(fast, generic)`` rates, the arms alternating."""
    fast, generic = [], []
    for _ in range(repeats):
        fast.append(_seconds_per_access(name, force_generic=False))
        generic.append(_seconds_per_access(name, force_generic=True))
    return 1.0 / min(fast), 1.0 / min(generic)


def _drive(benchmark, name: str) -> dict[str, float]:
    generic = []

    def run_generic_arm():
        # pedantic's untimed per-round setup: the arms alternate round by
        # round, so host load that drifts during the bench weighs on both.
        generic.append(_seconds_per_access(name, force_generic=True))

    def run_fast_arm():
        engine = _engine(name)
        engine.run()
        return sum(core.accesses for core in engine.cores)

    accesses = benchmark.pedantic(
        run_fast_arm, setup=run_generic_arm, rounds=3, iterations=1
    )
    fast = accesses / benchmark.stats.stats.min
    info = {
        "accesses_per_second_fast": fast,
        "accesses_per_second_generic": 1.0 / min(generic),
        "kernel_speedup": fast * min(generic),
        "accesses": accesses,
    }
    benchmark.extra_info.update(info)
    _SPEEDUPS[name] = info
    return info


def test_kernel_hot_loop_throughput(benchmark):
    info = _drive(benchmark, "hot_loop")
    assert info["accesses"] > 0
    assert info["kernel_speedup"] > 1.0


def test_kernel_single_app_throughput(benchmark):
    info = _drive(benchmark, "single_app")
    assert info["kernel_speedup"] > 1.0


def test_kernel_multicore_throughput(benchmark):
    info = _drive(benchmark, "multicore")
    assert info["kernel_speedup"] > 1.0


def test_kernel_l1_prefetch_throughput(benchmark):
    info = _drive(benchmark, "l1_prefetch")
    assert info["kernel_speedup"] > 1.0


def test_kernel_l2_prefetch_throughput(benchmark):
    info = _drive(benchmark, "l2_prefetch")
    assert info["kernel_speedup"] > 1.0


def test_kernel_ship_llc_throughput(benchmark):
    info = _drive(benchmark, "ship_llc")
    assert info["kernel_speedup"] > 1.0


# -- the replay-engine sweep scenario -----------------------------------------

#: The swept policies: every inline family once, at paper duelling sizes.
SWEEP_POLICIES = ("lru", "srrip", "brrip", "drrip", "tadrrip", "ship", "eaf", "dip")

#: A four-core low-intensity mix (VL/L classes): the private levels absorb
#: most traffic, which is the share the capture pass amortises across the
#: sweep.  Thrash-heavy mixes keep the LLC busy in both pipelines and gain
#: correspondingly less — this scenario pins the intended sweep shape.
SWEEP_MIX = ("gcc", "calc", "craf", "deal")


def _sweep_setup():
    # Like ``hot_loop``, the budget is pinned: the scenario measures the
    # steady-state amortisation of one capture across eight replays, and
    # scaling it down would just re-weight the capture's one-off
    # source-construction cost that the sweep shape amortises away.
    quota = BASE_QUOTA // 2
    warmup = quota // 4
    config = SystemConfig.scaled(16).with_cores(len(SWEEP_MIX))
    workload = Workload("llc_sweep", SWEEP_MIX)
    return config, workload, quota, warmup


def _measure_llc_sweep() -> dict[str, float]:
    """Time eight generic-loop runs against one capture plus eight replays."""
    config, workload, quota, warmup = _sweep_setup()

    def engine_for(policy):
        hierarchy = build_hierarchy(config, policy)
        sources = build_sources(workload, config)
        return MulticoreEngine(
            hierarchy, sources, quota_per_core=quota, warmup_accesses=warmup
        )

    start = time.perf_counter()
    accesses = 0
    generic_snapshots = []
    for policy in SWEEP_POLICIES:
        engine = engine_for(policy)
        generic_snapshots.append(engine.run(force_generic=True))
        accesses += sum(core.accesses for core in engine.cores)
    generic_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    bundle = capture_workload(job_identity(workload.benchmarks, config, quota, warmup, 0))
    replay_snapshots = []
    for policy in SWEEP_POLICIES:
        replay_snapshots.append(
            engine_for(policy).run(bundle=bundle, finalize=False)
        )
    replay_elapsed = time.perf_counter() - start
    assert replay_snapshots == generic_snapshots, "replay diverged from generic"

    return {
        "accesses_per_second_fast": accesses / replay_elapsed,
        "accesses_per_second_generic": accesses / generic_elapsed,
        "kernel_speedup": generic_elapsed / replay_elapsed,
        "accesses": accesses,
        "policies": len(SWEEP_POLICIES),
    }


def _measure_llc_sweep_recording() -> dict[str, float]:
    """One sweep measurement, folded into the best-of-rounds summary.

    Like the other scenarios' min-elapsed timing, the gate reads the best
    round — ``benchmark.pedantic`` only returns the final one.
    """
    info = _measure_llc_sweep()
    best = _SPEEDUPS.get("llc_sweep")
    if best is None or info["kernel_speedup"] > best["kernel_speedup"]:
        _SPEEDUPS["llc_sweep"] = info
    return info


def test_kernel_llc_sweep_throughput(benchmark):
    """Capture + N-policy replay vs N generic runs (the ParallelRunner shape)."""
    benchmark.pedantic(_measure_llc_sweep_recording, rounds=3, iterations=1)
    info = _SPEEDUPS["llc_sweep"]
    benchmark.extra_info.update(info)
    assert info["kernel_speedup"] > 1.0


def _ensure_scenario(name: str) -> None:
    """Measure *name* directly if its benchmark test was deselected.

    Keeps the summary test self-contained under arbitrary selection or
    ordering (``-k``, ``pytest-xdist``) at the cost of re-timing without
    pytest-benchmark statistics.
    """
    if name in _SPEEDUPS:
        return
    if name == "llc_sweep":
        _SPEEDUPS[name] = _measure_llc_sweep()
        return
    fast, generic = _accesses_per_second(name)
    _SPEEDUPS[name] = {
        "accesses_per_second_fast": fast,
        "accesses_per_second_generic": generic,
        "kernel_speedup": fast / generic,
    }


#: Conservative per-scenario CI gates against the generic loop: the hot
#: loop isolates pure kernel overhead and must stay >= 2x, the two
#: prefetch shapes must hold a floor of 2x, and the sweep must hold 3x end
#: to end (one capture amortised across eight policies).
SPEEDUP_GATES = {
    "hot_loop": 2.0,
    "single_app": 1.5,
    "multicore": 1.5,
    "l1_prefetch": 2.0,
    "l2_prefetch": 2.0,
    "ship_llc": 1.5,
    "llc_sweep": 3.0,
}


def test_kernel_speedup_recorded(save_result):
    """Summarise the kernel comparison and gate against regressions."""
    for name in SPEEDUP_GATES:
        _ensure_scenario(name)
    lines = ["scenario        fast acc/s   generic acc/s   speedup"]
    for name, info in _SPEEDUPS.items():
        lines.append(
            f"{name:<14} {info['accesses_per_second_fast']:>12,.0f} "
            f"{info['accesses_per_second_generic']:>15,.0f} "
            f"{info['kernel_speedup']:>8.2f}x"
        )
    save_result("kernel_throughput", "\n".join(lines))
    for name, gate in SPEEDUP_GATES.items():
        assert _SPEEDUPS[name]["kernel_speedup"] >= gate, (
            f"{name} speedup {_SPEEDUPS[name]['kernel_speedup']:.2f}x "
            f"below the {gate}x gate"
        )
