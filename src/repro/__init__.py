"""repro — reproduction of ADAPT (Sridharan & Seznec, IPDPS 2016).

"Discrete Cache Insertion Policies for Shared Last Level Cache Management
on Large Multicores": Footprint-number monitoring plus discrete insertion
priorities for shared LLCs where the core count meets or exceeds the cache
associativity.

Public API tour
---------------
>>> from repro import SystemConfig, design_suite, run_workload, weighted_speedup
>>> config = SystemConfig.scaled(num_cores=16)
>>> workload = design_suite(16, num_workloads=1)[0]
>>> result = run_workload(workload, config, "adapt_bp32", quota=2000, warmup=500)
>>> len(result.ipcs)
16

The names above, like every package's re-exports, are lazy: each loads
its defining module on first use (:mod:`repro._lazy`), so ``import repro``
costs almost nothing and a command imports only what it runs.

Packages
--------
:mod:`repro.core`     — ADAPT: Footprint-number monitor, priority predictor,
                        the policy itself, hardware-cost model.
:mod:`repro.policies` — all baselines (LRU/DIP lineage, RRIP family,
                        TA-DRRIP, SHiP, EAF) and the bypass wrapper.
:mod:`repro.cache`    — set-associative caches, MSHRs, banks, hierarchy.
:mod:`repro.mem`      — row-hit/row-conflict DRAM, VPC arbiter.
:mod:`repro.cpu`      — behavioural cores, event-driven multicore engine.
:mod:`repro.trace`    — the 36 synthetic Table 4 benchmarks, Table 6 suites.
:mod:`repro.sim`      — configurations and runners.
:mod:`repro.runner`   — parallel job pool and persistent result store.
:mod:`repro.metrics`  — weighted speed-up and the other Table 7 metrics.
:mod:`repro.experiments` — one module per paper table/figure.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core": (
            "AdaptPolicy",
            "FootprintSampler",
            "InsertionPriorityPredictor",
            "PriorityBucket",
        ),
        "repro.metrics": ("compute_all_metrics", "weighted_speedup"),
        "repro.policies": ("PAPER_POLICIES", "available_policies", "make_policy"),
        "repro.runner": ("ParallelRunner", "PolicySpec", "ResultStore"),
        "repro.sim": (
            "AloneCache",
            "SystemConfig",
            "build_hierarchy",
            "run_alone",
            "run_workload",
        ),
        "repro.trace": ("BENCHMARKS", "Workload", "design_suite"),
    },
)

__version__ = "1.0.0"

__all__ = [
    "AdaptPolicy",
    "FootprintSampler",
    "InsertionPriorityPredictor",
    "PriorityBucket",
    "compute_all_metrics",
    "weighted_speedup",
    "PAPER_POLICIES",
    "available_policies",
    "make_policy",
    "ParallelRunner",
    "PolicySpec",
    "ResultStore",
    "AloneCache",
    "SystemConfig",
    "build_hierarchy",
    "run_alone",
    "run_workload",
    "BENCHMARKS",
    "Workload",
    "design_suite",
    "__version__",
]
