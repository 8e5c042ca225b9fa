"""Simulation drivers: configurations, platform factory, and runners."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sim.build": (
            "build_hierarchy",
            "build_sources",
            "geometry_of",
            "resolve_policy",
        ),
        "repro.sim.config": ("CacheLevelConfig", "SystemConfig"),
        "repro.sim.multi": ("run_workload",),
        "repro.sim.results": ("SingleRunResult", "WorkloadResult"),
        "repro.sim.single": ("AloneCache", "run_alone"),
    },
)

__all__ = [
    "CacheLevelConfig",
    "SystemConfig",
    "build_hierarchy",
    "build_sources",
    "geometry_of",
    "resolve_policy",
    "run_workload",
    "run_alone",
    "AloneCache",
    "SingleRunResult",
    "WorkloadResult",
]
