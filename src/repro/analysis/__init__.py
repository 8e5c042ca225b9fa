"""Analysis helpers: Table 5 classification, occupancy profiling."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.classification": ("ClassifiedBenchmark", "classify", "is_thrashing"),
        "repro.analysis.occupancy": ("OccupancyProfile", "measure_occupancy"),
    },
)

__all__ = [
    "ClassifiedBenchmark",
    "classify",
    "is_thrashing",
    "OccupancyProfile",
    "measure_occupancy",
]
