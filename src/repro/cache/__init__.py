"""Cache substrate: set-associative caches, MSHRs, banks, and the hierarchy.

This package implements the memory-side hardware the paper's evaluation
platform provides: per-core L1/L2, a shared banked LLC with a pluggable
replacement policy (see :mod:`repro.policies`), write-back buffers, MSHRs
and the three-level :class:`~repro.cache.hierarchy.CacheHierarchy` that
routes accesses, fills and write-backs between them.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.cache.banks": ("BankedLatencyModel",),
        "repro.cache.cache": ("AccessResult", "SetAssociativeCache"),
        "repro.cache.hierarchy": ("AccessOutcome", "CacheHierarchy"),
        "repro.cache.mshr": ("Mshr",),
        "repro.cache.prefetch": ("StridePrefetcher",),
        "repro.cache.stats": ("CacheStats",),
        "repro.cache.writeback": ("WriteBackBuffer",),
    },
)

__all__ = [
    "AccessResult",
    "AccessOutcome",
    "BankedLatencyModel",
    "CacheHierarchy",
    "CacheStats",
    "Mshr",
    "SetAssociativeCache",
    "StridePrefetcher",
    "WriteBackBuffer",
]
