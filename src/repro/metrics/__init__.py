"""Evaluation metrics: multi-core throughput (Table 7) and MPKI effects."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.metrics.cachestats": (
            "average_by_app",
            "ipc_speedup",
            "mpki_reduction_percent",
            "s_curve",
        ),
        "repro.metrics.throughput": (
            "METRIC_LABELS",
            "METRIC_NAMES",
            "compute_all_metrics",
            "harmonic_mean_of_normalized_ipcs",
            "mean_gain_percent",
            "relative_gain",
            "weighted_speedup",
        ),
    },
)

__all__ = [
    "average_by_app",
    "ipc_speedup",
    "mpki_reduction_percent",
    "s_curve",
    "METRIC_LABELS",
    "METRIC_NAMES",
    "compute_all_metrics",
    "harmonic_mean_of_normalized_ipcs",
    "mean_gain_percent",
    "relative_gain",
    "weighted_speedup",
]
