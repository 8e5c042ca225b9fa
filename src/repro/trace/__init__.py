"""Synthetic benchmark suite and workload composition.

:mod:`repro.trace.patterns` — address-stream shapes (cyclic, shuffled,
random, mixed ``{a}^k{s}^d``, strided).
:mod:`repro.trace.benchmarks` — the 38 named Table 4 stand-ins and the
per-core :class:`~repro.trace.benchmarks.TraceSource` generator.
:mod:`repro.trace.workloads` — the Table 6 multi-programmed suites.
:mod:`repro.trace.shared` — the attribute through which
:func:`~repro.trace.benchmarks.make_source` builds every source, wrapped
by the end-to-end benchmark's tracer.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.trace.benchmarks": (
            "BENCHMARKS",
            "CLASSES",
            "THRASHING_BENCHMARKS",
            "BenchmarkSpec",
            "Geometry",
            "TraceSource",
            "benchmarks_by_class",
        ),
        "repro.trace.patterns": (
            "PATTERN_KINDS",
            "AccessPattern",
            "CyclicPattern",
            "MixedPattern",
            "RandomPattern",
            "ShuffledCyclicPattern",
            "StridedPattern",
            "make_pattern",
        ),
        "repro.trace.workloads": (
            "TABLE6",
            "SuiteSpec",
            "Workload",
            "design_suite",
            "validate_workload",
        ),
    },
)

__all__ = [
    "BENCHMARKS",
    "CLASSES",
    "THRASHING_BENCHMARKS",
    "BenchmarkSpec",
    "Geometry",
    "TraceSource",
    "benchmarks_by_class",
    "PATTERN_KINDS",
    "AccessPattern",
    "CyclicPattern",
    "MixedPattern",
    "RandomPattern",
    "ShuffledCyclicPattern",
    "StridedPattern",
    "make_pattern",
    "TABLE6",
    "SuiteSpec",
    "Workload",
    "design_suite",
    "validate_workload",
]
