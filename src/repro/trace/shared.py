"""The trace layer's timing hook for the end-to-end benchmark.

The benchmark's span tracer (``benchmarks/perf/tracer.py``) times this
layer by wrapping ``SharedTraceStore.materialise`` as its
``trace.materialise`` span, so :func:`repro.trace.benchmarks.make_source`
builds every source through that attribute.  Nothing is stored or shared
here; delete this module once the benchmark drops that target.
"""

from __future__ import annotations

from repro.trace.benchmarks import _build_source


class SharedTraceStore:
    """Holder of the one attribute the benchmark tracer rebinds."""

    #: Builds one core's trace source; see :func:`~repro.trace.benchmarks.make_source`.
    materialise = staticmethod(_build_source)
