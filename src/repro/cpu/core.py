"""Behavioural core model.

The paper evaluates on BADCO, a *behavioural application-dependent core
model*: instead of simulating the pipeline cycle by cycle, each core's
progress is a function of its instruction stream's inherent CPI plus the
memory latencies it observes.  We adopt the same abstraction level:

* between two memory accesses the core retires
  ``instructions_per_access`` instructions at ``base_cpi``;
* a memory access beyond the L1 stalls the core for the observed latency
  divided by the benchmark's memory-level parallelism (MLP) factor —
  streaming codes overlap many misses, pointer chases overlap none.

Per-core bookkeeping (instructions, cycles, completion snapshots) lives in
:class:`CoreState`; the scheduling loop lives in
:mod:`repro.cpu.engine`.  The frozen :class:`CoreSnapshot` record is
defined with the other result records in :mod:`repro.sim.results` (so
reading stored results never loads the core model) and re-exported here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.results import CoreSnapshot

if TYPE_CHECKING:
    from repro.trace.benchmarks import TraceSource


class CoreState:
    """Mutable per-core execution state inside the engine."""

    __slots__ = (
        "core_id",
        "source",
        "quota",
        "accesses",
        "instructions",
        "instructions_per_access",
        "compute_cycles_per_access",
        "inverse_mlp",
        "finished",
        "snapshot",
    )

    def __init__(self, core_id: int, source: TraceSource, quota: int) -> None:
        if quota < 1:
            raise ValueError("quota must be positive")
        self.core_id = core_id
        self.source = source
        self.quota = quota
        self.accesses = 0
        self.instructions = 0.0
        self.instructions_per_access = source.instructions_per_access
        self.compute_cycles_per_access = (
            source.instructions_per_access * source.spec.base_cpi
        )
        self.inverse_mlp = 1.0 / source.spec.mlp
        self.finished = False
        self.snapshot: CoreSnapshot | None = None
