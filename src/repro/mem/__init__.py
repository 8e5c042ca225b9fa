"""Main-memory substrate: row-buffer DRAM model and the L2→LLC arbiter.

The paper's memory model (Table 3, following EAF [2]) models only row hits
and row conflicts: 180 vs 340 cycles, 8 banks, 4KB rows, XOR-mapped
(permutation-based) bank interleaving [28].  :mod:`repro.mem.dram`
implements exactly that.  :mod:`repro.mem.arbiter` provides the VPC-style
(Virtual Private Caches, Nesbit et al. [7]) arbiter used to schedule
requests from the private L2s into the shared LLC.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.mem.arbiter": ("VpcArbiter",),
        "repro.mem.dram": ("DramModel",),
    },
)

__all__ = ["DramModel", "VpcArbiter"]
