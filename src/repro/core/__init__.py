"""ADAPT — the paper's primary contribution.

* :mod:`repro.core.footprint` — the Footprint-number monitoring mechanism
  (sampled-set partial-tag arrays, interval-based "sliding" computation).
* :mod:`repro.core.priority` — the insertion-priority-prediction algorithm
  (Table 1's four discrete buckets with 1/16 and 1/32 exceptions).
* :mod:`repro.core.adapt` — the composed LLC replacement policy, in its
  ``ADAPT_bp32`` (bypassing) and ``ADAPT_ins`` (inserting) variants.
* :mod:`repro.core.hwcost` — the Table 2 / Section 3.3 storage accounting.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.adapt": ("AdaptPolicy",),
        "repro.core.footprint": ("FootprintSampler", "SamplerSet"),
        "repro.core.hwcost": (
            "CostReport",
            "adapt_cost",
            "eaf_cost",
            "ship_cost",
            "table2_reports",
            "tadrrip_cost",
        ),
        "repro.core.priority": ("InsertionPriorityPredictor", "PriorityBucket"),
    },
)

__all__ = [
    "AdaptPolicy",
    "FootprintSampler",
    "SamplerSet",
    "InsertionPriorityPredictor",
    "PriorityBucket",
    "CostReport",
    "adapt_cost",
    "eaf_cost",
    "ship_cost",
    "tadrrip_cost",
    "table2_reports",
]
