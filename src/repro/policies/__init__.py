"""Replacement-policy zoo: every baseline the paper compares against.

The DIP lineage (:mod:`repro.policies.lru`), the RRIP family
(:mod:`repro.policies.rrip`, :mod:`repro.policies.drrip`,
:mod:`repro.policies.tadrrip`), the smarter insertion predictors
(:mod:`repro.policies.ship`, :mod:`repro.policies.eaf`), the Figure 6
bypass wrapper (:mod:`repro.policies.bypass`) and the name-based factory
(:mod:`repro.policies.registry`).  ADAPT itself lives in
:mod:`repro.core` but registers here.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.policies.base": ("BYPASS", "ReplacementPolicy"),
        "repro.policies.bypass": ("BypassWrapper",),
        "repro.policies.drrip": ("DrripPolicy",),
        "repro.policies.dueling": ("DuelMap",),
        "repro.policies.eaf": ("BloomFilter", "EafPolicy"),
        "repro.policies.lru": ("BipPolicy", "DipPolicy", "LipPolicy", "LruPolicy"),
        "repro.policies.random_": ("RandomPolicy",),
        "repro.policies.registry": ("PAPER_POLICIES", "available_policies", "make_policy"),
        "repro.policies.rrip": ("BrripPolicy", "RripPolicyBase", "SrripPolicy"),
        "repro.policies.ship": ("ShipPolicy",),
        "repro.policies.spec": ("PolicySpec", "policy_key"),
        "repro.policies.tadrrip": ("TaDrripPolicy",),
    },
)

__all__ = [
    "BYPASS",
    "ReplacementPolicy",
    "BypassWrapper",
    "DuelMap",
    "DrripPolicy",
    "BloomFilter",
    "EafPolicy",
    "LruPolicy",
    "LipPolicy",
    "BipPolicy",
    "DipPolicy",
    "RandomPolicy",
    "RripPolicyBase",
    "SrripPolicy",
    "BrripPolicy",
    "ShipPolicy",
    "TaDrripPolicy",
    "PAPER_POLICIES",
    "available_policies",
    "make_policy",
    "PolicySpec",
    "policy_key",
]
