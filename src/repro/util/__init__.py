"""Low-level utilities shared by every subsystem.

This package holds the deterministic building blocks the simulator is made
of: named pseudo-random streams (:mod:`repro.util.rng`), bit-manipulation
and cache-geometry helpers (:mod:`repro.util.bitops`), saturating counters
and deterministic "1 out of N" tickers (:mod:`repro.util.counters`) and
small statistics helpers (:mod:`repro.util.stats`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.util.bitops": (
            "block_align",
            "ilog2",
            "is_pow2",
            "split_address",
            "xor_fold",
            "xor_bank_index",
        ),
        "repro.util.counters": ("SaturatingCounter", "FractionTicker", "PselCounter"),
        "repro.util.rng": ("RngStreams", "derive_seed"),
        "repro.util.stats": (
            "arithmetic_mean",
            "geometric_mean",
            "harmonic_mean",
            "normalize_series",
        ),
    },
)

__all__ = [
    "block_align",
    "ilog2",
    "is_pow2",
    "split_address",
    "xor_fold",
    "xor_bank_index",
    "SaturatingCounter",
    "FractionTicker",
    "PselCounter",
    "RngStreams",
    "derive_seed",
    "arithmetic_mean",
    "geometric_mean",
    "harmonic_mean",
    "normalize_series",
]
