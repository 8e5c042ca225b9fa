"""Behavioural core model and the event-driven multi-core engine."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.cpu.core": ("CoreSnapshot", "CoreState"),
        "repro.cpu.engine": ("MulticoreEngine",),
    },
)

__all__ = ["CoreSnapshot", "CoreState", "MulticoreEngine"]
