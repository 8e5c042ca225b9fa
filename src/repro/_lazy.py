"""Lazy package re-exports (PEP 562).

A package ``__init__`` that only re-exports names from its submodules
hands :func:`lazy_exports` a ``{module: names}`` map instead of running
the imports.  Each name is imported from its defining module on first
attribute access (``pkg.name``, ``from pkg import name``, ``from pkg
import *``) and then cached in the package namespace, so later lookups
are plain dict hits.  A command therefore loads only the modules it
touches: ``repro-experiments list`` never imports numpy or a simulation
kernel, while ``from repro import run_workload`` still works unchanged.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable


def lazy_exports(
    package: str, exports: dict[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a lazily re-exporting package."""
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
