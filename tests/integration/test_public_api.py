"""Public-API surface tests: imports, exports, example importability.

Most packages re-export lazily (:mod:`repro._lazy`): each ``__all__``
name must still reach the object its defining module binds, through
attribute access, ``from pkg import name`` and ``from pkg import *``,
while an unknown name still fails and importing a package stays cheap.
"""

import doctest
import functools
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.integration

EXAMPLES = Path(repro.__file__).resolve().parents[2] / "examples"

SUBPACKAGES = (
    "repro.core",
    "repro.policies",
    "repro.cache",
    "repro.mem",
    "repro.cpu",
    "repro.trace",
    "repro.sim",
    "repro.runner",
    "repro.metrics",
    "repro.analysis",
    "repro.experiments",
    "repro.util",
)
PACKAGES = ("repro", *SUBPACKAGES)


@functools.cache
def _plain_modules() -> tuple:
    """Every non-package module under ``repro``, imported."""
    return tuple(
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.ispkg and not info.name.endswith("__main__")
    )


def _defined_as(name: str, value: object) -> bool:
    """Whether the module that defines *value* binds it under *name*."""
    if name == "__version__":
        return True
    defining = inspect.getmodule(value)
    if defining is not None and defining.__name__.startswith("repro."):
        return getattr(defining, value.__name__) is value
    # Constants and aliases carry no module: some module binds this object.
    return any(vars(m).get(name) is value for m in _plain_modules())


def assert_exports_resolve(package: str) -> None:
    """Every ``__all__`` name resolves, by attribute and by ``from`` import,
    to the object its defining module binds."""
    module = importlib.import_module(package)
    wrong = []
    for name in module.__all__:
        value = getattr(module, name)
        namespace: dict = {}
        exec(f"from {package} import {name}", namespace)
        if namespace[name] is not value or not _defined_as(name, value):
            wrong.append(name)
    assert wrong == [], package


class TestTopLevelApi:
    def test_all_exports_resolve(self):
        assert_exports_resolve("repro")

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_subpackage_all_exports_resolve(self, module):
        assert_exports_resolve(module)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_star_import_binds_every_export(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_name_raises(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})
        assert set(module.__all__) <= set(dir(module))

    def test_importing_the_packages_loads_nothing_they_export(self):
        """A package import is cheap: its names load on first use."""
        script = (
            "import sys\n"
            f"for name in {PACKAGES!r}: __import__(name)\n"
            "import repro.sim\n"
            "assert 'numpy' not in sys.modules, 'numpy'\n"
            "assert 'repro.sim.multi' not in sys.modules, 'repro.sim.multi'\n"
            "repro.sim.run_workload\n"
            "assert 'repro.sim.multi' in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    def test_docstring_example_runs(self):
        """The __init__ docstring's usage example must stay true."""
        results = doctest.testmod(repro)
        assert results.attempted > 0
        assert results.failed == 0


class TestExamples:
    @pytest.mark.parametrize(
        "script",
        [
            "quickstart.py",
            "footprint_monitoring.py",
            "policy_shootout.py",
            "consolidation_24core.py",
        ],
    )
    def test_examples_exist_with_main_guard(self, script):
        path = EXAMPLES / script
        text = path.read_text()
        assert '__name__ == "__main__"' in text
        compile(text, str(path), "exec")  # syntax-checked, not executed
