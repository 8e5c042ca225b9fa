"""The README's environment-variable table lists exactly what ``src/`` reads,
and one module reads it.

A ``REPRO_*`` switch added (or removed) without updating the table fails
here, so the documented set of knobs cannot drift from the code.  Every
switch is parsed in :mod:`repro.settings`: a second reader of
``os.environ`` would let a pool worker decide from its own environment
what the parent already decided.
"""

import ast
import re
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parents[2]
NAME = re.compile(r"REPRO_[A-Z_]+")


def names_read_in_src() -> set[str]:
    """``REPRO_*`` string literals in every module that reads ``os.environ``.

    The literal is the variable name whether the module passes it to
    ``os.environ`` directly or through a constant or helper argument.
    """
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        source = path.read_text()
        if "os.environ" not in source:
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if NAME.fullmatch(node.value):
                    names.add(node.value)
    return names


def names_in_readme_table() -> set[str]:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Environment variables\n", 1)[1].split("\n## ", 1)[0]
    return {
        match.group(1)
        for match in re.finditer(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.MULTILINE)
    }


def test_readme_table_matches_src():
    read = names_read_in_src()
    assert {"REPRO_SCALE", "REPRO_JOBS"} <= read  # the scan sees the code
    assert names_in_readme_table() == read


#: ``os`` attributes that read the environment.
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def _reads_env(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in ENV_READERS
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in ENV_READERS for alias in node.names)
    return False


def modules_reading_the_environment() -> set[str]:
    """Every module under ``src/`` that touches ``os.environ``/``getenv``."""
    return {
        path.relative_to(ROOT / "src").as_posix()
        for path in (ROOT / "src").rglob("*.py")
        if any(_reads_env(node) for node in ast.walk(ast.parse(path.read_text())))
    }


def test_only_the_settings_module_reads_the_environment():
    assert modules_reading_the_environment() == {"repro/settings.py"}
