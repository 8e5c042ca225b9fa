"""The README's environment-variable table lists exactly what ``src/`` reads.

A ``REPRO_*`` switch added (or removed) without updating the table fails
here, so the documented set of knobs cannot drift from the code.
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
