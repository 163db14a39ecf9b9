"""Every module-level import in src/convexcodes is used by its module.

Exempt are names listed in the module's __all__ (re-exports),
`from __future__` imports, and import blocks placed directly under the
comment that keeps names importable for the benchmark tracer.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "convexcodes"
TRACER_NOTE = "kept importable because the benchmark tracer patches these names"


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """(line, name) of each module-level import the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exempt = _exported(tree)
    out = []
    block_start = None
    previous = None
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            previous = None
            continue
        # a block is a run of import statements on consecutive lines
        if previous is None or node.lineno != previous.end_lineno + 1:
            block_start = node.lineno
        previous = node
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if block_start >= 2 and TRACER_NOTE in lines[block_start - 2]:
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and name not in exempt:
                out.append((node.lineno, name))
    return out


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_catches_an_unused_import():
    source = (
        "import os\n"
        "import sys\n"
        "from typing import Dict, Optional\n"
        "# not called here: " + TRACER_NOTE + "\n"
        "from json import dumps\n"
        "from json import loads\n"
        "\n"
        "from math import pi\n"
        "__all__ = ['Optional']\n"
        "print(sys.argv)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "Dict"), (8, "pi")]
