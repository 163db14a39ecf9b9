"""src/convexcodes holds only what its callers use.

Every module-level import is used by its module, and every module-level
function or class, and every method of such a class, is used somewhere in
the package.  Every name in the package's __all__ is read by the package
or named by the README or the benchmark (perfbench/).

Exempt from the import check are names listed in the module's __all__
(re-exports), `from __future__` imports, and import blocks placed directly
under the comment that keeps names importable for the benchmark tracer.
Exempt from the definition check are the names in the package's __all__,
dunder methods, which Python calls itself, the module hooks __getattr__
and __dir__ (PEP 562), and methods that a standard-library base calls
(OVERRIDES).
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "convexcodes"
TRACER_NOTE = "kept importable because the benchmark tracer patches these names"
# read by Python on attribute access and dir() of the module, never by name
MODULE_HOOKS = {"__getattr__", "__dir__"}
# methods that override a standard-library base and are called by it:
# argparse calls error() on a bad command line
OVERRIDES = {"_Parser.error"}


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


def _reads(trees) -> set:
    """The names the modules read, by name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unused_definitions(sources: dict, exported: set) -> list:
    """(module, line, name) of each module-level function or class that is
    not exported, and of each non-dunder method of a module-level class,
    that no module reads, by name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _reads(trees.values())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, kinds):
                continue
            if node.name not in exported | read | MODULE_HOOKS:
                out.append((module, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                out += [
                    (module, item.lineno, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, kinds[:2])
                    and not _is_dunder(item.name)
                    and item.name not in read
                    and f"{node.name}.{item.name}" not in OVERRIDES
                ]
    return out


def test_no_unused_module_definitions():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    exported = _exported(ast.parse(sources["__init__.py"]))
    assert exported
    assert unused_definitions(sources, exported) == []


def test_guard_catches_an_unused_definition():
    sources = {
        "a.py": (
            "def public(): pass\n"
            "def helper(): pass\n"
            "def dead(): pass\n"
            "class Used: pass\n"
            "class Unused:\n"
            "    def method(self): return helper()\n"
            "    def __len__(self): return 0\n"
            "    def read_method(self): return 0\n"
            "def __getattr__(name): pass\n"
            "def __dir__(): pass\n"
            "def __setattr__(name, value): pass\n"
        ),
        "b.py": (
            "from .a import dead, Used\n"
            "import a\n"
            "def only_as_attribute(): pass\n"
            "x = Used()\n"
            "a.only_as_attribute\n"
            "x.read_method()\n"
        ),
    }
    assert unused_definitions(sources, {"public"}) == [
        ("a.py", 3, "dead"), ("a.py", 5, "Unused"), ("a.py", 6, "Unused.method"),
        ("a.py", 11, "__setattr__"),
    ]


def unread_exports(exported: set, sources: dict, texts: list) -> list:
    """The exported names that no source reads and no text names as a word."""
    read = _reads(ast.parse(source) for source in sources.values())
    return sorted(
        name
        for name in exported - read
        if not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)
    )


def test_exported_names_are_used():
    """Each name in __all__ is read in src/ or named by the README or perfbench/."""
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    exported = _exported(ast.parse(sources["__init__.py"]))
    texts = [(ROOT / "README.md").read_text()]
    texts += [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unread_exports(exported, sources, texts) == []


def test_guard_catches_an_unread_export():
    sources = {"a.py": "from .b import used\nused()\nb.attribute\n"}
    exported = {"used", "attribute", "documented", "benchmarked", "unread", "documented_"}
    texts = ["Call `documented` first.", "cc.benchmarked(code)", "documented_x unread_y"]
    assert unread_exports(exported, sources, texts) == ["documented_", "unread"]


COLD_DECIDE = """
import sys
import convexcodes
convexcodes.decide(convexcodes.parse_code("134, 1357, 257, 356, 13, 35, 57"))
print(sorted(m for m in ("convexcodes.realize", "convexcodes.atlas", "fractions", "csv",
                         "dataclasses", "inspect")
             if m in sys.modules))
for name in convexcodes.__all__:
    getattr(convexcodes, name)
assert set(convexcodes.__all__) <= set(dir(convexcodes))
assert convexcodes.realize.builders.build_realization is convexcodes.build_realization
assert convexcodes.atlas.atlas_rows is convexcodes.atlas_rows
star = {}
exec("from convexcodes import *", star)
assert set(convexcodes.__all__) <= set(star)
try:
    convexcodes.no_such_name
except AttributeError as err:
    print(err)
"""


def _run_cold(script: str) -> list:
    """The stdout lines of script run in a fresh interpreter on src/."""
    path = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_decide_loads_neither_realize_nor_atlas():
    """A fresh import and one decide leave realize, atlas, fractions, csv,
    dataclasses and inspect unloaded, and every exported name still
    resolves on first access."""
    assert _run_cold(COLD_DECIDE) == [
        "[]", "module 'convexcodes' has no attribute 'no_such_name'",
    ]


def test_cli_import_loads_no_dataclasses():
    """The CLI imports every layer up front, and none of them loads dataclasses."""
    script = "import sys, convexcodes.cli; print('dataclasses' in sys.modules)"
    assert _run_cold(script) == ["False"]


IMPORT_WORK = """
import sys
seen = set()

def watch(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

sys.setprofile(watch)
import convexcodes
sys.setprofile(None)
from convexcodes import topology
checks = (topology.is_collapsible, topology._acyclic, topology.SimplicialComplex.__init__)
print(sorted(f.__qualname__ for f in checks if f.__code__ in seen))
print(hasattr(topology, "REFERENCE_COMPLEXES"))
"""


def test_import_runs_no_contractibility_check():
    """The nerve catalog's contractible classes are a literal: importing the
    package runs no collapse search, no homology and builds no
    SimplicialComplex (tests/test_topology.py checks the literal)."""
    assert _run_cold(IMPORT_WORK) == ["[]", "False"]
