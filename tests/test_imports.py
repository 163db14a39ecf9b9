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
(OVERRIDES).  A method is read only through a receiver whose class the
code does not show or is related to the method's class by inheritance, so
another class's attribute of the same name does not keep it.  The class of
a receiver is followed through annotations, calls, attributes, subscripts
and loops over annotated containers (see _AttributeReads).
"""

import ast
import builtins
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
BUILTINS = set(dir(builtins))


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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (*_FUNCTIONS, ast.ClassDef, ast.Lambda)
# typing generics whose one argument is the element type
_ELEMENTS = {"List", "Iterable", "Iterator"}
# the type of a name bound to one of the package's modules
MODULE = ("module",)


def _elements(kind):
    """The type of an element of a value of this type, where it shows."""
    if isinstance(kind, tuple) and kind[0] in ("iter", "dict"):
        return kind[1]
    return None


def _classes(kind) -> list:
    """The classes a value of this type may be an instance of: [None] when
    unknown, [""] for a container, a module or a value of no package class."""
    if kind is None or isinstance(kind, str):
        return [kind]
    if kind[0] == "union":
        return [cls for member in kind[1] for cls in _classes(member)]
    return [""]


class _AttributeReads(ast.NodeVisitor):
    """(class, name) of each attribute read, the class being the receiver's
    class where the code shows it and None elsewhere.

    A type is None when unknown, a class name ("" for no class of the
    package), or a tuple: ("union", types), ("iter", element type),
    ("tuple", types), ("dict", key type, value type) or MODULE.  Types come
    from self in a class's methods; from annotations (C, "C", Optional,
    Union, Tuple, List, Iterable, Iterator, Dict and the module's type
    aliases); from calls of a class, or of a function or method annotated
    to return a type; from the annotations and properties of a receiver's
    class; from subscripts and dict views; from loop and comprehension
    targets over a container; and from tuple unpacking.  Reads through a
    union count for each member.
    """

    def __init__(self, classes: dict, aliases: dict, modules: set):
        self.classes = classes  # class name -> the names of its bases
        self.aliases = aliases  # module-level alias name -> its value
        self.modules = modules  # the stems of the package's modules
        self.returns: dict = {}  # function name -> the type it returns
        self.members: dict = {}  # (class, name) -> ("field" or "method", type)
        self.scopes: list = []
        self.owner = None  # the class whose body is being visited
        self.reads: set = set()

    def annotated(self, node):
        """The type an annotation names: "" for a generic it does not know,
        a dotted name or a builtin, which are no class of the package."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.Subscript):
            name = node.value.id if isinstance(node.value, ast.Name) else ""
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            kinds = tuple(map(self.annotated, args))
            if name == "Optional":
                return kinds[0]
            if name == "Union":
                return ("union", kinds)
            if name in _ELEMENTS:
                return ("iter", kinds[0])
            if name == "Dict":
                return ("dict", *kinds)
            if name == "Tuple":
                if isinstance(args[-1], ast.Constant) and args[-1].value is Ellipsis:
                    return ("iter", kinds[0])
                return ("tuple", kinds)
            return ""
        if isinstance(node, ast.Attribute) or isinstance(node, ast.Name) and node.id in BUILTINS:
            return ""
        if isinstance(node, ast.Name):
            if node.id in self.classes:
                return node.id
            if node.id in self.aliases:
                return self.annotated(self.aliases[node.id])
        return None

    def member(self, owner, name: str, called: bool):
        """The type of owner.name, or of owner.name(...) when called."""
        if owner == MODULE:
            return self.returns.get(name) if called else None
        if isinstance(owner, tuple) and owner[0] == "dict" and called:
            views = {"values": ("iter", owner[2]), "items": ("iter", ("tuple", owner[1:]))}
            return views.get(name)
        kind, value = self.members.get((owner, name), (None, None))
        return value if kind == ("method" if called else "field") else None

    def type_of(self, node):
        """The type of an expression's value, where the code shows it."""
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                return func.id if func.id in self.classes else self.returns.get(func.id)
            if isinstance(func, ast.Attribute):
                return self.member(self.type_of(func.value), func.attr, True)
            return None
        if isinstance(node, ast.Name):
            if node.id in self.classes:
                return node.id
            for scope in reversed(self.scopes):
                if node.id in scope:
                    return scope[node.id]
            return None
        if isinstance(node, ast.Attribute):
            return self.member(self.type_of(node.value), node.attr, False)
        if isinstance(node, ast.Subscript) and not isinstance(node.slice, ast.Slice):
            owner = self.type_of(node.value)
            if isinstance(owner, tuple) and owner[0] == "dict":
                return owner[2]
            return _elements(owner)
        return None

    def _bind(self, target, kind, shown: dict):
        """Record the type each Name in an assignment target receives."""
        if isinstance(target, ast.Name):
            shown[id(target)] = kind
        elif isinstance(target, (ast.Tuple, ast.List)):
            parts = [_elements(kind)] * len(target.elts)
            if isinstance(kind, tuple) and kind[0] == "tuple" and len(kind[1]) == len(parts):
                parts = kind[1]
            for sub, part in zip(target.elts, parts):
                self._bind(sub, part, shown)

    def _bindings(self, nodes: list, bindings: list) -> dict:
        """Each name the scope binds -> its type, None unless each of its
        bindings shows that type.  bindings holds the parameters' already;
        assignments, loop targets, imports of the package's modules and
        nested definitions among nodes are added."""
        bindings = list(bindings)
        shown = {}  # id of an assigned Name -> the type its binding shows
        for node in nodes:
            if isinstance(node, _SCOPES):
                if not isinstance(node, ast.Lambda):
                    bindings.append((node.name, None))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._bind(target, self.type_of(node.value), shown)
            elif isinstance(node, ast.AnnAssign):
                shown[id(node.target)] = self.annotated(node.annotation)
            elif isinstance(node, (ast.For, ast.comprehension)):
                self._bind(node.target, _elements(self.type_of(node.iter)), shown)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if alias.name in self.modules:
                        bindings.append((name, MODULE))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bindings.append((node.id, shown.get(id(node))))
        kinds: dict = {}
        for name, kind in bindings:
            kinds.setdefault(name, set()).add(kind)
        return {name: each.pop() if len(each) == 1 else None for name, each in kinds.items()}

    def _scope(self, body, bindings: list) -> dict:
        """_bindings of the scope's own nodes (each listed before its
        children), repeated until it settles: a binding's type may depend
        on another name of the same scope, as a loop variable's on the list
        it runs over, and each pass reads the types the pass before found."""
        nodes, todo = [], list(body)
        while todo:
            node = todo.pop()
            nodes.append(node)
            if not isinstance(node, _SCOPES):
                todo += ast.iter_child_nodes(node)
        scope: dict = {}
        for _ in range(8):
            self.scopes.append(scope)
            settled = self._bindings(nodes, bindings)
            self.scopes.pop()
            if settled == scope:
                break
            scope = settled
        return scope

    def visit_Module(self, node):
        self.scopes.append(self._scope(node.body, []))
        self.generic_visit(node)
        self.scopes.pop()

    def visit_ClassDef(self, node):
        outer, self.owner = self.owner, node.name
        self.generic_visit(node)
        self.owner = outer

    def visit_FunctionDef(self, node):
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        typed = [(a.arg, self.annotated(a.annotation)) for a in params if a is not None]
        if self.owner is not None and typed:
            typed[0] = (typed[0][0], self.owner)
        outer, self.owner = self.owner, None
        self.scopes.append(self._scope(node.body, typed))
        self.generic_visit(node)
        self.scopes.pop()
        self.owner = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        for cls in _classes(self.type_of(node.value)):
            self.reads.add((cls, node.attr))
        self.generic_visit(node)


def _lineage(classes: dict, name: str) -> set:
    """name and every class it derives from, among the given classes."""
    out, todo = set(), [name]
    while todo:
        cls = todo.pop()
        if cls not in out:
            out.add(cls)
            todo += classes.get(cls, ())
    return out


def _is_property(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id in ("property", "_cached") for d in node.decorator_list)


def unused_definitions(sources: dict, exported: set) -> list:
    """(module, line, name) of each module-level function or class that is
    not exported, and of each non-dunder method of a module-level class,
    that no module reads, by name or as an attribute.

    A method counts as read only through a receiver whose class is unknown
    or is related to its own class by inheritance (see _AttributeReads), so
    a read of another class's attribute of the same name does not count.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _reads(trees.values())
    tops = [node for tree in trees.values() for node in tree.body]
    classes = {
        node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
        for node in tops
        if isinstance(node, ast.ClassDef)
    }
    aliases = {
        node.targets[0].id: node.value
        for node in tops
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name) and isinstance(node.value, (ast.Subscript, ast.Name))
    }
    # a package's name is its directory's; the root package's is never imported by name
    paths = map(Path, sources)
    modules = {p.parent.name if p.stem == "__init__" else p.stem for p in paths} - {""}
    visitor = _AttributeReads(classes, aliases, modules)
    visitor.returns = {
        node.name: visitor.annotated(node.returns)
        for node in tops
        if isinstance(node, _FUNCTIONS) and node.returns is not None
    }
    for node in tops:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    kind = ("field", visitor.annotated(item.annotation))
                    visitor.members[node.name, item.target.id] = kind
                elif isinstance(item, _FUNCTIONS):
                    kind = ("field" if _is_property(item) else "method", visitor.annotated(item.returns))
                    visitor.members[node.name, item.name] = kind
    for tree in trees.values():
        visitor.visit(tree)
    readers: dict = {}
    for cls, name in visitor.reads:
        readers.setdefault(name, set()).add(cls)

    def method_read(cls: str, name: str) -> bool:
        return any(
            other is None or cls in _lineage(classes, other) or other in _lineage(classes, cls)
            for other in readers.get(name, ())
        )

    kinds = (*_FUNCTIONS, ast.ClassDef)
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
                    if isinstance(item, _FUNCTIONS)
                    and not _is_dunder(item.name)
                    and not method_read(node.name, item.name)
                    and f"{node.name}.{item.name}" not in OVERRIDES
                ]
    return out


# (module, class, method): a dead method added to the package, one at a time
DEAD_METHODS = [
    ("codes.py", "NeuralCode", "to_json"),
    ("codes.py", "NeuralCode", "missing"),
    ("codes.py", "NeuralCode", "code"),
    ("realize/geometry.py", "Interval", "vertices"),
    ("decider.py", "Report", "text"),
    ("realize/geometry.py", "Polygon", "word"),
    ("topology.py", "ClassifiedNerve", "support"),
    ("decider.py", "Report", "triples"),
    ("topology.py", "ClassifiedNerve", "_key"),
]


def _package_sources() -> dict:
    return {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}


def test_no_functools_cached_property():
    """Fields computed on first read are codes._cached, which takes no lock;
    functools.cached_property takes one on Python 3.10 and 3.11, and the
    definition check above reads only the names it knows."""
    for module, source in _package_sources().items():
        names = {
            getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        }
        assert "cached_property" not in names, module


def test_no_unused_module_definitions():
    sources = _package_sources()
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
            "class Code:\n"
            "    def facets(self): return 0\n"
            "    def support(self): return self.words()\n"
            "    def words(self): return 0\n"
            "    def missing(self): return 3\n"
            "class Structure:\n"
            "    def facets(self): return 1\n"
            "    def missing(self): return 2\n"
            "def structure() -> 'Structure': return Structure()\n"
        ),
        "b.py": (
            "import argparse\n"
            "from .a import dead, Used, Code, Structure, structure\n"
            "import a\n"
            "def only_as_attribute(): pass\n"
            "x = Used()\n"
            "a.only_as_attribute\n"
            "def show(s: Structure, args: argparse.Namespace, code: Optional['Code'], thing):\n"
            "    return s.facets, args.facets, code.support(), thing.read_method()\n"
            "show(Structure(), None, Code(), x)\n"
            "structure().missing()\n"
            "def each(rows: Tuple['Structure', ...], by: Dict[int, Structure]):\n"
            "    for row in rows:\n"
            "        row.missing()\n"
            "    for k, v in by.items():\n"
            "        v.missing()\n"
            "    return [v.missing() for v in by.values()], by[0].missing()\n"
            "each((), {})\n"
        ),
    }
    # Code.facets is dead: the facets read are Structure's and a Namespace's;
    # Code.missing too, as each element read is a Structure; thing's class
    # is unknown, so its read counts for Unused.read_method
    assert unused_definitions(sources, {"public"}) == [
        ("a.py", 3, "dead"), ("a.py", 5, "Unused"), ("a.py", 6, "Unused.method"),
        ("a.py", 11, "__setattr__"), ("a.py", 13, "Code.facets"), ("a.py", 16, "Code.missing"),
    ]
    # each once survived alone, read through a loop variable over a
    # container whose element class the check did not follow, or through a
    # receiver with no annotation (CodeStructure.packed and .code, the
    # sprocket search's pool, and the other operand of _Frozen.__eq__)
    package = _package_sources()
    exported = _exported(ast.parse(package["__init__.py"]))
    for module, cls, name in DEAD_METHODS:
        header = re.search(rf"^class {cls}\b.*:\n", package[module], re.M).end()
        text = package[module]
        patched = {**package, module: f"{text[:header]}    def {name}(self): return 0\n{text[header:]}"}
        assert [found[2] for found in unused_definitions(patched, exported)] == [f"{cls}.{name}"]


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
    sources = _package_sources()
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
checks = (topology.is_collapsible, topology._acyclic, topology.nerve)
print(sorted(f.__qualname__ for f in checks if f.__code__ in seen))
print(hasattr(topology, "REFERENCE_COMPLEXES"))
"""


def test_import_runs_no_contractibility_check():
    """The nerve catalog's contractible classes are a literal: importing the
    package runs no collapse search, no homology and no nerve
    (tests/test_topology.py checks the literal)."""
    assert _run_cold(IMPORT_WORK) == ["[]", "False"]
