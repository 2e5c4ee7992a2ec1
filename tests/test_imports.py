"""Every name a module of the package imports is used in that module,
every top-level function or class has a caller in the package or is
exported, so does every method, no function calls itself inside a
comprehension, and every exception class the package defines is a
``QarrowError``."""
import ast
import collections
import importlib
from pathlib import Path

import pytest

import qarrow

SOURCES = sorted(Path(qarrow.__file__).parent.glob("*.py"))


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, including one written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.returns is not None):
            used |= _annotation_names(node.returns)
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_annotations_and_unused_names():
    src = ("from typing import Optional\n"
           "from x import a, b, c\n"
           "def f(p: 'Optional[a]') -> b:\n"
           "    pass\n")
    assert unused_imports(src) == ["c"]


def absolute_imports(source: str) -> set[str]:
    """The top-level names of the modules `source` imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_the_collector():
    """A gain must come from allocating fewer tracked objects, not from
    switching CPython's cyclic collector off, freezing it or retuning it:
    that state belongs to the application that imports qarrow."""
    assert [p.name for p in SOURCES
            if "gc" in absolute_imports(p.read_text(encoding="utf-8"))] == []
    assert absolute_imports("import gc as g\nfrom os.path import join\n"
                            "from .gc import x\n") == {"gc", "os"}


# Top-level names kept without a caller in the package, with the reason.
KEPT: dict[str, str] = {}


def _referenced(tree: ast.AST) -> collections.Counter:
    """How often each name is read in `tree`, as a name, an attribute or
    inside a string annotation."""
    refs = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                refs.update(_annotation_names(ann))
    return refs


def orphans(sources: dict[str, str], exported: set[str]) -> list[str]:
    """``module.name`` of each top-level function or class, and
    ``module.Class.name`` of each method, in `sources` (module -> source)
    that no module reads outside its own definition and that is not in
    `exported`.  A method is read wherever any attribute of its name is."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    refs = sum((_referenced(t) for t in trees.values()), collections.Counter())
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            named = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                named += [(f"{node.name}.{m.name}", m) for m in node.body
                          if isinstance(m, ast.FunctionDef)]
            for qualname, d in named:
                # Python itself calls a dunder such as a module's
                # __getattr__ or a class's __init__
                if d.name.startswith("__") or qualname in exported:
                    continue
                if refs[d.name] <= _referenced(d)[d.name]:
                    found.append(f"{mod}.{qualname}")
    return sorted(found)


def test_no_orphans():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert orphans(sources, set(qarrow.__all__)) == sorted(KEPT)


def test_orphan_guard_sees_callers():
    sources = {"a": "def f():\n    return f()\n"
                    "def g():\n    pass\n"
                    "class C:\n"
                    "    def __init__(self):\n        self.m()\n"
                    "    def m(self):\n        pass\n"
                    "    def n(self):\n        return self.n()\n",
               "b": "from .a import g\n"
                    "def h() -> 'C':\n    return g()\n"}
    assert orphans(sources, {"h"}) == ["a.C.n", "a.f"]


# Functions kept calling themselves inside a comprehension, with the reason.
KEPT_SELF_CALLS: dict[str, str] = {
    "linalg.basis": "a type's basis has 2**depth elements, so this "
                    "recursion is never deep",
}

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _comprehension_scope(comp: ast.AST) -> list[ast.AST]:
    """The parts of a comprehension evaluated in its own frame: all but the
    first iterable, which the enclosing function evaluates."""
    first, *rest = comp.generators
    parts = [getattr(comp, f) for f in ("elt", "key", "value")
             if hasattr(comp, f)]
    return parts + [*first.ifs, *rest]


def self_calls_in_comprehensions(source: str) -> list[str]:
    """The qualified name of each function in `source` that calls itself,
    by its name or as ``self.name``, inside a comprehension or a generator
    expression.  Before Python 3.12 each of those is a stack frame of its
    own, which halves the depth of tree a recursive walk can take."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                if _calls_itself_in_comprehension(child):
                    found.append(prefix + child.name)
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(source), "")
    return found


def _calls_itself_in_comprehension(fn: ast.AST) -> bool:
    for comp in ast.walk(fn):
        if not isinstance(comp, _COMPREHENSIONS):
            continue
        for part in _comprehension_scope(comp):
            for call in ast.walk(part):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if ((isinstance(f, ast.Name) and f.id == fn.name)
                        or (isinstance(f, ast.Attribute) and f.attr == fn.name
                            and isinstance(f.value, ast.Name)
                            and f.value.id == "self")):
                    return True
    return False


def test_no_walk_recurses_inside_a_comprehension():
    found = [f"{p.stem}.{name}" for p in SOURCES for name in
             self_calls_in_comprehensions(p.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(KEPT_SELF_CALLS)


def test_self_call_guard_sees_comprehensions():
    src = ("def f(x):\n    return [f(y) for y in x]\n"
           "def g(x):\n    return tuple(y for y in g(x))\n"
           "def h(x):\n    out = []\n    for y in x:\n"
           "        out.append(h(y))\n    return out\n"
           "class C:\n"
           "    def m(self, x):\n        return {k: self.m(v) for k, v in x}\n"
           "    def n(self, x):\n        return [self.o.n(v) for v in x]\n")
    assert self_calls_in_comprehensions(src) == ["f", "C.m"]


def private_imports(source: str) -> list[str]:
    """``module.name`` of each underscore name imported from ``qarrow``."""
    return [f"{node.module}.{a.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "qarrow"
            for a in node.names if a.name.startswith("_")]


def test_the_reference_semantics_imports_no_private_name():
    """The oracle, found as perfbench finds it (the one ``tests/*.py`` that
    defines ``reference_super``), shares no private code with the engine."""
    defines = "def " + "reference_super"
    found = [p for p in sorted(Path(__file__).parent.glob("*.py"))
             if defines in p.read_text(encoding="utf-8")]
    assert [p.name for p in found] == ["reference.py"]
    assert private_imports(found[0].read_text(encoding="utf-8")) == []
    assert private_imports("from qarrow.evaluator import _x, y\n"
                           "from numpy import _z\n") == ["qarrow.evaluator._x"]


def test_every_error_is_a_qarrow_error():
    """``cli.main`` reports errors through one ``except QarrowError``, so an
    exception class outside that hierarchy would end in a traceback."""
    modules = [importlib.import_module(f"qarrow.{p.stem}") for p in SOURCES
               if p.stem != "__init__"]
    errors = [cls for m in modules for cls in vars(m).values()
              if isinstance(cls, type) and issubclass(cls, BaseException)
              and cls.__module__ == m.__name__]
    assert "qarrow.cli.CliError" in {f"{c.__module__}.{c.__name__}"
                                     for c in errors}
    assert [c.__name__ for c in errors
            if not issubclass(c, qarrow.QarrowError)] == []
