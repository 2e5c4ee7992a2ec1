"""Every name a module of the package imports is used in that module."""
import ast
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
