"""Module layout rules of the package, checked on its source.

Imports sit at module level, so a module's dependencies are visible at its
top, and no module imports another module's private (underscore) names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "regretaudit"
MODULES = sorted(PACKAGE.glob("*.py"))


def function_local_imports(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            lines += [
                inner.lineno
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            ]
    return sorted(set(lines))


def private_imports(tree: ast.AST) -> list[tuple[int, str]]:
    return [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert function_local_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert private_imports(ast.parse(path.read_text())) == []


def test_rules_catch_offending_source():
    tree = ast.parse(
        "from .core import _fmt, validate\n"
        "def f():\n"
        "    import json\n"
        "    return json\n"
    )
    assert function_local_imports(tree) == [3]
    assert private_imports(tree) == [(1, "_fmt")]
