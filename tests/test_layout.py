"""Module layout rules of the package, checked on its source.

Imports sit at module level, so a module's dependencies are visible at its
top, and no module imports another module's private (underscore) names.
No module keeps a private twin `_name` of a module-level function `name`:
one code path per computation.
The functions the benchmark's traced run wraps keep their names, modules
and the parameter it reads.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from regretaudit.core import write_transcript

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "regretaudit"
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


def private_twins(tree: ast.Module) -> list[str]:
    """Module-level functions `name` that have a module-level `_name`."""
    names = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return sorted(name for name in names if "_" + name in names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert function_local_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert private_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_twins(path):
    assert private_twins(ast.parse(path.read_text())) == []


def test_rules_catch_offending_source():
    tree = ast.parse(
        "from .core import _fmt, validate\n"
        "def f():\n"
        "    import json\n"
        "    return json\n"
        "def g():\n"
        "    return _g()\n"
        "def _g():\n"
        "    return 1\n"
    )
    assert function_local_imports(tree) == [3]
    assert private_imports(tree) == [(1, "_fmt")]
    assert private_twins(tree) == ["g"]


def traced_layers() -> list[str]:
    """The keys of LAYERS in perfbench/tracing.py, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/tracing.py assigns no LAYERS")


def resolves_to_function(name: str) -> bool:
    module, attr = name.rsplit(".", 1)
    return inspect.isfunction(getattr(importlib.import_module(f"regretaudit.{module}"), attr, None))


def test_traced_layers_resolve_to_functions():
    layers = traced_layers()
    assert layers
    assert [name for name in layers if not resolves_to_function(name)] == []
    # The traced run counts the bytes written from this argument.
    assert "sink" in inspect.signature(write_transcript).parameters
