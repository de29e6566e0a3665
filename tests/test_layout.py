"""Module layout rules of the package, checked on its source.

Imports sit at module level, so a module's dependencies are visible at its
top, and no module imports another module's private (underscore) names;
nor does any module of the tests.
No module keeps a private twin `_name` of a module-level function `name`:
one code path per computation.
Every public module-level name, and every public method or property of the
package's classes, is used by the package itself or traced by the
benchmark: what only tests call lives under tests/. Likewise the package
directory holds Python modules only: data that only tests read lives there
too.
The functions the benchmark's traced run wraps keep their names, modules
and the parameter it reads, and the commands it runs still call each of
them through a module attribute, where the tracer can wrap it.
The auditor never sees a market or an oracle: `audit` imports only `core`,
and `aggregate` only `core` and `audit`; and the market, the oracles, the
simulator and the figures never import either audit.
"""

import ast
import importlib
import inspect
import json
import math
import sys
from pathlib import Path

import pytest

import regretaudit.cli
from regretaudit.core import CostRange, read_transcript, write_transcript

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "regretaudit"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# Public names that no module of the package refers to, and why each stays.
UNREFERENCED = {
    "__init__.__version__": "the package's version, for its users and packaging tools",
}


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
    """Underscore names imported relatively or from regretaudit."""
    return [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "regretaudit")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def package_imports(tree: ast.AST) -> set[str]:
    """The package modules that a module imports, relatively or from regretaudit."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        path = node.module or ""
        if node.level == 0:
            if path.split(".")[0] != "regretaudit":
                continue
            path = path.removeprefix("regretaudit").lstrip(".")
        out |= {path.split(".")[0]} if path else {alias.name for alias in node.names}
    return out


def private_twins(tree: ast.Module) -> list[str]:
    """Module-level functions `name` that have a module-level `_name`."""
    names = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return sorted(name for name in names if "_" + name in names)


def public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each public (or dunder) module-level name, and `Class.name` for each
    public method or property of a class, with the statement defining it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, node) for name in names if not name.startswith("_") or name.endswith("__"))
        if isinstance(node, ast.ClassDef):
            out.update(
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
            )
    return out


def statements(tree: ast.Module):
    """(node, top-level statement holding it) for each top-level statement,
    and for each decorator, base and body statement of a class."""
    for node in tree.body:
        parts = [node]
        if isinstance(node, ast.ClassDef):
            parts = [*node.decorator_list, *node.bases, *node.keywords, *node.body]
        yield from ((part, node) for part in parts)


def referenced(node: ast.AST) -> set[str]:
    """The names that code under `node` refers to, and its attribute names
    with a leading dot."""
    return {
        sub.id if isinstance(sub, ast.Name) else "." + sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def unreferenced_names(trees: dict[str, ast.Module], keep: set[str]) -> list[str]:
    """`module.name` of each public definition of `trees` (module -> parsed
    source) that is not in `keep` and that no module except __init__ refers
    to outside the statement defining it: a module-level name outside its
    top-level statement, by name or as an attribute, and a method
    (`module.Class.name`) outside its own body, as an attribute."""
    uses = [
        (node, top, referenced(node))
        for module, tree in trees.items()
        if module != "__init__"
        for node, top in statements(tree)
    ]
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, definition in public_definitions(tree).items()
        if f"{module}.{name}" not in keep
        and not any(
            ("." + name.rsplit(".", 1)[-1]) in names or name in names
            for node, top, names in uses
            if (node if "." in name else top) is not definition
        )
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert function_local_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert private_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_tests_import_no_private_names(path):
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
        "def dead():\n"
        "    return dead()\n"
        "LIMIT = f(g)\n"
        "class C:\n"
        "    def used(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        return 1\n"
        "    def unused(self):\n"
        "        return self.unused()\n"
        "C().used()\n"
    )
    assert function_local_imports(tree) == [3]
    assert private_imports(tree) == [(1, "_fmt")]
    assert private_twins(tree) == ["g"]
    assert package_imports(tree) == {"core"}
    other = ast.parse("from . import figures\nfrom regretaudit.audit import x\nimport json\n")
    assert package_imports(other) == {"figures", "audit"}
    a_test = ast.parse("from conftest import _helper\nfrom regretaudit.core import _DECODER, validate\n")
    assert private_imports(a_test) == [(2, "_DECODER")]
    # A use in __init__ does not count; LIMIT is kept by name. A method
    # counts as used from its own class, but not from its own body.
    trees = {"m": tree, "__init__": ast.parse("from .m import dead\nprint(dead)\n")}
    assert unreferenced_names(trees, {"m.LIMIT"}) == ["m.C.unused", "m.dead"]


def module_imports(name: str) -> set[str]:
    return package_imports(ast.parse((PACKAGE / f"{name}.py").read_text()))


@pytest.mark.parametrize("module, allowed", [("audit", {"core"}), ("aggregate", {"core", "audit"})])
def test_the_audits_import_only_core(module, allowed):
    assert module_imports(module) <= allowed


@pytest.mark.parametrize("module", ["market", "oracles", "sellers", "figures"])
def test_markets_oracles_and_the_simulator_never_import_the_audits(module):
    assert module_imports(module) & {"audit", "aggregate"} == set()


def non_modules(package: Path) -> list[str]:
    """The files under `package`, outside __pycache__, that are not .py modules."""
    return sorted(
        path.relative_to(package).as_posix()
        for path in package.rglob("*")
        if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts
    )


def test_package_holds_only_modules():
    assert non_modules(PACKAGE) == []


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


def test_every_public_name_is_used_or_traced():
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    assert unreferenced_names(trees, set(traced_layers()) | set(UNREFERENCED)) == []


def test_traced_layers_resolve_to_functions():
    layers = traced_layers()
    assert layers
    assert [name for name in layers if not resolves_to_function(name)] == []
    # The traced run counts the bytes written from this argument.
    assert "sink" in inspect.signature(write_transcript).parameters


def counting(name: str, fn, calls: dict[str, int]):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def reduced_copy(transcript: Path, reduced: Path) -> None:
    """The transcript's header and each record's t, posted and alloc."""
    with transcript.open(encoding="utf-8") as src, reduced.open("w", encoding="utf-8") as out:
        out.write(next(src))
        for line in src:
            record = json.loads(line)
            out.write(json.dumps({key: record[key] for key in ("t", "posted", "alloc")}) + "\n")


def test_traced_layers_are_called_by_the_commands(tmp_path, monkeypatch, capsys):
    # The benchmark's traced run: the four commands in-process, at its
    # duopoly-q-audit workload's tiny sizes, then the audit's public stages
    # one by one. Each layer is counted wherever the tracer would wrap it:
    # in every regretaudit module that binds the function.
    calls = dict.fromkeys(traced_layers(), 0)
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "regretaudit"]
    for name in calls:
        module, attr = name.rsplit(".", 1)
        original = getattr(importlib.import_module(f"regretaudit.{module}"), attr)
        for m in modules:
            if m.__dict__.get(attr) is original:
                monkeypatch.setattr(m, attr, counting(name, original, calls))
    cli = regretaudit.cli
    sim, fig, reduced = tmp_path / "sim", tmp_path / "fig", tmp_path / "reduced.jsonl"
    seller1 = sim / "transcript_rep0_seller1.jsonl"
    costs = ["--cost-lo", "0.1", "--cost-hi", "0.9"]
    gamma = math.log(1 / 5e-4) / math.log(600)
    duopoly = ["--preset", "duopoly", "--replications", "1", "--seed", "7"]
    assert cli.main(["simulate", *duopoly, "--rounds", "600", "--out", str(sim)]) == 0
    assert cli.main(["audit", str(seller1), *costs]) in (0, 2)
    reduced_copy(seller1, reduced)
    aggregated = ["--drift-gamma", repr(gamma), "--support-floor", "0.3"]
    assert cli.main(["audit-aggregated", str(reduced), *costs, *aggregated]) in (0, 2)
    assert cli.main(["figures", *duopoly, "--rounds", "300", "--sweep-points", "9", "--out", str(fig)]) == 0
    audit_module = importlib.import_module("regretaudit.audit")
    transcript = read_transcript(str(seller1))
    audit_module.estimate_allocations(transcript)
    curve = audit_module.regret_curve(transcript)
    audit_module.error_margin(transcript, 0.05)
    audit_module.minimize_over_cost(curve, CostRange(0.1, 0.9))
    capsys.readouterr()
    assert [name for name, n in calls.items() if n == 0] == []
