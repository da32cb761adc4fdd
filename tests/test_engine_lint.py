"""The package has one measure engine: a ``MeasureResult`` is built only in
``resource._measure``, and ``_measure`` is reached only through
``solver.alpha_sweep`` (the partial transpose T_B, which ``e_alpha`` and
``e_kappa`` call with one order) and ``resource.r_alpha`` (any verified map).

A stand-in for a lint step, next to ``test_conjugated_choi_lint.py``: each
``src/alphaneg/*.py`` is parsed with ``ast``.  A site is named by its module
and its outermost enclosing function.  For the result type only calls count,
since annotations name it everywhere; for the engine every use counts, such
as passing it on or importing it under another name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "alphaneg"
RESULT = "MeasureResult"
ENGINE = "_measure"
RESULT_SITES = {("resource", "_measure")}
ENGINE_SITES = {("solver", "alpha_sweep"), ("resource", "r_alpha")}


def _named(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def _uses(tree: ast.Module, name: str, calls_only: bool) -> list[tuple[str | None, int]]:
    """(outermost enclosing function or None, line) of each use of the name
    outside its own definition and plain imports; with ``calls_only``, of
    each call of it."""
    uses = []

    def visit(node, outer):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and outer is None:
            outer = node.name
        if calls_only:
            if isinstance(node, ast.Call) and _named(node.func, name):
                uses.append((outer, node.lineno))
        elif _named(node, name):
            uses.append((outer, node.lineno))
        if isinstance(node, ast.ImportFrom):
            uses.extend(
                (outer, node.lineno)
                for a in node.names
                if a.name == name and a.asname not in (None, name)
            )
        for child in ast.iter_child_nodes(node):
            visit(child, outer)

    visit(tree, None)
    return uses


def _violations(module: str, tree: ast.Module) -> list[str]:
    found = [
        f"{module}.py:{line} calls {RESULT}"
        for func, line in _uses(tree, RESULT, calls_only=True)
        if (module, func) not in RESULT_SITES
    ]
    found += [
        f"{module}.py:{line} uses {ENGINE}"
        for func, line in _uses(tree, ENGINE, calls_only=False)
        if (module, func) not in ENGINE_SITES
    ]
    return sorted(found, key=lambda v: int(v.split(":")[1].split()[0]))


def test_one_engine_builds_every_result():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found, result_sites, engine_sites = [], set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += _violations(path.stem, tree)
        result_sites |= {(path.stem, f) for f, _ in _uses(tree, RESULT, calls_only=True)}
        engine_sites |= {(path.stem, f) for f, _ in _uses(tree, ENGINE, calls_only=False)}
    assert not found, "; ".join(found)
    assert result_sites == RESULT_SITES
    assert engine_sites == ENGINE_SITES


def test_checker_flags_results_and_engine_uses_outside_their_sites():
    source = (
        "from .resource import _measure\n"
        "from .resource import _measure as engine\n"
        "from . import resource\n"
        "def e_alpha(rho) -> MeasureResult:\n"
        "    return resource._measure(rho)[0]\n"
        "def alpha_sweep(rho):\n"
        "    def inner():\n"
        "        return _measure(rho)\n"
        "    return inner()\n"
        "def _measure(rho):\n"
        "    return [MeasureResult(rho)]\n"
        "def bracket(result: MeasureResult):\n"
        "    return solver.MeasureResult(0.0)\n"
        "run = map(_measure, [])\n"
    )
    tree = ast.parse(source)
    assert _violations("solver", tree) == [
        "solver.py:2 uses _measure",
        "solver.py:5 uses _measure",
        "solver.py:11 calls MeasureResult",
        "solver.py:13 calls MeasureResult",
        "solver.py:14 uses _measure",
    ]
    assert _violations("resource", tree) == [
        "resource.py:2 uses _measure",
        "resource.py:5 uses _measure",
        "resource.py:8 uses _measure",
        "resource.py:13 calls MeasureResult",
        "resource.py:14 uses _measure",
    ]
