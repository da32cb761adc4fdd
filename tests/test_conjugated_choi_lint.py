"""The package has one free-operation test: ``linalg._conjugated_choi`` is
called only in ``channels._cp_slack``, which ``is_cpptp``,
``is_cpptp_instrument`` and ``resource._check_free_operation`` share, and in
``solver._kappa_core``, which reads the map's matrix from it.

A stand-in for a lint step, next to ``test_channel_search_lint.py``: each
``src/alphaneg/*.py`` is parsed with ``ast``.  A site is named by its module
and its outermost enclosing function; a use of the name other than a call,
such as passing it on or importing it under another name, counts as a call.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "alphaneg"
NAME = "_conjugated_choi"
ALLOWED = {("channels", "_cp_slack"), ("solver", "_kappa_core")}


def _uses(tree: ast.Module) -> list[tuple[str | None, int]]:
    """(outermost enclosing function or None, line) of each use of the name
    outside its own definition and plain imports."""
    uses = []

    def visit(node, outer):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and outer is None:
            outer = node.name
        if isinstance(node, ast.Name) and node.id == NAME:
            uses.append((outer, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == NAME:
            uses.append((outer, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            uses.extend(
                (outer, node.lineno)
                for a in node.names
                if a.name == NAME and a.asname not in (None, NAME)
            )
        for child in ast.iter_child_nodes(node):
            visit(child, outer)

    visit(tree, None)
    return uses


def _violations(module: str, tree: ast.Module) -> list[str]:
    return [
        f"{module}.py:{line} uses {NAME}"
        for func, line in _uses(tree)
        if (module, func) not in ALLOWED
    ]


def test_two_sites_use_the_conjugated_choi_builder():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found, sites = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += _violations(path.stem, tree)
        sites |= {(path.stem, func) for func, _ in _uses(tree)}
    assert not found, "; ".join(found)
    assert sites == ALLOWED


def test_checker_flags_uses_outside_the_two_sites():
    source = (
        "from .linalg import _conjugated_choi\n"
        "from .linalg import _conjugated_choi as build\n"
        "from . import linalg\n"
        "def _cp_slack(channel):\n"
        "    def inner():\n"
        "        return _conjugated_choi(channel)\n"
        "    return inner()\n"
        "def is_cpptp(channel):\n"
        "    return linalg._conjugated_choi(channel)\n"
        "def _check_free_operation(instr):\n"
        "    return map(_conjugated_choi, instr)\n"
        "_conjugated_choi(None)\n"
    )
    tree = ast.parse(source)
    assert _violations("channels", tree) == [
        "channels.py:2 uses _conjugated_choi",
        "channels.py:9 uses _conjugated_choi",
        "channels.py:11 uses _conjugated_choi",
        "channels.py:12 uses _conjugated_choi",
    ]
    assert _violations("solver", tree) == [
        "solver.py:2 uses _conjugated_choi",
        "solver.py:6 uses _conjugated_choi",
        "solver.py:9 uses _conjugated_choi",
        "solver.py:11 uses _conjugated_choi",
        "solver.py:12 uses _conjugated_choi",
    ]
