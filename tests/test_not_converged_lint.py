"""``NotConvergedError`` is raised only by the Dykstra projection and caught
only where a projection is called.

A stand-in for a lint step, next to ``test_imports.py``: each
``src/alphaneg/*.py`` is parsed with ``ast``.  Measure solves report an
exhausted budget in ``MeasureResult`` instead of raising it, so a
``raise NotConvergedError`` outside ``pptgeom``, or an ``except`` clause
naming it outside ``solver._pg_core`` and ``cli.main``, is flagged.
A site is named by its module and its outermost enclosing function.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "alphaneg"
NAME = "NotConvergedError"
RAISE_MODULES = {"pptgeom"}
CATCH_SITES = {("solver", "_pg_core"), ("cli", "main")}


def _names(node) -> set[str]:
    """Plain and attribute names under an expression (``a.B`` gives ``B``)."""
    if node is None:
        return set()
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _sites(tree: ast.Module) -> tuple[list, list]:
    """(raises, catches) of ``NotConvergedError``, each as (function, line);
    the function is the outermost enclosing one, or None at module level."""
    raises, catches = [], []

    def visit(node, outer):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and outer is None:
            outer = node.name
        if isinstance(node, ast.Raise) and NAME in _names(node.exc):
            raises.append((outer, node.lineno))
        if isinstance(node, ast.ExceptHandler) and NAME in _names(node.type):
            catches.append((outer, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, outer)

    visit(tree, None)
    return raises, catches


def _violations(module: str, tree: ast.Module) -> list[str]:
    raises, catches = _sites(tree)
    found = [
        f"{module}.py:{line} raises {NAME}"
        for _, line in raises
        if module not in RAISE_MODULES
    ]
    found += [
        f"{module}.py:{line} catches {NAME}"
        for func, line in catches
        if (module, func) not in CATCH_SITES
    ]
    return found


def test_not_converged_error_is_raised_and_caught_only_at_its_sites():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += _violations(path.stem, tree)
    assert not found, "; ".join(found)


def test_checker_flags_raises_and_catches_outside_their_sites():
    source = (
        "from .errors import NotConvergedError\n"
        "from . import errors\n"
        "def _pg_core():\n"
        "    def project():\n"
        "        try:\n"
        "            pass\n"
        "        except NotConvergedError:\n"  # allowed in solver only
        "            pass\n"
        "def e_alpha():\n"
        "    try:\n"
        "        pass\n"
        "    except (ValueError, errors.NotConvergedError) as exc:\n"
        "        raise NotConvergedError('budget')\n"
        "    except KeyError:\n"
        "        raise ValueError('other')\n"
        "raise errors.NotConvergedError\n"
    )
    tree = ast.parse(source)
    assert _violations("solver", tree) == [
        "solver.py:13 raises NotConvergedError",
        "solver.py:16 raises NotConvergedError",
        "solver.py:12 catches NotConvergedError",
    ]
    assert _violations("pptgeom", tree) == [
        "pptgeom.py:7 catches NotConvergedError",
        "pptgeom.py:12 catches NotConvergedError",
    ]
