"""The package has one channel search: ``minimize`` is called only in
``channels._channel_search``, and only ``channels`` imports ``scipy.optimize``.

A stand-in for a lint step, next to ``test_not_converged_lint.py``: each
``src/alphaneg/*.py`` is parsed with ``ast``.  The benchmark's tracer sees a
search only through ``channels.optimize``, so a second search elsewhere would
run untraced.  A site is named by its module and its outermost enclosing
function.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "alphaneg"
SEARCH_SITE = ("channels", "_channel_search")
IMPORT_MODULE = "channels"


def _sites(tree: ast.Module) -> tuple[list, list]:
    """(``minimize`` calls as (function, line), ``scipy.optimize`` import
    lines); the function is the outermost enclosing one, or None."""
    calls, imports = [], []

    def visit(node, outer):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and outer is None:
            outer = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "minimize":
                calls.append((outer, node.lineno))
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            names = []
        if any(f"{n}.".startswith("scipy.optimize.") for n in names):
            imports.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, outer)

    visit(tree, None)
    return calls, imports


def _violations(module: str, tree: ast.Module) -> list[str]:
    calls, imports = _sites(tree)
    found = [
        f"{module}.py:{line} calls minimize"
        for func, line in calls
        if (module, func) != SEARCH_SITE
    ]
    found += [
        f"{module}.py:{line} imports scipy.optimize"
        for line in imports
        if module != IMPORT_MODULE
    ]
    return found


def test_one_search_calls_minimize():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found, searches = [], []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += _violations(path.stem, tree)
        searches += [(path.stem, func) for func, _ in _sites(tree)[0]]
    assert not found, "; ".join(found)
    assert searches == [SEARCH_SITE]


def test_checker_flags_searches_and_imports_outside_channels():
    source = (
        "import scipy.optimize\n"
        "from scipy import linalg, optimize\n"
        "from scipy.optimize import minimize\n"
        "import scipy.optimize._minimize as m\n"
        "from scipy import linalg\n"
        "def _channel_search():\n"
        "    def objective(x):\n"
        "        return optimize.minimize(x)\n"
        "    return optimize.minimize(objective)\n"
        "def r_alpha_channel():\n"
        "    return minimize(None)\n"
        "minimize(None)\n"
    )
    tree = ast.parse(source)
    assert _violations("channels", tree) == [
        "channels.py:11 calls minimize",
        "channels.py:12 calls minimize",
    ]
    assert _violations("resource", tree) == [
        "resource.py:8 calls minimize",
        "resource.py:9 calls minimize",
        "resource.py:11 calls minimize",
        "resource.py:12 calls minimize",
        "resource.py:1 imports scipy.optimize",
        "resource.py:2 imports scipy.optimize",
        "resource.py:3 imports scipy.optimize",
        "resource.py:4 imports scipy.optimize",
    ]
