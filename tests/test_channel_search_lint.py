"""The package has one channel search: ``minimize`` is called only in
``channels._channel_search``, and only ``channels`` imports ``scipy.optimize``,
inside a function body, so that ``import alphaneg`` does not load it.

A stand-in for a lint step, next to ``test_not_converged_lint.py``: each
``src/alphaneg/*.py`` is parsed with ``ast``.  The benchmark's tracer sees a
search only through ``channels.optimize``, so a second search elsewhere would
run untraced.  A site is named by its module and its outermost enclosing
function.  A class body runs when its module is imported, so an import there
counts as a module-level one; a method body does not.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "alphaneg"
SEARCH_SITE = ("channels", "_channel_search")
IMPORT_MODULE = "channels"


def _sites(tree: ast.Module) -> tuple[list, list]:
    """(``minimize`` calls as (function, line), ``scipy.optimize`` imports as
    (function, line)); the function is the outermost enclosing one, or None
    at module level."""
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
            imports.append((outer, node.lineno))
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
    for func, line in imports:
        if module != IMPORT_MODULE:
            found.append(f"{module}.py:{line} imports scipy.optimize")
        elif func is None:
            found.append(f"{module}.py:{line} imports scipy.optimize at module level")
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
    channels = SRC / f"{IMPORT_MODULE}.py"
    imports = _sites(ast.parse(channels.read_text(encoding="utf-8")))[1]
    assert len(imports) == 1


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
        "channels.py:1 imports scipy.optimize at module level",
        "channels.py:2 imports scipy.optimize at module level",
        "channels.py:3 imports scipy.optimize at module level",
        "channels.py:4 imports scipy.optimize at module level",
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


def test_checker_flags_module_level_imports_in_channels():
    source = (
        "from scipy import optimize\n"
        "if True:\n"
        "    import scipy.optimize\n"
        "class _Lazy:\n"
        "    from scipy import optimize\n"
        "    def __getattr__(self, name):\n"
        "        from scipy import optimize as module\n"
        "        return getattr(module, name)\n"
        "def _channel_search():\n"
        "    import scipy.optimize\n"
        "    return scipy.optimize.minimize(None)\n"
    )
    assert _violations("channels", ast.parse(source)) == [
        "channels.py:1 imports scipy.optimize at module level",
        "channels.py:3 imports scipy.optimize at module level",
        "channels.py:5 imports scipy.optimize at module level",
    ]
