"""Every name a package module imports is used by that module, and no
function imports from a package module the module already imports from.

A stand-in for a lint step: each ``src/alphaneg/*.py`` except the package
``__init__`` (which re-exports) is parsed with ``ast``, and every name bound
by an import statement must be referenced somewhere else in the module, as a
plain name, the root of an attribute chain, or an entry of ``__all__``.  A
function-local ``from .mod import ...`` must break an import cycle: it is
needless when the module already imports from ``.mod`` at top level, or when
the top-level relative imports of ``.mod``, followed transitively, never reach
the importing module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "alphaneg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# ``from . import name`` reads the package ``__init__``
PACKAGE = "__init__"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, with the line that binds each."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _referenced_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def _target(node: ast.ImportFrom) -> str:
    return node.module or PACKAGE


def _top_level_targets(tree: ast.Module) -> set[str]:
    """Package modules that the module body imports from."""
    return {_target(n) for n in tree.body if isinstance(n, ast.ImportFrom) and n.level}


def _reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    """Modules reached from ``start`` by one or more top-level imports."""
    seen, stack = set(), list(graph.get(start, ()))
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(graph.get(name, ()))
    return seen


def _needless_local_imports(name: str, trees: dict[str, ast.Module]) -> list[str]:
    """Relative imports below the top level of module ``name`` that break no
    import cycle: the top level already imports from the same module, or that
    module's top-level imports never lead back to ``name``."""
    graph = {mod: _top_level_targets(tree) for mod, tree in trees.items()}
    tree = trees[name]
    top_ids = {id(n) for n in tree.body}
    local = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom)
        and n.level
        and id(n) not in top_ids
        and (_target(n) in graph[name] or name not in _reachable(graph, _target(n)))
    ]
    return [
        f"from {'.' * n.level}{n.module or ''} import ... (line {n.lineno})"
        for n in sorted(local, key=lambda n: n.lineno)
    ]


def _package_trees() -> dict[str, ast.Module]:
    return {
        p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in SRC.glob("*.py")
    }


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _referenced_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_checker_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nx = pi\n")
    unused = set(_imported_names(tree)) - _referenced_names(tree)
    assert unused == {"os", "tau"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_needless_local_imports(path):
    needless = _needless_local_imports(path.stem, _package_trees())
    assert not needless, (
        f"{path.name} imports inside a function where no import cycle needs it: "
        f"{', '.join(needless)}"
    )


def test_checker_flags_a_needless_local_import():
    sources = {
        "a": "from .b import x\n",
        "b": "from .c import y\n",
        "c": "z = 1\n",
        "m": (
            "from .c import z\n"
            "def f():\n"
            "    from .c import y\n"  # needless: .c is imported at top level
            "    from .b import x\n"  # needless: .b -> .c never reaches m
            "    from a import w\n"  # absolute, not a package module
            "    return x, y, z, w\n"
        ),
        "n": (
            "def g():\n"
            "    from .a import x\n"  # needless while .a -> .b -> .c stops short of n
            "    from . import v\n"  # needless while the package never reaches n
            "    return x, v\n"
        ),
        PACKAGE: "from .a import x\n",
    }
    trees = {name: ast.parse(src) for name, src in sources.items()}
    assert _needless_local_imports("m", trees) == [
        "from .c import ... (line 3)",
        "from .b import ... (line 4)",
    ]
    assert _needless_local_imports("n", trees) == [
        "from .a import ... (line 2)",
        "from . import ... (line 3)",
    ]
    trees["c"] = ast.parse("from .n import g\n")  # now .a -> .b -> .c -> .n
    assert _needless_local_imports("n", trees) == []
