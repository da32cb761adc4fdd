"""Every name a package module imports is used by that module.

A stand-in for a lint step: each ``src/alphaneg/*.py`` except the package
``__init__`` (which re-exports) is parsed with ``ast``, and every name bound
by an import statement must be referenced somewhere else in the module, as a
plain name, the root of an attribute chain, or an entry of ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "alphaneg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
