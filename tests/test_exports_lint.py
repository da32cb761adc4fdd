"""Every name the package ``__init__`` re-exports is one that the system
computes with, or a named entry point for a user.

A stand-in for a lint step, next to ``test_imports.py``: the relative imports
of ``src/alphaneg/__init__.py`` are parsed with ``ast``, and each re-exported
name must be referenced, as a plain name, an attribute or an imported name,
in a package module other than the one it comes from, or in a file under
``bench/``, unless ``ENTRY_POINTS`` lists it.  A public name that only its own
tests call is surface without a use: delete it, or move it into the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "alphaneg"
BENCH = ROOT / "bench"
PACKAGE = "__init__"

# Public names that the package itself does not call.
ENTRY_POINTS = (
    # quantities the paper defines
    "d_max",
    "sandwiched_renyi",
    "r_alpha",
    "r_alpha_channel",
    "free_instrument_monotonicity_check",
    # inputs a caller builds
    "werner_state",
    "PureState",
    "KrausChannel",
    "Instrument",
    "PositiveMapSpec",
    "builtin_map",
    # channel checks a caller runs
    "choi_of",
    "is_cpptp",
)


def _reexports(init: ast.Module) -> dict[str, str]:
    """Re-exported name -> the package module it is imported from."""
    return {
        alias.name: node.module or PACKAGE
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }


def _identifiers(tree: ast.Module) -> set[str]:
    """Plain names, attribute names and imported names in a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _unused_exports(init: ast.Module, users: dict[str, ast.Module], keep) -> list[str]:
    """Re-exports outside ``keep`` that no user other than their own module
    references."""
    refs = {user: _identifiers(tree) for user, tree in users.items()}
    return sorted(
        f"{name} (from .{module})"
        for name, module in _reexports(init).items()
        if name not in keep
        and not any(name in ids for user, ids in refs.items() if user != module)
    )


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _users() -> dict[str, ast.Module]:
    """The package modules by name, and the bench files as ``bench/<name>``."""
    users = {p.stem: _parse(p) for p in SRC.glob("*.py") if p.stem != PACKAGE}
    users.update({f"bench/{p.stem}": _parse(p) for p in BENCH.glob("*.py")})
    return users


def test_every_export_is_used_or_an_entry_point():
    unused = _unused_exports(_parse(SRC / "__init__.py"), _users(), ENTRY_POINTS)
    assert not unused, (
        "alphaneg re-exports names that neither src/ (outside their own module) "
        f"nor bench/ uses, and that ENTRY_POINTS does not list: {', '.join(unused)}"
    )


def test_entry_points_are_exported():
    exported = _reexports(_parse(SRC / "__init__.py"))
    assert sorted(set(ENTRY_POINTS) - set(exported)) == []


def test_checker_flags_an_export_only_its_own_module_uses():
    init = ast.parse("from .a import used, own, kept, attr\nfrom .b import other\n")
    users = {
        "a": ast.parse("def used(): pass\ndef own(): pass\ndef kept(): pass\nown()\n"),
        "b": ast.parse("from .a import used\ndef other(): pass\n"),
        "bench/run": ast.parse("import alphaneg\nalphaneg.a.attr()\n"),
    }
    assert _unused_exports(init, users, keep=("kept",)) == ["other (from .b)", "own (from .a)"]
    assert _unused_exports(init, users, keep=()) == [
        "kept (from .a)",
        "other (from .b)",
        "own (from .a)",
    ]
