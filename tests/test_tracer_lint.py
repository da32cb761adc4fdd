"""Every function the benchmark tracer wraps is a callable of the package.

A stand-in for a lint step, next to ``test_imports.py``: ``bench/tracer.py``
binds its layers by module and function name (``FUNCTION_LAYERS``), so a
rename in ``src/`` would otherwise pass here and fail only the benchmark.
The tracer file is parsed with ``ast``; nothing under ``bench/`` runs.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _function_layers() -> tuple:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "FUNCTION_LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return ()


LAYERS = _function_layers()


def test_the_tracer_names_layers():
    assert LAYERS


@pytest.mark.parametrize("layer, module, attr", LAYERS, ids=[layer for layer, _, _ in LAYERS])
def test_traced_function_resolves(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{layer}: {module}.{attr}"
