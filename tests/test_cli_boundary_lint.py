"""``cli.main`` is the one place that turns an exception into an exit code.

A stand-in for a lint step, next to ``test_not_converged_lint.py``:
``src/alphaneg/cli.py`` is parsed with ``ast``, and an ``except`` clause is
flagged unless its outermost enclosing function is ``main`` or
``_sweep_orders`` (which re-raises with the grid spec in the message).
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "alphaneg" / "cli.py"
CATCH_SITES = {"main", "_sweep_orders"}


def _violations(tree: ast.Module) -> list[str]:
    found = []

    def visit(node, outer):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and outer is None:
            outer = node.name
        if isinstance(node, ast.ExceptHandler) and outer not in CATCH_SITES:
            found.append(f"cli.py:{node.lineno} catches in {outer or 'module scope'}")
        for child in ast.iter_child_nodes(node):
            visit(child, outer)

    visit(tree, None)
    return found


def test_cli_catches_only_at_its_boundary():
    found = _violations(ast.parse(CLI.read_text(encoding="utf-8"), filename=str(CLI)))
    assert not found, "; ".join(found)


def test_checker_flags_catches_outside_the_boundary():
    source = (
        "def main():\n"
        "    def run():\n"
        "        try:\n"
        "            pass\n"
        "        except OSError:\n"  # nested in main: allowed
        "            pass\n"
        "def cmd_compute():\n"
        "    try:\n"
        "        pass\n"
        "    except (ValueError, KeyError):\n"
        "        pass\n"
        "    except Exception:\n"
        "        pass\n"
        "try:\n"
        "    pass\n"
        "except ImportError:\n"
        "    pass\n"
    )
    assert _violations(ast.parse(source)) == [
        "cli.py:10 catches in cmd_compute",
        "cli.py:12 catches in cmd_compute",
        "cli.py:16 catches in module scope",
    ]
