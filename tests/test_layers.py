"""Imports point down the stack: no module imports, at run time, a module later in ORDER."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cirbench"

# Lowest first: a module may import only modules before it.
ORDER = ["errors", "_hash", "_io", "chunking", "corpus", "embedding", "injection", "retrieval", "evaluation", "cli", "__main__"]
LAYER = {module: depth for depth, module in enumerate(ORDER)}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _runtime_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, cirbench module) of every relative import outside an ``if TYPE_CHECKING:`` block."""
    found: list[tuple[int, str]] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # ``from . import x``: each name is a module or a package attribute
                found.extend((node.lineno, alias.name) for alias in node.names if alias.name != "__version__")
            else:
                found.append((node.lineno, node.module.split(".")[0]))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER)


@pytest.mark.parametrize("module", sorted(LAYER))
def test_imports_point_down_the_stack(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    upward = [f"line {line}: {target}" for line, target in _runtime_imports(tree) if LAYER.get(target, -1) > LAYER[module]]
    assert upward == [], f"{module} imports a module later in the order"


def test_a_type_checking_import_is_exempt_and_an_upward_import_is_caught():
    source = "if TYPE_CHECKING:\n    from .cli import main\nfrom . import __version__\nfrom .evaluation import run_sweep\n"
    assert _runtime_imports(ast.parse(source)) == [(4, "evaluation")]
