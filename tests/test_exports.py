"""``cirbench.__all__`` names exactly the public names the package imports, and each resolves."""

from __future__ import annotations

import ast
from pathlib import Path

import cirbench

INIT = Path(__file__).resolve().parent.parent / "src" / "cirbench" / "__init__.py"


def _imported_public_names() -> set[str]:
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_exported_name_resolves():
    missing = [name for name in cirbench.__all__ if not hasattr(cirbench, name)]
    assert missing == []


def test_every_imported_public_name_is_exported():
    assert sorted(cirbench.__all__) == sorted(_imported_public_names())
    assert len(set(cirbench.__all__)) == len(cirbench.__all__)
