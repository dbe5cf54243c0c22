"""The package's public surface: ``sqkit.__all__`` against its imports."""

import ast
from collections import Counter
from pathlib import Path

import sqkit


def imported_public_names():
    """Names that ``sqkit/__init__.py`` imports from its submodules."""
    tree = ast.parse(Path(sqkit.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_all_names_resolve_appear_once_and_match_the_imports():
    repeated = [name for name, count in Counter(sqkit.__all__).items() if count > 1]
    assert repeated == []
    assert [name for name in sqkit.__all__ if not hasattr(sqkit, name)] == []
    imported = imported_public_names()
    assert len(imported) == len(set(imported))
    assert set(sqkit.__all__) == set(imported)
