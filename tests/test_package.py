"""The package's public surface: ``sqkit.__all__`` against its imports."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import sqkit

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def test_every_perfbench_trace_site_resolves_to_a_callable():
    # perfbench wraps these module attributes in a traced run; a refactor
    # that drops or renames one must fail here, not only in the slow smoke test.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SITES
    unresolved = [
        f"{module}.{attr}"
        for module, attr, _name, _attrs in tracer.SITES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert unresolved == []
