"""The package's public surface: the names ``sqkit`` binds against its imports, the
perfbench tracer sites that wrap it, and the modules a command loads."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sqkit
from sqkit.cli import main
from test_cli import BASE_RECIPE, MDF_RECIPE, write_recipe

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
    # The public names are the ones sqkit/__init__.py imports: each is
    # imported once and resolves, and the package binds no other public
    # name but its submodules.
    imported = imported_public_names()
    assert [name for name, count in Counter(imported).items() if count > 1] == []
    assert [name for name in imported if not hasattr(sqkit, name)] == []
    public = {name for name, value in vars(sqkit).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(imported)


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_every_name_a_demo_imports_from_sqkit_resolves(demo):
    # CI runs the demos in their own step; this catches a public name a
    # refactor removed or renamed in Tier-1, without running them.
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "sqkit"
    ]
    assert imports
    unresolved = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if not hasattr(importlib.import_module(node.module), alias.name)
    ]
    assert unresolved == []


def test_a_command_never_imports_scipy(tmp_path):
    # scipy is a test-only oracle. A fresh interpreter runs a whole command,
    # so an import deferred into a function body shows too, not only one at
    # module level.
    config, out = write_recipe(tmp_path), tmp_path / "out"
    code = (
        "import sys\n"
        "from sqkit.cli import main\n"
        f"assert main(['benchmark', '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(sqkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def load_tracer():
    """perfbench/tracer.py as a module, read where it lies."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_perfbench_trace_site_resolves_to_a_callable():
    # perfbench wraps these module attributes in a traced run; a refactor
    # that drops or renames one must fail here, not only in the slow smoke test.
    tracer = load_tracer()
    assert tracer.SITES
    unresolved = [
        f"{module}.{attr}"
        for module, attr, _name, _attrs in tracer.SITES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert unresolved == []


@pytest.mark.parametrize("recipe, steps", [(BASE_RECIPE, [60]), (MDF_RECIPE, [60, 20])], ids=["plain", "mdf"])
def test_a_traced_pipeline_fills_every_span_attribute(tmp_path, recipe, steps):
    # The tracer's attribute extractors read sqkit's results (a featurized
    # matrix's n_frames, a TrainResult's steps_run): a refactor that breaks
    # one must fail here too. Each training phase is one training.train span.
    module = load_tracer()
    config = tmp_path / "recipe.cfg"
    config.write_text(recipe, encoding="utf-8")
    tracer = module.Tracer()
    tracer.install()
    try:
        codes = [
            main([command, "--config", str(config), "--out", str(tmp_path / "out")])
            for command in ("prepare", "train", "infer", "benchmark")
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    assert tracer.missing == []
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span[module.SPAN_NAME], []).append(span[module.SPAN_ATTRS])
    assert spans["frontend.featurize"] and all(attrs["frames"] > 0 for attrs in spans["frontend.featurize"])
    assert [attrs["steps"] for attrs in spans["training.train"]] == steps
