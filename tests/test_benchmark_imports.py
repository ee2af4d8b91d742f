import ast
import importlib
from pathlib import Path

import hsroots.ehrhart

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def hsroots_imports():
    """(file, module, name) for every `from hsroots... import name` in perfbench."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module == "hsroots" or node.module.startswith("hsroots."):
                    for alias in node.names:
                        yield path.name, node.module, alias.name


def test_benchmark_imports_resolve():
    # the benchmark imports the package by name; a name it imports that the
    # package no longer has would fail the benchmark run, so fail here first
    found = list(hsroots_imports())
    assert found, "perfbench imports nothing from hsroots"
    missing = [
        f"{file}: from {module} import {name}"
        for file, module, name in found
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, missing


def test_benchmark_cache_reset_has_a_target():
    # the benchmark clears this cache before each pass and skips the reset
    # quietly when the name is gone, so later passes would time cached builds
    assert callable(hsroots.ehrhart._ehrhart_cached.cache_clear)
