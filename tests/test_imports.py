"""Every name a module under src/ or tests/ imports is used in that module, and
every function the benchmark tracer wraps exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements that no expression, attribute base or
    __all__ entry refers to; `from __future__` imports are directives."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_guard_finds_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nimport numpy.linalg\n"
                     "__all__ = ['tau']\nprint(numpy.linalg.norm)\n")
    assert unused_imports(tree) == ["os (line 1)", "pi (line 2)"]


def traced_names(tree: ast.Module) -> list[str]:
    """'layer.name' for every entry of the module-level TARGETS dict literal,
    read without importing the module that holds it."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            return [f"{layer.value}.{name.value}"
                    for layer, names in zip(node.value.keys, node.value.values)
                    for name in names.keys]
    raise LookupError("no TARGETS table")


def missing_names(names: list[str]) -> list[str]:
    """The 'layer.name' entries with no attribute `name` in module deltabox.<layer>."""
    missing = []
    for entry in names:
        layer, name = entry.split(".")
        if not hasattr(importlib.import_module(f"deltabox.{layer}"), name):
            missing.append(entry)
    return missing


def test_traced_functions_exist():
    # the tracer looks every TARGETS entry up by name, so a deleted or renamed
    # function would crash each traced benchmark iteration
    names = traced_names(ast.parse(TRACER.read_text(), str(TRACER)))
    assert names
    assert missing_names(names) == []


def test_guard_finds_a_missing_traced_function():
    tree = ast.parse("TARGETS = {\n    'kernels': {'phi1': None, 'gone': None},\n"
                     "    'charge': {'apply_U': len},\n}\n")
    names = traced_names(tree)
    assert names == ["kernels.phi1", "kernels.gone", "charge.apply_U"]
    assert missing_names(names) == ["kernels.gone"]
