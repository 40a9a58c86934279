"""Every name a module under src/ or tests/ imports is used in that module, every
function the benchmark tracer wraps exists, every check the benchmark gate
requires is registered, and the oracles import nothing of the production numerics."""

import ast
import importlib
from pathlib import Path

import pytest

from deltabox.verify import CHECKS

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"
GATE = ROOT / "perfbench" / "gate.py"
ORACLES = ROOT / "src" / "deltabox" / "oracles.py"

# what the independent oracles may take from the package: constants, the
# eigenvalues, the analytic tail, the grid, the errors, and the shift and root
# finder of the spectrum oracle; never the march's kernels (block_phases, lag_sums, _march)
ORACLE_IMPORTS = {"SpectralShift", "find_root", "odd_eigenvalues", "tail_deficit",
                  "BOX_HALF_WIDTH", "TimeGrid", "eigenvalues", "InputError", "SolverError"}


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


def gated_checks(tree: ast.Module) -> list[str]:
    """The names of the module-level VERIFY_CHECKS tuple literal, read without
    importing the module that holds it."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "VERIFY_CHECKS" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    raise LookupError("no VERIFY_CHECKS table")


def unregistered_checks(names: list[str]) -> list[str]:
    """The 'module.name' entries that no check in verify.CHECKS reports under."""
    registered = {f"{fn.module}.{fn.name}" for fn in CHECKS}
    return [name for name in names if name not in registered]


def test_gated_checks_are_registered():
    # the benchmark's verify gate fails an iteration on a check it does not find in the
    # report, so a renamed or deleted check would surface only as a failed benchmark run
    names = gated_checks(ast.parse(GATE.read_text(), str(GATE)))
    assert names
    assert unregistered_checks(names) == []


def test_guard_finds_an_unregistered_gated_check():
    tree = ast.parse("VERIFY_CHECKS = (\n    'spectral.parseval', 'spectral.gone',\n)\n")
    names = gated_checks(tree)
    assert names == ["spectral.parseval", "spectral.gone"]
    assert unregistered_checks(names) == ["spectral.gone"]


def package_imports(tree: ast.Module) -> set[str]:
    """The names bound by the relative (`from .x import ...`) imports of a module."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names}


def test_oracles_share_no_numerics_with_the_march():
    # an oracle that reused the production kernels would move with them, and its
    # cross-check would no longer be independent
    names = package_imports(ast.parse(ORACLES.read_text(), str(ORACLES)))
    assert names
    assert names - ORACLE_IMPORTS == set()


def test_guard_finds_a_shared_kernel():
    tree = ast.parse("import math\nfrom numpy import exp\n"
                     "from .kernels import tail_deficit, lag_sums\nfrom . import charge\n"
                     "def f():\n    from .charge import _march\n")
    assert package_imports(tree) - ORACLE_IMPORTS == {"lag_sums", "charge", "_march"}
