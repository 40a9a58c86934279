"""Every name a module under src/ or tests/ imports is used in that module, every
top-level function or class of the package is named somewhere in it, every
function the benchmark tracer wraps exists and has the parameters its counter reads,
every check the benchmark gate requires is registered, and the oracles import
nothing of the production numerics."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from deltabox.verify import CHECKS

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"
GATE = ROOT / "perfbench" / "gate.py"
PACKAGE = ROOT / "src" / "deltabox"
ORACLES = PACKAGE / "oracles.py"
# named by the tests and the benchmark tracer only, until the tracer traces what runs
UNREFERENCED_ALLOWED = ["kernels.slope_moments", "spectral.project_function"]

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


def unreferenced_definitions(modules: dict[str, ast.Module]) -> list[str]:
    """'module.name' of every top-level function or class that no module but `__init__`
    names (as a name or an attribute) outside the definition itself.  A function under
    `@check(...)` is named by its registration in verify.CHECKS."""
    defined, named = [], set()
    for module, tree in modules.items():
        if module == "__init__":
            continue
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = top.name
                if not any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "check"
                           for d in top.decorator_list):
                    defined.append(f"{module}.{own}")
            named |= {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(top)
                      if isinstance(sub, (ast.Name, ast.Attribute))} - {own}
    return sorted(entry for entry in defined if entry.split(".")[1] not in named)


def test_every_definition_is_named():
    # unused code goes: a function only the tests (or nothing) call is moved or deleted
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(modules) == UNREFERENCED_ALLOWED


def test_guard_finds_an_unnamed_definition():
    modules = {
        "greens": ast.parse("def _levels(lo, hi):\n    return lo\n"
                            "def _even_sector_poles(lo, hi):\n    return _even_sector_poles(lo, hi)\n"
                            "@check('greens')\ndef check_poles():\n    pass\n"
                            "@dataclass\nclass Shift:\n    lam: float\n"),
        "cli": ast.parse("from .greens import _levels\nx = _levels(0, 1), greens.Shift\n"),
        "__init__": ast.parse("from .greens import _even_sector_poles\n"
                              "__all__ = ['_even_sector_poles']\n"),
    }
    assert unreferenced_definitions(modules) == ["greens._even_sector_poles"]


def targets_table(tree: ast.Module) -> ast.Dict:
    """The module-level TARGETS dict literal, read without importing the module that holds it."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            return node.value
    raise LookupError("no TARGETS table")


def traced_names(tree: ast.Module) -> list[str]:
    """'layer.name' for every entry of the TARGETS table."""
    table = targets_table(tree)
    return [f"{layer.value}.{name.value}"
            for layer, names in zip(table.keys, table.values) for name in names.keys]


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


def counter_keys(tree: ast.Module) -> dict[str, set[str]]:
    """'layer.name' -> the keys its counter reads, a["key"] on the counter's one
    argument, for every TARGETS entry whose counter is a function of the module."""
    reads = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.args.args:
            arg = node.args.args[0].arg
            reads[node.name] = {sub.slice.value for sub in ast.walk(node)
                                if isinstance(sub, ast.Subscript)
                                and isinstance(sub.value, ast.Name) and sub.value.id == arg
                                and isinstance(sub.slice, ast.Constant)}
    table = targets_table(tree)
    return {f"{layer.value}.{name.value}": reads[counter.id]
            for layer, names in zip(table.keys, table.values)
            for name, counter in zip(names.keys, names.values) if isinstance(counter, ast.Name)}


def unbound_keys(keys: dict[str, set[str]]) -> list[str]:
    """'layer.name: key' for every counter key that is no parameter of the function it counts."""
    unbound = []
    for entry, names in keys.items():
        layer, name = entry.split(".")
        params = inspect.signature(getattr(importlib.import_module(f"deltabox.{layer}"),
                                           name)).parameters
        unbound += [f"{entry}: {key}" for key in sorted(names) if key not in params]
    return unbound


def test_counters_read_parameters():
    # a counter reads the call's bound arguments by name, so a renamed parameter
    # would crash each traced benchmark iteration
    keys = counter_keys(ast.parse(TRACER.read_text(), str(TRACER)))
    assert keys and all(keys.values())
    assert unbound_keys(keys) == []


def test_guard_finds_an_unbound_counter_key():
    tree = ast.parse("def _steps(a):\n    return {'n': a['grid'].n_steps * len(a['modes'])}\n"
                     "def _size(args):\n    return {'bytes': len(args['text'])}\n"
                     "TARGETS = {\n    'charge': {'_march': _steps, 'apply_U': None},\n"
                     "    'iofiles': {'atomic_write_text': _size},\n}\n")
    keys = counter_keys(tree)
    assert keys == {"charge._march": {"grid", "modes"}, "iofiles.atomic_write_text": {"text"}}
    assert unbound_keys(keys) == ["charge._march: modes"]


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
