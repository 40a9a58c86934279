"""Count the size of deltabox's design: lines, parameters, dataclass fields, CLI flags.

    python3 tools/design_stats.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/deltabox of this checkout.  Over its *.py files
the script prints four numbers, one per line:

- lines: physical lines of every file (what `wc -l` counts);
- parameters: the parameters of every `def`, `async def` and `lambda`, nested
  ones included, positional-only, keyword-only, *args and **kwargs each
  counting one, and `self`/`cls` not counted;
- dataclass_fields: the annotated names in the body of every class decorated
  with `dataclass` (bare or called, plain or as `dataclasses.dataclass`);
- add_argument: the calls of a method named `add_argument`.

So a change that simplifies the design reports its before -> after numbers
from one set of rules.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def source_stats(text: str) -> dict:
    """The four counts of one module's source text."""
    counts = {"lines": len(text.splitlines()), "parameters": 0, "dataclass_fields": 0,
              "add_argument": 0}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            counts["parameters"] += sum(name not in ("self", "cls") for name in names)
        elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            counts["dataclass_fields"] += sum(
                isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                for stmt in node.body)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"):
            counts["add_argument"] += 1
    return counts


def package_stats(folder: str) -> dict:
    """source_stats summed over the *.py files of folder (not its subfolders)."""
    total = dict.fromkeys(("lines", "parameters", "dataclass_fields", "add_argument"), 0)
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                for key, value in source_stats(fh.read()).items():
                    total[key] += value
    return total


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    folder = argv[0] if argv else os.path.join(ROOT, "src", "deltabox")
    for key, value in package_stats(folder).items():
        print(f"{key} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
