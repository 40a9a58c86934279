"""Outside-in span tracer for deltabox.

Public functions are wrapped where they are looked up, not where they are
defined: `propagator` and `control` import `solve_charge`, `_march`,
`apply_U` and `free_origin_series` by name, and the verify battery keeps its
checks in lists.  `install` therefore replaces every reference held by a
loaded deltabox module, including those inside module-level lists and dicts
of lists.  Spans stay in memory; the caller writes them out at exit.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time


def _odd_modes(k_max: int) -> int:
    return (int(k_max) + 1) // 2


def _march_counts(a) -> dict:
    steps = a["grid"].n_steps
    return {"steps": steps, "mode_steps": steps * _odd_modes(a["k_max"])}


def _origin_series_counts(a) -> dict:
    coeff = a["c"].a[0::2]
    points = len(a["times"])
    return {"mode_points": points * coeff.size,
            "useful_points": points * int((coeff != 0).sum())}


def _text_bytes(a) -> dict:
    return {"bytes": len(a["text"].encode())}


def _file_bytes(a) -> dict:
    return {"bytes": os.path.getsize(a["path"])}


# layer -> function name -> counter computed from the bound call arguments
# (None: calls and times only).  green_origin is left out on purpose: it is
# the root-finder's inner function and would dominate the span count.
TARGETS = {
    "spectral": {"free_origin_series": _origin_series_counts, "evaluate_state": None,
                 "project_function": None, "free_evolve": None},
    "greens": {"static_eigenvalues": None, "green_series": None, "green_closed": None,
               "green_coefficients": None},
    "kernels": {"phi1": None, "phi2": None, "slope_moments": None, "segment_moments": None},
    "charge": {"_march": _march_counts, "solve_charge": None, "solve_charge_general": None,
               "apply_U": None, "initial_charge": None, "lipschitz_probe": None},
    "propagator": {"evolve": None, "assemble_F": None, "diagnostics": None,
                   "decompose": None, "apply_hamiltonian": None},
    "control": {"gamma": None, "apply_linearized": None, "solve_moment": None,
                "moment_residual": None, "synthesize_control": None,
                "controllability_experiment": None},
    "oracles": {"picard_charge": None, "fd_spectrum": None, "galerkin_evolution": None},
    "verify": {"run_checks": None},
    "iofiles": {"atomic_write_text": _text_bytes, "load_state": _file_bytes,
                "load_target_csv": _file_bytes, "save_state": _file_bytes,
                "save_trajectory_csv": _file_bytes, "save_control_csv": _file_bytes,
                "save_spectrum_csv": _file_bytes, "write_manifest": _file_bytes},
    "cli": {"main": None},
}

# Functions whose bytes are the layer's own traffic; the save_* writers go
# through atomic_write_text, so adding theirs would count each write twice.
IO_LEAVES = ("iofiles.atomic_write_text", "iofiles.load_state", "iofiles.load_target_csv")


class Tracer:
    """Records (name, start, end, parent, counts) for every wrapped call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = counter(bound.arguments)
            return result

        return traced


def _replace(namespace: dict, originals: dict) -> None:
    for key, value in list(namespace.items()):
        if callable(value) and id(value) in originals:
            namespace[key] = originals[id(value)]
        elif isinstance(value, list):
            _replace_in_list(value, originals)
        elif isinstance(value, dict) and key != "__builtins__":
            for inner in value.values():
                if isinstance(inner, list):
                    _replace_in_list(inner, originals)


def _replace_in_list(items: list, originals: dict) -> None:
    for i, value in enumerate(items):
        if callable(value) and id(value) in originals:
            items[i] = originals[id(value)]


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS function and every verify check at all their import sites."""
    modules = {name: mod for name, mod in sys.modules.items()
               if mod is not None and (name == "deltabox" or name.startswith("deltabox."))}
    originals: dict[int, object] = {}
    for layer, functions in TARGETS.items():
        mod = modules[f"deltabox.{layer}"]
        for fname, counter in functions.items():
            fn = getattr(mod, fname)
            originals[id(fn)] = tracer.wrap(f"{layer}.{fname}", fn, counter)
    verify = modules["deltabox.verify"]
    for check in verify.CHECKS:
        originals[id(check)] = tracer.wrap(f"verify.{check.__name__}", check)
    for mod in modules.values():
        _replace(vars(mod), originals)


def summarize(spans: list[list]) -> dict:
    """Per-name calls, total_s (outermost spans of that name), self_s and counts.

    A span's self time is its duration minus the durations of its direct
    children; calls run one at a time, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        if not _has_ancestor(spans, parent, name):
            entry["total_s"] += end - start
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return out


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
