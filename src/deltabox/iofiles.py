"""File formats, config parsing, and reproducible-run plumbing.

All writes are atomic (temp file + rename).  Floats are serialized with
repr(), the shortest round-trip form, so identical runs produce bit-identical
artifacts.  CSV artifacts carry '#' header comments embedding the producing
configuration hash.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np

from .errors import InputError
from .spectral import SpectralCoefficients

CONFIG_VERSION = "1"


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_number(text: str, kind: type, what: str):
    """int(text) or a finite float(text); anything else raises InputError naming `what`."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or (kind is float and not np.isfinite(value)):
        expected = "an integer" if kind is int else "a finite number"
        raise InputError(f"{what}: expected {expected}, got {text!r}")
    return value


def _mode_coefficients(path: str, lines, k_max: int, what: str) -> SpectralCoefficients:
    """Coefficient vector from 'k,re,im' lines, 1 <= k <= k_max; unlisted modes are 0."""
    a = np.zeros(k_max, dtype=complex)
    for ln in lines:
        parts = ln.split(",")
        if len(parts) != 3:
            raise InputError(f"{path}: bad {what} line {ln!r}")
        k = parse_number(parts[0], int, f"{path}: mode index")
        if not 1 <= k <= k_max:
            raise InputError(f"{path}: mode index {k} outside 1..{k_max}")
        re_v, im_v = (parse_number(v, float, f"{path}: {what} line {ln!r}") for v in parts[1:])
        a[k - 1] = complex(re_v, im_v)
    return SpectralCoefficients(k_max, a)


def save_state(path: str, c: SpectralCoefficients) -> None:
    """State file: '# k_max=<int>' header then one 'k,re_a,im_a' line per mode."""
    lines = [f"# k_max={c.k_max}"]
    for k in range(1, c.k_max + 1):
        v = c.a[k - 1]
        lines.append(f"{k},{float(v.real)!r},{float(v.imag)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _text_lines(path: str) -> list[str]:
    """Stripped non-blank lines of a UTF-8 text file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return [ln for ln in map(str.strip, fh) if ln]
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def load_state(path: str) -> SpectralCoefficients:
    lines = _text_lines(path)
    if not lines or not lines[0].startswith("# k_max="):
        raise InputError(f"{path}: missing '# k_max=' header")
    k_max = parse_number(lines[0].split("=", 1)[1], int, f"{path}: k_max header")
    if k_max < 1:
        raise InputError(f"{path}: k_max must be positive, got {k_max}")
    return _mode_coefficients(path, lines[1:], k_max, "state")


def _header_comments(fields: dict) -> list[str]:
    return [f"# {key}={value}" for key, value in fields.items()]


def _save_series_csv(path: str, columns: str, times, values, fields: dict) -> None:
    """Header comments, the column line, then one 't,re,im' row per node.

    Rows are formatted from Python floats (.tolist()), a chunk of rows at a
    time so that few float objects are alive at once.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=complex)
    lines = _header_comments(fields)
    lines.append(columns)
    for start in range(0, times.size, 1024):
        rows = slice(start, start + 1024)
        lines += [f"{t!r},{re!r},{im!r}" for t, re, im in zip(
            times[rows].tolist(), values.real[rows].tolist(), values.imag[rows].tolist())]
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_trajectory_csv(path: str, times: np.ndarray, q: np.ndarray, fields: dict) -> None:
    _save_series_csv(path, "t,re_q,im_q", times, q, fields)


def save_spectrum_csv(path: str, eigs: list[tuple[float, str]], fields: dict) -> None:
    lines = _header_comments(fields)
    lines.append("E,sector")
    for energy, sector in eigs:
        lines.append(f"{float(energy)!r},{sector}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_control_csv(path: str, times: np.ndarray, u: np.ndarray, fields: dict) -> None:
    _save_series_csv(path, "t,re_u,im_u", times, u, fields)


def load_target_csv(path: str, k_max: int) -> SpectralCoefficients:
    """Control-target file: 'k,re_c,im_c' rows (header and '#' comments skipped)."""
    rows = [ln for ln in _text_lines(path) if not ln.startswith(("#", "k,"))]
    return _mode_coefficients(path, rows, k_max, "target")


def write_manifest(path: str, sections: dict) -> None:
    """Structured text manifest: '[section]' blocks of 'key=value' lines."""
    lines = []
    for section, mapping in sections.items():
        lines.append(f"[{section}]")
        for key, value in mapping.items():
            lines.append(f"{key}={value}")
        lines.append("")
    atomic_write_text(path, "\n".join(lines))


def parse_config_text(text: str, allowed_keys: set[str], source: str = "<config>") -> dict:
    """Key=value config with a mandatory version field; unknown keys rejected."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key != "version" and key not in allowed_keys:
            raise InputError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in out:
            raise InputError(f"{source}:{lineno}: duplicate config key {key!r}")
        out[key] = value
    if out.get("version") != CONFIG_VERSION:
        raise InputError(f"{source}: missing or unsupported version "
                         f"(need version={CONFIG_VERSION})")
    out.pop("version")
    return out


def config_hash(mapping: dict) -> str:
    canon = "\n".join(f"{k}={mapping[k]}" for k in sorted(mapping))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
