"""File formats, config parsing, and reproducible-run plumbing.

All writes are atomic: `atomic_write_blocks` writes byte blocks to a temp file
and renames it over the target.  Floats are written as the bytes of repr(),
the shortest round-trip form, so identical runs produce bit-identical
artifacts.  The CSV series (`trajectory.csv`, `control.csv`) get those bytes
from a vectorized formatter for the values that repr() writes in fixed form,
1e-4 <= |x| < 1e15: shortest digits as in Ryu (Adams 2018), from Dekker's exact
products (Dekker 1971) with exact powers of ten.  Every other value, and every
one that the fast path cannot decide, takes repr()'s own bytes.  CSV artifacts
carry '#' header comments embedding the producing configuration hash.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import tempfile

import numpy as np

from .errors import InputError
from .spectral import SpectralCoefficients

CONFIG_VERSION = "1"


def atomic_write_blocks(path: str, blocks) -> None:
    """Write the bytes blocks of an iterable to `path` as one file: each block as it
    comes, to a temp file beside `path` that replaces it at the end.  If anything
    raises on the way, the temp file is removed and `path` is left as it was."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for block in blocks:
                fh.write(block)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_blocks(path, [text.encode()])


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
    """Coefficient vector from 'k,re,im' lines, 1 <= k <= k_max, each k at most once;
    unlisted modes are 0."""
    a = np.zeros(k_max, dtype=complex)
    listed = set()
    for ln in lines:
        parts = ln.split(",")
        if len(parts) != 3:
            raise InputError(f"{path}: bad {what} line {ln!r}")
        k = parse_number(parts[0], int, f"{path}: mode index")
        if not 1 <= k <= k_max:
            raise InputError(f"{path}: mode index {k} outside 1..{k_max}")
        if k in listed:
            raise InputError(f"{path}: mode index {k} listed twice")
        listed.add(k)
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


# The series writer formats and writes this many rows at a time.
_BLOCK_ROWS = 2048
# y = |x|*10**(16-e) lies in [1e16, 1e17) for the decimal exponent e of x, so its
# integers are the 17-digit candidates.  y and the half-width h of x's rounding
# interval are exact in those units; the interval ends and the tie tests err by
# < 1e-14 there, and any decision closer than _MARGIN to a boundary or a tie goes
# to repr().
_MARGIN = 1e-9
# The fast path's range of |x|: repr() writes it in fixed form, which holds to 1e16,
# with a decade to spare for a rounding carry.  Every scale 10**(16-e) it needs,
# 10**1 to 10**21, is an exact double: row k of _SCALES is 10**k.
_LOWEST, _HIGHEST = 1e-4, 1e15
_SCALES = np.array([float(10 ** k) for k in range(22)])


def _split(a):
    """Dekker's split a = hi + lo, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a, power):
    """a*power as its nearest integer (int64) and the rest, in [-0.5, 0.5]: the
    rounded product and its error, exact by Dekker's product."""
    p = a * power
    a1, a2 = _split(a)
    p1, p2 = _split(power)
    err = ((a1 * p1 - p) + a1 * p2 + a2 * p1) + a2 * p2
    whole = np.rint(p)
    rest = (p - whole) + err
    carry = np.rint(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


@functools.cache
def _quad_digits():
    """The ASCII bytes of '0000'..'9999' as uint64, the first digit in the low byte."""
    n = np.arange(10000, dtype=np.uint64)
    return sum(((n // 10 ** (3 - i)) % 10 + 48) << np.uint64(8 * i) for i in range(4))


@functools.cache
def _field_words():
    """(9, 21*19*2) uint64 by (point, length, sign): the digit masks and the constant
    bytes of an element's first 24 bytes, three words each.

    Bytes 0-5 hold the sign and a '0.' and zeros prefix; the digit field starts at
    byte 6 and keeps `length` bytes.  `point` is the digit count before the '.'
    (1-16), or 16 + z for a fixed form 0.<z - 1 zeros><digits> with no point in
    the field.  Words 0-2 keep the digits before the point, words 3-5 the digits
    after it, words 6-8 add the point, sign and prefix.
    """
    point, length, negative = np.unravel_index(np.arange(21 * 19 * 2), (21, 19, 2))
    zeros = np.maximum(point - 16, 0)
    point = np.minimum(point, 17)
    j = np.arange(24)[:, None]
    before = (j >= 6) & (j < 6 + np.minimum(point, length))
    after = (j > 6 + point) & (j < 6 + length)
    const = np.select([(j == 6 + point) & (point < length), (j == 0) & (negative == 1),
                       (j == 2) & (zeros > 0), (zeros > 0) & (j > 0) & (j < 2 + zeros)],
                      [ord("."), ord("-"), ord("."), ord("0")], 0).astype(np.uint8)
    table = np.concatenate([before * np.uint8(255), after * np.uint8(255), const])
    return np.ascontiguousarray(table.reshape(9, 8, -1).transpose(0, 2, 1)).view("<u8")[..., 0]


def _decimal_scaled(a):
    """Step 1: the decimal exponent e of each a > 0, and y = a*10**(16 - e) in
    [1e16, 1e17) as its nearest integer `whole` plus `rest`, with the half-width h
    of a's rounding interval in the same units.  An element whose `whole` is still
    outside [1e16, 1e17) after one correction of e has no decision to offer."""
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, rest = _scaled(a, _SCALES[16 - e])
    for step, off in ((1, whole >= 10 ** 17), (-1, whole < 10 ** 16)):  # log10 missed by one
        if off.any():
            e[off] += step
            whole[off], rest[off] = _scaled(a[off], _SCALES[16 - e[off]])
    return e, whole, rest, np.ldexp(np.spacing(a), -1) * _SCALES[16 - e]


def _shortest(whole, rest, h):
    """Step 2: the fewest digits that read back as x, as digits*10**drop in units of
    the 17th digit, and whether the decision is clear of _MARGIN.

    p = 17 - drop digits suffice when a multiple of 10**drop lies in the rounding
    interval (y - h, y + h); the interval is symmetric about y, so the nearest such
    multiple, the closest p-digit decimal, is then inside too, and repr writes it.
    Its integers run from top - width to top, so 10**drop has a multiple among
    them when top mod 10**drop <= width.
    """
    low, high = rest - h, rest + h
    clear = ((whole >= 10 ** 16) & (whole < 10 ** 17)
             & (np.abs(low - np.rint(low)) > _MARGIN) & (np.abs(high - np.rint(high)) > _MARGIN))
    width = (np.floor(high) - np.ceil(low)).astype(np.int64)
    top = whole + np.floor(high).astype(np.int64)
    last2 = top % 100
    drop = (last2 % 10 <= width).astype(np.int64)
    deep = np.flatnonzero(last2 <= width)
    drop[deep] = 2
    top = top[deep] // 100
    while deep.size:  # past two digits, each further one must be a 0 of top
        zero = (top % 10 == 0) & (drop[deep] < 16)
        deep, top = deep[zero], top[zero] // 10
        drop[deep] += 1
    # the nearest multiple of 10**drop; at a tie both neighbours are inside
    q = whole // 10
    gap = (whole - 10 * q - 5) + rest
    digits = np.where(drop == 1, q + (gap > 0), whole)
    tie = np.where(drop == 1, np.abs(gap), np.abs(np.abs(rest) - 0.5)) <= _MARGIN
    many = np.flatnonzero(drop > 1)
    if many.size:
        step = 10 ** drop[many]
        q = whole[many] // step
        gap = (whole[many] - q * step - step // 2) + rest[many]
        digits[many] = q + (gap > 0)
        tie[many] = np.abs(gap) <= _MARGIN
    return digits, drop, clear & ~tie


def _layout(negative, e, digits, drop, separators):
    """Step 3: (n, 4) little-endian words of each element's bytes, unused bytes 0:
    sign and '0.' prefix, the digits with the point, and the separator."""
    quads, fields = _quad_digits(), _field_words()
    u = np.uint64
    ten = 10 ** np.arange(18)
    carry = digits == ten[17 - drop]  # as 9.6 to one digit: 1 a decade up
    digits[carry], drop[carry] = 1, 16
    e = e + carry
    n_digits = 17 - drop
    # the 17 digits of digits*10**drop, digit i at byte 7 + i of three words
    lead, tail = np.divmod(digits * ten[drop], 10 ** 16)
    high, low = np.divmod(tail, 10 ** 8)
    w0 = (lead.astype(u) + u(48)) << u(56)
    w1 = quads[high // 10 ** 4] | (quads[high % 10 ** 4] << u(32))
    w2 = quads[low // 10 ** 4] | (quads[low % 10 ** 4] << u(32))
    small = e < 0
    point = np.where(small, 16 - e, e + 1)
    length = np.where(small, n_digits, np.maximum(n_digits, e + 2) + 1)
    m = np.take(fields, (point * 19 + length) * 2 + negative, axis=1)
    out = np.empty((e.size, 4), "<u8")
    out[:, 0] = (((w0 >> u(8)) | (w1 << u(56))) & m[0]) | (w0 & m[3]) | m[6]
    out[:, 1] = (((w1 >> u(8)) | (w2 << u(56))) & m[1]) | (w1 & m[4]) | m[7]
    out[:, 2] = ((w2 >> u(8)) & m[2]) | (w2 & m[5]) | m[8]
    out[:, 3] = separators
    return out


def _format_floats(x, separators) -> bytes:
    """The bytes of repr(x_i) and its separator word (',' or a newline) for each
    element, joined.

    Each element gets 32 bytes of fixed-width words with its unused bytes 0, and one
    pass drops the 0s.  Only the values in [_LOWEST, _HIGHEST) that are not powers
    of two (their rounding interval is lopsided) take the fast path; every other
    element, and every one whose decision falls within _MARGIN, takes its bytes
    from repr().
    """
    ax = np.abs(x)
    mantissa = x.view(np.uint64) << np.uint64(12)  # 0 for a power of two
    fast = (ax >= _LOWEST) & (ax < _HIGHEST) & (mantissa != 0)
    e, whole, rest, h = _decimal_scaled(np.where(fast, ax, 1.5))
    digits, drop, clear = _shortest(whole, rest, h)
    out = _layout(x < 0, e, digits, drop, separators)
    slow = np.flatnonzero(~(fast & clear))
    if slow.size:
        text = np.array([repr(v) for v in x[slow].tolist()], dtype="S24")
        out[slow, :3] = text.view("<u8").reshape(-1, 3)
    return out.tobytes().translate(None, b"\0")


def _series_rows(table):
    """The CSV rows of table's float columns as bytes, _BLOCK_ROWS rows a block."""
    row = np.full(len(table), ord(","), np.uint64)
    row[-1] = ord("\n")
    separators = np.tile(row, _BLOCK_ROWS)
    for start in range(0, table[0].size, _BLOCK_ROWS):
        x = np.stack([c[start:start + _BLOCK_ROWS] for c in table], axis=1).ravel()
        yield _format_floats(x, separators[:x.size])


def _save_series_csv(path: str, columns: str, table, fields: dict) -> None:
    """Header comments, the column line, then one row per node of table's float
    columns, each value as repr() writes it.

    The rows are formatted and written a block at a time, so no whole-table
    text or per-float object is ever alive.
    """
    table = [np.asarray(column, dtype=float) for column in table]
    head = "\n".join([*_header_comments(fields), columns, ""]).encode()
    atomic_write_blocks(path, itertools.chain([head], _series_rows(table)))


def save_trajectory_csv(path: str, times: np.ndarray, q: np.ndarray, fields: dict) -> None:
    q = np.asarray(q, dtype=complex)
    _save_series_csv(path, "t,re_q,im_q", (times, q.real, q.imag), fields)


def save_spectrum_csv(path: str, eigs: list[tuple[float, str]], fields: dict) -> None:
    lines = _header_comments(fields)
    lines.append("E,sector")
    for energy, sector in eigs:
        lines.append(f"{float(energy)!r},{sector}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_control_csv(path: str, alpha, fields: dict) -> None:
    """A piecewise-linear charge.CouplingProfile in the `pl:` format: header comments,
    the column line '# t,alpha', then one 't,alpha' row per node t_n = n*T/N."""
    _save_series_csv(path, "# t,alpha", (alpha.grid.times, alpha.samples), fields)


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
