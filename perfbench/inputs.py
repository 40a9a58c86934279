"""Seeded input files for the benchmark workloads.

The program under test only ever sees these files and the command line built
from them; the seed never reaches it.  Every generated input stays inside the
CLI's documented domain and passes its default diagnostic tolerances.
"""

from __future__ import annotations

import math
import os

import numpy as np

K_MAX = 401
T_END = 8.0 * math.pi
N_STEPS = 25133  # dt ~ 1e-3 on T = 8*pi, as in acceptance criterion 9
STEER_MODES = (3, 5, 7, 9)
ALPHA_MAX = 0.5  # |alpha(t)| bound of the simulate coupling profile


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def dense_state(seed: int) -> np.ndarray:
    """Coefficients a_k ~ k^-3 with uniform random phases on every mode, unit norm.

    k^-3 decay keeps the norm drift near 1e-8 at N_STEPS; k^-2 exceeds the
    CLI's 1e-6 tolerance.
    """
    k = np.arange(1, K_MAX + 1, dtype=float)
    phases = _rng(seed, 1).uniform(0.0, 2.0 * math.pi, K_MAX)
    a = k**-3.0 * np.exp(1j * phases)
    return a / np.linalg.norm(a)


def alpha_samples(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t_n = n*T/N_STEPS and alpha(t_n) = sum of three seeded sines.

    Each sine has amplitude in [-ALPHA_MAX/3, ALPHA_MAX/3], so |alpha| stays
    within ALPHA_MAX and the step denominator 1 + alpha*pi/2 stays away from 0.
    """
    rng = _rng(seed, 2)
    amp = rng.uniform(-ALPHA_MAX / 3.0, ALPHA_MAX / 3.0, 3)
    omega = rng.uniform(0.25, 2.0, 3)
    phase = rng.uniform(0.0, 2.0 * math.pi, 3)
    t = T_END * np.arange(N_STEPS + 1) / N_STEPS
    alpha = (amp[:, None] * np.sin(omega[:, None] * t + phase[:, None])).sum(axis=0)
    return t, alpha


def steer_target(seed: int) -> dict[int, complex]:
    """Unit-norm complex direction on two distinct modes drawn from STEER_MODES."""
    rng = _rng(seed, 3)
    modes = sorted(int(k) for k in rng.choice(STEER_MODES, size=2, replace=False))
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c /= np.linalg.norm(c)
    return dict(zip(modes, (complex(v) for v in c)))


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_simulate_inputs(seed: int, directory: str) -> tuple[str, str]:
    """State file (CLI `file:` format) and coupling CSV (CLI `pl:` format)."""
    state_path = os.path.join(directory, "psi0.txt")
    a = dense_state(seed)
    _write(state_path, [f"# k_max={K_MAX}"] + [
        f"{k},{float(v.real)!r},{float(v.imag)!r}" for k, v in enumerate(a, start=1)])
    alpha_path = os.path.join(directory, "alpha.csv")
    t, alpha = alpha_samples(seed)
    _write(alpha_path, ["# t,alpha"] + [
        f"{float(ti)!r},{float(ai)!r}" for ti, ai in zip(t, alpha)])
    return state_path, alpha_path


def write_steer_target(seed: int, directory: str) -> str:
    path = os.path.join(directory, "target.csv")
    _write(path, ["k,re_c,im_c"] + [
        f"{k},{v.real!r},{v.imag!r}" for k, v in steer_target(seed).items()])
    return path
