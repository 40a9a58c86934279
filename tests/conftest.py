import numpy as np
import pytest

from deltabox.kernels import slope_moments
from deltabox.spectral import DEFAULT_K_MAX
from deltabox.verify import DEFAULT_SEED as SEED, call_check


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def assert_check(check_fn, k_max=DEFAULT_K_MAX, seed=SEED):
    """Run a verify-battery check, given the inputs it names as `deltabox verify` gives
    them, and assert it passed, showing its report line."""
    result = call_check(check_fn, k_max=k_max, seed=seed)
    assert result.passed, result.line()
    return result


def slope_moment_history(q, dt, lam):
    """h_k = int_0^t q(s) e^{-i*lam_k*(t-s)} ds on every node (one row per lam_k), each
    mode from its own single-mode slope moments and a per-node exp: the
    reference for the block kernels."""
    times = dt * np.arange(q.size)
    rows = []
    for lam_k in lam:
        b = np.concatenate(([0.0], np.cumsum(slope_moments(q, dt, lam_k))))
        rows.append((q - np.exp(-1j * lam_k * times) * (q[0] + b)) / (1j * lam_k))
    return np.array(rows)
