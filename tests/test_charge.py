import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from deltabox.charge import (
    ChargeTrajectory,
    CouplingProfile,
    _march,
    apply_U,
    initial_charge,
    lipschitz_probe,
    solve_charge,
    solve_charge_general,
)
from deltabox.errors import (
    DomainCompatibilityError,
    InputError,
    SingularityError,
    StepSingularityError,
)
from deltabox.greens import SpectralShift, green_coefficients, green_origin
from deltabox import charge, kernels
from deltabox.kernels import (
    ODD_INVERSE_EIGENVALUE_SUM,
    TIME_BLOCK,
    block_phases,
    discrete_h1_norm,
    history_at_end,
    lag_matrix,
    lattice_angles,
    lower_solve,
    odd_eigenvalues,
    phi1,
    tail_deficit,
)
from deltabox.oracles import picard_charge
from deltabox.propagator import DomainState
from deltabox.spectral import (
    SpectralCoefficients,
    TimeGrid,
    free_origin_series,
    origin_trace,
)
from deltabox import verify

from conftest import assert_check, phi1_reference, picard_reference, slope_moment_history


class TestCouplingProfile:
    def test_sine_bump_endpoints(self):
        p = CouplingProfile.sine_bump(0.5, 2.0)
        assert p.value(0.0) == 0.0
        assert abs(p.value(2.0)) < 1e-16

    def test_derivative(self):
        p = CouplingProfile.sine_bump(0.5, 2.0)
        assert p.derivative(0.0) == pytest.approx(0.5 * np.pi / 2.0)
        c = CouplingProfile.constant(0.3, 1.0)
        assert c.derivative(0.5) == 0.0

    def test_piecewise_linear(self):
        grid = TimeGrid(1.0, 4)
        p = CouplingProfile.piecewise_linear(grid, [0.0, 1.0, 0.5, 0.5, 0.0])
        assert p.value(0.125) == pytest.approx(0.5)
        assert p.derivative(0.1) == pytest.approx(4.0)
        assert p.derivative(0.3) == pytest.approx(-2.0)

    def test_outside_domain(self):
        # scalar times are checked as floats, arrays as arrays; both refuse either side
        grid = TimeGrid(1.0, 4)
        for p in (CouplingProfile.sine_bump(1.0, 1.0),
                  CouplingProfile.piecewise_linear(grid, [0.0, 1.0, 0.5, 0.5, 0.0])):
            for t in (1.5, -1e-9, 1.0 + 1e-9, np.float64(-0.5), [0.5, 1.5], [-0.1, 0.5]):
                with pytest.raises(InputError):
                    p.value(t)
            p.value(1.0 + 1e-13)  # inside the tolerance

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            CouplingProfile("gaussian", 1.0, 1.0)

    def test_values_are_real_for_every_kind(self):
        grid = TimeGrid(1.0, 4)
        for p in (CouplingProfile.constant(0.3, 1.0), CouplingProfile.sine_bump(0.5, 1.0),
                  CouplingProfile.piecewise_linear(grid, [0.0, 1.0, 0.5, 0.5, 0.0])):
            assert p.values_on(grid).dtype == np.float64, p.kind
            assert p.derivative(grid.times).dtype == np.float64, p.kind

    def test_values_on_own_grid_are_the_interpolated_bits(self, rng):
        # a piecewise-linear profile's own grid gives its samples, the bits np.interp gives
        # at the nodes (signed zeros too); another grid interpolates
        grid = TimeGrid(2.0, 1000)
        samples = rng.standard_normal(1001)
        samples[::7] = -0.0
        p = CouplingProfile.piecewise_linear(grid, samples)
        own = p.values_on(grid)
        assert own.tobytes() == p.value(grid.times).tobytes()
        assert not own.flags.writeable
        other = TimeGrid(2.0, 700)
        assert p.values_on(other).tobytes() == p.value(other.times).tobytes()

    def test_complex_samples_with_zero_imaginary_part_accepted(self):
        grid = TimeGrid(1.0, 4)
        samples = np.array([0.0, 1.0, -0.5, 0.5, 0.0])
        p = CouplingProfile.piecewise_linear(grid, samples + 0j)
        assert p.samples.dtype == np.float64
        assert np.array_equal(p.values_on(grid), samples)


class TestApplyU:
    def test_zero_charge(self):
        grid = TimeGrid(1.0, 50)
        traj = ChargeTrajectory(grid, np.zeros(51, dtype=complex), 51)
        assert np.all(apply_U(traj) == 0)

    def test_constant_charge_analytic(self):
        assert_check(verify.check_u_constant_analytic)

    def test_linearity(self):
        assert_check(verify.check_u_linearity)

    def test_vanishes_at_start(self):
        assert_check(verify.check_u_zero_at_start)

    def test_integration_by_parts_identity(self):
        # full identity with the q(0) boundary term reproduces the raw
        # causal integrals on (sampled) smooth charges
        assert_check(verify.check_u_integration_by_parts)


_unit_complex = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def _reference_U(q, histories, tail):
    """U on every node as -i*tail*q plus the sum of the per-mode histories."""
    out = histories.sum(axis=0) - 1j * tail * q
    out[0] = 0.0
    return out


class TestModeHistory:
    # the modal history h_k(t_n) reaches the program through apply_U (its sum
    # over modes on every node) and history_at_end (every mode at the last
    # node); both are checked against the per-mode slope-moment reference

    def test_matches_single_mode_reference(self, rng):
        # every node of every block: apply_U (with and without the analytic
        # tail) against the per-mode sums, and the anchor x table phases
        # against an extended-precision exp, within 4*eps*(lam*t + 1)
        grid = TimeGrid(1.0, 300)
        q = rng.standard_normal(301) + 1j * rng.standard_normal(301)
        k_max = 151
        lam = odd_eigenvalues(k_max)
        table, anchors = block_phases(lam, grid.dt, grid.n_steps)
        block = table.shape[0] - 1
        nodes = np.arange(grid.n_steps + 1)
        phase = (anchors[nodes // block] * table[nodes % block]).T
        t_ext = np.longdouble(grid.dt) * nodes
        exact = np.exp(-1j * np.outer(lam.astype(np.longdouble), t_ext))
        bound = 4 * np.finfo(float).eps * (np.outer(lam, grid.times) + 1)
        assert np.all(np.abs(phase - exact) <= bound)
        traj = ChargeTrajectory(grid, q, k_max)
        histories = slope_moment_history(q, grid.dt, lam)
        for analytic_tail, tail in ((True, tail_deficit(k_max)), (False, 0.0)):
            u = apply_U(traj, analytic_tail)
            assert np.max(np.abs(u - _reference_U(q, histories, tail))) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_nodes=st.integers(2, 3 * TIME_BLOCK + 1),
           k_max=st.integers(1, 201), t_end=st.floats(0.01, 3.0),
           analytic_tail=st.booleans())
    def test_matches_single_mode_reference_property(self, data, n_nodes, k_max, t_end,
                                                    analytic_tail):
        q = data.draw(hnp.arrays(complex, n_nodes, elements=_unit_complex))
        grid = TimeGrid(t_end, n_nodes - 1)
        histories = slope_moment_history(q, grid.dt, odd_eigenvalues(k_max))
        traj = ChargeTrajectory(grid, q, k_max)
        u = apply_U(traj, analytic_tail)
        tail = tail_deficit(k_max) if analytic_tail else 0.0
        assert np.max(np.abs(u - _reference_U(q, histories, tail))) <= 1e-13
        assert np.max(np.abs(traj.end_history - histories[:, -1])) <= 1e-13

    @pytest.mark.parametrize("n_nodes", [2, 3, TIME_BLOCK, TIME_BLOCK + 1, TIME_BLOCK + 2,
                                         3 * TIME_BLOCK + 37])
    def test_history_at_end_matches_last_node(self, rng, n_nodes):
        q = rng.standard_normal(n_nodes) + 1j * rng.standard_normal(n_nodes)
        lam = odd_eigenvalues(201)
        dt = 2.0 / (n_nodes - 1)
        reference = slope_moment_history(q, dt, lam)[:, -1]
        assert np.max(np.abs(history_at_end(q, dt, lam) - reference)) < 1e-13

    def test_march_end_history_matches_kernel(self):
        # the march builds h(T) block by block, the kernel from the samples at once
        k_max = 101
        grid = TimeGrid(2.0, 2000)
        traj = solve_charge(CouplingProfile.sine_bump(0.5, 2.0),
                            SpectralCoefficients.unit(1, k_max), grid)
        end = history_at_end(traj.q, grid.dt, odd_eigenvalues(k_max))
        assert np.max(np.abs(traj.end_history - end)) < 1e-13


def reference_march(f_nodes, phi_nodes, v0, g_coeff, shift, grid, k_max):
    """Step-by-step form of `_march`: one scalar solve and one O(k_max) update
    of the modal accumulator b = B_k(t_{n-1}) per step; returns (q, end_history)."""
    dt = grid.dt
    lam = odd_eigenvalues(k_max)
    u = 1j * lam * dt
    p1 = phi1(u)
    c_u = 1j * np.sum(np.exp(-u) * p1 / lam)
    denom_base = (ODD_INVERSE_EIGENVALUE_SUM + 1j * c_u) / np.pi
    green_weights = 1.0 / (lam + shift.lam)
    q = np.empty(grid.n_steps + 1, dtype=complex)
    q[0] = v0
    b = np.zeros(lam.size, dtype=complex)
    exp_prev = np.ones(lam.size, dtype=complex)  # e^{+i lam t_{n-1}}
    for n in range(1, grid.n_steps + 1):
        e_n = np.exp(-1j * lam * (n * dt))
        w_n = 1j * np.sum(e_n * (v0 + b) / lam)
        rhs = f_nodes[n] - phi_nodes[n] * (1j / np.pi) * (w_n - c_u * q[n - 1])
        if g_coeff != 0:
            rhs -= phi_nodes[n] * g_coeff * np.sum(e_n * green_weights) / np.pi
        q[n] = rhs / (1.0 + phi_nodes[n] * denom_base)
        b += (q[n] - q[n - 1]) * exp_prev * p1
        exp_prev = np.conj(e_n)
    return q, (q[-1] - e_n * (v0 + b)) / (1j * lam)


def _assert_matches_reference(f, phi, v0, green_source, shift, grid, k_max, tol=1e-13):
    """`_march` from v(0) = v0 against the step reference; with green_source the general
    scheme, which takes v(0) from initial_charge and folds its Green-source term v(0)*g(t)
    into the march's source."""
    if green_source:
        v0 = initial_charge(f[0], phi[0], shift)
        traj = solve_charge_general(f, phi, shift, grid, k_max)
    else:
        traj = _march(f, phi, v0, grid, k_max)
    q, end_history = reference_march(f, phi, v0, v0 if green_source else 0.0, shift, grid,
                                     k_max)
    assert np.max(np.abs(traj.q - q)) <= tol
    assert np.max(np.abs(traj.end_history - end_history)) <= tol


_shifts = st.sampled_from([SpectralShift(), SpectralShift(2.5 - 0.3j)])


class TestBlockMarch:
    # |phi| <= 1 keeps every step denominator |d_n| >= 0.38 on these grids
    # (|d_n - 1| <= 0.62*|phi_n| for k_max <= 201, dt <= 3)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_steps=st.integers(1, 3 * TIME_BLOCK + 1),
           k_max=st.integers(1, 201), t_end=st.floats(0.01, 3.0),
           v0=_unit_complex, green_source=st.booleans(), shift=_shifts)
    def test_matches_step_reference(self, data, n_steps, k_max, t_end, v0, green_source, shift):
        f = data.draw(hnp.arrays(complex, n_steps + 1, elements=_unit_complex))
        phi = data.draw(hnp.arrays(complex, n_steps + 1, elements=_unit_complex))
        _assert_matches_reference(f, phi, v0, green_source, shift, TimeGrid(t_end, n_steps),
                                  k_max)

    @pytest.mark.parametrize("n_steps", [TIME_BLOCK - 1, TIME_BLOCK, TIME_BLOCK + 1,
                                         2 * TIME_BLOCK + 7])
    def test_block_edges(self, rng, n_steps):
        f = rng.standard_normal(n_steps + 1) + 1j * rng.standard_normal(n_steps + 1)
        phi = 0.5 * (rng.standard_normal(n_steps + 1) + 1j * rng.standard_normal(n_steps + 1))
        for shift in (SpectralShift(), SpectralShift(2.5 - 0.3j)):
            _assert_matches_reference(f, phi, f[0], True, shift, TimeGrid(2.0, n_steps), 101)

    @pytest.mark.parametrize("size", [1, 2, TIME_BLOCK])
    def test_lag_matrix_is_toeplitz(self, rng, size):
        # the march's lower matrix holds exactly the values scipy's toeplitz places
        from scipy.linalg import toeplitz

        lags = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        lags[0] = 0.0
        assert np.array_equal(lag_matrix(lags), toeplitz(lags, np.zeros(size)))
        stacked = lag_matrix(np.stack((lags, 2.0 * lags)))
        assert np.array_equal(stacked[1], lag_matrix(2.0 * lags))

    @pytest.mark.skipif(kernels._bundled_trsv() is None, reason="numpy's BLAS is not OpenBLAS")
    def test_lower_solve_matches_scipy(self, rng):
        # every block size of the march: a complex coupling row times the lag
        # matrix, the step denominators on the diagonal; the ctypes call must give
        # scipy's bits, ignore the upper triangle and leave the rhs alone
        from scipy.linalg import solve_triangular

        def cnormal(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        lags = cnormal(TIME_BLOCK)
        lags[0] = 0.0
        lower = lag_matrix(lags)
        for m in range(1, TIME_BLOCK + 1):
            system = cnormal(m, 1) * lower[:m, :m] + np.triu(cnormal(m, m), 1)
            system.flat[::m + 1] = 2.0 + 0.5 * cnormal(m)
            rhs = cnormal(m)
            kept = rhs.copy()
            x = lower_solve(system, rhs)
            assert np.array_equal(x, solve_triangular(system, rhs, lower=True,
                                                      check_finite=False)), m
            assert np.array_equal(rhs, kept)

    @pytest.mark.parametrize("n_steps", [1, TIME_BLOCK, TIME_BLOCK + 1, 2 * TIME_BLOCK + 7])
    def test_scipy_fallback_is_bit_identical(self, rng, monkeypatch, n_steps):
        # without numpy's bundled OpenBLAS the march solves through scipy, with
        # the same q and end history; TIME_BLOCK + 1 ends on a 1-step block
        f = rng.standard_normal(n_steps + 1) + 1j * rng.standard_normal(n_steps + 1)
        phi = 0.5 * (rng.standard_normal(n_steps + 1) + 1j * rng.standard_normal(n_steps + 1))
        grid = TimeGrid(2.0, n_steps)
        bundled = _march(f, phi, f[0], grid, 101)
        monkeypatch.setattr(kernels, "_bundled_trsv", lambda: None)
        fallback = _march(f, phi, f[0], grid, 101)
        assert kernels.runtime_record()["triangular_solve"] == "scipy"
        assert np.array_equal(bundled.q, fallback.q)
        assert np.array_equal(bundled.end_history, fallback.end_history)

    @pytest.mark.parametrize("solve", ["bundled", "scipy"])
    @pytest.mark.parametrize("n_sources", [1, 3])
    def test_block_of_sources_matches_single_marches(self, rng, monkeypatch, solve, n_sources):
        # column j of one march of a (n+1, R) source block is the march of column j
        # alone: the products over modes are one GEMM instead of R GEMVs, so the
        # columns agree to rounding, not bit for bit
        if solve == "scipy":
            monkeypatch.setattr(kernels, "_bundled_trsv", lambda: None)
        elif kernels._bundled_trsv() is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        n_steps = 2 * TIME_BLOCK + 7
        grid = TimeGrid(2.0, n_steps)
        f = rng.standard_normal((n_steps + 1, n_sources)) + 1j * rng.standard_normal(
            (n_steps + 1, n_sources))
        phi = 0.5 * (rng.standard_normal(n_steps + 1) + 1j * rng.standard_normal(n_steps + 1))
        block = _march(f, phi, f[0], grid, 101)
        assert len(block) == n_sources
        for j, traj in enumerate(block):
            single = _march(f[:, j], phi, f[0, j], grid, 101)
            assert np.max(np.abs(traj.q - single.q)) <= 1e-13
            assert np.max(np.abs(traj.end_history - single.end_history)) <= 1e-13

    @pytest.mark.parametrize("case", ["zero-mid-block", "zero-last-node", "zero-1-step-block",
                                      "subnormal", "near-floor"])
    def test_row_scaled_and_dense_blocks_match_step_reference(self, rng, case):
        # a block with a zero or tiny coupling keeps the dense system; every other
        # block solves the row-scaled one.  Both match the step reference
        n_steps = {"zero-1-step-block": TIME_BLOCK + 1}.get(case, 2 * TIME_BLOCK + 7)
        f = rng.standard_normal(n_steps + 1) + 1j * rng.standard_normal(n_steps + 1)
        phi = 0.5 * (rng.standard_normal(n_steps + 1) + 1j * rng.standard_normal(n_steps + 1))
        if case == "zero-mid-block":
            phi[TIME_BLOCK + 40] = 0.0
        elif case in ("zero-last-node", "zero-1-step-block"):
            phi[-1] = 0.0
        elif case == "subnormal":
            phi[[3, TIME_BLOCK + 40, -1]] = 5e-324, -5e-324j, 1e-310
        else:  # either side of ROW_SCALE_FLOOR ~ 1.5e-154
            phi[[3, TIME_BLOCK + 40]] = 1e-160, 1e-150j
        for shift in (SpectralShift(), SpectralShift(2.5 - 0.3j)):
            _assert_matches_reference(f, phi, f[0], False, shift, TimeGrid(2.0, n_steps), 101)
            _assert_matches_reference(f, phi, f[0], True, shift, TimeGrid(2.0, n_steps), 101)

    def test_row_scaled_block_of_sources_matches_step_reference(self, rng):
        # every column of a block of R sources against its own step reference,
        # with one dense block (a zero coupling mid-block) among row-scaled ones
        n_steps, n_sources = 2 * TIME_BLOCK + 7, 3
        grid = TimeGrid(2.0, n_steps)
        f = rng.standard_normal((n_steps + 1, n_sources)) + 1j * rng.standard_normal(
            (n_steps + 1, n_sources))
        phi = 0.5 * (rng.standard_normal(n_steps + 1) + 1j * rng.standard_normal(n_steps + 1))
        phi[TIME_BLOCK + 40] = 0.0
        for j, traj in enumerate(_march(f, phi, f[0], grid, 101)):
            q, end_history = reference_march(f[:, j], phi, f[0, j], 0.0, SpectralShift(), grid,
                                             101)
            assert np.max(np.abs(traj.q - q)) <= 1e-13
            assert np.max(np.abs(traj.end_history - end_history)) <= 1e-13

    def test_dense_system_only_where_a_coupling_is_tiny(self, rng, monkeypatch):
        # a block whose couplings are all away from zero solves on the one unscaled
        # lag matrix L (d/c on its diagonal); only the block holding a zero
        # coupling builds diag(c) L
        n_steps = 3 * TIME_BLOCK
        grid = TimeGrid(2.0, n_steps)
        f = rng.standard_normal(n_steps + 1) + 1j * rng.standard_normal(n_steps + 1)
        phi = 0.5 + rng.random(n_steps + 1)
        phi[TIME_BLOCK + 40] = 0.0  # node s + 39 of block 1, which starts at s = TIME_BLOCK + 1
        systems = []

        def spy(system, rhs):
            systems.append(np.tril(system, -1))
            return lower_solve(system, rhs)

        monkeypatch.setattr(charge, "lower_solve", spy)
        _march(f, phi, f[0], grid, 101)
        lam = odd_eigenvalues(101)
        table, _ = block_phases(lam, grid.dt, n_steps)
        kappa = table[1:] @ (1j * phi1(1j * lam * grid.dt) / lam)
        lower = lag_matrix(np.concatenate(([0.0], np.diff(kappa))))
        assert len(systems) == 3
        for b in (0, 2):
            assert np.array_equal(systems[b], lower)
        nodes = slice(TIME_BLOCK + 1, 2 * TIME_BLOCK + 1)
        assert np.array_equal(systems[1], np.tril(phi[nodes, None] * (1j / np.pi) * lower, -1))

    def test_simulate_size(self, rng):
        # k_max = 401, T = 8*pi, n = 25133: a unit-norm state with a_k ~ k^-3 and
        # random phases, coupled by a sum of three sines bounded by 0.5
        k_max, grid = 401, TimeGrid(8.0 * np.pi, 25133)
        k = np.arange(1, k_max + 1)
        a = k**-3.0 * np.exp(2j * np.pi * rng.random(k_max))
        psi0 = SpectralCoefficients(k_max, a / np.linalg.norm(a))
        amp, omega, phase = rng.uniform(-1 / 6, 1 / 6, 3), rng.uniform(0.25, 2, 3), rng.random(3)
        alpha = np.sin(np.outer(grid.times, omega) + 2 * np.pi * phase) @ amp
        f = -alpha * free_origin_series(psi0, grid.times)
        _assert_matches_reference(f, alpha.astype(complex), -alpha[0] * origin_trace(psi0),
                                  False, SpectralShift(), grid, k_max)


class TestPhi:
    def test_phi1_matches_the_series_reference(self, rng):
        # expm1(u)/u against the Horner series and direct quotient it replaced, for |u|
        # from 1e-12 to 50 in random directions and on both axes.  Past the series
        # range the direct quotient itself rounds by about eps*(1 + |e^u|)/|u|
        mags = np.logspace(-12, np.log10(50.0), 500)
        u = np.concatenate([mags * np.exp(2j * np.pi * rng.random(mags.size)),
                            1j * mags, -1j * mags, mags, -mags])
        ref = phi1_reference(u)
        scale = np.abs(ref)
        direct = np.abs(u) >= 0.25
        scale[direct] = np.maximum(scale, (1.0 + np.abs(np.exp(u))) / np.abs(u))[direct]
        assert np.all(np.abs(phi1(u) - ref) <= 4 * np.finfo(float).eps * scale)

    def test_phi1_at_zero(self):
        assert phi1(0.0) == 1.0
        assert np.array_equal(phi1(np.array([0.0, 0.5j, 0.0]))[[0, 2]], [1.0, 1.0])


class TestPhaseTable:
    @pytest.mark.parametrize("k_max, t_end, n_steps", [
        (401, 8.0 * np.pi, 25133),  # simulate's and steer's grid at the bench's k_max
        (401, 2.0, 2000),
        (51, 1.0, 100),  # fewer steps than TIME_BLOCK: one block, two anchors
        (51, 1.0, 1),
        (0, 1.0, 300),  # no modes: an all-zero state's origin series
    ])
    def test_every_entry_matches_the_exact_phase(self, k_max, t_end, n_steps):
        # table rows r and anchors b against exp(-i*lam*t) in long double at t = n*dt on
        # the same float dt (n = r, b*B), within 2*eps*max(1, lam*t)
        lam = odd_eigenvalues(k_max)
        dt = t_end / n_steps
        table, anchors = block_phases(lam, dt, n_steps)
        block = min(TIME_BLOCK, n_steps)
        assert table.shape == (block + 1, lam.size)
        assert anchors.shape == (n_steps // block + 1, lam.size)
        for phases, stride in ((table, 1), (anchors, block)):
            nodes = stride * np.arange(phases.shape[0])
            exact = np.exp(-1j * np.outer(np.longdouble(dt) * nodes, lam.astype(np.longdouble)))
            bound = 2 * np.finfo(float).eps * np.maximum(1.0, np.outer(dt * nodes, lam))
            assert np.all(np.abs(phases - exact) <= bound)


class TestLatticeAngles:
    @pytest.mark.parametrize("harmonic, n_steps", [
        (401**2 * 8, (1 << 19) + 3),  # k^2*N*j up to 6.7e11, an unreduced phase of 8.1e6
        (111**2, 25133),  # the carrier of k_bar = 111 on the steering grid
        (3 * 10**12 + 7, 30001),  # a harmonic far above the grid, reduced before the product
    ])
    def test_matches_the_exact_phase(self, harmonic, n_steps):
        # 2*pi*frac(harmonic*j/n_steps) in [-pi, pi), from exact integers at 30 digits, on
        # 400 nodes spread over the grid and its last node; the phase factor adds exp's rounding
        mpmath = pytest.importorskip("mpmath")
        nodes = np.unique(np.linspace(0, n_steps, 400).astype(np.int64))
        angles = lattice_angles(harmonic, n_steps, n_steps + 1)[nodes]
        eps = np.finfo(float).eps
        with mpmath.workdps(30):
            for j, got in zip(nodes.tolist(), angles):
                turns = (harmonic * j + n_steps // 2) % n_steps - n_steps // 2
                exact = 2 * mpmath.pi * mpmath.mpf(turns) / n_steps
                assert -np.pi <= got < np.pi
                assert abs(got - exact) <= np.pi * eps, j
                assert abs(np.exp(1j * got) - complex(mpmath.expj(exact))) <= (np.pi + 1) * eps, j


class TestInitialCharge:
    def test_decoupled(self):
        assert initial_charge(1.5 + 0.5j, 0.0) == 1.5 + 0.5j

    def test_zero_source(self):
        assert initial_charge(0.0, 2.0) == 0.0

    def test_reference_value(self):
        got = initial_charge(1.0, 2.0, SpectralShift(1.0))
        expected = 1.0 / (1.0 + 2.0 * green_origin(1.0))  # 1/1.9962721...
        assert got == pytest.approx(expected)
        assert got.real == pytest.approx(0.50093, abs=1e-5)

    def test_singular_configuration(self):
        phi0 = -1.0 / complex(green_origin(1.0)).real
        with pytest.raises(SingularityError):
            initial_charge(1.0, phi0)


class TestSolveChargeGeneral:
    def test_zero_source(self):
        grid = TimeGrid(1.0, 100)
        phi = CouplingProfile.sine_bump(0.7, 1.0).values_on(grid)
        traj = solve_charge_general(np.zeros(101, dtype=complex), phi, SpectralShift(), grid, 51)
        assert np.all(traj.q == 0)

    def test_zero_coupling_returns_source(self, rng):
        grid = TimeGrid(1.0, 100)
        f = rng.standard_normal(101) + 1j * rng.standard_normal(101)
        traj = solve_charge_general(f, np.zeros(101), SpectralShift(), grid, 51)
        assert np.max(np.abs(traj.q - f)) == 0.0

    def test_generic_against_picard_oracle(self):
        assert_check(verify.check_general_scheme_picard)


def picard_inputs(case):
    """picard_charge's arguments in the verify checks that call it."""
    if case == "general-scheme-picard":  # g_coeff != 0
        fgrid, shift = TimeGrid(2.0, 8000), SpectralShift()
        f = np.exp(-0.3 * fgrid.times) * (1.2 + 0.5j * np.sin(2 * fgrid.times))
        v0 = initial_charge(f[0], 0.0, shift)
        return (f, CouplingProfile.sine_bump(0.8, 2.0).values_on(fgrid), v0, v0, shift, fgrid,
                15)
    if case == "picard-oracle":
        fgrid, psi0, alpha = TimeGrid(2.0, 8000), *verify._bump_run(25, 2000)[1:]
    else:  # conjugation-reversal: a real state, the conjugated source
        fgrid, alpha = TimeGrid(1.0, 4000), CouplingProfile.sine_bump(0.4, 1.0)
        a = np.zeros(25, dtype=complex)
        a[0::2] = (np.random.default_rng(verify.DEFAULT_SEED + 7).standard_normal(13)
                   / np.arange(1, 26, 2) ** 2)
        psi0 = SpectralCoefficients(25, a)
    av = alpha.values_on(fgrid)
    f, v0 = -av * free_origin_series(psi0, fgrid.times), -av[0] * origin_trace(psi0)
    if case == "conjugation-reversal":
        f, v0 = np.conj(f), np.conj(v0)
    return f, av, v0, 0.0, SpectralShift(), fgrid, 25


class TestPicardOracle:
    @pytest.mark.parametrize("case, kernel_sign", [("picard-oracle", -1.0),
                                                    ("conjugation-reversal", 1.0),
                                                    ("general-scheme-picard", -1.0)])
    def test_in_place_sweep_matches_per_mode_trapezoid(self, case, kernel_sign):
        args = picard_inputs(case)
        ref = picard_reference(*args, kernel_sign=kernel_sign)
        assert np.max(np.abs(picard_charge(*args, kernel_sign=kernel_sign) - ref)) <= 1e-13


class TestSolveCharge:
    def test_zero_coupling(self):
        grid = TimeGrid(2.0, 200)
        traj = solve_charge(CouplingProfile.zero(2.0), SpectralCoefficients.unit(1, 101), grid)
        assert np.all(traj.q == 0)

    def test_odd_state_does_not_feel_the_interaction(self):
        grid = TimeGrid(2.0, 500)
        for amp in (0.2, 0.5, 1.0):
            traj = solve_charge(CouplingProfile.sine_bump(amp, 2.0),
                                SpectralCoefficients.unit(2, 101), grid)
            assert np.all(traj.q == 0)

    def test_initial_value_and_picard_trajectory(self):
        # q(0) = -alpha(0)*psi1(0) for a constant coupling, and the whole
        # trajectory tracks the fixed-point oracle on a 4x finer grid
        k_use = 15
        grid = TimeGrid(2.0, 2000)
        psi0 = SpectralCoefficients.unit(1, k_use)
        alpha = CouplingProfile.constant(0.1, 2.0)
        traj = solve_charge(alpha, psi0, grid)
        assert traj.q[0] == pytest.approx(-0.1 / np.sqrt(np.pi), abs=1e-15)

        fgrid = TimeGrid(2.0, 8000)
        src = free_origin_series(psi0, fgrid.times)
        av = alpha.values_on(fgrid)
        v0 = -av[0] * origin_trace(psi0)
        q_oracle = picard_charge(-av * src, av, v0, 0.0,
                                 SpectralShift(), fgrid, k_use)
        assert np.max(np.abs(traj.q - q_oracle[::4])) < 1e-6

    def test_bump_against_picard_oracle(self):
        assert_check(verify.check_picard_oracle)

    def test_dt_self_convergence(self):
        assert_check(verify.check_dt_self_convergence)

    def test_truncation_decay(self):
        assert_check(verify.check_kmax_truncation_decay)

    def test_conjugation_reversal(self):
        assert_check(verify.check_conjugation_reversal)

    def test_large_amplitude_wellposed(self):
        assert_check(verify.check_large_amplitude_wellposed)

    @staticmethod
    def _critical_coupling(grid, k_max):
        # phi with d_n = 1 + phi*(pi^2/2 + i*c_u)/pi = 0 exactly
        lam = odd_eigenvalues(k_max)
        u = 1j * lam * grid.dt
        c_u = 1j * np.sum(np.exp(-u) * phi1(u) / lam)
        return -np.pi / (ODD_INVERSE_EIGENVALUE_SUM + 1j * c_u)

    def test_step_singularity_reported(self):
        # a real coupling never zeroes the per-step denominator (its imaginary
        # part reflects self-adjointness), so exercise the guard through the
        # general scheme with the exactly-critical complex coupling
        grid = TimeGrid(1.0, 100)
        phi_bad = self._critical_coupling(grid, 401)
        with pytest.raises(StepSingularityError) as err:
            solve_charge_general(np.ones(101, dtype=complex), np.full(101, phi_bad),
                                 SpectralShift(), grid, 401)
        assert err.value.n == 1
        assert err.value.t == pytest.approx(grid.dt)
        assert err.value.abs_d < 1e-12
        assert err.value.phi == phi_bad
        assert "n=1" in str(err.value) and "phi_n=" in str(err.value)

    def test_first_bad_node_in_a_later_block(self):
        n_steps = 3 * TIME_BLOCK
        grid = TimeGrid(1.0, n_steps)
        phi = np.full(n_steps + 1, 0.2, dtype=complex)
        first = 2 * TIME_BLOCK + 5
        phi[[first, first + 3]] = self._critical_coupling(grid, 101)
        with pytest.raises(StepSingularityError) as err:
            _march(np.ones(n_steps + 1, dtype=complex), phi, 1.0, grid, 101)
        assert err.value.n == first
        assert err.value.t == pytest.approx(first * grid.dt)
        assert err.value.phi == phi[first]

    def test_domain_compatibility(self):
        grid = TimeGrid(1.0, 100)
        regular = SpectralCoefficients.unit(1, 101)
        bad = DomainState(regular, 0.3 + 0.1j, SpectralShift())
        with pytest.raises(DomainCompatibilityError):
            solve_charge(CouplingProfile.constant(0.5, 1.0), bad, grid)

    def test_zero_charge_domain_state_checked(self):
        # a zero charge is no exemption: -0 = alpha(0)*psi(0) fails for psi_1 at alpha(0) = 0.5
        grid = TimeGrid(1.0, 100)
        zero_charge = DomainState(SpectralCoefficients.unit(1, 101), 0.0, SpectralShift())
        with pytest.raises(DomainCompatibilityError):
            solve_charge(CouplingProfile.constant(0.5, 1.0), zero_charge, grid)

    def test_domain_state_accepted_when_compatible(self):
        grid = TimeGrid(1.0, 200)
        k_use = 101
        alpha0 = 0.5
        # build a compatible state: full = psi1 + q*G with q = -alpha*full(0)
        green = green_coefficients(SpectralShift(), k_use)
        base = SpectralCoefficients.unit(1, k_use)
        g0 = origin_trace(green)
        q = -alpha0 * origin_trace(base) / (1.0 + alpha0 * g0)
        state = DomainState(base, q, SpectralShift())
        traj = solve_charge(CouplingProfile.constant(alpha0, 1.0), state, grid)
        assert traj.q[0] == pytest.approx(q)

    def test_complex_coupling_rejected(self):
        # refused when the profile is built, before any solve
        grid = TimeGrid(1.0, 10)
        with pytest.raises(InputError, match="must be real-valued"):
            CouplingProfile.piecewise_linear(grid, np.linspace(0, 1, 11) * (1 + 1j))


class TestLipschitzProbe:
    def test_identical_profiles(self):
        grid = TimeGrid(1.0, 200)
        psi0 = SpectralCoefficients.unit(1, 51)
        a = CouplingProfile.sine_bump(0.3, 1.0)
        dq, da = lipschitz_probe(a, a, psi0, grid)
        assert dq == 0.0 and da == 0.0

    def test_odd_sector_charge_free(self):
        grid = TimeGrid(1.0, 200)
        psi0 = SpectralCoefficients.unit(2, 51)
        a = CouplingProfile.sine_bump(0.3, 1.0)
        z = CouplingProfile.zero(1.0)
        dq, da = lipschitz_probe(a, z, psi0, grid)
        assert dq == 0.0
        assert da == pytest.approx(
            discrete_h1_norm(np.asarray(a.values_on(grid), complex), grid.dt))

    def test_nearby_bump_ratios_bounded(self):
        assert_check(verify.check_lipschitz_ratio)


class TestErrorPropagation:
    def test_singular_initial_value_propagates(self):
        # phi(0) sitting on the eigenvalue configuration must surface from
        # the general scheme as the initial-charge singularity
        grid = TimeGrid(1.0, 50)
        phi0 = -1.0 / complex(green_origin(1.0)).real
        with pytest.raises(SingularityError):
            solve_charge_general(np.ones(51, dtype=complex), np.full(51, phi0, dtype=complex),
                                 SpectralShift(), grid, 51)
