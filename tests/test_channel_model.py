"""Channel statistics: one-ring covariances, Doppler coefficient, eigensystem,
DFT surrogate basis, and the AR(1) realizations the reference tracker is
driven with."""

import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotseq import channel_model as cm
from pilotseq import kalman
from pilotseq import simulate as sim


def default_ring(**kw):
    base = dict(d_s=100.0, d_r=30.0, h=60.0, d_0=30.0, alpha_0=3.8,
                theta_h=np.pi / 6, f_c=2.5e9, t_s=100e-6, v=3 / 3.6)
    base.update(kw)
    return cm.OneRingGeometry(**base)


class TestPathLoss:
    def test_reference_distance_halves_power(self):
        assert cm.path_loss(default_ring(d_s=30.0, d_r=10.0)) == pytest.approx(0.5, abs=1e-15)

    def test_frozen_value(self):
        # (1 + (100/30)**3.8)**-1 evaluated at 30 decimal digits
        assert cm.path_loss(default_ring()) == pytest.approx(0.010200187037321906, abs=1e-15)

    def test_vanishes_monotonically_with_distance(self):
        gains = [cm.path_loss(default_ring(d_s=d)) for d in (50, 100, 400, 1600, 25600)]
        assert all(a > b for a, b in zip(gains, gains[1:]))
        assert gains[-1] < 1e-9


class TestOneRingParams:
    def test_frozen_angles(self):
        dv, tv, dh = cm.one_ring_params(default_ring())
        assert dv == pytest.approx(0.13810924827856622, abs=1e-15)
        assert tv == pytest.approx(1.0002793029457926, abs=1e-15)
        assert dh == pytest.approx(0.29145679447786709, abs=1e-15)

    def test_angle_spread_matches_figure_caption(self):
        _, _, dh = cm.one_ring_params(default_ring())
        assert np.degrees(dh) == pytest.approx(16.7, abs=0.05)

    def test_zero_ring_radius_collapses_spreads(self):
        dv, _, dh = cm.one_ring_params(default_ring(d_r=1e-12))
        assert abs(dv) < 1e-13 and abs(dh) < 1e-13


def _simpson_sum(values: np.ndarray, h: float) -> complex:
    # composite Simpson over an even number of panels
    return (h / 3.0) * (
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum()
    )


def _adaptive_simpson(f, a: float, b: float, tol: float, max_panels: int) -> complex:
    """Composite Simpson with panel doubling until the Richardson estimate
    of the error drops below ``tol`` (absolute).  Returns the extrapolated
    value, whose residual error is an order smaller than the estimate."""
    n = 16
    xs = np.linspace(a, b, n + 1)
    s_prev = _simpson_sum(f(xs), (b - a) / n)
    while True:
        n *= 2
        if n > max_panels:
            raise cm.QuadratureError(
                f"quadrature did not converge within {max_panels} panels"
            )
        xs = np.linspace(a, b, n + 1)
        s = _simpson_sum(f(xs), (b - a) / n)
        if abs(s - s_prev) / 15.0 < tol:
            return s + (s - s_prev) / 15.0
        s_prev = s


def oracle_covariance(n, theta, delta, gamma, spacing_over_wavelength=0.5, tol=1e-10,
                      max_panels=1 << 22):
    """The one-ring covariance with one adaptive Simpson of its own per lag,
    each level evaluating the integrand on its whole grid: the oracle of
    cm.one_ring_covariance, which must match it bit for bit."""
    kappa = 2.0 * spacing_over_wavelength
    lags = np.arange(n)
    if delta == 0.0:
        col = gamma * np.exp(-1j * np.pi * lags * kappa * np.sin(theta))
    else:
        col = np.empty(n, dtype=complex)
        col[0] = gamma
        for k in range(1, n):
            integral = _adaptive_simpson(
                lambda xi: np.exp(-1j * np.pi * k * kappa * np.sin(xi)),
                theta - delta, theta + delta, tol, max_panels,
            )
            col[k] = gamma / (2.0 * delta) * integral
    vals = np.concatenate((np.conj(col[:0:-1]), col))
    return vals[lags[:, None] - lags[None, :] + (n - 1)]


class TestOneRingCovariance:
    def test_diagonal_equals_gamma(self):
        r = cm.one_ring_covariance(6, theta=0.3, delta=0.2, gamma=0.7)
        assert np.allclose(np.diag(r), 0.7, atol=1e-12)
        assert np.real(np.trace(r)) == pytest.approx(6 * 0.7, abs=1e-9)

    def test_degenerate_spread_is_steering_outer_product(self):
        theta = 0.4
        r = cm.one_ring_covariance(5, theta=theta, delta=0.0, gamma=0.9)
        steer = np.exp(-1j * np.pi * np.arange(5) * np.sin(theta))
        expected = 0.9 * np.outer(steer, steer.conj())
        assert np.allclose(r, expected, atol=1e-14)
        assert np.linalg.matrix_rank(r, tol=1e-9) == 1

    def test_against_brute_force_trapezoid(self):
        # 1e6-panel trapezoid as the independent quadrature oracle
        n, theta, delta, gamma = 4, 0.0, 0.1, 1.0
        r = cm.one_ring_covariance(n, theta, delta, gamma)
        xs = np.linspace(theta - delta, theta + delta, 1_000_001)
        for k in range(n):
            vals = np.exp(-1j * np.pi * k * np.sin(xs))
            oracle = gamma / (2 * delta) * np.trapezoid(vals, xs)
            assert abs(r[k, 0] - oracle) < 1e-10

    def test_toeplitz_hermitian_psd(self):
        r = cm.one_ring_covariance(12, theta=0.5, delta=0.15, gamma=0.4)
        for k in range(1, 12):
            diag = np.diagonal(r, -k)
            assert np.allclose(diag, diag[0], atol=1e-12)
        assert np.allclose(r, r.conj().T, atol=1e-13)
        evals = np.linalg.eigvalsh(r)
        assert evals.min() > -1e-10 * evals.max()

    def test_panel_budget_reported(self):
        with pytest.raises(cm.QuadratureError):
            cm.one_ring_covariance(16, theta=0.0, delta=0.3, gamma=1.0, max_panels=16)

    def test_bits_match_per_lag_oracle(self):
        # 200 drawn spreads in [0.01, 0.5], then 10 draws at delta = 0; n = 1 leads
        rng = np.random.default_rng(20140601)
        cases = [(1, 0.3, 0.2, 0.7, 0.5, 1e-10), (1, 0.3, 0.0, 0.7, 0.5, 1e-10)]
        for i in range(210):
            cases.append((
                int(rng.integers(1, 65)),
                float(rng.uniform(-1.0, 1.0)),
                float(rng.uniform(0.01, 0.5)) if i < 200 else 0.0,
                float(rng.uniform(0.01, 2.0)),
                float(rng.choice([0.25, 0.5, 1.0])),
                float(10.0 ** rng.uniform(-12.0, -6.0)),
            ))
        for n, theta, delta, gamma, spacing, tol in cases:
            got = cm.one_ring_covariance(n, theta, delta, gamma, spacing, tol)
            want = oracle_covariance(n, theta, delta, gamma, spacing, tol)
            assert got.shape == (n, n)
            assert np.array_equal(got, want), (n, theta, delta, gamma, spacing, tol)

    def test_large_array_bits_and_group_budget(self, monkeypatch):
        # n = 512 runs lags up to 16384 panels, past what one group may hold
        n, theta, delta, gamma = 512, np.pi / 6, 0.29, 0.01
        want = oracle_covariance(n, theta, delta, gamma)
        assert np.array_equal(cm.one_ring_covariance(n, theta, delta, gamma), want)
        # a 2 MB budget splits the lags into narrower groups: the same bits,
        # and a traced peak under the budget plus 0.25 MB for the per-level
        # grids, the lag bookkeeping and numpy's cast buffers
        budget = 2 << 20
        monkeypatch.setattr(cm, "_QUADRATURE_GROUP_BYTES", budget)
        tracemalloc.start()
        try:
            integrals = cm._one_ring_integrals(
                n, 1.0, theta - delta, theta + delta, 1e-10, 1 << 22
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget + (1 << 18)
        assert np.array_equal(gamma / (2.0 * delta) * integrals, want[1:, 0])

    def test_toeplitz_fill_holds_only_the_result(self, monkeypatch):
        # with the quadrature held to 2 MB, the n = 512 call peaks at its
        # 4.19 MB complex result plus the first column, no index arrays
        monkeypatch.setattr(cm, "_QUADRATURE_GROUP_BYTES", 2 << 20)
        tracemalloc.start()
        try:
            r_h = cm.one_ring_covariance(512, np.pi / 6, 0.29, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r_h.nbytes < peak < 4.5e6

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("inf")])
    def test_bad_tolerance_rejected_before_quadrature(self, tol, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(cm, "_one_ring_integrals", no_quadrature)
        for delta in (0.2, 0.0):
            with pytest.raises(ValueError, match="tol"):
                cm.one_ring_covariance(8, theta=0.3, delta=delta, gamma=1.0, tol=tol)


class TestUpaCovariance:
    def test_identity_kronecker(self):
        out = cm.upa_covariance(np.eye(2), np.eye(3))
        assert np.allclose(out, np.eye(6))

    def test_hand_expanded_blocks(self):
        rh = np.array([[2.0, 1j], [-1j, 1.0]])
        rv = np.array([[1.0, 0.5], [0.5, 3.0]])
        out = cm.upa_covariance(rh, rv)
        assert out.shape == (4, 4)
        assert np.allclose(out[:2, :2], 2.0 * rv)
        assert np.allclose(out[:2, 2:], 1j * rv)
        assert np.allclose(out[2:, :2], -1j * rv)
        assert np.allclose(out[2:, 2:], 1.0 * rv)
        assert np.real(np.trace(out)) == pytest.approx(3.0 * 4.0)

    def test_spectrum_is_pairwise_products(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rh = x @ x.conj().T
        rv = y @ y.conj().T
        got = np.sort(np.linalg.eigvalsh(cm.upa_covariance(rh, rv)))
        expected = np.sort(np.outer(np.linalg.eigvalsh(rh), np.linalg.eigvalsh(rv)).ravel())
        assert np.allclose(got, expected, rtol=1e-10)


class TestTemporalCoefficient:
    def test_static_user_is_one(self):
        assert cm.temporal_coefficient(default_ring(v=0.0), 5) == 1.0

    def test_frozen_jakes_value(self):
        # J0(2*pi * (3/3.6 * 2.5e9 / c) * 1e-4 * 5) at 30 digits
        a = cm.temporal_coefficient(default_ring(), 5)
        assert a == pytest.approx(0.99988084756109957, abs=1e-14)

    def test_decreasing_in_block_length_and_speed(self):
        a5 = cm.temporal_coefficient(default_ring(), 5)
        a10 = cm.temporal_coefficient(default_ring(), 10)
        fast = cm.temporal_coefficient(default_ring(v=30 / 3.6), 5)
        assert a10 < a5
        assert fast < a5

    def test_excessive_mobility_rejected(self):
        with pytest.raises(ValueError, match="mobility"):
            cm.temporal_coefficient(default_ring(v=500.0), 400)

    @given(st.floats(min_value=0.0, max_value=4.9))
    @settings(max_examples=60, deadline=None)
    def test_series_matches_scipy(self, x):
        assert cm.bessel_j0(x) == pytest.approx(float(scipy.special.j0(x)), abs=5e-14)


class TestEigendecompose:
    def test_identity_full_rank(self):
        u, lam, r = cm.eigendecompose(np.eye(5), 1e-6)
        assert r == 5
        assert np.allclose(lam, 1.0)
        assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-12)

    def test_rank_one(self):
        s = np.array([1.0, 1j, -1.0, -1j]) / 2.0
        r_h = 0.8 * np.outer(s, s.conj())
        u, lam, r = cm.eigendecompose(r_h, 1e-6)
        assert r == 1
        assert lam[0] == pytest.approx(0.8 * np.linalg.norm(s) ** 2, rel=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="rank 0"):
            cm.eigendecompose(np.zeros((4, 4)), 1e-6)

    def test_one_ring_truncation_residual(self):
        r_h = cm.one_ring_covariance(32, theta=0.2, delta=np.radians(4.6), gamma=1.0)
        u, lam, r = cm.eigendecompose(r_h, 1e-6)
        assert r < 32  # narrow spread compresses the rank
        resid = np.linalg.norm(r_h - (u * lam) @ u.conj().T)
        assert resid < 1e-6 * np.real(np.trace(r_h))
        assert np.all(np.diff(lam) <= 1e-15)

    # the dense eigh of kron(R_H, R_V) is backward stable, so by Weyl each
    # eigenvalue sits within a few n_t * eps * lam_0 of the per-axis product
    # (the measured worst over 300 random cases is 0.69 n_t * eps * lam_0)
    @pytest.mark.parametrize("case", range(40))
    def test_axis_factors_match_dense_oracle(self, case):
        rng = np.random.default_rng([24, case])
        n_h, n_v = int(rng.integers(1, 13)), int(rng.integers(1, 7))
        array = cm.ArrayGeometry(n_v, n_h, float(rng.uniform(0.3, 1.0)))
        ring = default_ring(d_r=float(rng.uniform(2.0, 60.0)),
                            theta_h=float(rng.uniform(-1.0, 1.0)))
        scene = sim.build_scene(array, ring, block_len=5)
        r_hor, r_ver = scene.axes
        dense = cm.upa_covariance(r_hor, r_ver)
        n_t = array.n_t
        for tol in (1e-3, 1e-6, 1e-9, sim.SIM_RANK_TOL):
            u, lam, r = cm.eigendecompose(r_hor, tol, r_vertical=r_ver)
            u_d, lam_d, r_d = cm.eigendecompose(dense, tol)
            assert r == r_d, f"rank at tol {tol}"
            assert u.shape == (n_t, r) and u.flags.c_contiguous
            assert np.all(np.abs(lam - lam_d) <= 4 * n_t * np.finfo(float).eps * lam_d[0])
            above = lam_d > 1e-6 * lam_d[0]
            assert np.all(np.abs(lam - lam_d)[above] <= 1e-7 * lam_d[above])
        # u, lam: the simulation tolerance's, which build_scene keeps
        assert scene.u_sim.tobytes() == u.tobytes() and scene.lam_sim.tobytes() == lam.tobytes()
        spectrum = np.linalg.eigvalsh(dense)
        checked = 0
        for k in range(r):
            gaps = np.abs(spectrum - lam_d[k])
            gaps[np.argmin(gaps)] = np.inf  # the eigenvalue itself
            if gaps.min() >= 1e-3 * lam_d[0]:  # well separated: the eigenvector is unique up to phase
                assert abs(np.vdot(u_d[:, k], u[:, k])) >= 1.0 - 1e-9
                checked += 1
        assert checked >= 1

    @pytest.mark.parametrize("r_hor, r_ver", [
        # R_V = I_2: every lam_H[i] * 1 ties exactly with its twin
        (cm.one_ring_covariance(8, theta=0.3, delta=0.2, gamma=1.0), np.eye(2)),
        # lam_H = (4, 2, 1), lam_V = (2, 1): 4 * 1 == 2 * 2 and 2 * 1 == 1 * 2
        # tie products of different i and j
        (np.diag([1.0, 4.0, 2.0]), np.diag([1.0, 2.0])),
    ])
    def test_exact_ties_follow_flat_index(self, r_hor, r_ver):
        """Tied products go by the flat index i * n_v + j of the factors'
        eigenpairs, each factor's in its own descending order: column k is
        kron(u_H[:, i], u_V[:, j]) for the k-th pair (i, j) in that order."""
        u_h, lam_h, _ = cm.eigendecompose(r_hor, 1e-12)
        u_v, lam_v, n_v = cm.eigendecompose(r_ver, 1e-12)
        u, lam, r = cm.eigendecompose(r_hor, 1e-12, r_vertical=r_ver)
        pairs = sorted(((i, j) for i in range(len(lam_h)) for j in range(n_v)),
                       key=lambda p: (-lam_h[p[0]] * lam_v[p[1]], p[0] * n_v + p[1]))
        assert r == len(pairs)
        assert lam.tolist() == [lam_h[i] * lam_v[j] for i, j in pairs]
        assert len(set(lam.tolist())) < r  # the case has exact ties
        for k, (i, j) in enumerate(pairs):
            assert np.array_equal(u[:, k], np.kron(u_h[:, i], u_v[:, j]))


def dft_ula(r_h, r_target):
    """The DFT surrogate of a linear array: the one-row planar case."""
    return cm.dft_approximation_upa(r_h, np.ones((1, 1)), r_target)


class TestDftApproximation:
    def test_identity_covariance(self):
        basis = dft_ula(np.eye(8), 3)
        assert np.allclose(basis.lambda_tilde, 1.0, atol=1e-12)
        assert np.unique(basis.f_tilde, axis=1).shape[1] == 3  # distinct columns

    def test_exact_dft_eigenvector(self):
        n = 8
        f3 = np.exp(-2j * np.pi * 3 * np.arange(n) / n) / np.sqrt(n)
        r_h = n * np.outer(f3, f3.conj())
        basis = dft_ula(r_h, 1)
        assert np.array_equal(basis.f_tilde, cm._dft_matrix(n)[:, [3]])
        assert basis.lambda_tilde[0] == pytest.approx(n, rel=1e-12)

    def test_columns_orthonormal(self):
        r_h = cm.one_ring_covariance(16, 0.3, 0.2, 1.0)
        basis = dft_ula(r_h, 6)
        gram = basis.f_tilde.conj().T @ basis.f_tilde
        assert np.allclose(gram, np.eye(6), atol=1e-12)

    def test_residual_nonincreasing_in_rank(self):
        r_h = cm.one_ring_covariance(24, 0.3, 0.25, 1.0)
        resid = []
        for r_target in (2, 4, 8, 16, 24):
            b = dft_ula(r_h, r_target)
            approx = (b.f_tilde * b.lambda_tilde) @ b.f_tilde.conj().T
            resid.append(np.linalg.norm(r_h - approx))
        assert all(x >= y - 1e-12 for x, y in zip(resid, resid[1:]))

    def test_asymptotic_improvement_with_array_size(self):
        # Toeplitz eigenbasis approaches the DFT as the aperture grows
        def rel_residual(n):
            r_h = cm.one_ring_covariance(n, 0.2, np.radians(10.0), 1.0)
            b = dft_ula(r_h, max(1, n // 4))
            approx = (b.f_tilde * b.lambda_tilde) @ b.f_tilde.conj().T
            return np.linalg.norm(r_h - approx) / np.linalg.norm(r_h)

        assert rel_residual(128) < rel_residual(32)

    def test_rank_too_large_rejected(self):
        with pytest.raises(ValueError):
            dft_ula(np.eye(4), 5)

    def test_upa_combination_matches_direct_projection(self):
        rng = np.random.default_rng(3)
        rh = cm.one_ring_covariance(5, 0.4, 0.2, 0.7)
        rv = cm.one_ring_covariance(3, 0.9, 0.1, 1.0)
        basis = cm.dft_approximation_upa(rh, rv, 6)
        big = np.kron(rh, rv)
        for idx in range(6):
            col = basis.f_tilde[:, idx]
            assert np.linalg.norm(col) == pytest.approx(1.0, rel=1e-12)
            direct = np.real(col.conj() @ big @ col)
            assert direct == pytest.approx(basis.lambda_tilde[idx], rel=1e-10)
        assert np.all(np.diff(basis.lambda_tilde) <= 1e-12)


class TestChannelEvolution:
    def make_stats(self, a=0.95, n=6):
        r_h = cm.one_ring_covariance(n, 0.25, 0.3, 1.0)
        return cm.ChannelStatistics.from_covariance(a, r_h)

    def test_static_channel_untouched(self):
        stats = self.make_stats(a=1.0)
        rng = np.random.default_rng(0)
        h = kalman.stationary_channel(stats, rng)
        assert np.allclose(kalman.evolve_channel(h, stats, rng), h)

    def test_memoryless_limit_draws_fresh(self):
        # a -> 0 keeps none of the previous state
        r_h = np.eye(4)
        stats = cm.ChannelStatistics.from_covariance(1e-12, r_h)
        rng = np.random.default_rng(1)
        h = 1e6 * np.ones(4, dtype=complex)
        out = kalman.evolve_channel(h, stats, rng)
        assert np.max(np.abs(out)) < 100.0

    def test_stationary_covariance_preserved(self):
        stats = self.make_stats(a=0.9)
        rng = np.random.default_rng(2)
        draws = 100_000
        h = np.stack([kalman.stationary_channel(stats, rng) for _ in range(64)])
        # vectorized AR(1) evolution of 64 parallel chains, pooled over time
        acc = np.zeros((stats.n_t, stats.n_t), dtype=complex)
        count = 0
        scale = np.sqrt(1 - stats.a**2)
        root = stats.u * np.sqrt(stats.lam)
        for _ in range(draws // 64):
            b = kalman.complex_normal(rng, (64, stats.rank))
            h = stats.a * h + scale * (b @ root.T)
            acc += h.T @ h.conj()
            count += 64
        emp = acc / count
        rel = np.linalg.norm(emp - stats.r_h) / np.linalg.norm(stats.r_h)
        assert rel < 0.03

    def test_block_autocorrelation_decays_geometrically(self):
        stats = self.make_stats(a=0.8)
        rng = np.random.default_rng(3)
        chains = 4096
        h0 = np.stack([kalman.stationary_channel(stats, rng) for _ in range(chains)])
        h = h0.copy()
        scale = np.sqrt(1 - stats.a**2)
        root = stats.u * np.sqrt(stats.lam)
        for k in (1, 2, 3):
            b = kalman.complex_normal(rng, (chains, stats.rank))
            h = stats.a * h + scale * (b @ root.T)
            cross = (h.T @ h0.conj()) / chains
            expected = stats.a**k * stats.r_h
            rel = np.linalg.norm(cross - expected) / np.linalg.norm(stats.r_h)
            assert rel < 0.1


class TestGeometryValidation:
    def test_empty_grid_rejected(self):
        for n_v, n_h in ((0, 5), (3, 0), (1, 0)):
            with pytest.raises(ValueError, match="n_v and n_h"):
                cm.ArrayGeometry(n_v, n_h)

    def test_ring_ordering_enforced(self):
        with pytest.raises(ValueError):
            default_ring(d_s=10.0, d_r=30.0)

    def test_sector_bound_enforced(self):
        with pytest.raises(ValueError):
            default_ring(theta_h=1.2)

    def test_build_statistics_trace(self):
        arr = cm.ArrayGeometry(3, 5)
        ring = default_ring()
        scene = sim.build_scene(arr, ring, block_len=5)
        gamma = cm.path_loss(ring)
        assert scene.trace() == pytest.approx(15 * gamma, rel=1e-9)
        assert scene.u_sim.shape[0] == 15
