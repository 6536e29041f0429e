"""Kalman tracker: the full-matrix reference path, the engine's diagonal
tracker checked against it, and the statistical properties the downlink
analysis relies on."""

import numpy as np
import pytest

from pilotseq import channel_model as cm
from pilotseq import kalman
from pilotseq import simulate as sim


def make_stats(n=8, a=0.9, theta=0.3, delta=0.25, seed=None):
    r_h = cm.one_ring_covariance(n, theta, delta, 1.0)
    return cm.ChannelStatistics.from_covariance(a, r_h)


def simulate_received(h: np.ndarray, s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Noisy pilot observations y = S^H h + w with unit-variance noise."""
    return s.conj().T @ h + kalman.complex_normal(rng, s.shape[1])


class TestInit:
    def test_prior_is_channel_covariance(self):
        stats = make_stats()
        state = kalman.init(stats)
        assert np.allclose(state.p_pred, stats.r_h)
        assert np.all(state.h_hat == 0)
        assert np.real(np.trace(state.p_est)) / stats.trace() == pytest.approx(1.0)

    def test_rank_one_prior(self):
        s = np.ones(4) / 2.0
        stats = cm.ChannelStatistics.from_covariance(0.9, np.outer(s, s))
        state = kalman.init(stats)
        assert np.linalg.matrix_rank(state.p_pred, tol=1e-10) == 1


class TestSimulateReceived:
    def test_zero_channel_gives_pure_noise(self):
        rng = np.random.default_rng(0)
        s = np.eye(4)[:, :2]
        y = simulate_received(np.zeros(4, dtype=complex), s, rng)
        assert y.shape == (2,)
        assert np.abs(y).max() < 6.0

    def test_single_column_projects(self):
        class NoNoise:
            def standard_normal(self, size):
                return np.zeros(size)

        s = np.sqrt(5.0) * np.eye(3)[:, :1]
        y = simulate_received(np.eye(3)[:, 0].astype(complex), s, NoNoise())
        assert y[0] == pytest.approx(np.sqrt(5.0))

    def test_second_moment_matches_model(self):
        stats = make_stats(n=6)
        rng = np.random.default_rng(1)
        s = np.sqrt(2.0) * stats.u[:, :2]
        draws = 100_000
        b = kalman.complex_normal(rng, (draws, stats.rank))
        h = (stats.u * np.sqrt(stats.lam)) @ b.conj().T  # CN(0, R_h) columns
        w = kalman.complex_normal(rng, (2, draws))
        y = s.conj().T @ h + w
        emp = (y @ y.conj().T) / draws
        expected = s.conj().T @ stats.r_h @ s + np.eye(2)
        assert np.linalg.norm(emp - expected) / np.linalg.norm(expected) < 0.02


class TestMeasurementUpdate:
    def test_zero_training_is_identity(self):
        stats = make_stats()
        state = kalman.init(stats)
        out = kalman.measurement_update(state, np.zeros((8, 2)), np.zeros(2))
        assert np.allclose(out.h_hat, state.h_hat)
        assert np.allclose(out.p_est, state.p_pred)

    def test_scalar_kalman_on_isotropic_prior(self):
        lam, rho = 0.7, 4.0
        stats = cm.ChannelStatistics.from_covariance(0.9, lam * np.eye(3))
        state = kalman.init(stats)
        s = np.sqrt(rho) * np.eye(3)[:, :1]
        out = kalman.measurement_update(state, s, np.array([0.3 + 0.1j]))
        expected = np.diag([lam / (1 + rho * lam), lam, lam])
        assert np.allclose(out.p_est, expected, atol=1e-12)

    def test_trace_never_increases(self):
        stats = make_stats()
        rng = np.random.default_rng(3)
        state = kalman.init(stats)
        s = np.sqrt(3.0) * stats.u[:, :2]
        y = simulate_received(kalman.stationary_channel(stats, rng), s, rng)
        out = kalman.measurement_update(state, s, y)
        assert np.real(np.trace(out.p_est)) <= np.real(np.trace(state.p_pred)) + 1e-12

    def test_matches_batch_mmse_conditioning(self):
        """Three blocks of Kalman tracking equal one joint-Gaussian solve."""
        n, m_p, rho = 8, 2, 3.0
        stats = make_stats(n=n, a=0.85)
        rng = np.random.default_rng(7)
        signals = [
            np.sqrt(rho) * np.linalg.qr(kalman.complex_normal(rng, (n, m_p)))[0]
            for _ in range(3)
        ]
        # simulate channel + measurements
        h = [kalman.stationary_channel(stats, rng)]
        for _ in range(2):
            h.append(kalman.evolve_channel(h[-1], stats, rng))
        ys = [simulate_received(h[ell], signals[ell], rng) for ell in range(3)]

        state = kalman.init(stats)
        for ell in range(3):
            state = kalman.measurement_update(state, signals[ell], ys[ell])
            if ell < 2:
                state = kalman.time_update(state, stats)

        # oracle: condition h_2 on the stacked observations of blocks 0..2,
        # using E{h_l h_k^H} = a^|l-k| R_h for the stationary AR(1) chain
        a = stats.a
        cov_y = np.zeros((3 * m_p, 3 * m_p), dtype=complex)
        cov_hy = np.zeros((n, 3 * m_p), dtype=complex)
        for ell in range(3):
            cov_hy[:, ell * m_p:(ell + 1) * m_p] = a ** (2 - ell) * stats.r_h @ signals[ell]
            for k in range(3):
                block = signals[ell].conj().T @ (a ** abs(ell - k) * stats.r_h) @ signals[k]
                if ell == k:
                    block = block + np.eye(m_p)
                cov_y[ell * m_p:(ell + 1) * m_p, k * m_p:(k + 1) * m_p] = block
        y_all = np.concatenate(ys)
        gain = cov_hy @ np.linalg.inv(cov_y)
        h_mmse = gain @ y_all
        p_mmse = stats.r_h - gain @ cov_hy.conj().T

        assert np.allclose(state.h_hat, h_mmse, atol=1e-9)
        assert np.allclose(state.p_est, p_mmse, atol=1e-9)


class TestTimeUpdate:
    def test_static_channel_keeps_covariance(self):
        stats = make_stats(a=1.0)
        state = kalman.init(stats)
        out = kalman.time_update(state, stats)
        assert np.allclose(out.p_pred, state.p_est)

    def test_memoryless_resets_to_prior(self):
        stats = make_stats(a=1e-9)
        state = kalman.init(stats)
        state.h_hat = np.ones(8, dtype=complex)
        state.p_est = 0.5 * stats.r_h
        out = kalman.time_update(state, stats)
        assert np.allclose(out.p_pred, stats.r_h, atol=1e-9)
        assert np.abs(out.h_hat).max() < 1e-8

    def test_trace_linearity(self):
        stats = make_stats(a=0.8)
        state = kalman.init(stats)
        state.p_est = 0.3 * stats.r_h
        out = kalman.time_update(state, stats)
        expected = 0.8**2 * np.trace(state.p_est) + (1 - 0.8**2) * np.trace(stats.r_h)
        assert np.real(np.trace(out.p_pred)) == pytest.approx(np.real(expected), rel=1e-12)


def diag_tracker(stats, sched, rho, a=None):
    """The engine's diagonal tracker whose schedule period is an explicit
    per-block schedule, one row per block."""
    sched = np.asarray(sched, dtype=int).reshape(len(sched), -1)
    return sim.Tracker("diag", sched.shape[1], stats.lam,
                       stats.a if a is None else a, rho, sched=sched)


def one_row(tracker):
    """The tracker's one-row stack, whose recursion has run one period of
    its schedule and stored its gains, and its (period, r) posterior error
    variances."""
    stack = sim.TrackerStack.of([[tracker]])
    _, _, diag = stack.posteriors(len(tracker.sched))
    return stack, diag[0, 0]


def posteriors(tracker):
    return one_row(tracker)[1]


class TestDiagonalPath:
    """The engine's diag tracker against the full-matrix reference."""

    def test_empty_update_is_identity(self):
        stats = make_stats()
        stack, (lam_bar,) = one_row(diag_tracker(stats, [[]], rho=2.0))
        chat = np.arange(stats.rank, dtype=complex)[None, :]
        before = chat.copy()
        stack.step(chat[None, None], np.ones((1, 1, stats.rank), dtype=complex),
                   np.zeros((1, 1, 1, 0), dtype=complex), 0)
        assert np.allclose(lam_bar, stats.lam)  # the prior of block 0
        assert np.allclose(chat, before)

    def test_zero_power_keeps_prediction(self):
        stats = make_stats()
        (lam_bar,) = posteriors(diag_tracker(stats, [[0, 1]], rho=0.0))
        assert np.allclose(lam_bar, stats.lam)

    def test_out_of_range_mode_rejected(self):
        stats = make_stats()
        for mode in (stats.rank, -1):
            with pytest.raises(IndexError):
                posteriors(diag_tracker(stats, [[mode]], rho=1.0))

    def test_matches_full_path_trajectories(self):
        """Eigenvector training keeps both paths identical to 1e-10."""
        stats = make_stats(n=10, a=0.92)
        rho = 4.0
        rng = np.random.default_rng(5)
        schedule = [[0, 1], [2, 3], [0, 4], [1, 2], [0, 3], [4, 5]]
        full = kalman.init(stats)
        diag, lam_bars = one_row(diag_tracker(stats, schedule, rho))
        chat = np.zeros((1, stats.rank), dtype=complex)
        h = kalman.stationary_channel(stats, rng)
        for ell, lam_bar in enumerate(lam_bars):
            s = np.sqrt(rho) * stats.u[:, schedule[ell]]
            w = kalman.complex_normal(rng, 2)
            full = kalman.measurement_update(full, s, s.conj().T @ h + w)
            diag.step(chat[None, None], (stats.u.conj().T @ h)[None, None], w[None, None, None],
                      ell)
            # posterior covariance stays simultaneously diagonalizable
            p_in_basis = stats.u.conj().T @ full.p_est @ stats.u
            assert np.allclose(np.diag(p_in_basis), lam_bar, atol=1e-10)
            off = p_in_basis - np.diag(np.diag(p_in_basis))
            assert np.linalg.norm(off) <= 1e-8 * np.real(np.trace(full.p_est))
            est_full_coeff = stats.u.conj().T @ full.h_hat
            assert np.allclose(est_full_coeff, chat[0], atol=1e-10)
            full = kalman.time_update(full, stats)
            h = kalman.evolve_channel(h, stats, rng)

    def test_variance_ordering_invariant(self):
        stats = make_stats(n=10, a=0.95)
        rng = np.random.default_rng(8)
        sched = [list(rng.choice(stats.rank, size=2, replace=False)) for _ in range(50)]
        lam_pred = stats.lam
        for ell, lam_bar in enumerate(posteriors(diag_tracker(stats, sched, rho=3.0))):
            assert np.all(lam_bar <= lam_pred + 1e-14)
            assert np.all(lam_bar >= 0)
            # a mode the next block does not sound keeps its prediction
            lam_pred = stats.a**2 * lam_bar + (1 - stats.a**2) * stats.lam
            assert np.all(lam_pred <= stats.lam + 1e-12)

    def test_diagonal_time_update_limits(self):
        # mode 0, sounded at block 0 only: a = 1 freezes its posterior into
        # block 1, a = 0 resets it to the prior
        stats = make_stats()
        frozen = posteriors(diag_tracker(stats, [[0], [1]], rho=1.0, a=1.0))
        assert frozen[0, 0] < stats.lam[0]
        assert frozen[1, 0] == frozen[0, 0]
        reset = posteriors(diag_tracker(stats, [[0], [1]], rho=1.0, a=0.0))
        assert reset[0, 0] == frozen[0, 0]
        assert reset[1, 0] == stats.lam[0]
        assert np.array_equal(reset[1, 2:], stats.lam[2:])


class TestEstimatorStatistics:
    def test_estimate_covariance_complements_error(self):
        """Sample covariance of the estimate approaches R_h - P at fixed block."""
        stats = make_stats(n=6, a=0.9)
        rho = 5.0
        runs = 4000
        blocks = 6
        rng = np.random.default_rng(13)
        schedule = [[0, 1], [2, 3], [0, 1], [2, 3], [0, 1], [2, 3]]
        acc = np.zeros((6, 6), dtype=complex)
        mean_acc = np.zeros(6, dtype=complex)
        cross_acc = np.zeros((6, 6), dtype=complex)
        final_state = None
        for _ in range(runs):
            h = kalman.stationary_channel(stats, rng)
            state = kalman.init(stats)
            for ell in range(blocks):
                s = np.sqrt(rho) * stats.u[:, schedule[ell]]
                y = simulate_received(h, s, rng)
                state = kalman.measurement_update(state, s, y)
                if ell < blocks - 1:
                    state = kalman.time_update(state, stats)
                    h = kalman.evolve_channel(h, stats, rng)
            acc += np.outer(state.h_hat, state.h_hat.conj())
            mean_acc += state.h_hat
            err = h - state.h_hat
            cross_acc += np.outer(state.h_hat, err.conj())
            final_state = state
        emp_cov = acc / runs
        expected = stats.r_h - final_state.p_est
        rel = np.linalg.norm(emp_cov - expected) / np.linalg.norm(expected)
        assert rel < 0.05
        assert np.abs(mean_acc / runs).max() < 0.05
        # orthogonality of estimate and error
        cross = np.linalg.norm(cross_acc / runs) / np.linalg.norm(expected)
        assert cross < 0.05

    def test_covariances_stay_psd_under_random_schedules(self):
        stats = make_stats(n=8, a=0.93)
        rng = np.random.default_rng(17)
        state = kalman.init(stats)
        h = kalman.stationary_channel(stats, rng)
        for _ in range(60):
            k = int(rng.integers(0, 3))
            if k:
                s = np.sqrt(2.0) * np.linalg.qr(kalman.complex_normal(rng, (8, k)))[0]
                y = simulate_received(h, s, rng)
                state = kalman.measurement_update(state, s, y)
            for p in (state.p_est, state.p_pred):
                evals = np.linalg.eigvalsh(p)
                assert evals.min() >= -1e-9 * max(np.real(np.trace(p)) / 8, 1e-30)
            state = kalman.time_update(state, stats)
            h = kalman.evolve_channel(h, stats, rng)
