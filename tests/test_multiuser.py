"""Matched-filter downlink analysis: realized SINR, deterministic
equivalents, spectral efficiency and the steady-state bound."""

import numpy as np
import pytest

from pilotseq import channel_model as cm
from pilotseq import multiuser as mu
from pilotseq import simulate as sim
from pilotseq import steady_state as ss
from pilotseq.config import UsersConfig, preset


def user_stats(n=8, theta=0.3, delta=0.25, a=0.95, gamma=1.0):
    r_h = cm.one_ring_covariance(n, theta, delta, gamma)
    return cm.ChannelStatistics.from_covariance(a, r_h)


def make_scene(stats_list, rho=5.0, m=10, m_p=1):
    return mu.MultiuserScene(users=[mu.UserLink(stats=s) for s in stats_list],
                             rho=rho, m=m, m_p=m_p)


def sinr_reference(h_list, h_hat_list, rho, u):
    """Independent term-by-term reimplementation of the worst-case SINR."""
    n_users = len(h_list)
    alpha = [1.0 / (np.linalg.norm(hh) * np.sqrt(n_users)) for hh in h_hat_list]
    eta = abs(np.vdot(h_hat_list[u], h_hat_list[u])) ** 2
    err = h_list[u] - h_hat_list[u]
    den = 1.0 / (alpha[u] ** 2 * rho)
    den += abs(np.vdot(err, h_hat_list[u])) ** 2
    for v in range(n_users):
        if v != u:
            den += (alpha[v] ** 2 / alpha[u] ** 2) * abs(np.vdot(h_list[u], h_hat_list[v])) ** 2
    return eta / den


class TestInstantaneousSinr:
    def test_single_user_perfect_csi(self):
        h = np.array([1.0, 1j, -0.5, 0.2 + 0.1j])
        rho = 3.0
        got = mu.instantaneous_sinr([h], [h], rho, 0)
        assert got == pytest.approx(rho * np.linalg.norm(h) ** 2, rel=1e-12)

    def test_vanishing_power(self):
        h = np.array([1.0, 1j])
        assert mu.instantaneous_sinr([h], [h], 1e-12, 0) < 1e-10

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = [rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(2)]
            hh = [x + 0.2 * (rng.standard_normal(16) + 1j * rng.standard_normal(16)) for x in h]
            rho = float(rng.uniform(0.5, 20.0))
            for u in (0, 1):
                got = mu.instantaneous_sinr(h, hh, rho, u)
                ref = sinr_reference(h, hh, rho, u)
                assert got == pytest.approx(ref, rel=1e-12)


def det_sinr_reference(scene, lambda_bars, u):
    """Elementwise reimplementation of the deterministic SINR terms."""
    lam_u = scene.users[u].stats.lam
    bar_u = np.asarray(lambda_bars[u])
    a_term = abs(np.sum(lam_u - bar_u)) ** 2
    b_term = np.sum(bar_u * (lam_u - bar_u))
    alpha_sq = [1.0 / (scene.n_users *
                       np.sum(scene.users[v].stats.lam - np.asarray(lambda_bars[v])))
                for v in range(scene.n_users)]
    c_term = 0.0
    for v in range(scene.n_users):
        if v == u:
            continue
        w = scene.users[u].stats.u.conj().T @ scene.users[v].stats.u
        lam_v = scene.users[v].stats.lam
        bar_v = np.asarray(lambda_bars[v])
        mat = np.diag(lam_u) @ w @ np.diag(lam_v - bar_v) @ w.conj().T
        c_term += (alpha_sq[v] / alpha_sq[u]) * np.real(np.trace(mat))
    noise = 1.0 / (alpha_sq[u] * scene.rho)
    return a_term / (noise + b_term + c_term)


class TestDeterministicSinr:
    def test_single_user_perfect_estimation(self):
        stats = user_stats()
        scene = make_scene([stats])
        got = mu.deterministic_sinr(scene, [np.zeros(stats.rank)], 0)
        assert got == pytest.approx(scene.rho * stats.lam.sum(), rel=1e-12)

    def test_orthogonal_subspaces_kill_interference(self):
        # users supported on disjoint eigenvector sets of a common basis
        basis = np.linalg.qr(np.random.default_rng(1).standard_normal((8, 8))
                             + 1j * np.random.default_rng(2).standard_normal((8, 8)))[0]
        lam = np.array([2.0, 1.0])
        stats = []
        for cols in ([0, 1], [4, 5]):
            u = basis[:, cols]
            r_h = (u * lam) @ u.conj().T
            stats.append(cm.ChannelStatistics(a=0.9, r_h=r_h, u=u, lam=lam.copy(), rank=2))
        scene = make_scene(stats)
        bars = [0.25 * lam, 0.25 * lam]
        got = mu.deterministic_sinr(scene, bars, 0)
        # no interference term survives; only the power split over U remains
        cap = (lam - bars[0]).sum()
        b_term = (bars[0] * (lam - bars[0])).sum()
        expected = cap**2 / (2 * cap / scene.rho + b_term)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_two_user_symmetry(self):
        stats = user_stats()
        scene = make_scene([stats, stats])
        bars = [0.3 * stats.lam, 0.3 * stats.lam]
        s0 = mu.deterministic_sinr(scene, bars, 0)
        s1 = mu.deterministic_sinr(scene, bars, 1)
        assert s0 == pytest.approx(s1, rel=1e-14)

    def test_terms_match_reference_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            stats = [user_stats(n=8, theta=float(rng.uniform(-0.8, 0.8)),
                                delta=float(rng.uniform(0.1, 0.4)))
                     for _ in range(3)]
            scene = make_scene(stats, rho=float(rng.uniform(0.5, 20.0)))
            bars = [s.lam * rng.uniform(0.05, 0.8, size=s.rank) for s in stats]
            for u in range(3):
                got = mu.deterministic_sinr(scene, bars, u)
                ref = det_sinr_reference(scene, bars, u)
                assert got == pytest.approx(ref, rel=1e-10)
            # the evaluator over a trajectory of posterior states, every user at once
            horizon = 4
            paths = [s.lam * rng.uniform(0.05, 0.8, size=(horizon, s.rank)) for s in stats]
            got = mu.sinr_equivalent(*mu.sinr_inputs(scene, paths, paths), scene.rho)
            assert got.shape == (horizon, 3)
            for ell in range(horizon):
                for u in range(3):
                    ref = det_sinr_reference(scene, [path[ell] for path in paths], u)
                    assert got[ell, u] == pytest.approx(ref, rel=1e-10)

    def test_no_energy_rejected(self):
        stats = user_stats()
        scene = make_scene([stats])
        with pytest.raises(ValueError, match="captured"):
            mu.deterministic_sinr(scene, [stats.lam.copy()], 0)


def bound_reference(scene, profiles, u):
    """Elementwise reimplementation of the steady-state bound's terms: every
    user's captured energy at lam - upper, the self-error term
    upper (x) (lam - lower) and the leakage at lam - lower."""
    s_min = [np.sum(p.lam - p.lambda_upper) for p in profiles]
    p_u = profiles[u]
    b_term = np.sum(p_u.lambda_upper * (p_u.lam - p_u.lambda_lower))
    c_term = 0.0
    for v in range(scene.n_users):
        if v == u or s_min[v] <= 0:
            continue
        w = scene.users[u].stats.u.conj().T @ scene.users[v].stats.u
        mat = (np.diag(p_u.lam) @ w @ np.diag(profiles[v].lam - profiles[v].lambda_lower)
               @ w.conj().T)
        c_term += (s_min[u] / s_min[v]) * np.real(np.trace(mat))
    return s_min[u] ** 2 / (scene.n_users * s_min[u] / scene.rho + b_term + c_term)


class TestProductionPathAgainstReference:
    def test_three_users_of_unequal_rank(self):
        # the run's deterministic traces, converged SINRs and bounds against
        # the elementwise references, fed the plans' own posteriors and profiles
        cfg = preset("multiuser_ula32")
        cfg.users = UsersConfig(count=3, theta_deg=[-55.0, 0.0, 35.0])
        scenes, _ = sim.multiuser_scenes_from_config(cfg)
        assert len({s.r_sim for s in scenes}) == 3
        frame, horizon = cfg.frame.build(), 2 * cfg.frame.g
        schemes = ["min_max", "mp_fixed", "perfect_csit"]
        table = sim.run_multiuser_scene(scenes, frame, schemes, 2, cfg.seed, horizon)
        scene = make_scene([cm.ChannelStatistics(a=s.a, r_h=s.covariance, u=s.u_sim,
                                                 lam=s.lam_sim, rank=s.r_sim) for s in scenes],
                           rho=frame.rho, m=frame.m, m_p=frame.m_p)
        for name in schemes:
            plans = [table.user_plans[u][name] for u in range(3)]
            if name == "perfect_csit":
                paths = [np.zeros((horizon, len(p.lam))) for p in plans]
                floors = [np.zeros(len(p.lam)) for p in plans]
                assert np.all(np.isnan(table.sinr_lb[name]))
            else:
                paths = [sim.TrackerStack.of([[p]]).posteriors(horizon)[2][0, 0]
                         for p in plans]
                profiles = [ss.profile(p.lam, p.a, p.rho, p.design.g_padded(len(p.lam)))
                            for p in plans]
                floors = [prof.lambda_lower for prof in profiles]
            for u in range(3):
                for ell in (0, 1, frame.g_len - 1, horizon - 1):
                    ref = det_sinr_reference(scene, [path[ell] for path in paths], u)
                    assert table.sinr_det[name][ell, u] == pytest.approx(ref, rel=1e-10)
                ref = det_sinr_reference(scene, floors, u)
                assert table.sinr_det_ss[name][u] == pytest.approx(ref, rel=1e-10)
                if name != "perfect_csit":
                    ref = bound_reference(scene, profiles, u)
                    assert table.sinr_lb[name][u] == pytest.approx(ref, rel=1e-10)
                    assert table.sinr_lb[name][u] <= table.sinr_det_ss[name][u]


class TestSpectralEfficiency:
    def test_zero_sinr(self):
        assert mu.spectral_efficiency(0.0, 2, 1, 10) == 0.0

    def test_half_prelog(self):
        assert mu.spectral_efficiency(1.0, 5, 1, 10) == pytest.approx(0.5)

    def test_arithmetic(self):
        assert mu.spectral_efficiency(3.0, 2, 1, 10) == pytest.approx(1.6)

    def test_training_overflow_rejected(self):
        with pytest.raises(ValueError):
            mu.spectral_efficiency(1.0, 5, 2, 10)


class TestSteadyStateLowerBound:
    def test_unit_intervals_single_user_collapse(self):
        # g = 1 everywhere freezes the envelopes together, so the bound
        # coincides with the deterministic SINR at the converged state
        stats = user_stats()
        scene = make_scene([stats])
        g = np.ones(stats.rank, dtype=int)
        prof = ss.profile(stats.lam, stats.a, scene.rho, g)
        lb = mu.steady_state_sinr_lower_bound(scene, [prof], 0)
        det = mu.deterministic_sinr(scene, [prof.lambda_lower], 0)
        assert lb == pytest.approx(det, rel=1e-12)

    def test_bound_below_converged_deterministic(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            stats = [user_stats(n=12, theta=float(rng.uniform(-0.8, 0.8)),
                                delta=float(rng.uniform(0.1, 0.3)),
                                a=float(rng.uniform(0.9, 0.999)))
                     for _ in range(2)]
            rho = float(rng.uniform(1.0, 30.0))
            scene = make_scene(stats, rho=rho)
            profiles = []
            for s in stats:
                g = np.zeros(s.rank, dtype=int)
                k = min(4, s.rank)
                g[:k] = [1, 2, 4, 4][:k]
                profiles.append(ss.profile(s.lam, s.a, rho, g))
            for u in range(2):
                lb = mu.steady_state_sinr_lower_bound(scene, profiles, u)
                # any in-envelope posterior state dominates the bound
                for pick in ("lambda_lower", "lambda_upper"):
                    bars = [getattr(p, pick) for p in profiles]
                    det = mu.deterministic_sinr(scene, bars, u)
                    assert lb <= det + 1e-9

    def test_orthogonal_subspaces_reduce_to_single_user(self):
        basis = np.eye(8)
        lam = np.array([2.0, 1.0])
        stats = []
        for cols in ([0, 1], [4, 5]):
            u = basis[:, cols].astype(complex)
            r_h = (u * lam) @ u.conj().T
            stats.append(cm.ChannelStatistics(a=0.95, r_h=r_h, u=u, lam=lam.copy(), rank=2))
        scene = make_scene(stats)
        profiles = [ss.profile(s.lam, s.a, scene.rho, np.array([1, 2])) for s in stats]
        lb_pair = mu.steady_state_sinr_lower_bound(scene, profiles, 0)
        # single-user form with the two-way power split: no cross term
        p = profiles[0]
        s_min = (p.lam - p.lambda_upper).sum()
        b_max = (p.lambda_upper * (p.lam - p.lambda_lower)).sum()
        expected = s_min**2 / (2 * s_min / scene.rho + b_max)
        assert lb_pair == pytest.approx(expected, rel=1e-12)

    def test_untrained_user_rejected(self):
        stats = user_stats()
        scene = make_scene([stats])
        prof = ss.profile(stats.lam, stats.a, scene.rho, np.zeros(stats.rank, dtype=int))
        with pytest.raises(ValueError, match="trains no modes"):
            mu.steady_state_sinr_lower_bound(scene, [prof], 0)


class TestSceneValidation:
    def test_training_must_fit_in_block(self):
        stats = user_stats()
        with pytest.raises(ValueError, match="M_p"):
            mu.MultiuserScene(users=[mu.UserLink(stats=stats)] * 10, rho=1.0,
                              m=10, m_p=1)

    def test_cross_subspace_cached(self):
        # the cross-subspace weights live in the cached per-user coupling map
        scene = make_scene([user_stats(theta=0.1), user_stats(theta=0.5)])
        w1 = scene.coupling(1)
        w2 = scene.coupling(1)
        assert w1 is w2
