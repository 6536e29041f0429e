"""Engine-level checks: scheme plans, determinism, agreement with the
reference Kalman module, and output emission."""

import dataclasses
import functools
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from pilotseq import channel_model as cm
from pilotseq import kalman
from pilotseq import multiuser as mu
from pilotseq import sequence_design as sd
from pilotseq import simulate as sim
from pilotseq import steady_state as ss
from pilotseq.cli import emit_outputs
from pilotseq.config import PRESETS, ExperimentConfig, preset
from pilotseq.sequence_design import FrameParams, min_max_design


def small_scene(n=16, theta_deg=20.0, v_kmh=3.0, d_r=30.0):
    ring = cm.OneRingGeometry(d_s=100.0, d_r=d_r, h=60.0,
                              theta_h=np.radians(theta_deg), v=v_kmh / 3.6)
    return sim.build_scene(cm.ArrayGeometry(1, n), ring, block_len=5)


def small_frame(**kw):
    base = dict(g_len=4, m_p=2, m=5, n_d_max=8, rho=10.0)
    base.update(kw)
    return FrameParams(**base)


class TestSchedules:
    def test_round_robin_covers_everything(self):
        cyc = sim._round_robin_cycle(8, 2)
        assert cyc.shape == (4, 2)
        assert sorted(cyc.ravel().tolist()) == list(range(8))

    def test_round_robin_wraps_unevenly(self):
        cyc = sim._round_robin_cycle(5, 2)
        assert cyc.shape == (5, 2)  # lcm(5,2)/2 rows before repeating
        counts = np.bincount(cyc.ravel(), minlength=5)
        assert np.all(counts == 2)

    def test_nd_fixed_sounds_each_vector_once_per_frame(self):
        scene = small_scene()
        frame = small_frame(n_d_max=8)  # N_d = G * M_p
        (plan,), _ = sim.build_single_user_plans(scene, frame, 8, ["nd_fixed"],
                                                 np.random.default_rng(0))
        sched = plan.sched[:4]  # one frame
        assert sorted(sched.ravel().tolist()) == list(range(8))


class TestEngineAgainstKalmanModule:
    def test_diag_trace_matches_reference_recursion(self):
        scene = small_scene()
        frame = small_frame()
        horizon = 40
        (plan,), (nmse,) = sim.build_single_user_plans(scene, frame, horizon, ["min_max"],
                                                       np.random.default_rng(0))
        stats = cm.ChannelStatistics(
            a=scene.a, r_h=(scene.u_sim * scene.lam_sim) @ scene.u_sim.conj().T,
            u=scene.u_sim, lam=scene.lam_sim, rank=scene.r_sim)
        state = kalman.init(stats)
        total = stats.trace()
        assert len(plan.sched) == frame.g_len  # the plan keeps one period
        for ell in range(horizon):
            # a designed plan sounds row ell mod G of its index matrix
            idx = plan.sched[ell % len(plan.sched)]
            assert np.array_equal(idx, plan.seq.c[ell % frame.g_len] - 1)
            s = np.sqrt(frame.rho) * stats.u[:, idx]
            state = kalman.measurement_update(state, s, np.zeros(frame.m_p, complex))
            assert np.real(np.trace(state.p_est)) / total == pytest.approx(
                nmse[ell], rel=1e-12)
            state = kalman.time_update(state, stats)

    def test_full_trace_matches_reference_recursion(self):
        scene = small_scene(n=12)
        frame = small_frame()
        horizon = 24
        (plan,), (nmse,) = sim.build_single_user_plans(scene, frame, horizon, ["orthogonal"],
                                                       np.random.default_rng(0))
        n_t = 12
        grid = np.arange(n_t)
        dft = np.exp(-2j * np.pi * np.outer(grid, grid) / n_t) / np.sqrt(n_t)
        r_h = (scene.u_sim * scene.lam_sim) @ scene.u_sim.conj().T
        stats = cm.ChannelStatistics(a=scene.a, r_h=r_h, u=scene.u_sim,
                                     lam=scene.lam_sim, rank=scene.r_sim)
        det = sim.run_schemes(scene, frame, ["orthogonal"], 1, 0, horizon).sinr_det
        state = kalman.init(stats)
        total = stats.trace()
        for ell in range(horizon):
            s = np.sqrt(frame.rho) * dft[:, plan.sched[ell % len(plan.sched)]]
            state = kalman.measurement_update(state, s, np.zeros(frame.m_p, complex))
            p = state.p_est
            assert np.real(np.trace(p)) / total == pytest.approx(nmse[ell], rel=1e-9)
            # deterministic SINR from the full posterior: tr^2 / (tr/rho + Re tr(P(R - P)))
            cap = total - np.real(np.trace(p))
            b = np.real(np.trace(p @ (r_h - p)))
            assert det["orthogonal"][ell, 0] == pytest.approx(
                cap**2 / (cap / frame.rho + b), rel=1e-9)
            state = kalman.time_update(state, stats)

    def test_stacked_full_plans_match_single_plans_and_reference(self):
        # the full plans' one stacked recursion equals each plan's own S = 1
        # recursion bit for bit; its hybrid member, sounding r_design DFT
        # columns against orthogonal's n_t, follows the reference recursion
        scene = small_scene(n=12)
        frame = small_frame()
        horizon = 24
        schemes = ["min_max_dft", "orthogonal", "random"]
        together, nmse = sim.build_single_user_plans(scene, frame, horizon, schemes,
                                                     np.random.default_rng(0))
        stacked = sim.TrackerStack.of([[plan] for plan in together])
        stacked.posteriors(horizon)
        det = sim.run_schemes(scene, frame, schemes, 1, 0, horizon).sinr_det
        for k, (plan, name) in enumerate(zip(together, schemes)):
            (alone,), alone_nmse = sim.build_single_user_plans(scene, frame, horizon, [name],
                                                               np.random.default_rng(0))
            one_row = sim.TrackerStack.of([[alone]])
            one_row.posteriors(horizon)
            assert plan.kind == alone.kind == "full"
            assert np.array_equal(stacked.gains[k], one_row.gains[0])
            assert np.array_equal(nmse[k], alone_nmse[0])
            single = sim.run_schemes(scene, frame, [name], 1, 0, horizon)
            assert np.array_equal(det[name], single.sinr_det[name])
        hybrid = together[0]
        _, _, cols = sim.design_sweep([scene], [frame], "min_max_dft")[0][0]
        assert hybrid.s_u.shape[1] == cols.shape[1] == scene.r_design < 12
        r_h = (scene.u_sim * scene.lam_sim) @ scene.u_sim.conj().T
        stats = cm.ChannelStatistics(a=scene.a, r_h=r_h, u=scene.u_sim,
                                     lam=scene.lam_sim, rank=scene.r_sim)
        state = kalman.init(stats)
        total = stats.trace()
        for ell in range(horizon):
            s = np.sqrt(frame.rho) * cols[:, hybrid.sched[ell % len(hybrid.sched)]]
            state = kalman.measurement_update(state, s, np.zeros(frame.m_p, complex))
            assert np.real(np.trace(state.p_est)) / total == pytest.approx(
                nmse[0, ell], rel=1e-9)
            state = kalman.time_update(state, stats)

    def test_unsymmetrized_recursion_holds_over_a_long_horizon(self):
        # the stack's full recursion never re-symmetrizes P; the reference does every
        # step.  Over 3000 blocks of a slowly fading (a > 0.9999) rank-26
        # channel the two must still agree per block.
        scene = small_scene(n=32, d_r=60.0, v_kmh=1.0)
        assert scene.r_sim >= 24 and scene.a >= 0.9999
        frame = small_frame()
        horizon = 3000
        plan = sim._scheme_plan(scene, frame, "orthogonal", np.random.default_rng(0))
        err, self_err, _ = sim.TrackerStack.of([[plan]]).posteriors(horizon)
        ((err,),), ((self_err,),) = err, self_err
        dft = cm._dft_matrix(32)
        r_h = (scene.u_sim * scene.lam_sim) @ scene.u_sim.conj().T
        stats = cm.ChannelStatistics(a=scene.a, r_h=r_h, u=scene.u_sim,
                                     lam=scene.lam_sim, rank=scene.r_sim)
        state = kalman.init(stats)
        total = stats.trace()
        drift = 0.0
        for ell in range(horizon):
            s = np.sqrt(frame.rho) * dft[:, plan.sched[ell % len(plan.sched)]]
            state = kalman.measurement_update(state, s, np.zeros(frame.m_p, complex))
            p = state.p_est
            ref_err = np.real(np.trace(p))
            ref_self = np.real(np.trace(p @ (r_h - p)))
            assert err[ell] / total == pytest.approx(ref_err / total, rel=1e-9)
            assert self_err[ell] == pytest.approx(ref_self, rel=1e-9)
            drift = max(drift, abs(err[ell] / ref_err - 1), abs(self_err[ell] / ref_self - 1))
            state = kalman.time_update(state, stats)
        print(f"largest relative drift over {horizon} blocks: {drift:.3g}")

    def test_stacked_trackers_must_share_their_model(self):
        # a user's rows share its spectrum and a, all rows m_p; the rows'
        # rho and schedule periods may differ
        scenes = [small_scene(n=12), small_scene(n=12, theta_deg=35.0)]
        frame = small_frame()

        def plan(scene, name="orthogonal", **changes):
            return sim._scheme_plan(scene, dataclasses.replace(frame, **changes), name,
                                    np.random.default_rng(0))

        sim.TrackerStack.of([[plan(scenes[0])], [plan(scenes[0], "random", rho=2.0)]])
        for rows, field in (([[plan(scenes[0])], [plan(scenes[1])]], "lam"),
                            ([[plan(scenes[0])], [plan(scenes[0], m_p=1)]], "m_p"),
                            ([[plan(scenes[0], "min_max")], [plan(scenes[0], "mp_fixed",
                                                                  m_p=1)]], "m_p")):
            with pytest.raises(ValueError, match=f"share {field}, but row 1 of user 0"):
                sim.TrackerStack.of(rows)
        moved = plan(scenes[0])
        moved.a = 0.5
        with pytest.raises(ValueError, match="share a,"):
            sim.TrackerStack.of([[plan(scenes[0])], [moved]])

    def test_dft_plan_uses_projected_spectrum_for_design(self):
        scene = small_scene(n=16)
        frame = small_frame(g_len=4, m_p=2, n_d_max=6)
        (eig, dft), _ = sim.build_single_user_plans(scene, frame, 8,
                                                    ["min_max", "min_max_dft"],
                                                    np.random.default_rng(0))
        assert dft.kind == "full"
        # sounding columns are unit-norm and orthonormal in antenna space
        gram = dft.s_u.conj().T @ dft.s_u
        # s_u is U^H F_tilde; orthonormality holds within the channel subspace
        assert np.all(np.diag(gram).real <= 1.0 + 1e-9)


class TestFloorsAndEnvelopes:
    def test_mp_fixed_reaches_closed_form_floor(self):
        scene = small_scene()
        frame = small_frame()
        horizon = 4000
        _, (nmse,) = sim.build_single_user_plans(scene, frame, horizon, ["mp_fixed"],
                                                 np.random.default_rng(0))
        lam = scene.lam_sim
        floor = ss.min_ss_mse(lam[: frame.m_p], scene.a, frame.rho, 1.0)
        expected = (floor.sum() + lam[frame.m_p:].sum()) / lam.sum()
        assert nmse[-1] == pytest.approx(expected, abs=1e-7)

    def test_designed_scheme_beats_mp_fixed(self):
        scene = small_scene()
        frame = small_frame()
        _, nmse = sim.build_single_user_plans(scene, frame, 600, ["min_max", "mp_fixed"],
                                              np.random.default_rng(0))
        assert nmse[0, -1] < nmse[1, -1]


def antenna_training(scene, plan, block):
    """Antenna-domain training matrix S_ell of a full-kind plan; exact when
    the scene's eigenbasis spans the whole array."""
    return np.sqrt(plan.rho) * scene.u_sim @ plan.s_u[:, plan.sched[block % len(plan.sched)]]


class TestBaselineTraining:
    def test_orthogonal_full_sounding_when_budget_matches(self):
        scene = small_scene(n=4)
        assert scene.r_sim == 4
        frame = FrameParams(g_len=4, m_p=4, m=6, n_d_max=4, rho=2.0)
        (plan,), _ = sim.build_single_user_plans(scene, frame, 2, ["orthogonal"],
                                                 np.random.default_rng(0))
        s0 = antenna_training(scene, plan, 0)
        s1 = antenna_training(scene, plan, 1)
        assert np.allclose(s0, s1)  # N_t == M_p: every block sounds all
        assert np.allclose(s0.conj().T @ s0, 2.0 * np.eye(4), atol=1e-12)

    def test_nd_fixed_covers_budget_once_per_frame(self):
        scene = small_scene()
        frame = FrameParams(g_len=4, m_p=2, m=5, n_d_max=8, rho=1.0)
        (plan,), _ = sim.build_single_user_plans(scene, frame, 4, ["nd_fixed"],
                                                 np.random.default_rng(0))
        assert plan.kind == "diag"  # sounds eigenvectors u_i directly
        seen = plan.sched.ravel().tolist()
        assert sorted(seen) == list(range(8))

    def test_random_columns_have_pilot_power(self):
        scene = small_scene(n=8)
        assert scene.r_sim == 8
        frame = FrameParams(g_len=4, m_p=2, m=5, n_d_max=8, rho=3.0)
        plan_a, plan_b = (
            sim.build_single_user_plans(scene, frame, 4, ["random"],
                                        np.random.default_rng(5))[0][0]
            for _ in range(2))
        s_a = antenna_training(scene, plan_a, 2)
        s_b = antenna_training(scene, plan_b, 2)
        assert np.allclose(s_a, s_b)  # the fixed set is seed-determined
        assert np.allclose(np.linalg.norm(s_a, axis=0), np.sqrt(3.0))

    def test_unknown_scheme_rejected(self):
        scene = small_scene()
        frame = FrameParams(g_len=4, m_p=2, m=5, n_d_max=8, rho=1.0)
        with pytest.raises(ValueError, match="unknown scheme"):
            sim.build_single_user_plans(scene, frame, 4, ["psychic"],
                                        np.random.default_rng(0))


class TestTrajectoryPeriodicity:
    def test_designed_error_trace_locks_to_frame_period(self):
        # after the transient the posterior eigenvalue trajectory repeats
        # with the frame period
        scene = small_scene(v_kmh=30.0)
        frame = small_frame(g_len=8)
        horizon = 8 * 60
        _, (nm,) = sim.build_single_user_plans(scene, frame, horizon, ["min_max"],
                                             np.random.default_rng(0))
        tail = nm[-5 * 8:]
        for k in range(4 * 8):
            assert tail[k] == pytest.approx(tail[k + 8], abs=1e-9)


class TestGreedyProgress:
    def test_every_refinement_consumes_budget(self):
        # moving any mode from its current interval to the next-smaller
        # divisor always costs net blocks, so the block budget strictly
        # decreases on every allocation and the greedy terminates
        from pilotseq.sequence_design import divisor_set

        for g_len in (4, 8, 16, 32):
            divisors = divisor_set(g_len)
            for g_cur in divisors[1:] + [g_len + 1]:
                smaller = [d for d in divisors if d < g_cur]
                d_star = smaller[-1]
                freed = g_len // g_cur if g_cur <= g_len else 0
                assert g_len // d_star > freed


class TestDftBasisBuilder:
    def test_build_dft_basis_matches_scene_scaling(self):
        ring = cm.OneRingGeometry(d_s=100.0, d_r=30.0, h=60.0, theta_h=0.3,
                                  v=3 / 3.6)
        arr = cm.ArrayGeometry(3, 5)
        scene = sim.build_scene(arr, ring, block_len=5)
        basis = cm.dft_approximation_upa(*scene.axes, scene.r_design)
        assert basis.f_tilde.shape[1] == scene.r_design >= 6
        r_h, _ = cm.build_covariance(arr, ring)
        for j in range(scene.r_design):
            col = basis.f_tilde[:, j]
            assert np.real(col.conj() @ r_h @ col) == pytest.approx(
                basis.lambda_tilde[j], rel=1e-10)

    def test_ula_scene_is_one_row_upa_scene(self):
        """A linear array is the one-row planar array: its covariance is the
        linear one-ring covariance itself and its vertical factor is [[1]]."""
        ring = cm.OneRingGeometry(theta_h=0.3, v=3 / 3.6)
        row = sim.build_scene(cm.ArrayGeometry(1, 24), ring, block_len=5)
        _, _, delta_h = cm.one_ring_params(ring)
        linear = cm.one_ring_covariance(24, ring.theta_h, delta_h, cm.path_loss(ring))
        assert row.axes[0].tobytes() == linear.tobytes()
        assert np.array_equal(row.axes[1], [[1.0]])
        u, lam, _ = cm.eigendecompose(linear, sim.SIM_RANK_TOL)
        assert row.u_sim.tobytes() == u.tobytes()
        assert row.lam_sim.tobytes() == lam.tobytes()

    def test_planar_scene_diagonalizes_axis_factors_alone(self, monkeypatch):
        """build_scene never diagonalizes the n_t x n_t covariance: on upa375
        its two eigh calls see the axis factors, none larger than
        max(n_h, n_v)."""
        sizes = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            sizes.append(a.shape)
            return eigh(a, *args, **kwargs)

        cfg = preset("upa375")
        array = cfg.array.build()
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        scene = sim.build_scene(array, cfg.ring.build(), cfg.frame.m, cfg.rank_tol)
        assert sorted(sizes) == sorted([(array.n_h, array.n_h), (array.n_v, array.n_v)])
        assert max(max(s) for s in sizes) <= max(array.n_h, array.n_v) < array.n_t
        assert scene.u_sim.shape == (array.n_t, scene.r_sim)

    def test_ula_surrogate_projects_toeplitz_covariance(self):
        """A ULA's hybrid scheme designs on the DFT projection of the
        one-ring Toeplitz covariance itself, not of its rank-truncated
        rebuild U diag(lam) U^H."""
        n = 32
        ring = cm.OneRingGeometry(theta_h=0.3, v=3 / 3.6)
        scene = sim.build_scene(cm.ArrayGeometry(1, n), ring, block_len=5)
        _, _, delta_h = cm.one_ring_params(ring)
        r_h = cm.one_ring_covariance(n, ring.theta_h, delta_h, cm.path_loss(ring))
        f = cm._dft_matrix(n)
        q = np.real(np.einsum("ij,ik,kj->j", f.conj(), r_h, f))
        order = np.argsort(-q, kind="stable")[: scene.r_design]
        frame = small_frame(g_len=8, n_d_max=scene.r_design)
        design, _, cols = sim.design_sweep([scene], [frame], "min_max_dft")[0][0]
        assert np.array_equal(cols, f[:, order])
        expected = min_max_design(q[order], scene.a, frame.rho, frame)
        assert design == expected


class TestDeterminism:
    def test_seed_changes_results(self):
        scene = small_scene()
        frame = small_frame()
        t1 = sim.run_schemes(scene, frame, ["min_max"], 30, 1, 16)
        t2 = sim.run_schemes(scene, frame, ["min_max"], 30, 2, 16)
        assert not np.array_equal(t1.sinr_mc["min_max"], t2.sinr_mc["min_max"])

    def test_tiny_basis_schedule_rejected(self):
        with pytest.raises(ValueError, match="distinct columns"):
            sim._round_robin_cycle(1, 2)


class TestMonteCarloAgainstDeterministic:
    def test_rx_snr_tracks_deterministic_at_large_arrays(self):
        """Deterministic-equivalent received SNR within 5% of Monte Carlo,
        per block, for a 256-antenna array."""
        ring = cm.OneRingGeometry(d_s=100.0, d_r=17.6, h=60.0, theta_h=0.35,
                                  v=3 / 3.6)
        scene = sim.build_scene(cm.ArrayGeometry(1, 256), ring, block_len=5)
        frame = FrameParams(g_len=16, m_p=2, m=5, n_d_max=32, rho=10.0)
        table = sim.run_schemes(scene, frame, ["min_max"], 400, 5, 160)
        tail = 32
        mc = table.sinr_mc["min_max"][-tail:, 0]
        det = table.sinr_det["min_max"][-tail:, 0]
        assert float(np.max(np.abs(mc - det) / det)) < 0.05

    def test_perfect_csit_mean_power(self):
        scene = small_scene()
        frame = small_frame()
        table = sim.run_schemes(scene, frame, ["perfect_csit"], 600, 3, 8)
        expected = frame.rho * scene.trace()
        got = float(table.sinr_mc["perfect_csit"][-1, 0])
        assert got == pytest.approx(expected, rel=0.1)

    def test_zero_power_gives_zero_sinr_without_warnings(self):
        """At rho = 0 no scheme receives anything: every realized SINR is
        zero, and the 0/0 and x/0 of the noise term warn about nothing."""
        scene = small_scene()
        frame = small_frame(rho=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = sim.run_schemes(scene, frame, ["min_max", "mp_fixed", "perfect_csit"],
                                    4, 3, 8)
        for sinr in table.sinr_mc.values():
            assert not np.any(sinr)


def bulk_draw_monte_carlo(plans, scene, seed, mc_runs, horizon, frame):
    """Oracle of ``sim._monte_carlo`` at one operating point, stepping each
    plan on its own (its one-row ``TrackerStack``), that draws each run's whole horizon of
    channel innovations and pilot noise at once, in the arithmetic form
    (z_re + 1j z_im) / sqrt(2), into whole-horizon buffers, for the users
    of the multiuser ``scene``."""
    def complex_rows(gen, shape):
        z = gen.standard_normal(shape + (2,))
        return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)

    run_seqs = np.random.SeedSequence(seed).spawn(2)[1].spawn(mc_runs)
    users = [user.stats for user in scene.users]
    n_schemes, n_users, r_max = len(plans), len(users), scene.cross.shape[-1]
    a = np.array([stats.a for stats in users])[:, None, None]
    evolve = np.sqrt(1.0 - a * a)
    perfect = np.array([row[0].kind == "perfect" for row in plans])
    stacks = [[sim.TrackerStack.of([[p]]) for p in row] for row in plans]
    for row in stacks:
        for stack in row:
            stack.posteriors(horizon)
    means = np.zeros((2, n_schemes, horizon, n_users))
    for first in range(0, mc_runs, sim.CHUNK_RUNS):
        seqs = run_seqs[first:first + sim.CHUNK_RUNS]
        n_runs = len(seqs)
        c = np.zeros((n_users, n_runs, r_max), dtype=complex)
        proc = np.zeros((n_users, n_runs, horizon, r_max), dtype=complex)
        noise = np.empty((n_schemes, n_users, n_runs, horizon, frame.m_p), dtype=complex)
        for i, seq in enumerate(seqs):
            streams = seq.spawn(n_users * (1 + n_schemes))
            for u, stats in enumerate(users):
                r = len(stats.lam)
                z = complex_rows(np.random.default_rng(streams[u]),
                                 (horizon + 1, r)) * np.sqrt(stats.lam)
                c[u, i, :r], proc[u, i, :, :r] = z[0], z[1:]
            for pos, (s, u) in enumerate(np.ndindex(n_schemes, n_users), start=n_users):
                if plans[s][u].kind != "perfect":
                    noise[s, u, i] = complex_rows(np.random.default_rng(streams[pos]),
                                                  (horizon, frame.m_p))
        hats = np.zeros((n_schemes, n_users, n_runs, r_max), dtype=complex)
        steps = [(stacks[s][u], hats[s, u, :, :len(p.lam)], c[u, :, :len(p.lam)], noise[s, u])
                 for s, row in enumerate(plans) for u, p in enumerate(row) if not perfect[s]]
        sums = np.zeros_like(means)
        for ell in range(horizon):
            for stack, chat, chan, pilots in steps:
                stack.step(chat[None, None], chan[None], pilots[None, None, :, ell, :], ell)
            hats[perfect] = c
            sinr = sim._realized_sinr(c, hats, frame.rho, np.arange(n_schemes),
                                      sim._cross_pairs(scene.cross))
            sums[0, :, ell] += sinr.sum(axis=-1)
            sums[1, :, ell] += mu.spectral_efficiency(
                sinr, n_users, frame.m_p, frame.m).sum(axis=-1)
            c *= a
            c += evolve * proc[:, :, ell]
        means += sums
    return means / mc_runs


def monte_carlo_inputs(scenes, frame, schemes, a=None):
    """The rows of plans[s][u] for the users of ``scenes`` at one point, as
    ``sim._monte_carlo`` takes them, their recursions not yet run; with
    ``a`` every plan assumes that AR(1) coefficient instead of its user's."""
    rng = np.random.default_rng(0)
    plans = [[sim._scheme_plan(scene, frame, name, rng) for scene in scenes]
             for name in schemes]
    if a is not None:
        for row in plans:
            for plan in row:
                plan.a = a
    return sim.MonteCarloRows.of([plans], sim._multiuser_scene(scenes, frame))


def realized_sinr_batch(n_users, n_rows, shared=False):
    """Scenes, cross tensor, channels (U, runs, r), estimates (K, U, runs,
    r) and an estimate map for ``sim._realized_sinr``: users of unequal rank
    (8, 7, 7) zero-padded to the largest; rows 0 and 1 are noisy estimates,
    every later row knows the channel.  The map is ``np.arange(K)``, output
    row k reading estimate row k, or with ``shared`` (2K + 1,): output rows
    that read every estimate row out of order, most of them more than
    once."""
    scenes = [small_scene(theta_deg=t, d_r=8.0) for t in (-15.0, 35.0, 50.0)[:n_users]]
    stats = [cm.ChannelStatistics(a=s.a, r_h=s.covariance, u=s.u_sim, lam=s.lam_sim,
                                  rank=s.r_sim)
             for s in scenes]
    runs, r_max = 6, max(s.r_sim for s in scenes)
    cross = mu.MultiuserScene(users=[mu.UserLink(stats=st) for st in stats], m=10, m_p=1).cross
    rng = np.random.default_rng(11)
    c = np.zeros((n_users, runs, r_max), dtype=complex)
    hats = np.zeros((n_rows, n_users, runs, r_max), dtype=complex)
    for u, s in enumerate(scenes):
        c[u, :, :s.r_sim] = kalman.complex_normal(rng, (runs, s.r_sim)) * np.sqrt(s.lam_sim)
        for row, (keep, noise) in enumerate(((0.8, 0.3), (0.5, 0.7))):
            hats[row, u, :, :s.r_sim] = keep * c[u, :, :s.r_sim] + noise * kalman.complex_normal(
                rng, (runs, s.r_sim)) * np.sqrt(s.lam_sim)
    hats[2:] = c
    est = [n_rows - 1, 0, *range(n_rows), 1, *range(n_rows)] if shared else range(n_rows)
    return scenes, cross, c, hats, np.array(est)


def full_reductions_per_block(stack, states):
    """Oracle of the reductions of a full stack's last ``posteriors`` call:
    replays each user's error covariances from ``states``, the stack's state
    before the call, through the window's stored gains (P S, (P S)^H and P
    -= K (P S)^H in the recursion's layouts), and reduces every block's
    posterior on its own: tr P, lam . diag P - ||P||_F^2 and diag P, (K, U,
    blocks) and (K, U, blocks, r).  Also returns the replayed states."""
    n_rows, n_users, blocks, r_max, m_p = stack.gains.shape
    err, self_err = np.zeros((2, n_rows, n_users, blocks))
    diag = np.zeros((n_rows, n_users, blocks, r_max))
    out = []
    for u, lam in enumerate(stack.lams):
        r, a2 = len(lam), stack.a[u, 0, 0] * stack.a[u, 0, 0]
        p = states[u].copy()
        p_flat = p.view(float).reshape(n_rows, -1)
        d = p.reshape(n_rows, r * r)[:, :: r + 1]
        s = np.empty((n_rows, r, m_p), dtype=complex)
        ps_h, update = np.empty((n_rows, m_p, r), dtype=complex), np.empty_like(p)
        for ell, idx in enumerate(stack.window_sched[:, :, u]):
            np.conjugate(stack.cols[:r, idx].transpose(1, 0, 2), out=s)
            np.conjugate((p @ s).swapaxes(1, 2), out=ps_h)
            np.matmul(stack.gains[:, u, ell, :r], ps_h, out=update)
            p -= update
            err[:, u, ell] = d.sum(axis=-1).real
            self_err[:, u, ell] = np.sum(d * lam, axis=-1).real - np.vecdot(p_flat, p_flat)
            diag[:, u, ell, :r] = d.real
            p *= a2
            d += (1.0 - a2) * lam
        out.append(p)
    return (err, self_err, diag), out


class TestSlabStreaming:
    def test_slab_draws_equal_bulk_draw_oracle(self):
        # slab boundaries fall unevenly in the horizon, and two chunks run
        scenes = [small_scene(theta_deg=-15.0, d_r=8.0), small_scene(theta_deg=35.0, d_r=8.0)]
        assert scenes[0].r_sim != scenes[1].r_sim
        frame = small_frame(g_len=8, m_p=1, m=10, n_d_max=8)
        horizon, runs = 2 * sim.SLAB + 37, sim.CHUNK_RUNS + 5
        rows = monte_carlo_inputs(scenes, frame, ["min_max", "perfect_csit"])
        plans = rows.plans[0]
        assert plans[0][0].kind == "diag"
        got = sim._monte_carlo(rows, 9, runs, horizon, frame)[0][:, 0]
        want = bulk_draw_monte_carlo(plans, rows.scene, 9, runs, horizon, frame)
        assert got.tobytes() == want.tobytes()

    def test_pass_returns_the_one_window_posteriors(self):
        # the slab-major pass fills its NMSE and deterministic SINR from one
        # window per slab, with the bits of one whole-horizon window
        scenes = [small_scene(theta_deg=-15.0, d_r=8.0), small_scene(theta_deg=35.0, d_r=8.0)]
        frame = small_frame(g_len=8, m_p=1, m=10, n_d_max=8)
        horizon = 2 * sim.SLAB + 37
        schemes = ["min_max", "orthogonal", "perfect_csit"]
        _, *got = sim._monte_carlo(monte_carlo_inputs(scenes, frame, schemes), 9, 3,
                                   horizon, frame)
        want = monte_carlo_inputs(scenes, frame, schemes).posteriors(horizon)
        assert len(got) == len(want) == 2
        for got_t, want_t in zip(got, want):
            assert got_t.tobytes() == want_t.tobytes()

    def test_chunk_memory_independent_of_horizon(self):
        # every scheme gets innovation and pilot-noise buffers; the genie
        # scheme alone keeps the per-block kernel cheap under tracemalloc
        cfg = preset("demo")
        scenes, _ = sim.multiuser_scenes_from_config(cfg)
        frame = cfg.frame.build()
        peaks = []
        for horizon in (2 * sim.SLAB, 16 * sim.SLAB):
            rows = monte_carlo_inputs(scenes, frame, ["perfect_csit"])
            tracemalloc.start()
            try:
                sim._monte_carlo(rows, 1, 32, horizon, frame)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_run_memory_grows_only_with_its_outputs(self):
        # a run holds over the horizon only the traces it returns and its
        # Monte Carlo sums: from 2 to 16 slabs its traced peak grows by less
        # than twice the per-block arrays it returns, for a diag and a
        # full-kind scheme of one user, and for multiuser_ula32's five users
        # at three SNR points.  Holding every block's gains and diag P grows
        # the first by 2.5 MB here; holding every block's tr P, self-error
        # and (U, U) leakage grows the second by six times what it returns.
        for name, schemes, n_points in (("demo", ["min_max", "orthogonal"], 1),
                                        ("multiuser_ula32", ["min_max", "perfect_csit"], 3)):
            cfg = preset(name)
            scenes, _ = sim.multiuser_scenes_from_config(cfg)
            frames = [dataclasses.replace(cfg.frame.build(), rho=rho)
                      for rho in (1.0, 10.0, 100.0)[:n_points]]
            sim.run_multiuser_sweep(scenes, frames, schemes, 2, 1, 8)  # fills the scene's caches
            peaks, returned = [], []
            for horizon in (2 * sim.SLAB, 16 * sim.SLAB):
                tracemalloc.start()
                try:
                    tables = sim.run_multiuser_sweep(scenes, frames, schemes, 2, 1, horizon)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                returned.append(sum(trace.nbytes for table in tables
                                    for key in ("nmse", "sinr_mc", "se_mc_runs", "sinr_det")
                                    for trace in getattr(table, key).values()))
            assert peaks[1] - peaks[0] < 2 * (returned[1] - returned[0]), (name, peaks, returned)

    @pytest.mark.parametrize("case", ["one user, every kind", "three users, two chunks"])
    def test_group_size_keeps_the_bits(self, case, monkeypatch):
        # groups of one block, of seven and of the default budget give the
        # bits of each other, over a slab boundary: the Monte Carlo means,
        # NMSE and deterministic SINR
        if case == "one user, every kind":
            scenes, runs = [small_scene()], 3
            schemes = ["min_max", "orthogonal", "perfect_csit"]
            frame = small_frame()
        else:
            scenes = [small_scene(theta_deg=t, d_r=8.0) for t in (-15.0, 35.0, 50.0)]
            assert len({s.r_sim for s in scenes}) > 1
            schemes, runs = ["min_max", "mp_fixed", "perfect_csit"], sim.CHUNK_RUNS + 3
            frame = small_frame(g_len=8, m_p=1, m=10, n_d_max=8)
        horizon = sim.SLAB + 13
        # a block's (K, U, runs) float64 SINR, one output row per scheme
        slot = 8 * len(schemes) * len(scenes) * min(runs, sim.CHUNK_RUNS)
        sizes, group_blocks = {}, sim._group_blocks

        def spy(block_bytes, blocks):
            sizes[block_bytes] = group_blocks(block_bytes, blocks)
            return sizes[block_bytes]

        monkeypatch.setattr(sim, "_group_blocks", spy)
        outs = []
        for budget, group in ((sim.GROUP_BYTES, min(sim.SLAB, sim.GROUP_BYTES // slot)),
                              (7 * slot, 7), (1, 1)):
            monkeypatch.setattr(sim, "GROUP_BYTES", budget)
            sizes.clear()
            outs.append(sim._monte_carlo(monte_carlo_inputs(scenes, frame, schemes), 9, runs,
                                         horizon, frame))
            assert sizes[slot] == group
        assert len(outs[0]) == 3
        for got in outs[1:]:
            for got_t, want_t in zip(got, outs[0]):
                assert got_t.tobytes() == want_t.tobytes()

    def test_channel_evolves_with_the_scene_statistics(self):
        # perfect knowledge reads no tracker a, so rows whose plans all
        # assume another a draw and evolve the same channel, byte for byte
        scenes = [small_scene(theta_deg=-15.0, d_r=8.0, v_kmh=30.0),
                  small_scene(theta_deg=35.0, d_r=8.0, v_kmh=30.0)]
        assert all(s.a != 0.5 for s in scenes)
        frame = small_frame(g_len=8, m_p=1, m=10, n_d_max=8)
        horizon = 24
        rows, moved = (monte_carlo_inputs(scenes, frame, ["perfect_csit"], a)
                       for a in (None, 0.5))
        assert all(plan.a == 0.5 for plan in moved.plans[0][0])
        got, want = (sim._monte_carlo(r, 3, 5, horizon, frame)[0] for r in (moved, rows))
        assert got.tobytes() == want.tobytes()


class TestSweep:
    """A sweep is one Monte Carlo pass over every (point, scheme) row."""

    @pytest.mark.parametrize("case", ["three users", "one user, full kinds"])
    def test_sweep_equals_one_point_runs(self, case):
        # byte for byte, over two chunks of runs and a slab boundary
        if case == "three users":
            scenes = [small_scene(theta_deg=t, d_r=8.0) for t in (-15.0, 35.0, 50.0)]
            assert len({s.r_sim for s in scenes}) > 1
            schemes = ["min_max", "mp_fixed", "perfect_csit"]
            frame = small_frame(g_len=8, m_p=1, m=10, n_d_max=8)
        else:
            scenes = [small_scene()]
            schemes = ["min_max_dft", "orthogonal", "random", "mp_fixed", "perfect_csit"]
            frame = small_frame()
        frames = [dataclasses.replace(frame, rho=rho) for rho in (0.5, 4.0, 30.0)]
        runs, horizon = sim.CHUNK_RUNS + 3, sim.SLAB + 13
        sweep = sim.run_multiuser_sweep(scenes, frames, schemes, runs, 5, horizon)
        for frame, got in zip(frames, sweep):
            want = sim.run_multiuser_scene(scenes, frame, schemes, runs, 5, horizon)
            for key in ("sinr_mc", "se_mc_runs", "sinr_det", "nmse"):
                for name in schemes:
                    got_bytes, want_bytes = (getattr(t, key)[name].tobytes() for t in (got, want))
                    assert got_bytes == want_bytes, (key, name)
            for key in ("sinr_lb", "sinr_det_ss"):
                for name in schemes:
                    assert np.array_equal(getattr(got, key)[name], getattr(want, key)[name],
                                          equal_nan=True)

    def test_perfect_schemes_hold_one_estimate_row_each(self, monkeypatch):
        # a 3-point sweep allocates P S_noisy + S_perfect estimate rows, every
        # point's perfect row of a scheme reading the same one; the output
        # rows stay in (point, scheme) order, and the map takes each to its
        # estimate row, diag rows first, at one point too: every block's
        # estimate-row terms hold the E estimate rows, and each group's tail
        # maps the K output rows onto them
        blocks, tails = [], []
        sinr_terms, sinr_tail = sim._sinr_terms, sim._sinr_tail

        def spy_terms(c, hats, pairs, nrm2, terms):
            blocks.append(len(hats))
            return sinr_terms(c, hats, pairs, nrm2, terms)

        def spy_tail(nrm2, terms, rho, est, n_users):
            tails.append((nrm2.shape[-3], len(nrm2), est))
            return sinr_tail(nrm2, terms, rho, est, n_users)

        monkeypatch.setattr(sim, "_sinr_terms", spy_terms)
        monkeypatch.setattr(sim, "_sinr_tail", spy_tail)
        scenes = [small_scene()]
        schemes = ["min_max", "perfect_csit", "mp_fixed"]
        frames = [dataclasses.replace(small_frame(), rho=rho) for rho in (0.5, 4.0, 30.0)]
        sim.run_multiuser_sweep(scenes, frames, schemes, 2, 5, 8)
        assert blocks == [3 * 2 + 1] * 8
        assert sum(n_blocks for _, n_blocks, _ in tails) == 8
        for n_est, _, est in tails:
            assert n_est == 3 * 2 + 1
            assert est.tolist() == [0, 6, 1, 2, 6, 3, 4, 6, 5]
        blocks.clear()
        tails.clear()
        sim.run_multiuser_scene(scenes, frames[0], schemes, 2, 5, 8)
        assert blocks == [3] * 8
        assert tails and all(n_est == 3 and est.tolist() == [0, 2, 1] for n_est, _, est in tails)

    def test_sweep_builds_the_scene_once(self, monkeypatch):
        # the cross tensor and the coupling maps do not depend on rho
        built = []
        cross = mu.MultiuserScene.cross

        def counted(scene):
            built.append(scene)
            return cross.func(scene)

        prop = functools.cached_property(counted)
        prop.__set_name__(mu.MultiuserScene, "cross")
        monkeypatch.setattr(mu.MultiuserScene, "cross", prop)
        cfg = ExperimentConfig.from_dict({**preset("multiuser_ula32").to_dict(),
                                          "mc_runs": 2, "horizon_blocks": 64})
        assert len(cfg.snr_sweep_db) == 7
        _, rows = sim.run_multiuser(cfg)
        assert len({row["snr_db"] for row in rows}) == 7
        assert len(built) == 1
        assert sorted(built[0]._coupling) == list(range(cfg.users.count))

    @staticmethod
    def multiuser_sweep_inputs(n_points):
        """multiuser_ula32's five scenes and the frames of its first
        ``n_points`` SNR points, as ``run_multiuser`` builds them."""
        cfg = preset("multiuser_ula32")
        scenes, _ = sim.multiuser_scenes_from_config(cfg)
        frame = cfg.frame.build()
        return scenes, [dataclasses.replace(frame, rho=10.0 ** (snr / 10.0) / scenes[0].gamma)
                        for snr in cfg.snr_sweep_db[:n_points]]

    def test_closed_form_calls_do_not_grow_with_points(self, monkeypatch):
        # the designs and the steady-state envelopes of every (point, user)
        # cell take one min_ss_mse call per divisor and per scoring, however
        # many points the sweep has
        calls, min_ss_mse = [], ss.min_ss_mse

        def counted(*args):
            calls.append(1)
            return min_ss_mse(*args)

        for module in (sd, ss):
            monkeypatch.setattr(module, "min_ss_mse", counted)
        counts = []
        for n_points in (2, 7):
            scenes, frames = self.multiuser_sweep_inputs(n_points)
            calls.clear()
            sim.run_multiuser_sweep(scenes, frames, ["min_max", "perfect_csit"], 1, 3, 8)
            counts.append(len(calls))
        # G = 32: six divisors, then one scoring call and one envelope call
        assert counts == [6 + 1 + 1] * 2

    def test_index_matrix_built_once_per_distinct_design(self, monkeypatch):
        built = []
        construct = sim.construct_sequence_matrix

        def counted(asn, frame):
            built.append(asn.g)
            return construct(asn, frame)

        monkeypatch.setattr(sim, "construct_sequence_matrix", counted)
        scenes, frames = self.multiuser_sweep_inputs(7)
        tables = sim.run_multiuser_sweep(scenes, frames, ["min_max", "perfect_csit"], 1, 3, 8)
        plans = [by_user["min_max"] for t in tables for by_user in t.user_plans]
        assert len(plans) == 35
        distinct = {plan.design.g for plan in plans}
        assert sorted(built) == sorted(distinct)
        assert len(distinct) < len(plans)
        for plan in plans:
            assert plan.seq.g == plan.design.g

    @pytest.mark.parametrize("name", ["min_max", "exhaustive", "min_max_dft"])
    def test_sweep_designs_equal_one_cell_designs(self, name):
        scenes = [small_scene(theta_deg=t, d_r=8.0) for t in (-15.0, 35.0, 50.0)]
        frames = [small_frame(g_len=8, m_p=1, m=10, n_d_max=8, rho=rho)
                  for rho in (0.0, 0.5, 4.0, 30.0)]
        designs = sim.design_sweep(scenes, frames, name)
        assert len(designs) == len(frames)
        for frame, point in zip(frames, designs):
            for scene, (asn, seq, cols) in zip(scenes, point):
                want_asn, want_seq, want_cols = sim.design_sweep([scene], [frame], name)[0][0]
                assert asn == want_asn
                assert asn.objective.hex() == want_asn.objective.hex()
                assert seq.c.tobytes() == want_seq.c.tobytes()
                assert (cols is None) == (want_cols is None)
                if cols is not None:
                    assert cols.tobytes() == want_cols.tobytes()

    def test_sweep_points_differ_only_in_rho(self):
        frame = small_frame()
        with pytest.raises(ValueError, match="only in rho"):
            sim.run_multiuser_sweep([small_scene()], [frame, small_frame(g_len=8)],
                                    ["min_max"], 1, 0, 8)

    @pytest.mark.parametrize("scheme, kind", [("min_max", "diag"), ("orthogonal", "full")])
    def test_posteriors_pad_unequal_ranks(self, scheme, kind):
        # a stack of users of unequal rank returns arrays zero-padded to the
        # largest; every user's slice, and its gains, equal its one-user
        # stack's bit for bit
        scenes = [small_scene(theta_deg=-15.0, d_r=8.0), small_scene(theta_deg=35.0, d_r=8.0)]
        r = [s.r_sim for s in scenes]
        assert r[0] != r[1]
        frame, horizon = small_frame(), 6
        rows = [[sim._scheme_plan(s, dataclasses.replace(frame, rho=rho), scheme,
                                  np.random.default_rng(0)) for s in scenes] for rho in (1.0, 8.0)]
        assert rows[0][0].kind == kind
        stack = sim.TrackerStack.of(rows)
        err, self_err, diag = stack.posteriors(horizon)
        assert err.shape == self_err.shape == (2, 2, horizon)
        assert diag.shape == (2, 2, horizon, max(r))
        for k, row in enumerate(rows):
            for u, plan in enumerate(row):
                one_row = sim.TrackerStack.of([[plan]])
                alone = one_row.posteriors(horizon)
                for got, want in zip((err[k, u], self_err[k, u], diag[k, u, :, :r[u]]), alone):
                    assert got.tobytes() == want[0, 0].tobytes()
                assert not np.any(diag[k, u, :, r[u]:])
                if kind == "diag":
                    assert stack.gains[:, k, u].tobytes() == one_row.gains[:, 0, 0].tobytes()
                else:
                    assert (stack.gains[k, u, :, :r[u]].tobytes()
                            == one_row.gains[0, 0].tobytes())
                    assert not np.any(stack.gains[k, u, :, r[u]:])

    @pytest.mark.parametrize("scheme, kind", [("min_max", "diag"), ("orthogonal", "full")])
    def test_windows_equal_one_whole_horizon_call(self, scheme, kind):
        # the recursion resumed over uneven windows gives the bits of one
        # whole-horizon call, each window holding its own blocks' gains only,
        # and step reads no block outside the window
        scenes = [small_scene(theta_deg=-15.0, d_r=8.0), small_scene(theta_deg=35.0, d_r=8.0)]
        r = [s.r_sim for s in scenes]
        assert r[0] != r[1]
        frame, horizon = small_frame(), 2 * sim.SLAB + 5
        rows = [[sim._scheme_plan(s, dataclasses.replace(frame, rho=rho), scheme,
                                  np.random.default_rng(0)) for s in scenes] for rho in (1.0, 8.0)]
        assert rows[0][0].kind == kind
        whole = sim.TrackerStack.of(rows)
        want = whole.posteriors(horizon)
        stack = sim.TrackerStack.of(rows)
        hats = np.zeros((2, 2, 1, max(r)), dtype=complex)
        c = np.ones((2, 1, max(r)), dtype=complex)
        noise = np.zeros((2, 2, 1, frame.m_p), dtype=complex)
        with pytest.raises(IndexError, match="outside the gains window"):
            stack.step(hats, c, noise, 0)  # no window yet
        got, start = [], 0
        for blocks in (37, sim.SLAB, horizon - 37 - sim.SLAB):
            got.append(stack.posteriors(blocks))
            assert stack.window == range(start, start + blocks)
            window = slice(start, start + blocks)
            gains = whole.gains[window] if kind == "diag" else whole.gains[:, :, window]
            assert stack.gains.shape == gains.shape
            assert stack.gains.tobytes() == gains.tobytes()
            assert stack.window_sched.tobytes() == whole.window_sched[window].tobytes()
            for ell in (start - 1, start + blocks):
                with pytest.raises(IndexError, match="outside the gains window"):
                    stack.step(hats, c, noise, ell)
            stack.step(hats, c, noise, start + blocks - 1)
            start += blocks
        for got_t, want_t in zip(zip(*got), want):  # err, self-err and diag P
            assert np.concatenate(got_t, axis=2).tobytes() == want_t.tobytes()

    @pytest.mark.parametrize("group", [1, 7, None])
    def test_full_group_reductions_equal_per_block_reductions(self, group, monkeypatch):
        # each window's tr P, self-error and diag P, reduced a group of
        # blocks at a time, equal a per-block reduction of the same P
        # trajectory bit for bit, for users of unequal rank over two windows
        scenes = [small_scene(theta_deg=-15.0, d_r=8.0), small_scene(theta_deg=35.0, d_r=8.0)]
        r = [s.r_sim for s in scenes]
        assert r[0] != r[1]
        frame = small_frame()
        rows = [[sim._scheme_plan(s, dataclasses.replace(frame, rho=rho), scheme,
                                  np.random.default_rng(0)) for s in scenes]
                for rho, scheme in ((1.0, "orthogonal"), (8.0, "random"))]
        if group is not None:  # user 0's group holds that many blocks
            monkeypatch.setattr(sim, "GROUP_BYTES", group * 16 * len(rows) * r[0])
        stack = sim.TrackerStack.of(rows)
        stack.posteriors(3)
        for blocks in (37, 2 * sim.SLAB // 3):
            states = [p.copy() for p in stack.state]
            got = stack.posteriors(blocks)
            want, replayed = full_reductions_per_block(stack, states)
            for got_t, want_t in zip(got, want):
                assert got_t.tobytes() == want_t.tobytes()
            for p, q in zip(stack.state, replayed):
                assert p.tobytes() == q.tobytes()

    def test_full_stack_pads_unequal_ranks(self):
        # full rows of users of unequal rank, zero-padded to the largest,
        # step as each tracker does alone
        scenes = [small_scene(theta_deg=-15.0, d_r=8.0), small_scene(theta_deg=35.0, d_r=8.0)]
        r = [s.r_sim for s in scenes]
        assert r[0] != r[1]
        frame, horizon, runs = small_frame(), 6, 3
        rows = [[sim.build_single_user_plans(s, dataclasses.replace(frame, rho=rho), horizon,
                                             ["orthogonal"], np.random.default_rng(0))[0][0]
                 for s in scenes] for rho in (1.0, 8.0)]
        stack = sim.TrackerStack.of(rows)
        stack.posteriors(horizon)
        one_rows = [[sim.TrackerStack.of([[plan]]) for plan in row] for row in rows]
        for row in one_rows:
            for one_row in row:
                one_row.posteriors(horizon)
        rng = np.random.default_rng(3)
        c = np.zeros((2, runs, max(r)), dtype=complex)
        hats = np.zeros((2, 2, runs, max(r)), dtype=complex)
        alone = [[np.zeros((runs, r_u), dtype=complex) for r_u in r] for _ in rows]
        for ell in range(horizon):
            for u, r_u in enumerate(r):
                c[u, :, :r_u] = kalman.complex_normal(rng, (runs, r_u))
            noise = kalman.complex_normal(rng, (2, 2, runs, frame.m_p))
            stack.step(hats, c, noise, ell)
            for k, row in enumerate(rows):
                for u, plan in enumerate(row):
                    one_rows[k][u].step(alone[k][u][None, None], c[None, u, :, :r[u]],
                                        noise[None, None, k, u], ell)
                    np.testing.assert_allclose(hats[k, u, :, :r[u]], alone[k][u], rtol=1e-12,
                                               atol=1e-14)
                    assert not np.any(hats[k, u, :, r[u]:])


class TestMultiuserEngine:
    def test_single_user_scene_degenerates(self):
        # run_schemes is the one-user run, array for array
        scene = small_scene()
        frame = small_frame(g_len=8, m_p=1, m=10, n_d_max=8)
        schemes = ["min_max", "mp_fixed", "orthogonal", "perfect_csit"]
        single = sim.run_schemes(scene, frame, schemes, 3, 7, 32)
        multi = sim.run_multiuser_scene([scene], frame, schemes, 3, 7, 32)
        assert single.schemes == multi.schemes == schemes
        for key in ("nmse", "sinr_mc", "se_mc_runs", "sinr_det", "sinr_lb", "sinr_det_ss"):
            for name in schemes:
                assert np.array_equal(getattr(single, key)[name], getattr(multi, key)[name],
                                      equal_nan=True)
        assert np.isfinite(single.sinr_lb["min_max"][0])
        # with two users every plan with a periodic design reports its bound,
        # the fixed-eigenvector baseline included
        pair = sim.run_multiuser_scene([small_scene(theta_deg=-20.0, d_r=8.0),
                                        small_scene(theta_deg=25.0, d_r=8.0)],
                                       frame, ["mp_fixed"], 1, 7, 32)
        lb, det_ss = pair.sinr_lb["mp_fixed"], pair.sinr_det_ss["mp_fixed"]
        assert np.all(np.isfinite(lb))
        assert np.all(lb <= det_ss + 1e-9)

    @pytest.mark.parametrize("n_users", [1, 2, 3])
    def test_realized_sinr_matches_instantaneous_oracle(self, n_users):
        # the kernel's stacked eigencoordinate SINR against the
        # per-realization antenna-domain oracle, on random channel /
        # estimate pairs lifted to antenna space as U c and U c_hat: users
        # of unequal rank (8, 7, 7) zero-padded to the largest, two noisy
        # schemes, a perfect-knowledge row and a row where the last user's
        # estimate is zero, each row at its own rho, in one call
        scenes, cross, c, hats, est = realized_sinr_batch(n_users, 4)
        hats[3, -1] = 0.0
        rho = np.array([4.0, 0.5, 30.0, 2.0])[:, None, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sim._realized_sinr(c, hats, rho, est, sim._cross_pairs(cross))
        runs = c.shape[1]
        assert got.shape == (4, n_users, runs)
        assert not np.any(got[3, -1])
        for row in range(4):
            for i in range(runs):
                h = [s.u_sim @ c[u, i, :s.r_sim] for u, s in enumerate(scenes)]
                h_hat = [s.u_sim @ hats[row, u, i, :s.r_sim] for u, s in enumerate(scenes)]
                users, scale = range(n_users), 1.0
                if row == 3:
                    # a user estimating nothing causes no interference: the
                    # others' oracle without it, at the same noise term
                    users, scale = range(n_users - 1), (n_users - 1) / n_users
                for u in users:
                    want = mu.instantaneous_sinr([h[v] for v in users], [h_hat[v] for v in users],
                                                 rho[row, 0, 0] * scale, u)
                    assert got[row, u, i] == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("n_users", [1, 2, 3])
    def test_realized_sinr_rows_do_not_depend_on_their_stack(self, n_users):
        # each row of a K-row call equals that row computed alone, byte for
        # byte, so a sweep's rows equal its one-point runs; row 1 estimates
        # nothing for the last user, an interferer of the others
        _, cross, c, hats, est = realized_sinr_batch(n_users, 5)
        hats[1, -1] = 0.0
        rho = np.array([0.5, 4.0, 30.0, 2.0, 8.0])[:, None, None]
        pairs = sim._cross_pairs(cross)
        got = sim._realized_sinr(c, hats, rho, est, pairs)
        for k in range(len(hats)):
            alone = sim._realized_sinr(c, hats[k:k + 1].copy(), rho[k:k + 1], est[:1], pairs)
            assert alone.tobytes() == got[k:k + 1].tobytes(), k

    @pytest.mark.parametrize("n_users", [1, 2, 3])
    def test_realized_sinr_shared_rows_equal_expanded_rows(self, n_users):
        # output rows that read shared estimate rows through the map, each
        # at its own rho (0 among them), equal the call on the estimate rows
        # duplicated to one per output row, byte for byte; a user
        # estimating nothing included
        _, cross, c, hats, est = realized_sinr_batch(n_users, 4, shared=True)
        hats[2, -1] = 0.0
        rho = np.linspace(0.0, 12.0, len(est))[:, None, None]
        pairs = sim._cross_pairs(cross)
        got = sim._realized_sinr(c, hats, rho, est, pairs)
        want = sim._realized_sinr(c, hats[est], rho, np.arange(len(est)), pairs)
        assert got.shape == (len(est), n_users, c.shape[1])
        assert got.tobytes() == want.tobytes()

    def test_realized_sinr_ignores_the_cross_diagonal(self):
        # v = u is no interferer whatever cross[u, u] holds
        _, cross, c, hats, est = realized_sinr_batch(3, 3)
        filled = cross.copy()
        for u in range(3):
            filled[u, u] = np.eye(cross.shape[-1]) + 0.5j
        got, want = (sim._realized_sinr(c, hats, 4.0, est, sim._cross_pairs(x))
                     for x in (filled, cross))
        assert got.tobytes() == want.tobytes()

    def test_interference_lowers_sinr(self):
        s0 = small_scene(theta_deg=10.0, d_r=8.0)
        s1 = small_scene(theta_deg=12.0, d_r=8.0)  # strongly overlapping
        frame = small_frame(g_len=8, m_p=1, m=10, n_d_max=8)
        solo = sim.run_multiuser_scene([s0], frame, ["min_max"], 1, 7, 32)
        pair = sim.run_multiuser_scene([s0, s1], frame, ["min_max"], 1, 7, 32)
        assert pair.sinr_det["min_max"][-1, 0] < solo.sinr_det["min_max"][-1, 0]

    def test_bound_below_steady_state_deterministic(self):
        s0 = small_scene(theta_deg=-20.0, d_r=8.0)
        s1 = small_scene(theta_deg=25.0, d_r=8.0)
        frame = small_frame(g_len=8, m_p=1, m=10, n_d_max=8)
        table = sim.run_multiuser_scene([s0, s1], frame, ["min_max"], 1, 7, 64)
        for u in range(2):
            lb = table.sinr_lb["min_max"][u]
            assert lb <= table.sinr_det_ss["min_max"][u] + 1e-9

    def test_bound_below_converged_dynamics(self):
        # fast fading so the transient actually dies inside the horizon
        s0 = small_scene(theta_deg=-20.0, d_r=8.0, v_kmh=30.0)
        s1 = small_scene(theta_deg=25.0, d_r=8.0, v_kmh=30.0)
        frame = small_frame(g_len=8, m_p=1, m=10, n_d_max=8)
        table = sim.run_multiuser_scene([s0, s1], frame, ["min_max"], 1, 7, 2048)
        tail = table.sinr_det["min_max"][-8:]
        for u in range(2):
            lb = table.sinr_lb["min_max"][u]
            assert lb <= tail[:, u].min() + 1e-9

    def test_rf_budget_ordering_toward_perfect_csit(self):
        # widening the RF-chain budget can only help the sum rate, and the
        # designed schemes stay below the genie reference
        cfg = preset("multiuser_ula32")
        cfg.users.count = 5
        cfg.mc_runs = 1  # deterministic columns carry the comparison
        cfg.horizon_blocks = 64
        cfg.snr_sweep_db = [10.0]
        sums = {}
        for n_d in (2, 4, 8):
            cfg.frame.n_d = n_d
            _, rows = sim.run_multiuser(cfg)
            sums[n_d] = sum(r["se_det"] for r in rows if r["scheme"] == "min_max")
            perfect = sum(r["se_det"] for r in rows if r["scheme"] == "perfect_csit")
        assert sums[2] < sums[4]
        # past the effective channel rank the budget saturates; the design
        # optimizes the MSE envelope, so the SINR plateaus rather than grows
        assert sums[8] > sums[4] - 0.01
        assert max(sums.values()) < perfect

    def test_run_multiuser_sweep_rows(self):
        cfg = preset("multiuser_ula32")
        cfg.users.count = 2
        cfg.users.theta_deg = [-20.0, 25.0]
        cfg.mc_runs = 20
        cfg.horizon_blocks = 64
        cfg.snr_sweep_db = [0.0, 10.0]
        table, rows = sim.run_multiuser(cfg)
        assert len(rows) == 2 * 2 * 2  # snr x scheme x user
        for row in rows:
            if np.isfinite(row["se_lb"]) and row["scheme"] == "min_max":
                assert row["se_lb"] <= row["se_det"] + 1e-9

    @pytest.mark.parametrize("n_users", [1, 2])
    def test_run_without_sweep_uses_configured_rho(self, n_users):
        cfg = preset("multiuser_ula32")
        cfg.users.count = n_users
        cfg.users.theta_deg = [-20.0, 25.0][:n_users]
        cfg.mc_runs = 2
        cfg.horizon_blocks = 64
        cfg.snr_sweep_db = None
        table, rows = sim.run_multiuser(cfg)
        assert table.frame.rho == cfg.frame.rho
        assert len(rows) == 2 * n_users  # scheme x user at one operating point

    def test_run_keeps_only_the_last_points_traces(self, monkeypatch):
        # the returned traces own their memory, so the other points' traces
        # can be freed, and keep the bytes of the sweep's last table
        cfg = preset("multiuser_ula32")
        cfg.users.count = 2
        cfg.users.theta_deg = [-20.0, 25.0]
        cfg.mc_runs = 2
        cfg.horizon_blocks = 64
        cfg.snr_sweep_db = [0.0, 10.0, 20.0]
        sweeps, run_sweep = [], sim.run_multiuser_sweep
        monkeypatch.setattr(sim, "run_multiuser_sweep",
                            lambda *args: sweeps.append(run_sweep(*args)) or sweeps[-1])
        table, _ = sim.run_multiuser(cfg)
        last = sweeps[0][-1]
        for key in ("nmse", "sinr_mc", "se_mc_runs", "sinr_det"):
            for name in table.schemes:
                got, want = getattr(table, key)[name], getattr(last, key)[name]
                assert got.flags.owndata, (key, name)
                assert got.tobytes() == want.tobytes(), (key, name)


class TestSchemeList:
    """A config lists the schemes it compares, designed or not, side by side."""

    SCHEMES = ["min_max", "exhaustive", "min_max_dft", "nd_fixed", "orthogonal", "random",
               "mp_fixed", "perfect_csit"]

    def test_each_scheme_row_equals_its_own_run(self):
        # a row's Monte Carlo streams follow its list position, so every
        # trace equals that of the list cut after it; the deterministic
        # traces equal the scheme's one-scheme run
        doc = {**preset("demo").to_dict(), "schemes": self.SCHEMES}
        cfg = ExperimentConfig.from_dict(doc)
        table, _ = sim.run_multiuser(cfg)
        assert table.schemes == self.SCHEMES
        scenes, _ = sim.multiuser_scenes_from_config(cfg)
        for i, name in enumerate(self.SCHEMES):
            cut, _ = sim.run_multiuser(ExperimentConfig.from_dict(
                {**doc, "schemes": self.SCHEMES[:i + 1]}))
            alone = sim.run_multiuser_sweep(scenes, [cfg.frame.build()], [name], cfg.mc_runs,
                                            cfg.seed, cfg.horizon_blocks)[0]
            for other, keys in ((cut, ("nmse", "sinr_mc", "se_mc_runs", "sinr_det")),
                                (alone, ("nmse", "sinr_det"))):
                for key in keys:
                    got, want = (getattr(t, key)[name].tobytes() for t in (table, other))
                    assert got == want, (key, name)

    def test_preset_lists_are_its_own(self):
        # a preset's lists are copies: changing one leaves the next preset as written
        cfg = preset("multiuser_ula32")
        want = (list(cfg.schemes), list(cfg.snr_sweep_db))
        cfg.schemes.append("mp_fixed")
        cfg.snr_sweep_db.append(25.0)
        again = preset("multiuser_ula32")
        assert (again.schemes, again.snr_sweep_db) == want

    def test_preset_schemes_keep_their_order(self):
        # a scheme's list position picks its Monte Carlo streams, so each
        # preset's order is part of its outputs
        six = ["min_max", "orthogonal", "random", "mp_fixed", "nd_fixed", "perfect_csit"]
        assert {name: preset(name).schemes for name in PRESETS} == {
            "upa375": six, "ci_ula32": six, "multiuser_ula32": ["min_max", "perfect_csit"],
            "demo": ["min_max", "mp_fixed", "perfect_csit"]}


class TestOutputs:
    def test_emit_round_trip_and_shape(self, tmp_path):
        cfg = preset("demo")
        cfg.mc_runs = 20
        cfg.horizon_blocks = 16
        cfg.output_dir = str(tmp_path / "run1")
        table = sim.run_multiuser(cfg)[0]
        written = emit_outputs(table, cfg)
        names = {p.name for p in written}
        assert {"trace.csv", "design.csv", "config.resolved.json",
                "plot_traces.py"} <= names
        text = (tmp_path / "run1" / "trace.csv").read_text().splitlines()
        assert text[0] == "block,scheme,nmse,rx_snr_db,se_sum,se_det,se_lb"
        assert len(text) - 1 == cfg.horizon_blocks * len(table.schemes)
        loaded = ExperimentConfig.from_dict(
            json.loads((tmp_path / "run1" / "config.resolved.json").read_text()))
        assert loaded == cfg

    def test_identical_seed_byte_identical_outputs(self, tmp_path):
        cfg = preset("demo")
        cfg.mc_runs = 24
        cfg.horizon_blocks = 12
        blobs = []
        for sub in ("a", "b"):
            cfg.output_dir = str(tmp_path / sub)
            table = sim.run_multiuser(cfg)[0]
            emit_outputs(table, cfg)
            blob = (tmp_path / sub / "trace.csv").read_bytes()
            blobs.append(blob)
        assert blobs[0] == blobs[1]

    def test_config_json_round_trip(self):
        cfg = preset("upa375")
        again = ExperimentConfig.from_dict(json.loads(cfg.to_json()))
        assert again == cfg
