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
from pilotseq import simulate as sim
from pilotseq import steady_state as ss
from pilotseq.cli import emit_outputs
from pilotseq.config import ExperimentConfig, preset
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
        plans = sim.build_single_user_plans(scene, frame, 8, ["nd_fixed"],
                                            np.random.default_rng(0))
        sched = plans[0].sched[:4]  # one frame
        assert sorted(sched.ravel().tolist()) == list(range(8))


class TestEngineAgainstKalmanModule:
    def test_diag_trace_matches_reference_recursion(self):
        scene = small_scene()
        frame = small_frame()
        horizon = 40
        plans = sim.build_single_user_plans(scene, frame, horizon, ["min_max"],
                                            np.random.default_rng(0))
        plan = plans[0]
        stats = cm.ChannelStatistics(
            a=scene.a, r_h=(scene.u_sim * scene.lam_sim) @ scene.u_sim.conj().T,
            u=scene.u_sim, lam=scene.lam_sim, rank=scene.r_sim)
        state = kalman.init(stats)
        total = stats.trace()
        for ell in range(horizon):
            # a designed plan sounds row ell mod G of its index matrix
            assert np.array_equal(plan.sched[ell], plan.seq.c[ell % frame.g_len] - 1)
            s = np.sqrt(frame.rho) * stats.u[:, plan.sched[ell]]
            state = kalman.measurement_update(state, s, np.zeros(frame.m_p, complex))
            assert np.real(np.trace(state.p_est)) / total == pytest.approx(
                plan.nmse[ell], rel=1e-12)
            state = kalman.time_update(state, stats)

    def test_full_trace_matches_reference_recursion(self):
        scene = small_scene(n=12)
        frame = small_frame()
        horizon = 24
        plans = sim.build_single_user_plans(scene, frame, horizon, ["orthogonal"],
                                            np.random.default_rng(0))
        plan = plans[0]
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
            s = np.sqrt(frame.rho) * dft[:, plan.sched[ell]]
            state = kalman.measurement_update(state, s, np.zeros(frame.m_p, complex))
            p = state.p_est
            assert np.real(np.trace(p)) / total == pytest.approx(plan.nmse[ell], rel=1e-9)
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
        together = sim.build_single_user_plans(scene, frame, horizon, schemes,
                                               np.random.default_rng(0))
        det = sim.run_schemes(scene, frame, schemes, 1, 0, horizon).sinr_det
        for plan, name in zip(together, schemes):
            (alone,) = sim.build_single_user_plans(scene, frame, horizon, [name],
                                                   np.random.default_rng(0))
            assert plan.kind == alone.kind == "full"
            assert np.array_equal(plan.gains, alone.gains)
            assert np.array_equal(plan.nmse, alone.nmse)
            single = sim.run_schemes(scene, frame, [name], 1, 0, horizon)
            assert np.array_equal(det[name], single.sinr_det[name])
        hybrid = together[0]
        _, _, cols = sim.design_scheme(scene, frame, "min_max_dft")
        assert hybrid.s_u.shape[1] == cols.shape[1] == scene.r_design < 12
        r_h = (scene.u_sim * scene.lam_sim) @ scene.u_sim.conj().T
        stats = cm.ChannelStatistics(a=scene.a, r_h=r_h, u=scene.u_sim,
                                     lam=scene.lam_sim, rank=scene.r_sim)
        state = kalman.init(stats)
        total = stats.trace()
        for ell in range(horizon):
            s = np.sqrt(frame.rho) * cols[:, hybrid.sched[ell]]
            state = kalman.measurement_update(state, s, np.zeros(frame.m_p, complex))
            assert np.real(np.trace(state.p_est)) / total == pytest.approx(
                hybrid.nmse[ell], rel=1e-9)
            state = kalman.time_update(state, stats)

    def test_dft_plan_uses_projected_spectrum_for_design(self):
        scene = small_scene(n=16)
        frame = small_frame(g_len=4, m_p=2, n_d_max=6)
        plans = sim.build_single_user_plans(scene, frame, 8,
                                            ["min_max", "min_max_dft"],
                                            np.random.default_rng(0))
        eig, dft = plans
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
        plans = sim.build_single_user_plans(scene, frame, horizon, ["mp_fixed"],
                                            np.random.default_rng(0))
        lam = scene.lam_sim
        floor = ss.min_ss_mse(lam[: frame.m_p], scene.a, frame.rho, 1.0)
        expected = (floor.sum() + lam[frame.m_p:].sum()) / lam.sum()
        assert plans[0].nmse[-1] == pytest.approx(expected, abs=1e-7)

    def test_designed_scheme_beats_mp_fixed(self):
        scene = small_scene()
        frame = small_frame()
        plans = sim.build_single_user_plans(scene, frame, 600,
                                            ["min_max", "mp_fixed"],
                                            np.random.default_rng(0))
        assert plans[0].nmse[-1] < plans[1].nmse[-1]


def antenna_training(scene, plan, block):
    """Antenna-domain training matrix S_ell of a full-kind plan; exact when
    the scene's eigenbasis spans the whole array."""
    return np.sqrt(plan.rho) * scene.u_sim @ plan.s_u[:, plan.sched[block]]


class TestBaselineTraining:
    def test_orthogonal_full_sounding_when_budget_matches(self):
        scene = small_scene(n=4)
        assert scene.r_sim == 4
        frame = FrameParams(g_len=4, m_p=4, m=6, n_d_max=4, rho=2.0)
        (plan,) = sim.build_single_user_plans(scene, frame, 2, ["orthogonal"],
                                              np.random.default_rng(0))
        s0 = antenna_training(scene, plan, 0)
        s1 = antenna_training(scene, plan, 1)
        assert np.allclose(s0, s1)  # N_t == M_p: every block sounds all
        assert np.allclose(s0.conj().T @ s0, 2.0 * np.eye(4), atol=1e-12)

    def test_nd_fixed_covers_budget_once_per_frame(self):
        scene = small_scene()
        frame = FrameParams(g_len=4, m_p=2, m=5, n_d_max=8, rho=1.0)
        (plan,) = sim.build_single_user_plans(scene, frame, 4, ["nd_fixed"],
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
                                        np.random.default_rng(5))[0]
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
        plans = sim.build_single_user_plans(scene, frame, horizon, ["min_max"],
                                            np.random.default_rng(0))
        nm = plans[0].nmse
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
        design, _, cols = sim.design_scheme(scene, frame, "min_max_dft")
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


def bulk_draw_monte_carlo(plans, seed, mc_runs, horizon, frame, cross):
    """Oracle of ``sim._monte_carlo`` at one operating point, stepping each
    plan on its own (``sample_step``), that draws each run's whole horizon of
    channel innovations and pilot noise at once, in the arithmetic form
    (z_re + 1j z_im) / sqrt(2), into whole-horizon buffers."""
    def complex_rows(gen, shape):
        z = gen.standard_normal(shape + (2,))
        return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)

    run_seqs = np.random.SeedSequence(seed).spawn(2)[1].spawn(mc_runs)
    n_schemes, n_users, r_max = len(plans), len(cross), cross.shape[-1]
    a = np.array([p.a for p in plans[0]])[:, None, None]
    evolve = np.sqrt(1.0 - a * a)
    perfect = np.array([row[0].kind == "perfect" for row in plans])
    means = np.zeros((2, n_schemes, horizon, n_users))
    for first in range(0, mc_runs, sim.CHUNK_RUNS):
        seqs = run_seqs[first:first + sim.CHUNK_RUNS]
        n_runs = len(seqs)
        c = np.zeros((n_users, n_runs, r_max), dtype=complex)
        proc = np.zeros((n_users, n_runs, horizon, r_max), dtype=complex)
        noise = np.empty((n_schemes, n_users, n_runs, horizon, frame.m_p), dtype=complex)
        for i, seq in enumerate(seqs):
            streams = seq.spawn(n_users * (1 + n_schemes))
            for u, p in enumerate(plans[0]):
                r = len(p.lam)
                z = complex_rows(np.random.default_rng(streams[u]),
                                 (horizon + 1, r)) * np.sqrt(p.lam)
                c[u, i, :r], proc[u, i, :, :r] = z[0], z[1:]
            for pos, (s, u) in enumerate(np.ndindex(n_schemes, n_users), start=n_users):
                if plans[s][u].kind != "perfect":
                    noise[s, u, i] = complex_rows(np.random.default_rng(streams[pos]),
                                                  (horizon, frame.m_p))
        hats = np.zeros((n_schemes, n_users, n_runs, r_max), dtype=complex)
        steps = [(p, hats[s, u, :, :len(p.lam)], c[u, :, :len(p.lam)], noise[s, u])
                 for s, row in enumerate(plans) for u, p in enumerate(row) if not perfect[s]]
        sums = np.zeros_like(means)
        for ell in range(horizon):
            for plan, chat, chan, pilots in steps:
                plan.sample_step(chat, chan, pilots[:, ell, :], ell)
            hats[perfect] = c
            sinr = sim._realized_sinr(c, hats, frame.rho, cross)
            sums[0, :, ell] += sinr.sum(axis=-1)
            sums[1, :, ell] += mu.spectral_efficiency(
                sinr, n_users, frame.m_p, frame.m).sum(axis=-1)
            c *= a
            c += evolve * proc[:, :, ell]
        means += sums
    return means / mc_runs


def monte_carlo_inputs(scenes, frame, schemes, horizon):
    """plans[s][u] and the cross tensor that ``sim._monte_carlo`` takes."""
    rng = np.random.default_rng(0)
    plans = [[sim.build_single_user_plans(scene, frame, horizon, [name], rng)[0]
              for scene in scenes] for name in schemes]
    scene_mu = mu.MultiuserScene(
        users=[mu.UserLink(stats=cm.ChannelStatistics(a=s.a, r_h=s.covariance, u=s.u_sim,
                                                      lam=s.lam_sim, rank=s.r_sim))
               for s in scenes],
        rho=frame.rho, m=frame.m, m_p=frame.m_p)
    return plans, scene_mu.cross


class TestSlabStreaming:
    def test_slab_draws_equal_bulk_draw_oracle(self):
        # slab boundaries fall unevenly in the horizon, and two chunks run
        scenes = [small_scene(theta_deg=-15.0, d_r=8.0), small_scene(theta_deg=35.0, d_r=8.0)]
        assert scenes[0].r_sim != scenes[1].r_sim
        frame = small_frame(g_len=8, m_p=1, m=10, n_d_max=8)
        horizon, runs = 2 * sim.SLAB + 37, sim.CHUNK_RUNS + 5
        plans, cross = monte_carlo_inputs(scenes, frame, ["min_max", "perfect_csit"], horizon)
        assert plans[0][0].kind == "diag"
        got = sim._monte_carlo(sim.MonteCarloRows.of([plans]), 9, runs, horizon, frame, cross)[:, 0]
        want = bulk_draw_monte_carlo(plans, 9, runs, horizon, frame, cross)
        assert got.tobytes() == want.tobytes()

    def test_chunk_memory_independent_of_horizon(self):
        # every scheme gets innovation and pilot-noise buffers; the genie
        # scheme alone keeps the per-block kernel cheap under tracemalloc
        cfg = preset("demo")
        scenes, _ = sim.multiuser_scenes_from_config(cfg)
        frame = cfg.frame.build()
        peaks = []
        for horizon in (2 * sim.SLAB, 16 * sim.SLAB):
            plans, cross = monte_carlo_inputs(scenes, frame, ["perfect_csit"], horizon)
            rows = sim.MonteCarloRows.of([plans])
            tracemalloc.start()
            try:
                sim._monte_carlo(rows, 1, 32, horizon, frame, cross)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


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

    def test_sweep_points_differ_only_in_rho(self):
        frame = small_frame()
        with pytest.raises(ValueError, match="only in rho"):
            sim.run_multiuser_sweep([small_scene()], [frame, small_frame(g_len=8)],
                                    ["min_max"], 1, 0, 8)

    def test_full_stack_pads_unequal_ranks(self):
        # full rows of users of unequal rank, zero-padded to the largest,
        # step as each tracker does alone
        scenes = [small_scene(theta_deg=-15.0, d_r=8.0), small_scene(theta_deg=35.0, d_r=8.0)]
        r = [s.r_sim for s in scenes]
        assert r[0] != r[1]
        frame, horizon, runs = small_frame(), 6, 3
        rows = [[sim.build_single_user_plans(s, dataclasses.replace(frame, rho=rho), horizon,
                                             ["orthogonal"], np.random.default_rng(0))[0]
                 for s in scenes] for rho in (1.0, 8.0)]
        stack = sim.TrackerStack.of(rows, max(r))
        rng = np.random.default_rng(3)
        c = np.zeros((2, runs, max(r)), dtype=complex)
        hats = np.zeros((2, 2, runs, max(r)), dtype=complex)
        alone = [[np.zeros((runs, r_u), dtype=complex) for r_u in r] for _ in rows]
        for ell in range(horizon):
            for u, r_u in enumerate(r):
                c[u, :, :r_u] = cm.complex_normal(rng, (runs, r_u))
            noise = cm.complex_normal(rng, (2, 2, runs, frame.m_p))
            stack.step(hats, c, noise, ell)
            for k, row in enumerate(rows):
                for u, plan in enumerate(row):
                    plan.sample_step(alone[k][u], c[u, :, :r[u]], noise[k, u], ell)
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
        # of unequal rank (8, 7, 7) zero-padded to the largest, and two
        # noisy schemes plus a perfect-knowledge row in one call
        scenes = [small_scene(theta_deg=t, d_r=8.0) for t in (-15.0, 35.0, 50.0)[:n_users]]
        stats = [cm.ChannelStatistics(a=s.a, r_h=s.covariance, u=s.u_sim, lam=s.lam_sim,
                                      rank=s.r_sim)
                 for s in scenes]
        rho, runs, r_max = 4.0, 6, max(s.r_sim for s in scenes)
        scene_mu = mu.MultiuserScene(users=[mu.UserLink(stats=st) for st in stats],
                                     rho=rho, m=10, m_p=1)
        rng = np.random.default_rng(11)
        c = np.zeros((n_users, runs, r_max), dtype=complex)
        hats = np.zeros((3, n_users, runs, r_max), dtype=complex)
        for u, s in enumerate(scenes):
            c[u, :, :s.r_sim] = cm.complex_normal(rng, (runs, s.r_sim)) * np.sqrt(s.lam_sim)
            for row, (keep, noise) in enumerate(((0.8, 0.3), (0.5, 0.7))):
                hats[row, u, :, :s.r_sim] = keep * c[u, :, :s.r_sim] + noise * cm.complex_normal(
                    rng, (runs, s.r_sim)) * np.sqrt(s.lam_sim)
        hats[2] = c  # perfect knowledge
        got = sim._realized_sinr(c, hats, rho, scene_mu.cross)
        assert got.shape == (3, n_users, runs)
        for row in range(3):
            for i in range(runs):
                h = [s.u_sim @ c[u, i, :s.r_sim] for u, s in enumerate(scenes)]
                h_hat = [s.u_sim @ hats[row, u, i, :s.r_sim] for u, s in enumerate(scenes)]
                for u in range(n_users):
                    assert got[row, u, i] == pytest.approx(
                        mu.instantaneous_sinr(h, h_hat, rho, u), rel=1e-9)

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
