"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them on success).
The full-scale steady-state reproduction is marked slow; everything else
is CI-friendly.
"""

import time

import numpy as np
import pytest

from pilotseq import channel_model as cm
from pilotseq import multiuser as mu
from pilotseq import simulate as sim
from pilotseq import steady_state as ss
from pilotseq import sequence_design as sd
from pilotseq.cli import emit_outputs
from pilotseq.config import preset
from pilotseq.sequence_design import FrameParams


def report(name, elapsed, detail=""):
    print(f"[acceptance] PASS {name} ({elapsed:.2f}s) {detail}")


def random_valid_assignment(rng, g_len, m_p):
    """Uniform-ish random counts over the divisor set with exact budget."""
    divisors = sd.divisor_set(g_len)
    budget = g_len * m_p
    counts = []
    for d in divisors[:-1]:
        cmax = budget // (g_len // d)
        c = int(rng.integers(0, cmax + 1))
        counts.append(c)
        budget -= c * (g_len // d)
    counts.append(budget)
    g = tuple(int(d) for d, c in zip(divisors, counts) for _ in range(c))
    return sd.IntervalAssignment(g=g, n_d=len(g), objective=0.0)


def test_riccati_fixed_point_grid():
    """Closed-form steady-state MSE vs the iteration oracle on the full grid,
    1e-9 absolute, under one second."""
    t0 = time.time()
    grid_a = np.array([0.9, 0.99, 0.999, 0.9999, 0.99999])
    grid_lam = np.array([0.01, 0.1, 1.0, 10.0, 100.0])
    grid_rho = np.array([0.1, 1.0, 10.0, 100.0, 1000.0])
    grid_g = np.array([1.0, 2.0, 4.0, 8.0])
    aa, ll, rr, gg = np.meshgrid(grid_a, grid_lam, grid_rho, grid_g, indexing="ij")
    closed = ss.min_ss_mse(ll, aa, rr, gg)
    iterated, _ = ss.riccati_iterate_oracle(ll, aa, rr, gg, tol=1e-13)
    worst = float(np.max(np.abs(closed - iterated)))
    elapsed = time.time() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    report("riccati_fixed_point_grid", elapsed, f"max abs err {worst:.2e}")


def test_interval_monotonicity():
    """Ceiling (and floor) envelopes are nondecreasing in the interval for
    1000 randomized parameter triples over every divisor pair of G=32."""
    t0 = time.time()
    rng = np.random.default_rng(321)
    divisors = np.array(sd.divisor_set(32), dtype=float)
    lam = rng.uniform(1e-3, 100.0, size=1000)
    a = rng.uniform(0.01, 0.99999, size=1000)
    rho = rng.uniform(1e-2, 1e3, size=1000)
    floors = ss.min_ss_mse(lam[:, None], a[:, None], rho[:, None], divisors[None, :])
    ceils = ss.max_ss_mse(floors, lam[:, None], a[:, None], divisors[None, :])
    viol_max = int(np.count_nonzero(np.diff(ceils, axis=1) < -1e-12))
    viol_min = int(np.count_nonzero(np.diff(floors, axis=1) < -1e-12))
    elapsed = time.time() - t0
    assert viol_max == 0 and viol_min == 0
    assert elapsed < 5.0
    report("interval_monotonicity", elapsed, "0 violations in 1000 triples")


def test_sequence_construction_randomized():
    """200 random feasible assignments across G in {4,8,16,32} construct
    matrices passing every structural invariant; the published G=4 example
    matrix is accepted by the invariant checker."""
    t0 = time.time()
    rng = np.random.default_rng(99)
    built = 0
    while built < 200:
        g_len = int(rng.choice([4, 8, 16, 32]))
        m_p = int(rng.integers(1, 4))
        asn = random_valid_assignment(rng, g_len, m_p)
        frame = FrameParams(g_len=g_len, m_p=m_p, m=g_len * m_p + m_p + 1,
                            n_d_max=max(asn.n_d, 1), rho=1.0)
        if sd.validate_assignment(asn, frame):
            continue
        seq = sd.construct_sequence_matrix(asn, frame)
        assert sd.sequence_invariant_violations(seq.c, seq.g, frame) == []
        built += 1
    # reference layout from the worked G=4, M_p=3 example
    c_ref = np.array([[1, 1, 1, 1], [2, 3, 2, 3], [4, 5, 4, 6]]).T
    frame_ref = FrameParams(g_len=4, m_p=3, m=8, n_d_max=6, rho=1.0)
    assert sd.sequence_invariant_violations(c_ref, (1, 2, 2, 2, 4, 4), frame_ref) == []
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report("sequence_construction_randomized", elapsed, f"{built} matrices")


def test_exhaustive_matches_unrestricted_brute_force():
    """Ordered exhaustive search equals the unrestricted positional brute
    force on 20 random small spectra."""
    import itertools

    t0 = time.time()
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 20:
        r = int(rng.integers(3, 7))
        lam = np.sort(rng.uniform(0.05, 5.0, size=r))[::-1]
        a = float(rng.uniform(0.6, 0.9995))
        rho = float(rng.uniform(0.5, 50.0))
        g_len = int(rng.choice([4, 8]))
        m_p = int(rng.integers(1, 3))
        n_d_max = int(rng.integers(2, 8))
        frame = FrameParams(g_len=g_len, m_p=m_p, m=60, n_d_max=n_d_max, rho=rho)
        try:
            got = sd.exhaustive_search(lam, a, rho, frame)
        except ValueError:
            continue
        divisors = sd.divisor_set(g_len)
        best = np.inf
        hi = min(g_len * m_p, n_d_max, r)
        for n_d in range(m_p, hi + 1):
            for combo in itertools.product(divisors, repeat=n_d):
                if sum(g_len // g for g in combo) != g_len * m_p:
                    continue
                g_arr = np.array(combo, dtype=float)
                lower = ss.min_ss_mse(lam[:n_d], a, rho, g_arr)
                upper = ss.max_ss_mse(lower, lam[:n_d], a, g_arr)
                best = min(best, float(upper.sum() + lam[n_d:].sum()))
        assert got.objective == pytest.approx(best, rel=1e-12)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report("exhaustive_vs_brute_force", elapsed, f"{checked} instances")


def test_kalman_sandwich():
    """The diagonal tracker driven by constructed sequences settles into the
    closed-form envelope cycle: post-training within 1e-5 of the floor,
    within-cycle max within 1e-5 of the ceiling, for every trained mode."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    for trial in range(4):
        a = float(rng.choice([0.9, 0.95]))
        rho = float(rng.uniform(1.0, 20.0))
        g_len = int(rng.choice([4, 8]))
        m_p = int(rng.integers(1, 3))
        asn = random_valid_assignment(rng, g_len, m_p)
        frame = FrameParams(g_len=g_len, m_p=m_p, m=g_len * m_p + m_p + 1,
                            n_d_max=max(asn.n_d, 1), rho=rho)
        if sd.validate_assignment(asn, frame):
            continue
        seq = sd.construct_sequence_matrix(asn, frame)
        lam = np.sort(rng.uniform(0.1, 3.0, size=asn.n_d + 2))[::-1]
        blocks = int(np.ceil(60.0 / (1.0 - a * a)))
        blocks = (blocks // g_len + 2) * g_len  # whole frames
        sched = seq.c[np.arange(blocks) % g_len] - 1
        tracker = sim.Tracker("diag", m_p, lam, a, rho, sched=sched)
        history = np.empty((g_len, len(lam)))
        for ell, lam_bar in enumerate(tracker.posteriors()):
            history[ell % g_len] = lam_bar
        for i in range(asn.n_d):
            g_i = asn.g[i]
            lo = ss.min_ss_mse(lam[i], a, rho, g_i)
            hi = ss.max_ss_mse(lo, lam[i], a, g_i)
            rows = np.nonzero(seq.c == i + 1)[0]
            post = history[rows, i].min()
            peak = history[:, i].max()
            assert abs(post - lo) < 1e-5
            assert abs(peak - hi) < 1e-5
    elapsed = time.time() - t0
    report("kalman_sandwich", elapsed)


def test_proposition4_convergence():
    """Two-user deterministic SINR vs Monte Carlo mean: within 5% at 256
    antennas, with the relative gap shrinking as the array grows."""
    t0 = time.time()
    # strongly overlapping users so the finite-array bias is visible at the
    # small end of the sweep
    frame = FrameParams(g_len=8, m_p=1, m=10, n_d_max=16, rho=30.0)
    gaps = []
    for n_t in (32, 64, 128, 256):
        scenes = []
        for theta in (-8.0, 8.0):
            ring = cm.OneRingGeometry(d_s=100.0, d_r=30.0, h=60.0,
                                      theta_h=np.radians(theta), v=3 / 3.6)
            scenes.append(sim.build_scene(cm.ArrayGeometry.ula(n_t), ring, 10))
        table = sim.run_multiuser_scene(scenes, frame, ["min_max"], 3000, 31,
                                        48, threads=4)
        tail_mc = table.sinr_mc["min_max"][-16:].mean(axis=0)
        tail_det = table.sinr_det["min_max"][-16:].mean(axis=0)
        gaps.append(float(np.mean(np.abs(tail_mc - tail_det) / tail_det)))
    elapsed = time.time() - t0
    assert gaps[-1] < 0.05
    assert all(x > y for x, y in zip(gaps, gaps[1:]))
    report("proposition4_convergence", elapsed,
           "gaps " + ", ".join(f"{g:.3f}" for g in gaps))


def test_appendix_bound_randomized_scenes():
    """Steady-state SINR lower bound never exceeds the converged
    deterministic SINR: 50 randomized two-user scenes, zero violations."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for _ in range(50):
        n_t = int(rng.choice([16, 24, 32]))
        a = float(rng.uniform(0.9, 0.99))
        rho = float(rng.uniform(0.5, 50.0))
        g_len = int(rng.choice([4, 8]))
        m_p = 1
        stats = []
        for _u in range(2):
            theta = float(rng.uniform(-0.9, 0.9))
            delta = float(rng.uniform(0.05, 0.3))
            r_h = cm.one_ring_covariance(n_t, theta, delta, 1.0)
            u, lam, r = cm.eigendecompose(r_h, 1e-8)
            stats.append(cm.ChannelStatistics(a=a, r_h=r_h, u=u, lam=lam, rank=r))
        scene = mu.MultiuserScene(users=[mu.UserLink(stats=s) for s in stats],
                                  rho=rho, m=4, m_p=m_p)
        profiles = []
        seqs = []
        for s in stats:
            while True:
                asn = random_valid_assignment(rng, g_len, m_p)
                frame = FrameParams(g_len=g_len, m_p=m_p, m=4,
                                    n_d_max=max(asn.n_d, 1), rho=rho)
                if asn.n_d <= s.rank and not sd.validate_assignment(asn, frame):
                    break
            g_pad = np.zeros(s.rank, dtype=int)
            g_pad[: asn.n_d] = asn.g
            profiles.append(ss.profile(s.lam, a, rho, g_pad))
            seqs.append(sd.construct_sequence_matrix(asn, frame))
        # converge the diagonal recursions, then evaluate the deterministic
        # SINR across one trailing frame
        blocks = int(np.ceil(60.0 / (1.0 - a * a)) // g_len + 2) * g_len
        bars = []
        for s, seq in zip(stats, seqs):
            lam_pred = s.lam.copy()
            frame_bars = np.empty((g_len, s.rank))
            for ell in range(blocks):
                idx = seq.c[ell % g_len] - 1
                lam_bar = lam_pred.copy()
                lam_bar[idx] = lam_pred[idx] / (1.0 + rho * lam_pred[idx])
                frame_bars[ell % g_len] = lam_bar
                lam_pred = a * a * lam_bar + (1.0 - a * a) * s.lam
            bars.append(frame_bars)
        for u in range(2):
            lb = mu.steady_state_sinr_lower_bound(scene, profiles, u)
            det_cycle = [
                mu.deterministic_sinr(scene, [bars[0][k], bars[1][k]], u)
                for k in range(g_len)
            ]
            worst = max(worst, lb - min(det_cycle))
    elapsed = time.time() - t0
    assert worst <= 1e-6
    report("appendix_bound_randomized_scenes", elapsed,
           f"max (lb - det) = {worst:.2e}")


def test_lemma1_estimate_covariance():
    """Sample covariance of the channel estimate equals R_h - P at a fixed
    block: 16 antennas, 10^4 runs, 5% relative Frobenius error."""
    t0 = time.time()
    ring = cm.OneRingGeometry(d_s=100.0, d_r=30.0, h=60.0, theta_h=0.3,
                              v=30 / 3.6)
    scene = sim.build_scene(cm.ArrayGeometry.ula(16), ring, block_len=5)
    frame = FrameParams(g_len=4, m_p=2, m=5, n_d_max=8, rho=5.0)
    plans = sim.build_single_user_plans(scene, frame, 8, ["min_max"],
                                        np.random.default_rng(0))
    plan = plans[0]
    runs = 10_000
    rng = np.random.default_rng(606)
    r = scene.r_sim
    lam = scene.lam_sim
    c = cm.complex_normal(rng, (runs, r)) * np.sqrt(lam)
    chat = np.zeros((runs, r), dtype=complex)
    blocks = 8  # fixed block index 2G
    lam_bar = list(plan.posteriors())[blocks - 1]
    for ell in range(blocks):
        plan.sample_step(chat, c, cm.complex_normal(rng, (runs, frame.m_p)), ell)
        if ell < blocks - 1:
            c = scene.a * c + np.sqrt(1 - scene.a**2) * (
                cm.complex_normal(rng, (runs, r)) * np.sqrt(lam))
    emp = (chat.T @ chat.conj()) / runs
    expected = np.diag(lam - lam_bar)
    rel = np.linalg.norm(emp - expected) / np.linalg.norm(expected)
    elapsed = time.time() - t0
    assert rel < 0.05
    report("lemma1_estimate_covariance", elapsed, f"rel frobenius {rel:.3f}")


def test_determinism_across_threads(tmp_path):
    """Identical (config, seed) at 1 and 8 worker threads produce
    byte-identical CSV outputs."""
    t0 = time.time()
    cfg = preset("demo")
    cfg.mc_runs = 96
    cfg.horizon_blocks = 32
    blobs = []
    for sub, threads in (("one", 1), ("eight", 8)):
        cfg.output_dir = str(tmp_path / sub)
        cfg.threads = threads
        table = sim.run_multiuser(cfg)[0]
        emit_outputs(table, cfg)
        blobs.append(tuple(
            (tmp_path / sub / name).read_bytes()
            for name in ("trace.csv", "design.csv", "config.resolved.json")
        ))
    elapsed = time.time() - t0
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]
    report("determinism_across_threads", elapsed)


def test_steady_state_ordering_ci_scale():
    """Strict NMSE ordering on the 32-antenna configuration:
    perfect < exhaustive <= min_max < nd_fixed < {orthogonal, random} <
    mp_fixed."""
    t0 = time.time()
    cfg = preset("ci_ula32")
    scene = sim.build_scene(cfg.array.build(), cfg.ring.build(), cfg.frame.m,
                            cfg.rank_tol)
    frame = cfg.frame.build()
    schemes = ["perfect_csit", "exhaustive", "min_max", "nd_fixed",
               "orthogonal", "random", "mp_fixed"]
    table = sim.run_schemes(scene, frame, schemes, mc_runs=1, seed=cfg.seed,
                            horizon=cfg.horizon_blocks)
    nm = {s: table.steady_state("nmse", s) for s in schemes}
    elapsed = time.time() - t0
    assert nm["perfect_csit"] < nm["exhaustive"]
    assert nm["exhaustive"] <= nm["min_max"]
    assert nm["min_max"] < nm["nd_fixed"]
    assert nm["nd_fixed"] < min(nm["orthogonal"], nm["random"])
    assert max(nm["orthogonal"], nm["random"]) < nm["mp_fixed"]
    report("steady_state_ordering_ci_scale", elapsed,
           " < ".join(f"{s}:{nm[s]:.3f}" for s in schemes))


@pytest.mark.slow
def test_steady_state_reference_upa375():
    """Steady-state NMSE within 0.02 and received SNR within 0.4 dB of the
    reference values for every scheme at the 375-antenna configuration."""
    t0 = time.time()
    cfg = preset("upa375")
    scene = sim.build_scene(cfg.array.build(), cfg.ring.build(), cfg.frame.m,
                            cfg.rank_tol)
    frame = cfg.frame.build()
    schemes = ["min_max", "min_max_dft", "nd_fixed", "orthogonal", "mp_fixed",
               "perfect_csit"]
    table = sim.run_schemes(scene, frame, schemes, mc_runs=cfg.mc_runs,
                            seed=cfg.seed, horizon=cfg.horizon_blocks,
                            threads=4)
    targets = {
        "min_max": (0.04, 15.3),
        "min_max_dft": (0.05, 15.2),
        "nd_fixed": (0.05, 14.9),
        "orthogonal": (0.13, 13.8),
        "mp_fixed": (0.74, 9.3),
        "perfect_csit": (0.00, 15.8),
    }
    lines = []
    for name, (nmse_ref, snr_ref) in targets.items():
        nmse = table.steady_state("nmse", name)
        snr = 10.0 * np.log10(table.steady_state("sinr_mc", name))
        lines.append(f"{name}: nmse {nmse:.3f}/{nmse_ref}, snr {snr:.2f}/{snr_ref}")
        assert abs(nmse - nmse_ref) <= 0.02, lines[-1]
        assert abs(snr - snr_ref) <= 0.4, lines[-1]
    elapsed = time.time() - t0
    report("steady_state_reference_upa375", elapsed, "; ".join(lines))
