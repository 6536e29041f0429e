"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them on success):
the ``cli.Measured`` value, threshold and margin of its check with the least
margin.  The five gates that ``pilotseq verify`` shares run its check
functions on their own generators.  The full-scale steady-state
reproduction is marked slow; everything else is CI-friendly.
"""

import time

import numpy as np
import pytest

from pilotseq import channel_model as cm
from pilotseq import kalman
from pilotseq import cli
from pilotseq import simulate as sim
from pilotseq import steady_state as ss
from pilotseq import sequence_design as sd
from pilotseq.config import preset
from pilotseq.sequence_design import FrameParams


def report(name, t0, results):
    """Print the ``cli.Measured`` result with the least margin; returns the
    elapsed time."""
    elapsed = time.time() - t0
    worst = min(results, key=lambda result: result.margin)
    print(f"[acceptance] {worst.line(name)}; least of {len(results)} result(s) ({elapsed:.2f}s)")
    return elapsed


def gate(name, t0, results):
    """Assert that every ``cli.Measured`` result passes and report the one
    with the least margin; returns the elapsed time."""
    for result in results:
        assert result.ok, result.line(name)
    return report(name, t0, results)


def test_riccati_fixed_point_grid():
    """Closed-form steady-state MSE vs the iteration oracle on the full grid,
    1e-9 absolute, under one second."""
    t0 = time.time()
    assert gate("riccati_closed_form_vs_iteration", t0, [cli.check_riccati_grid()]) < 1.0


def test_interval_monotonicity():
    """Ceiling (and floor) envelopes are nondecreasing in the interval for
    1000 randomized parameter triples over every divisor pair of G=32."""
    t0 = time.time()
    results = [cli.check_monotonicity(np.random.default_rng(321))]  # 1000 triples
    assert gate("steady_state_monotonicity", t0, results) < 5.0


def test_sequence_construction_randomized():
    """200 random feasible assignments across G in {4,8,16,32} construct
    matrices passing every structural invariant; the published G=4 example
    matrix is accepted by the invariant checker."""
    t0 = time.time()
    rng = np.random.default_rng(99)
    results = [cli.check_construction(rng) for _ in range(5)]  # 40 matrices each
    assert gate("sequence_construction_invariants", t0, results) < 5.0


def test_exhaustive_matches_unrestricted_brute_force():
    """Ordered exhaustive search equals the unrestricted positional brute
    force on 20 random small spectra."""
    import itertools

    t0 = time.time()
    rng = np.random.default_rng(12)
    gaps = []
    while len(gaps) < 20:
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
        # pytest.approx(best, rel=1e-12) with its default abs=1e-12
        gaps.append(abs(got.objective - best) / max(abs(best), 1.0))
    gap = cli.Measured("max |exhaustive - brute force| / max(|brute force|, 1) over 20 spectra",
                       float(np.max(gaps)), 1e-12)
    assert gate("exhaustive_vs_brute_force", t0, [gap]) < 30.0


def test_kalman_sandwich():
    """The diagonal tracker driven by constructed sequences settles into the
    closed-form envelope cycle: post-training within 1e-6 of the floor,
    within-cycle max within 1e-6 of the ceiling, for every trained mode."""
    t0 = time.time()
    results = [cli.check_sandwich(np.random.default_rng(7))]  # 4 trials
    gate("steady_state_sandwich", t0, results)


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
            scenes.append(sim.build_scene(cm.ArrayGeometry(1, n_t), ring, 10))
        table = sim.run_multiuser_scene(scenes, frame, ["min_max"], 3000, 31, 48)
        tail_mc = table.sinr_mc["min_max"][-16:].mean(axis=0)
        tail_det = table.sinr_det["min_max"][-16:].mean(axis=0)
        gaps.append(float(np.mean(np.abs(tail_mc - tail_det) / tail_det)))
    report("proposition4_convergence", t0, [
        cli.Measured("mean relative |MC - det| tail SINR gap at 256 antennas", gaps[-1], 0.05),
        cli.Measured("largest gap change from one array size to the next (must be < 0)",
                     float(np.max(np.diff(gaps))), 0.0)])
    assert gaps[-1] < 0.05
    assert all(x > y for x, y in zip(gaps, gaps[1:]))


def test_appendix_bound_randomized_scenes():
    """Steady-state SINR lower bound never exceeds the converged
    deterministic SINR: 50 randomized two-user scenes, zero violations."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    results = [cli.check_sinr_bound(rng) for _ in range(10)]  # 5 scenes each
    gate("multiuser_sinr_lower_bound", t0, results)


def test_lemma1_estimate_covariance():
    """Sample covariance of the channel estimate equals R_h - P at a fixed
    block: 16 antennas, 10^4 runs, 5% relative Frobenius error."""
    t0 = time.time()
    ring = cm.OneRingGeometry(d_s=100.0, d_r=30.0, h=60.0, theta_h=0.3,
                              v=30 / 3.6)
    scene = sim.build_scene(cm.ArrayGeometry(1, 16), ring, block_len=5)
    frame = FrameParams(g_len=4, m_p=2, m=5, n_d_max=8, rho=5.0)
    (plan,), _ = sim.build_single_user_plans(scene, frame, 8, ["min_max"],
                                             np.random.default_rng(0))
    runs = 10_000
    rng = np.random.default_rng(606)
    r = scene.r_sim
    lam = scene.lam_sim
    c = kalman.complex_normal(rng, (runs, r)) * np.sqrt(lam)
    chat = np.zeros((runs, r), dtype=complex)
    blocks = 8  # fixed block index 2G
    stack = sim.TrackerStack.of([[plan]])
    _, _, diag = stack.posteriors(8)
    lam_bar = diag[0, 0, blocks - 1]
    for ell in range(blocks):
        noise = kalman.complex_normal(rng, (runs, frame.m_p))
        stack.step(chat[None, None], c[None], noise[None, None], ell)
        if ell < blocks - 1:
            c = scene.a * c + np.sqrt(1 - scene.a**2) * (
                kalman.complex_normal(rng, (runs, r)) * np.sqrt(lam))
    emp = (chat.T @ chat.conj()) / runs
    expected = np.diag(lam - lam_bar)
    rel = np.linalg.norm(emp - expected) / np.linalg.norm(expected)
    report("lemma1_estimate_covariance", t0, [cli.Measured(
        "relative Frobenius error of the estimate covariance against R_h - P", rel, 0.05)])
    assert rel < 0.05


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
    strict = [nm[lo] - nm[hi] for lo, hi in (
        ("perfect_csit", "exhaustive"), ("min_max", "nd_fixed"), ("nd_fixed", "orthogonal"),
        ("nd_fixed", "random"), ("orthogonal", "mp_fixed"), ("random", "mp_fixed"))]
    report("steady_state_ordering_ci_scale", t0, [cli.Measured(
        "largest NMSE step of the strict orderings (must be < 0)", max(strict), 0.0)])
    assert nm["perfect_csit"] < nm["exhaustive"]
    assert nm["exhaustive"] <= nm["min_max"]
    assert nm["min_max"] < nm["nd_fixed"]
    assert nm["nd_fixed"] < min(nm["orthogonal"], nm["random"])
    assert max(nm["orthogonal"], nm["random"]) < nm["mp_fixed"]


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
                            seed=cfg.seed, horizon=cfg.horizon_blocks)
    targets = {
        "min_max": (0.04, 15.3),
        "min_max_dft": (0.05, 15.2),
        "nd_fixed": (0.05, 14.9),
        "orthogonal": (0.13, 13.8),
        "mp_fixed": (0.74, 9.3),
        "perfect_csit": (0.00, 15.8),
    }
    results = []
    for name, (nmse_ref, snr_ref) in targets.items():
        nmse = table.steady_state("nmse", name)
        snr = 10.0 * np.log10(table.steady_state("sinr_mc", name))
        results += [cli.Measured(f"{name} |NMSE - {nmse_ref}|", abs(nmse - nmse_ref), 0.02),
                    cli.Measured(f"{name} |SNR - {snr_ref} dB|", abs(snr - snr_ref), 0.4)]
    gate("steady_state_reference_upa375", t0, results)
