"""Command-line experiment runner.

Subcommands: design (emit the training sequence for a configuration),
simulate (full Monte Carlo run with CSV outputs), verify (built-in
oracle/property battery).  Errors leave a machine-readable JSON object on
stderr and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import multiuser as mu
from . import simulate as sim
from .config import PRESETS, ExperimentConfig, preset
from .sequence_design import (
    FrameParams,
    IntervalAssignment,
    construct_sequence_matrix,
    divisor_set,
    save_sequence_csv,
    sequence_invariant_violations,
    validate_assignment,
)
from .steady_state import (
    max_ss_mse,
    min_ss_mse,
    profile,
    riccati_iterate_oracle,
)

_FMT = "%.12g"


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return ""
    return _FMT % x


def _load_config(args) -> ExperimentConfig:
    if args.config and args.preset:
        raise ValueError("pass either --config or --preset, not both")
    if args.config:
        cfg = ExperimentConfig.load(args.config)
    elif args.preset:
        cfg = preset(args.preset)
    else:
        raise ValueError("one of --config or --preset is required")
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.output_dir = args.out
    if getattr(args, "threads", None) is not None:
        cfg.threads = args.threads
    return cfg


PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot the traces produced next to this script (trace.csv, sweep.csv).\"\"\"
import csv
import collections
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
rows = list(csv.DictReader(open(here / "trace.csv")))
by_scheme = collections.defaultdict(list)
for r in rows:
    by_scheme[r["scheme"]].append(r)

fig, axes = plt.subplots(1, 2, figsize=(11, 4))
for scheme, rs in by_scheme.items():
    blocks = [int(r["block"]) for r in rs]
    axes[0].semilogy(blocks, [float(r["nmse"]) for r in rs], label=scheme)
    axes[1].plot(blocks, [float(r["rx_snr_db"]) for r in rs], label=scheme)
axes[0].set_xlabel("block"); axes[0].set_ylabel("NMSE"); axes[0].legend(fontsize=7)
axes[1].set_xlabel("block"); axes[1].set_ylabel("received SNR (dB)")
fig.tight_layout()
fig.savefig(here / "trace.png", dpi=150)
print("wrote", here / "trace.png")

if (here / "sweep.csv").exists():
    rows = list(csv.DictReader(open(here / "sweep.csv")))
    agg = collections.defaultdict(lambda: collections.defaultdict(float))
    for r in rows:
        key = (r["scheme"], float(r["snr_db"]))
        agg[key]["mc"] += float(r["se_mc"])
        agg[key]["lb"] += float(r["se_lb"]) if r["se_lb"] else 0.0
    fig2, ax = plt.subplots(figsize=(6, 4))
    schemes = sorted({k[0] for k in agg})
    for scheme in schemes:
        pts = sorted((snr, agg[(s, snr)]) for s, snr in agg if s == scheme)
        ax.plot([p[0] for p in pts], [p[1]["mc"] for p in pts], "o-", label=scheme + " (mc)")
        ax.plot([p[0] for p in pts], [p[1]["lb"] for p in pts], "--", label=scheme + " (bound)")
    ax.set_xlabel("SNR (dB)"); ax.set_ylabel("sum spectral efficiency (bits/ch. use)")
    ax.legend(fontsize=7)
    fig2.tight_layout()
    fig2.savefig(here / "sweep.png", dpi=150)
    print("wrote", here / "sweep.png")
"""


def _write_csv(path: Path, header: str, rows) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)
    return path


def _trace_rows(table):
    """One row per block and scheme: NMSE and received SNR as means over
    users, spectral efficiencies as sums over users."""
    columns = {}
    for name in table.schemes:
        lb = table.se_lb(name)
        columns[name] = (table.nmse[name], table.sinr_mc[name].mean(axis=1),
                         table.se_mc(name).sum(axis=1), table.se_det(name).sum(axis=1),
                         None if np.all(np.isnan(lb)) else float(np.nansum(lb)))
    for ell in range(table.horizon):
        for name in table.schemes:
            nmse, sinr, se_mc, se_det, se_lb = columns[name]
            yield [str(ell), name, _fmt(nmse[ell]),
                   _fmt(10.0 * np.log10(sinr[ell]) if sinr[ell] > 0 else None),
                   _fmt(se_mc[ell]), _fmt(se_det[ell]), _fmt(se_lb)]


def emit_outputs(table, config: ExperimentConfig, sweep_rows=None) -> list:
    """Write trace.csv, design.csv, sweep.csv (given sweep rows),
    config.resolved.json and a plot script.

    Returns the list of written paths.  Identical (config, seed) inputs
    produce byte-identical files.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [_write_csv(out / "trace.csv", "block,scheme,nmse,rx_snr_db,se_sum,se_det,se_lb",
                          _trace_rows(table))]

    plan = table.user_plans[0].get(config.designed_scheme)
    if plan is not None:
        written.append(out / "design.csv")
        save_sequence_csv(written[-1], plan.seq, config.frame.build())

    if sweep_rows:
        written.append(_write_csv(
            out / "sweep.csv", "snr_db,scheme,user,se_mc,se_det,se_lb",
            ([_fmt(row["snr_db"]), row["scheme"], str(row["user"]), _fmt(row["se_mc"]),
              _fmt(row["se_det"]), _fmt(row["se_lb"])] for row in sweep_rows)))

    cfg_path = out / "config.resolved.json"
    cfg_path.write_text(config.to_json(), encoding="utf-8")
    written.append(cfg_path)

    plot_path = out / "plot_traces.py"
    plot_path.write_text(PLOT_SCRIPT, encoding="utf-8")
    written.append(plot_path)
    return written


def cmd_design(args) -> int:
    """Design the configured scheme for user 0's scene, as ``simulate``'s
    design.csv does."""
    cfg = _load_config(args)
    scene = sim.multiuser_scenes_from_config(cfg)[0][0]
    frame = cfg.frame.build()
    asn, seq, _ = sim.design_scheme(scene, frame, cfg.designed_scheme)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    design_path = out / "design.csv"
    save_sequence_csv(design_path, seq, frame)
    summary = {
        "designer": cfg.designer,
        "basis": cfg.basis,
        "n_d": asn.n_d,
        "g": list(asn.g),
        "objective": asn.objective,
        "temporal_coefficient": scene.a,
        "rank": scene.r_design,
        "design": str(design_path),
    }
    (out / "assignment.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    table, rows = sim.run_multiuser(cfg)
    for path in emit_outputs(table, cfg, sweep_rows=rows):
        print("wrote", path)
    return 0


# -- verify battery --------------------------------------------------------


def _check_riccati_grid():
    grid_a = np.array([0.9, 0.99, 0.999, 0.9999, 0.99999])
    grid_lam = np.array([0.01, 0.1, 1.0, 10.0, 100.0])
    grid_rho = np.array([0.1, 1.0, 10.0, 100.0, 1000.0])
    grid_g = np.array([1.0, 2.0, 4.0, 8.0])
    aa, ll, rr, gg = np.meshgrid(grid_a, grid_lam, grid_rho, grid_g, indexing="ij")
    closed = min_ss_mse(ll, aa, rr, gg)
    iterated, _ = riccati_iterate_oracle(ll, aa, rr, gg, tol=1e-13)
    worst = float(np.max(np.abs(closed - iterated)))
    return worst < 1e-9, f"max |closed - iterated| = {worst:.2e}"


def _check_monotonicity():
    rng = np.random.default_rng(100)
    divisors = divisor_set(32)
    bad = 0
    for _ in range(200):
        lam = float(rng.uniform(1e-3, 100.0))
        a = float(rng.uniform(0.05, 0.99999))
        rho = float(rng.uniform(1e-2, 1e3))
        floors = np.array([min_ss_mse(lam, a, rho, g) for g in divisors])
        ceils = np.array([max_ss_mse(f, lam, a, g) for f, g in zip(floors, divisors)])
        if np.any(np.diff(ceils) < -1e-12) or np.any(np.diff(floors) < -1e-12):
            bad += 1
    return bad == 0, f"{bad} monotonicity violations over 200 draws"


def _check_construction():
    rng = np.random.default_rng(200)
    checked = 0
    for _ in range(40):
        g_len = int(rng.choice([4, 8, 16, 32]))
        m_p = int(rng.integers(1, 4))
        divisors = divisor_set(g_len)
        budget = g_len * m_p
        counts = []
        for d in divisors[:-1]:
            cmax = budget // (g_len // d)
            c = int(rng.integers(0, cmax + 1))
            counts.append(c)
            budget -= c * (g_len // d)
        counts.append(budget)
        g = tuple(int(d) for d, c in zip(divisors, counts) for _ in range(c))
        frame = FrameParams(g_len=g_len, m_p=m_p, m=g_len * m_p + m_p + 1,
                            n_d_max=max(len(g), 1), rho=1.0)
        asn = IntervalAssignment(g=g, n_d=len(g), objective=0.0)
        if validate_assignment(asn, frame):
            continue
        seq = construct_sequence_matrix(asn, frame)
        if sequence_invariant_violations(seq.c, seq.g, frame):
            return False, f"invariant violation for g={g}, G={g_len}, Mp={m_p}"
        checked += 1
    return checked > 0, f"{checked} random constructions verified"


def _check_diag_full_equivalence():
    from . import channel_model as cm
    from . import kalman

    r_h = cm.one_ring_covariance(8, 0.3, 0.25, 1.0)
    stats = cm.ChannelStatistics.from_covariance(0.95, r_h)
    rng = np.random.default_rng(300)
    sched = np.array([[step % stats.rank, (step + 1) % stats.rank] for step in range(12)])
    diag = sim.Tracker("diag", 2, stats.lam, stats.a, 3.0, sched=sched)
    full = kalman.init(stats)
    chat = np.zeros((1, stats.rank), dtype=complex)
    h = cm.stationary_channel(stats, rng)
    worst = 0.0
    for step, lam_bar in enumerate(diag.posteriors()):
        s = np.sqrt(3.0) * stats.u[:, sched[step]]
        w = cm.complex_normal(rng, 2)
        full = kalman.measurement_update(full, s, s.conj().T @ h + w)
        diag.sample_step(chat, (stats.u.conj().T @ h)[None, :], w[None, :], step)
        p_diag = np.real(np.diag(stats.u.conj().T @ full.p_est @ stats.u))
        est_gap = np.abs(stats.u.conj().T @ full.h_hat - chat[0])
        worst = max(worst, float(np.max(np.abs(p_diag - lam_bar))), float(np.max(est_gap)))
        full = kalman.time_update(full, stats)
        h = cm.evolve_channel(h, stats, rng)
    return worst < 1e-10, f"max |diag - full| posterior variance / estimate gap = {worst:.2e}"


def _check_sandwich():
    # the posterior of a mode sounded every g blocks must cycle between the
    # closed-form floor (right after a pilot) and ceiling (g - 1 aging steps
    # later); a second mode takes the pilot in between
    lam, a, rho, g = 0.8, 0.9, 5.0, 4
    sched = np.where(np.arange(4000) % g == 0, 0, 1)[:, None]
    tracker = sim.Tracker("diag", 1, np.array([lam, lam]), a, rho, sched=sched)
    lo = min_ss_mse(lam, a, rho, g)
    hi = max_ss_mse(lo, lam, a, g)
    post = None
    cycle_max = -np.inf
    for ell, lam_bar in enumerate(tracker.posteriors()):
        if ell % g == 0:
            post = lam_bar[0]
            cycle_max = lam_bar[0]
        else:
            cycle_max = max(cycle_max, lam_bar[0])
    ok = abs(post - lo) < 1e-6 and abs(cycle_max - hi) < 1e-6
    return ok, f"floor gap {abs(post - lo):.2e}, ceiling gap {abs(cycle_max - hi):.2e}"


def _check_sinr_bound():
    rng = np.random.default_rng(400)
    from . import channel_model as cm

    worst = -np.inf
    for _ in range(5):
        scenes = []
        for _u in range(2):
            theta = float(rng.uniform(-0.8, 0.8))
            r_h = cm.one_ring_covariance(24, theta, 0.15, 1.0)
            u, lam, r = cm.eigendecompose(r_h, 1e-9)
            scenes.append(cm.ChannelStatistics(a=0.995, r_h=r_h, u=u, lam=lam, rank=r))
        rho = float(rng.uniform(1.0, 30.0))
        scene = mu.MultiuserScene(users=[mu.UserLink(stats=s) for s in scenes],
                                  rho=rho, m=10, m_p=1)
        profiles = []
        bars = []
        for s in scenes:
            g = np.zeros(s.rank, dtype=int)
            g[: min(4, s.rank)] = [1, 2, 4, 4][: min(4, s.rank)]
            prof = profile(s.lam, s.a, rho, g)
            profiles.append(prof)
            bars.append(prof.lambda_lower)  # converged post-training state
        for u in range(2):
            det = mu.deterministic_sinr(scene, bars, u)
            lb = mu.steady_state_sinr_lower_bound(scene, profiles, u)
            worst = max(worst, lb - det)
    return worst <= 1e-6, f"max (bound - deterministic) = {worst:.2e}"


def _check_determinism():
    from .config import preset as _preset

    cfg = _preset("demo")
    cfg.mc_runs = 40
    cfg.horizon_blocks = 24
    scene = sim.build_scene(cfg.array.build(), cfg.ring.build(), cfg.frame.m,
                            cfg.rank_tol)
    frame = cfg.frame.build()
    t1 = sim.run_schemes(scene, frame, ["min_max", "mp_fixed"], cfg.mc_runs,
                         cfg.seed, cfg.horizon_blocks, threads=1)
    t2 = sim.run_schemes(scene, frame, ["min_max", "mp_fixed"], cfg.mc_runs,
                         cfg.seed, cfg.horizon_blocks, threads=4)
    same = all(
        np.array_equal(t1.sinr_mc[name], t2.sinr_mc[name]) for name in t1.schemes
    )
    return same, "1-thread and 4-thread runs bitwise equal"


VERIFY_CHECKS = [
    ("riccati_closed_form_vs_iteration", _check_riccati_grid),
    ("steady_state_monotonicity", _check_monotonicity),
    ("sequence_construction_invariants", _check_construction),
    ("diagonal_vs_full_kalman", _check_diag_full_equivalence),
    ("steady_state_sandwich", _check_sandwich),
    ("multiuser_sinr_lower_bound", _check_sinr_bound),
    ("thread_determinism", _check_determinism),
]


def cmd_verify(args) -> int:
    failures = 0
    for name, check in VERIFY_CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failure, not an error
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotseq",
        description="training-sequence design and link-level simulation "
                    "for FDD massive MIMO channel estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--preset", type=str, default=None,
                       help=f"named preset: {', '.join(sorted(PRESETS))}")
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads for Monte Carlo chunks")

    p_design = sub.add_parser("design", help="emit the training sequence matrix")
    common(p_design)
    p_design.set_defaults(func=cmd_design)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo experiment")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the oracle/property battery")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        sys.stderr.write(json.dumps(
            {"error": str(exc), "type": type(exc).__name__}) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
