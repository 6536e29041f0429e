"""Command-line experiment runner.

Subcommands: design (emit the training sequence for a configuration),
simulate (full Monte Carlo run with CSV outputs), verify (built-in
oracle/property battery).  Errors leave a machine-readable JSON object on
stderr and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import channel_model as cm
from . import kalman
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
    """A float in the output format; blank for None, nan and inf."""
    if x is None or not math.isfinite(x):
        return ""
    return _FMT % x


def _load_config(args) -> ExperimentConfig:
    """The configuration document with the --seed and --out overrides merged
    in before it is built, so the load checks see them."""
    if args.config and args.preset:
        raise ValueError("pass either --config or --preset, not both")
    if args.config:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    elif args.preset:
        doc = preset(args.preset).to_dict()
    else:
        raise ValueError("one of --config or --preset is required")
    overrides = {key: value for key, value in (("seed", args.seed), ("output_dir", args.out))
                 if value is not None}
    return ExperimentConfig.from_dict(doc, **overrides)


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
        sinr = table.sinr_mc[name].mean(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            rx_snr_db = np.where(sinr > 0, 10.0 * np.log10(sinr), np.nan)
        # Python floats: formatting them is cheaper than formatting numpy scalars
        columns[name] = (table.nmse[name].tolist(), rx_snr_db.tolist(),
                         table.se_mc(name).sum(axis=1).tolist(),
                         table.se_det(name).sum(axis=1).tolist(),
                         _fmt(None if np.all(np.isnan(lb)) else float(np.nansum(lb))))
    for ell in range(table.horizon):
        for name in table.schemes:
            nmse, rx_snr_db, se_mc, se_det, se_lb = columns[name]
            yield [str(ell), name, _fmt(nmse[ell]), _fmt(rx_snr_db[ell]),
                   _fmt(se_mc[ell]), _fmt(se_det[ell]), se_lb]


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

    written.append(out / "design.csv")
    save_sequence_csv(written[-1], table.user_plans[0][config.designer].seq,
                      config.frame.build())

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
    """Design the configuration's first designed scheme for user 0's scene
    at the last operating point, as ``simulate``'s design.csv does."""
    cfg = _load_config(args)
    scene = sim.user_scene(cfg, 0, sim.user_angles(cfg)[0])
    _, frame = cfg.operating_points(scene.gamma)[-1]
    asn, seq, _ = sim.design_sweep([scene], [frame], cfg.designer)[0][0]
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    design_path = out / "design.csv"
    save_sequence_csv(design_path, seq, frame)
    summary = {
        "designer": cfg.designer,
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
# Each check is the one implementation of its claim: ``verify`` runs it once
# and the acceptance gate on its own data; a randomized check draws only from
# the generator it is given.


@dataclass(frozen=True)
class Measured:
    """A check's measured value and the threshold it must not exceed."""

    what: str
    value: float
    threshold: float

    @property
    def margin(self) -> float:
        return self.threshold - self.value

    @property
    def ok(self) -> bool:
        return bool(self.margin >= 0)  # a nan value fails

    def line(self, name: str) -> str:
        return (f"{'PASS' if self.ok else 'FAIL'} {name}: {self.what} = {self.value:.3g}, "
                f"threshold {self.threshold:.3g}, margin {self.margin:.3g}")


def random_valid_assignment(rng, g_len: int, m_p: int) -> IntervalAssignment:
    """Random interval counts over the divisor set of G that fill the
    G M_p pilot slots exactly."""
    budget, g = g_len * m_p, []
    for d in divisor_set(g_len)[:-1]:
        c = int(rng.integers(0, budget // (g_len // d) + 1))
        g += [d] * c
        budget -= c * (g_len // d)
    g += [g_len] * budget  # interval G takes one slot per frame
    return IntervalAssignment(g=tuple(g), n_d=len(g), objective=0.0)


def _settled_frames(designs, a: float, rho: float) -> list:
    """Each user's (G, r) posterior error variances over the last frame of
    about 60 / (1 - a^2) blocks of diagonal tracking, for (c, lam) in
    designs: index matrix c (G, M_p) sounding spectrum lam.  The users run
    side by side on a one-row stack, one tracker each."""
    g_len, m_p = designs[0][0].shape
    blocks = (int(np.ceil(60.0 / (1.0 - a * a))) // g_len + 2) * g_len  # whole frames
    row = [sim.Tracker("diag", m_p, lam, a, rho, sched=c - 1) for c, lam in designs]
    _, _, diag = sim.TrackerStack.of([row]).posteriors(blocks)
    return [diag[0, u, -g_len:, :len(lam)] for u, (_, lam) in enumerate(designs)]


def check_riccati_grid() -> Measured:
    """Closed-form floor against the Riccati iteration on a grid of a, lam,
    rho and g."""
    aa, ll, rr, gg = np.meshgrid([0.9, 0.99, 0.999, 0.9999, 0.99999],
                                 [0.01, 0.1, 1.0, 10.0, 100.0],
                                 [0.1, 1.0, 10.0, 100.0, 1000.0],
                                 [1.0, 2.0, 4.0, 8.0], indexing="ij")
    iterated, _ = riccati_iterate_oracle(ll, aa, rr, gg, tol=1e-13)
    worst = float(np.max(np.abs(min_ss_mse(ll, aa, rr, gg) - iterated)))
    return Measured("max |closed - iterated| floor over 500 cells", worst, 1e-9)


def check_monotonicity(rng) -> Measured:
    """Floor and ceiling are nondecreasing in the interval over the divisors
    of G = 32 for random (lam, a, rho) triples."""
    divisors = np.array(divisor_set(32), dtype=float)
    lam, a, rho = (rng.uniform(low, high, size=(1000, 1))
                   for low, high in ((1e-3, 100.0), (0.01, 0.99999), (1e-2, 1e3)))
    floors = min_ss_mse(lam, a, rho, divisors)
    ceils = max_ss_mse(floors, lam, a, divisors)
    drop = float(np.max(-np.diff(np.concatenate([floors, ceils]), axis=1))) + 0.0  # no -0
    return Measured("largest floor or ceiling drop to the next divisor over 1000 triples",
                    drop, 1e-12)


def check_construction(rng) -> Measured:
    """Random feasible assignments across G in {4, 8, 16, 32} construct index
    matrices that pass every structural invariant, as does the published
    G = 4, M_p = 3 example."""
    c_ref = np.array([[1, 1, 1, 1], [2, 3, 2, 3], [4, 5, 4, 6]]).T
    violations = len(sequence_invariant_violations(
        c_ref, (1, 2, 2, 2, 4, 4), FrameParams(g_len=4, m_p=3, m=8, n_d_max=6, rho=1.0)))
    built = 0
    while built < 40:
        g_len = int(rng.choice([4, 8, 16, 32]))
        m_p = int(rng.integers(1, 4))
        asn = random_valid_assignment(rng, g_len, m_p)
        frame = FrameParams(g_len=g_len, m_p=m_p, m=g_len * m_p + m_p + 1,
                            n_d_max=max(asn.n_d, 1), rho=1.0)
        if validate_assignment(asn, frame):
            continue
        seq = construct_sequence_matrix(asn, frame)
        violations += len(sequence_invariant_violations(seq.c, seq.g, frame))
        built += 1
    return Measured("invariant violations of 40 random index matrices and the published "
                    "G = 4 example", violations, 0)


def check_diag_full_equivalence(rng) -> Measured:
    """The diagonal tracker's posteriors and estimates, from the run's own
    recursion and step on its one-row stack, against the full-matrix Kalman
    reference on a channel it samples."""
    r_h = cm.one_ring_covariance(8, 0.3, 0.25, 1.0)
    stats = cm.ChannelStatistics.from_covariance(0.95, r_h)
    sched = np.array([[step % stats.rank, (step + 1) % stats.rank] for step in range(12)])
    diag = sim.TrackerStack.of([[sim.Tracker("diag", 2, stats.lam, stats.a, 3.0, sched=sched)]])
    _, _, lam_bars = diag.posteriors(len(sched))
    full = kalman.init(stats)
    chat = np.zeros((1, 1, 1, stats.rank), dtype=complex)  # one row, user and run
    h = kalman.stationary_channel(stats, rng)
    worst = 0.0
    for step, lam_bar in enumerate(lam_bars[0, 0]):
        s = np.sqrt(3.0) * stats.u[:, sched[step]]
        w = kalman.complex_normal(rng, 2)
        full = kalman.measurement_update(full, s, s.conj().T @ h + w)
        diag.step(chat, (stats.u.conj().T @ h)[None, None], w[None, None, None], step)
        p_diag = np.real(np.diag(stats.u.conj().T @ full.p_est @ stats.u))
        est_gap = np.abs(stats.u.conj().T @ full.h_hat - chat[0, 0, 0])
        worst = max(worst, float(np.max(np.abs(p_diag - lam_bar))), float(np.max(est_gap)))
        full = kalman.time_update(full, stats)
        h = kalman.evolve_channel(h, stats, rng)
    return Measured("max |diag - full| posterior variance or estimate over 12 blocks",
                    worst, 1e-10)


def check_sandwich(rng) -> Measured:
    """Every trained mode of the diagonal tracker, driven by random
    constructed designs, settles into its closed-form cycle: at the floor
    right after a pilot, at the ceiling g - 1 aging blocks later."""
    worst = 0.0
    for _ in range(4):
        a = float(rng.choice([0.9, 0.95]))
        rho = float(rng.uniform(1.0, 20.0))
        g_len = int(rng.choice([4, 8]))
        m_p = int(rng.integers(1, 3))
        asn = random_valid_assignment(rng, g_len, m_p)
        frame = FrameParams(g_len=g_len, m_p=m_p, m=g_len * m_p + m_p + 1,
                            n_d_max=max(asn.n_d, 1), rho=rho)
        if validate_assignment(asn, frame):
            continue
        c = construct_sequence_matrix(asn, frame).c
        lam = np.sort(rng.uniform(0.1, 3.0, size=asn.n_d + 2))[::-1]
        n_d, env = asn.n_d, profile(lam, a, rho, asn.g_padded(len(lam)))
        cycle = _settled_frames([(c, lam)], a, rho)[0][:, :n_d]
        sounded = (c[:, :, None] == np.arange(1, n_d + 1)).any(axis=1)  # (G, n_d)
        post = np.where(sounded, cycle, np.inf).min(axis=0)
        worst = max(worst, float(np.max(np.abs(post - env.lambda_lower[:n_d]))),
                    float(np.max(np.abs(cycle.max(axis=0) - env.lambda_upper[:n_d]))))
    return Measured("max gap to the closed-form floor or ceiling over the trained modes "
                    "of 4 designs", worst, 1e-6)


def check_sinr_bound(rng) -> Measured:
    """The closed-form steady-state SINR lower bound, as the run computes it
    (``simulate.steady_state``), stays below the deterministic SINR over the
    converged trailing frame of the diagonal trackers, for each user of
    random two-user scenes with random designs."""
    worst = -np.inf
    for _ in range(5):
        n_t = int(rng.choice([16, 24, 32]))
        a = float(rng.uniform(0.9, 0.99))
        rho = float(rng.uniform(0.5, 50.0))
        g_len = int(rng.choice([4, 8]))
        stats = []
        for _u in range(2):
            theta = float(rng.uniform(-0.9, 0.9))
            delta = float(rng.uniform(0.05, 0.3))
            stats.append(cm.ChannelStatistics.from_covariance(
                a, cm.one_ring_covariance(n_t, theta, delta, 1.0), 1e-8))
        scene = mu.MultiuserScene(users=[mu.UserLink(stats=s) for s in stats], m=4, m_p=1)
        trackers, designs = [], []
        for s in stats:
            while True:
                asn = random_valid_assignment(rng, g_len, 1)
                frame = FrameParams(g_len=g_len, m_p=1, m=4, n_d_max=max(asn.n_d, 1), rho=rho)
                if asn.n_d <= s.rank and not validate_assignment(asn, frame):
                    break
            trackers.append(sim.Tracker("diag", 1, s.lam, a, rho, design=asn))
            designs.append((construct_sequence_matrix(asn, frame).c, s.lam))
        frames = _settled_frames(designs, a, rho)
        det = mu.sinr_equivalent(*mu.sinr_inputs(scene, frames, frames), rho).min(axis=0)
        lb, _ = sim.steady_state(scene, trackers, rho)
        for u in range(2):
            worst = max(worst, lb[u] - det[u])
    return Measured("max (bound - min deterministic SINR over the converged frame) over "
                    "10 users", float(worst), 1e-6)


def check_determinism() -> Measured:
    """Two runs at one seed agree bit for bit, and the next seed changes
    every scheme's Monte Carlo mean (an ignored seed would not)."""
    cfg = preset("demo")
    scene = sim.build_scene(cfg.array.build(), cfg.ring.build(), cfg.frame.m,
                            cfg.rank_tol)
    frame = cfg.frame.build()
    first, again, other = (sim.run_schemes(scene, frame, ["min_max", "mp_fixed"], 40, seed, 24)
                           .sinr_mc for seed in (cfg.seed, cfg.seed, cfg.seed + 1))
    unstable = sum(not np.array_equal(first[name], again[name]) for name in first)
    ignored = sum(np.array_equal(first[name], other[name]) for name in first)
    return Measured("schemes not reproduced at one seed or unchanged at the next",
                    unstable + ignored, 0)


# (name, check, seed of the generator a randomized check draws from)
VERIFY_CHECKS = [
    ("riccati_closed_form_vs_iteration", check_riccati_grid, None),
    ("steady_state_monotonicity", check_monotonicity, 100),
    ("sequence_construction_invariants", check_construction, 200),
    ("diagonal_vs_full_kalman", check_diag_full_equivalence, 300),
    ("steady_state_sandwich", check_sandwich, 400),
    ("multiuser_sinr_lower_bound", check_sinr_bound, 500),
    ("seed_determinism", check_determinism, None),
]


def cmd_verify(args) -> int:
    """One line per check: its measured value, threshold and margin."""
    failures = 0
    for name, check, seed in VERIFY_CHECKS:
        try:
            result = check() if seed is None else check(np.random.default_rng(seed))
            ok, line = result.ok, result.line(name)
        except Exception as exc:  # a crashed check is a failure, not an error
            ok, line = False, f"FAIL {name}: raised {type(exc).__name__}: {exc}"
        print(line)
        failures += not ok
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
