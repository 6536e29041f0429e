"""The benchmark's workloads, written against the public pilotseq API.

Each workload builds its inputs from the benchmark seed, runs one pass of
work (``run_pass`` untraced, ``traced_pass`` with a span around every call
into a pilotseq module), checks the outputs of a pass, and after a traced
run derives the per-layer metrics from the span totals plus probe calls
that repeat, one at a time, the calls a layer makes inside another layer.
Per-layer values are per pass; a layer the workload never calls reads 0.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from pathlib import Path

import numpy as np

from pilotseq import channel_model as cm
from pilotseq import cli
from pilotseq import multiuser as mu
from pilotseq import simulate as sim
from pilotseq import steady_state as ss
from pilotseq.config import preset
from pilotseq.sequence_design import (
    FrameParams,
    IntervalAssignment,
    construct_sequence_matrix,
    exhaustive_search,
    load_sequence_csv,
    min_max_design,
    sequence_csv_text,
    sequence_invariant_violations,
    validate_assignment,
)

from tracing import NULL_TRACER

LAYER_ZEROS = (
    "simulate.mc_s", "simulate.mc_diag_s", "simulate.mc_full_s",
    "simulate.mc_ns_per_run_block", "simulate.run_blocks", "simulate.innovation_mb",
    "simulate.plans_full_s", "simulate.plans_diag_s",
    "multiuser.det_sinr_calls",
    "sequence_design.exhaustive_s", "sequence_design.min_max_s",
    "sequence_design.construct_s", "sequence_design.designs",
    "steady_state.profile_s", "steady_state.oracle_s", "steady_state.oracle_iters",
    "cli.emit_s", "cli.verify_s",
)
COMPLEX_BYTES = 16
DET_PROBE_CALLS = 200
TAIL_FRAMES = 2  # the steady-state tail used by TraceTable.steady_state

# nondecreasing steady-state NMSE, as asserted by the ordering acceptance
# test; the step from exhaustive to min_max may be an equality
NMSE_ORDER = (("perfect_csit",), ("exhaustive",), ("min_max",), ("nd_fixed",),
              ("orthogonal", "random"), ("mp_fixed",))
# steady-state NMSE references of the 375-antenna acceptance test (+-0.02)
UPA375_NMSE = {"min_max": 0.04, "min_max_dft": 0.05, "nd_fixed": 0.05,
               "orthogonal": 0.13, "mp_fixed": 0.74, "perfect_csit": 0.00}
NMSE_TOL = 0.02


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def per_call_us(fn, calls: int = DET_PROBE_CALLS) -> float:
    """Median wall time of one call, in microseconds, over ``calls`` calls."""
    samples = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples)) * 1e6


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def finite_where_defined(rows, required, optional) -> list[str]:
    """Cells that break the CSV format: required columns finite, optional
    columns blank or finite."""
    bad = []
    for i, row in enumerate(rows):
        for col in required + optional:
            text = row[col]
            if text == "" and col in optional:
                continue
            try:
                ok = math.isfinite(float(text))
            except ValueError:
                ok = False
            if not ok:
                bad.append(f"row {i} {col}={text!r}")
    return bad


def tail_means(rows, column: str, tail: int) -> dict[str, float]:
    by_scheme: dict[str, list[float]] = {}
    for row in rows:
        by_scheme.setdefault(row["scheme"], []).append(float(row[column]))
    return {s: float(np.mean(v[-tail:])) for s, v in by_scheme.items()}


def nmse_order_check(nmse: dict[str, float]):
    groups = [[s for s in g if s in nmse] for g in NMSE_ORDER]
    groups = [g for g in groups if g]
    ok = True
    for lo, hi in zip(groups, groups[1:]):
        left = max(nmse[s] for s in lo)
        right = min(nmse[s] for s in hi)
        ok &= left <= right if (lo, hi) == (["exhaustive"], ["min_max"]) else left < right
    detail = " < ".join("/".join(f"{s}:{nmse[s]:.4f}" for s in g) for g in groups)
    return ("steady-state NMSE ordering", bool(ok), detail)


def design_file_check(path: Path, frame: FrameParams):
    seq = load_sequence_csv(path)
    asn = IntervalAssignment(g=seq.g, n_d=seq.n_d, objective=0.0)
    problems = validate_assignment(asn, frame) + sequence_invariant_violations(seq.c, seq.g, frame)
    return ("design.csv is a valid index matrix", not problems, "; ".join(problems) or f"g={seq.g}")


def scene_statistics(scene) -> cm.ChannelStatistics:
    return cm.ChannelStatistics(
        a=scene.a, r_h=(scene.u_sim * scene.lam_sim) @ scene.u_sim.conj().T,
        u=scene.u_sim, lam=scene.lam_sim, rank=scene.r_sim)


def channel_probe(array, ring, rank_tol: float) -> dict[str, float]:
    """Repeat the two channel_model calls build_scene makes."""
    (r_h, _), t_cov = timed(cm.build_covariance, array, ring)
    _, t_eig = timed(cm.eigendecompose, r_h, min(1e-12, rank_tol))
    return {"channel_model.covariance_s": t_cov, "channel_model.eig_s": t_eig}


def det_sinr_probe(scenes, frame: FrameParams) -> dict[str, float]:
    """Per-call cost of the deterministic SINR and its closed-form bound on
    the workload's scenes, each user trained with its min_max design."""
    stats = [scene_statistics(s) for s in scenes]
    scene_mu = mu.MultiuserScene(users=[mu.UserLink(stats=s) for s in stats],
                                 rho=frame.rho, m=frame.m, m_p=frame.m_p)
    profiles = []
    for s in scenes:
        asn = min_max_design(s.lam_sim[: s.r_design], s.a, frame.rho, frame)
        profiles.append(ss.profile(s.lam_sim, s.a, frame.rho, asn.g_padded(s.r_sim)))
    bars = [p.lambda_lower for p in profiles]
    return {
        "multiuser.det_sinr_us": per_call_us(lambda: mu.deterministic_sinr(scene_mu, bars, 0)),
        "multiuser.lower_bound_us": per_call_us(
            lambda: mu.steady_state_sinr_lower_bound(scene_mu, profiles, 0)),
    }


def dft_spectrum(scene) -> np.ndarray:
    """Projected spectrum the hybrid (``*_dft``) schemes design on."""
    if scene.axes is None:
        r_h = (scene.u_sim * scene.lam_sim) @ scene.u_sim.conj().T
        return cm.dft_approximation(r_h, scene.r_design).lambda_tilde
    return cm.dft_approximation_upa(scene.axes[0], scene.axes[1], scene.r_design).lambda_tilde


def designer_probe(spectra, a_values, frame: FrameParams) -> dict[str, float]:
    """Repeat the min_max design and construction a plan build makes."""
    t_design = t_construct = 0.0
    for lam, a in zip(spectra, a_values):
        asn, t = timed(min_max_design, lam, a, frame.rho, frame)
        t_design += t
        t_construct += timed(construct_sequence_matrix, asn, frame)[1]
    return {"sequence_design.min_max_s": t_design,
            "sequence_design.construct_s": t_construct,
            "sequence_design.designs": len(spectra)}


class Workload:
    name = ""
    presets: tuple = ()  # resolved by the set-up interpreters
    data_files = ("trace.csv", "sweep.csv", "design.csv")  # digested outputs

    def __init__(self, out_dir: Path):
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)

    def run_pass(self) -> dict:
        return self.traced_pass(NULL_TRACER)

    def traced_pass(self, tracer) -> dict:
        raise NotImplementedError

    def checks(self, result: dict) -> list[tuple[str, bool, str]]:
        raise NotImplementedError

    def quality(self, result: dict) -> dict[str, float]:
        raise NotImplementedError

    def layers(self, spans: dict[str, float]) -> dict[str, float]:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class SingleUserUpa375(Workload):
    """upa375 preset, all seven schemes, full horizon, reduced run count."""

    name = "su_upa375"
    presets = ("upa375",)
    schemes = ("min_max", "min_max_dft", "orthogonal", "random", "mp_fixed",
               "nd_fixed", "perfect_csit")
    full_kind = ("min_max_dft", "orthogonal", "random")

    def __init__(self, seed, tiny, out_dir):
        super().__init__(out_dir)
        cfg = preset("upa375")
        self.full_horizon = cfg.horizon_blocks
        cfg.seed = seed
        cfg.mc_runs = 2 if tiny else 16
        cfg.horizon_blocks = 320 if tiny else cfg.horizon_blocks
        cfg.output_dir = str(out_dir)
        cfg.threads = 1
        self.cfg = cfg
        self.frame = cfg.frame.build()

    def describe(self):
        return {"preset": "upa375", "schemes": list(self.schemes), "mc_runs": self.cfg.mc_runs,
                "horizon_blocks": self.cfg.horizon_blocks, "threads": 1}

    def traced_pass(self, tracer):
        cfg = self.cfg
        with tracer.span("simulate.build_scene"):
            scene = sim.build_scene(cfg.array.build(), cfg.ring.build(), cfg.frame.m,
                                    cfg.rank_tol)
        with tracer.span("simulate.run_schemes"):
            table = sim.run_schemes(scene, self.frame, list(self.schemes), cfg.mc_runs,
                                    cfg.seed, cfg.horizon_blocks, threads=1)
        with tracer.span("cli.emit_outputs"):
            files = cli.emit_outputs(table, cfg)
        self.scene = scene
        return {"files": files}

    def checks(self, result):
        rows = read_csv(self.out / "trace.csv")
        tail = TAIL_FRAMES * self.frame.g_len
        out = []
        expected = self.cfg.horizon_blocks * len(self.schemes)
        bad = finite_where_defined(rows, ["nmse", "rx_snr_db", "se_sum", "se_det"], ["se_lb"])
        out.append(("trace.csv finite where defined", len(rows) == expected and not bad,
                    f"{len(rows)}/{expected} rows; " + ("; ".join(bad[:3]) or "all finite")))
        nmse = tail_means(rows, "nmse", tail)
        out.append(nmse_order_check(nmse))
        if self.cfg.horizon_blocks == self.full_horizon:
            for scheme, ref in UPA375_NMSE.items():
                gap = abs(nmse[scheme] - ref)
                out.append((f"upa375 {scheme} NMSE within {NMSE_TOL} of {ref}",
                            gap <= NMSE_TOL, f"{nmse[scheme]:.4f}"))
        out.append(design_file_check(self.out / "design.csv", self.frame))
        return out

    def quality(self, result):
        rows = read_csv(self.out / "trace.csv")
        tail = TAIL_FRAMES * self.frame.g_len
        mc = tail_means(rows, "se_sum", tail)
        det = tail_means(rows, "se_det", tail)
        return {"mc_det_gap": max(abs(mc[s] - det[s]) / det[s] for s in mc)}

    def layers(self, spans):
        cfg, scene, frame = self.cfg, self.scene, self.frame
        horizon, runs = cfg.horizon_blocks, cfg.mc_runs
        out = dict.fromkeys(LAYER_ZEROS, 0)
        out["simulate.scene_s"] = spans["simulate.build_scene"]
        out["cli.emit_s"] = spans["cli.emit_outputs"]
        out["channel_model.r_sim"] = scene.r_sim
        out.update(channel_probe(cfg.array.build(), cfg.ring.build(), cfg.rank_tol))

        def scene_rng():  # the generator run_schemes hands to the plans
            ss_scene = np.random.SeedSequence(cfg.seed).spawn(2)[0]
            return np.random.Generator(np.random.PCG64(ss_scene))

        full = [s for s in self.schemes if s in self.full_kind]
        diag = [s for s in self.schemes if s not in self.full_kind]
        plan_t = {name: timed(sim.build_single_user_plans, scene, frame, horizon, [name],
                              scene_rng())[1] for name in self.schemes}
        out["simulate.plans_full_s"] = sum(plan_t[s] for s in full)
        out["simulate.plans_diag_s"] = sum(plan_t[s] for s in diag)
        out["simulate.mc_s"] = (spans["simulate.run_schemes"] - out["simulate.plans_full_s"]
                                - out["simulate.plans_diag_s"])
        for key, subset in (("simulate.mc_full_s", full), ("simulate.mc_diag_s", diag)):
            _, t_run = timed(sim.run_schemes, scene, frame, subset, runs, cfg.seed, horizon,
                             threads=1)
            out[key] = t_run - sum(plan_t[s] for s in subset)
        run_blocks = runs * horizon * len(self.schemes)
        out["simulate.run_blocks"] = run_blocks
        out["simulate.mc_ns_per_run_block"] = out["simulate.mc_s"] / run_blocks * 1e9
        out["simulate.innovation_mb"] = (min(runs, sim.CHUNK_RUNS) * horizon * scene.r_sim
                                         * COMPLEX_BYTES / 1e6)
        out.update(det_sinr_probe([scene], frame))
        out.update(designer_probe([scene.lam_sim[: scene.r_design], dft_spectrum(scene)],
                                  [scene.a, scene.a], frame))
        return out


class MultiuserSweep(Workload):
    """multiuser_ula32 preset: five users, seven SNR points, diag schemes."""

    name = "mu_ula32_sweep"
    presets = ("multiuser_ula32",)

    def __init__(self, seed, tiny, out_dir):
        super().__init__(out_dir)
        cfg = preset("multiuser_ula32")
        cfg.seed = seed  # also places the users in the sector
        cfg.mc_runs = 4 if tiny else 32
        if tiny:
            cfg.horizon_blocks = 64
            cfg.snr_sweep_db = cfg.snr_sweep_db[:2]
        cfg.output_dir = str(out_dir)
        cfg.threads = 1
        self.cfg = cfg
        self.schemes = [cfg.designer] + [b for b in cfg.baselines
                                         if b in sim.MU_SCHEMES and b != cfg.designer]

    def describe(self):
        cfg = self.cfg
        return {"preset": "multiuser_ula32", "users": cfg.users.count, "schemes": self.schemes,
                "snr_sweep_db": cfg.snr_sweep_db, "mc_runs": cfg.mc_runs,
                "horizon_blocks": cfg.horizon_blocks, "threads": 1}

    def _frame(self, snr_db: float, gamma: float) -> FrameParams:
        f = self.cfg.frame
        return FrameParams(g_len=f.g, m_p=f.m_p, m=f.m, n_d_max=f.n_d,
                           rho=10.0 ** (snr_db / 10.0) / gamma)

    def run_pass(self):
        """What ``pilotseq simulate --preset multiuser_ula32`` runs."""
        table, rows = sim.run_multiuser(self.cfg)
        return {"files": cli.emit_outputs(table, self.cfg, sweep_rows=rows)}

    def traced_pass(self, tracer):
        """run_multiuser rebuilt from its public calls, one span per SNR point."""
        cfg = self.cfg
        with tracer.span("simulate.build_scene"):
            scenes, thetas = sim.multiuser_scenes_from_config(cfg)
        rows = []
        table = None
        for snr_db in cfg.snr_sweep_db:
            frame = self._frame(snr_db, scenes[0].gamma)
            with tracer.span("simulate.run_multiuser_scene"):
                table = sim.run_multiuser_scene(scenes, frame, self.schemes, cfg.mc_runs,
                                                cfg.seed, cfg.horizon_blocks, cfg.threads)
            tail = TAIL_FRAMES * frame.g_len
            for name in self.schemes:
                se_mc = table.se_mc(name)[-tail:].mean(axis=0)
                se_det_tail = table.se_det(name)[-tail:].mean(axis=0)
                se_det_ss = table.se_det_ss(name)
                se_lb = table.se_lb(name)
                for u in range(table.n_users):
                    det = se_det_ss[u] if np.isfinite(se_det_ss[u]) else se_det_tail[u]
                    rows.append(dict(snr_db=float(snr_db), scheme=name, user=u,
                                     se_mc=float(se_mc[u]), se_det=float(det),
                                     se_lb=float(se_lb[u])))
        with tracer.span("cli.emit_outputs"):
            files = cli.emit_outputs(table, cfg, sweep_rows=rows)
        self.scenes, self.thetas = scenes, thetas
        return {"files": files}

    def checks(self, result):
        cfg = self.cfg
        n_users = cfg.users.count
        out = []
        trace = read_csv(self.out / "trace.csv")
        expected = cfg.horizon_blocks * len(self.schemes)
        bad = finite_where_defined(trace, ["nmse", "rx_snr_db", "se_sum", "se_det"], ["se_lb"])
        out.append(("trace.csv finite where defined", len(trace) == expected and not bad,
                    f"{len(trace)}/{expected} rows; " + ("; ".join(bad[:3]) or "all finite")))
        sweep = read_csv(self.out / "sweep.csv")
        expected = len(cfg.snr_sweep_db) * len(self.schemes) * n_users
        bad = finite_where_defined(sweep, ["snr_db", "se_mc", "se_det"], ["se_lb"])
        out.append(("sweep.csv finite where defined", len(sweep) == expected and not bad,
                    f"{len(sweep)}/{expected} rows; " + ("; ".join(bad[:3]) or "all finite")))
        for row in sweep:
            if row["se_lb"] == "":
                continue
            margin = float(row["se_det"]) + 1e-6 - float(row["se_lb"])
            out.append((f"se_lb <= se_det at {row['snr_db']} dB, {row['scheme']}, user "
                        f"{row['user']}", margin >= 0.0, f"margin {margin:.3g}"))
        out.append(nmse_order_check(
            tail_means(trace, "nmse", TAIL_FRAMES * cfg.frame.g)))
        out.append(design_file_check(self.out / "design.csv", cfg.frame.build()))
        return out

    def quality(self, result):
        sums: dict[tuple, list[float]] = {}
        for row in read_csv(self.out / "sweep.csv"):
            acc = sums.setdefault((row["snr_db"], row["scheme"]), [0.0, 0.0])
            acc[0] += float(row["se_mc"])
            acc[1] += float(row["se_det"])
        return {"mc_det_gap": max(abs(mc - det) / det for mc, det in sums.values())}

    def layers(self, spans):
        cfg, scenes = self.cfg, self.scenes
        horizon, runs, n_users = cfg.horizon_blocks, cfg.mc_runs, len(scenes)
        n_snr, n_schemes = len(cfg.snr_sweep_db), len(self.schemes)
        out = dict.fromkeys(LAYER_ZEROS, 0)
        out["simulate.scene_s"] = spans["simulate.build_scene"]
        out["cli.emit_s"] = spans["cli.emit_outputs"]
        out["channel_model.r_sim"] = sum(s.r_sim for s in scenes)
        array = cfg.array.build()
        for theta in self.thetas:
            for key, t in channel_probe(array, cfg.ring.build(theta_h_deg=theta),
                                        cfg.rank_tol).items():
                out[key] = out.get(key, 0.0) + t
        rng = np.random.Generator(np.random.PCG64(0))  # diag schemes draw nothing
        frames = [self._frame(snr, scenes[0].gamma) for snr in cfg.snr_sweep_db]
        out["simulate.plans_diag_s"] = sum(
            timed(sim.build_single_user_plans, s, f, horizon, self.schemes, rng)[1]
            for f in frames for s in scenes)
        # every multiuser scheme is diag or perfect; the deterministic
        # equivalents computed inside the run stay in mc_s
        out["simulate.mc_s"] = spans["simulate.run_multiuser_scene"] - out["simulate.plans_diag_s"]
        out["simulate.mc_diag_s"] = out["simulate.mc_s"]
        run_blocks = n_snr * runs * horizon * n_schemes * n_users
        out["simulate.run_blocks"] = run_blocks
        out["simulate.mc_ns_per_run_block"] = out["simulate.mc_s"] / run_blocks * 1e9
        out["simulate.innovation_mb"] = (min(runs, sim.CHUNK_RUNS) * horizon
                                         * sum(s.r_sim for s in scenes) * COMPLEX_BYTES / 1e6)
        # one deterministic SINR per (SNR point, scheme, user) and block, plus
        # one steady-state value per (SNR point, scheme, user)
        out["multiuser.det_sinr_calls"] = n_snr * n_schemes * n_users * (horizon + 1)
        out.update(det_sinr_probe(scenes, frames[-1]))
        for f in frames:  # the designed scheme (min_max) plans every user per SNR point
            probe = designer_probe([s.lam_sim[: s.r_design] for s in scenes],
                                   [s.a for s in scenes], f)
            for key, t in probe.items():
                out[key] += t
        return out


class DesignGrid(Workload):
    """Both designers over a frame grid on two spectra, plus ``pilotseq verify``."""

    name = "design_grid"
    presets = ("upa375", "ci_ula32")
    data_files = ("grid.csv", "design.csv")
    # (G, M_p) cells: G * M_p <= 64 on the 49-mode upa375 spectrum and
    # <= 128 on the 14-mode ci_ula32 spectrum keep every enumeration under
    # about 0.15 s, so a pass stays near 3 s
    cells = {
        "upa375": [(g, m) for g in (16, 32, 64, 128) for m in (1, 2, 3, 4) if g * m <= 64],
        "ci_ula32": [(g, m) for g in (16, 32, 64, 128) for m in (1, 2, 3, 4) if g * m <= 128],
    }
    tiny_cells = {"upa375": [(16, 1), (16, 2)], "ci_ula32": [(16, 1), (32, 1)]}

    def __init__(self, seed, tiny, out_dir):
        super().__init__(out_dir)
        self.cfgs = {name: preset(name) for name in self.presets}
        rng = np.random.default_rng(seed)
        self.rhos = sorted(float(r) for r in 10.0 ** rng.uniform(-1.0, 2.0, size=1 if tiny else 3))
        self.grid = self.tiny_cells if tiny else self.cells
        self.run_verify = not tiny

    def describe(self):
        return {"spectra": list(self.presets), "cells": {k: [list(c) for c in v]
                                                         for k, v in self.grid.items()},
                "rho": self.rhos, "verify": self.run_verify}

    def traced_pass(self, tracer):
        designs = []
        scenes = {}
        for name, cfg in self.cfgs.items():
            with tracer.span("simulate.build_scene"):
                scene = sim.build_scene(cfg.array.build(), cfg.ring.build(), cfg.frame.m,
                                        cfg.rank_tol)
            scenes[name] = scene
            lam = scene.lam_sim[: scene.r_design]
            for g_len, m_p in self.grid[name]:
                for rho in self.rhos:
                    frame = FrameParams(g_len=g_len, m_p=m_p, m=cfg.frame.m,
                                        n_d_max=cfg.frame.n_d, rho=rho)
                    with tracer.span("sequence_design.exhaustive_search"):
                        ex = exhaustive_search(lam, scene.a, rho, frame)
                    with tracer.span("sequence_design.min_max_design"):
                        mm = min_max_design(lam, scene.a, rho, frame)
                    for designer, asn in (("exhaustive", ex), ("min_max", mm)):
                        with tracer.span("sequence_design.construct_sequence_matrix"):
                            seq = construct_sequence_matrix(asn, frame)
                        with tracer.span("steady_state.profile"):
                            prof = ss.profile(lam, scene.a, rho, asn.g_padded(len(lam)))
                        designs.append(dict(spectrum=name, frame=frame, designer=designer,
                                            asn=asn, seq=seq, rank=len(lam),
                                            upper=prof.upper_sum()))
        verify_rc, verify_text = None, ""
        if self.run_verify:
            buf = io.StringIO()
            with tracer.span("cli.verify"), contextlib.redirect_stdout(buf):
                verify_rc = cli.main(["verify"])
            verify_text = buf.getvalue()
        files = self._write(designs)
        self.scenes = scenes
        return {"files": files, "designs": designs, "verify_rc": verify_rc,
                "verify": verify_text}

    def _write(self, designs) -> list[Path]:
        grid_path = self.out / "grid.csv"
        design_path = self.out / "design.csv"
        with open(grid_path, "w", encoding="utf-8", newline="\n") as grid, \
                open(design_path, "w", encoding="utf-8", newline="\n") as mats:
            grid.write("spectrum,G,Mp,rho,designer,n_d,g,objective,upper_sum\n")
            for d in designs:
                f, asn = d["frame"], d["asn"]
                grid.write(f"{d['spectrum']},{f.g_len},{f.m_p},{f.rho!r},{d['designer']},"
                           f"{asn.n_d},{'-'.join(map(str, asn.g))},{asn.objective!r},"
                           f"{d['upper']!r}\n")
                mats.write(f"# spectrum={d['spectrum']} designer={d['designer']} rho={f.rho!r}\n")
                mats.write(sequence_csv_text(d["seq"], f))
        return [grid_path, design_path]

    def checks(self, result):
        out = []
        designs = result["designs"]
        for d in designs:
            f = d["frame"]
            problems = (validate_assignment(d["asn"], f, rank=d["rank"])
                        + sequence_invariant_violations(d["seq"].c, d["seq"].g, f))
            out.append((f"{d['designer']} design valid on {d['spectrum']} G={f.g_len} "
                        f"Mp={f.m_p} rho={f.rho:.3g}", not problems,
                        "; ".join(problems) or f"n_d={d['asn'].n_d}"))
        for ex, mm in zip(designs[0::2], designs[1::2]):
            f = ex["frame"]
            slack = mm["asn"].objective - ex["asn"].objective
            out.append((f"exhaustive <= min_max on {ex['spectrum']} G={f.g_len} Mp={f.m_p} "
                        f"rho={f.rho:.3g}", slack >= -1e-12 * abs(ex["asn"].objective),
                        f"min_max - exhaustive = {slack:.3g}"))
        if self.run_verify:
            out.append(("pilotseq verify exits 0", result["verify_rc"] == 0,
                        result["verify"].strip().replace("\n", " | ")))
        return out

    def quality(self, result):
        designs = result["designs"]
        gaps = [(mm["asn"].objective - ex["asn"].objective) / ex["asn"].objective
                for ex, mm in zip(designs[0::2], designs[1::2])]
        return {"design_gap": float(np.mean(gaps))}

    def layers(self, spans):
        out = dict.fromkeys(LAYER_ZEROS, 0)
        out["simulate.scene_s"] = spans["simulate.build_scene"]
        out["sequence_design.exhaustive_s"] = spans["sequence_design.exhaustive_search"]
        out["sequence_design.min_max_s"] = spans["sequence_design.min_max_design"]
        out["sequence_design.construct_s"] = spans["sequence_design.construct_sequence_matrix"]
        out["sequence_design.designs"] = 2 * sum(len(c) for c in self.grid.values()) * len(self.rhos)
        out["steady_state.profile_s"] = spans["steady_state.profile"]
        out["cli.verify_s"] = spans.get("cli.verify", 0.0)
        out["channel_model.r_sim"] = sum(s.r_sim for s in self.scenes.values())
        for name, cfg in self.cfgs.items():
            for key, t in channel_probe(cfg.array.build(), cfg.ring.build(),
                                        cfg.rank_tol).items():
                out[key] = out.get(key, 0.0) + t
        if self.run_verify:
            # the closed-form-vs-iteration grid that verify's first check iterates
            grids = np.meshgrid([0.9, 0.99, 0.999, 0.9999, 0.99999],
                                [0.01, 0.1, 1.0, 10.0, 100.0],
                                [0.1, 1.0, 10.0, 100.0, 1000.0],
                                [1.0, 2.0, 4.0, 8.0], indexing="ij")
            aa, ll, rr, gg = grids
            (_, iters), t = timed(ss.riccati_iterate_oracle, ll, aa, rr, gg, tol=1e-13)
            out["steady_state.oracle_s"] = t
            out["steady_state.oracle_iters"] = iters
        up = self.cfgs["upa375"]
        out.update(det_sinr_probe([self.scenes["upa375"]], up.frame.build()))
        return out


WORKLOADS = {cls.name: cls for cls in (SingleUserUpa375, MultiuserSweep, DesignGrid)}
