#!/usr/bin/env python3
"""Sum spectral efficiency versus SNR for the multiuser downlink.

Sweeps SNR = gamma * rho for several RF-chain budgets N_d and prints the
closed-form steady-state lower bound next to the deterministic and Monte
Carlo sums, with perfect CSIT as the reference.  Writes each budget's
``pilotseq simulate`` outputs, sweep.csv among them, to --out/nd{N_d}.
"""

import argparse
from pathlib import Path

import numpy as np

from pilotseq import simulate as sim
from pilotseq.cli import emit_outputs
from pilotseq.config import ExperimentConfig, preset


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/multiuser_sweep")
    ap.add_argument("--users", type=int, default=5)
    ap.add_argument("--nd", nargs="*", type=int, default=[4, 8, 16])
    ap.add_argument("--snr-db", nargs="*", type=float,
                    default=[-10, -5, 0, 5, 10, 15, 20])
    ap.add_argument("--mc-runs", type=int, default=200)
    ap.add_argument("--seed", type=int, default=4242)
    args = ap.parse_args()

    out = Path(args.out)
    doc = preset("multiuser_ula32").to_dict()
    try:  # the overrides go through the load checks, which name the field
        cfgs = {nd: ExperimentConfig.from_dict({
            **doc, "users": {**doc["users"], "count": args.users},
            "frame": {**doc["frame"], "n_d": nd}, "mc_runs": args.mc_runs,
            "seed": args.seed, "snr_sweep_db": list(args.snr_db),
            "output_dir": str(out / f"nd{nd}")}) for nd in args.nd}
    except ValueError as exc:
        ap.error(str(exc))
    header = f"{'SNR dB':>7}" + "".join(
        f"  Nd={nd}: lb/det/mc" + " " * 6 for nd in args.nd) + "  perfect"
    print(header)

    all_rows = {}
    for nd, cfg in cfgs.items():
        table, rows = sim.run_multiuser(cfg)
        all_rows[nd] = rows
        emit_outputs(table, cfg, sweep_rows=rows)

    for snr in args.snr_db:
        cells = [f"{snr:7.1f}"]
        perfect = None
        for nd in args.nd:
            rows = [r for r in all_rows[nd]
                    if r["snr_db"] == snr and r["scheme"] == "min_max"]
            lb = sum(r["se_lb"] for r in rows)
            det = sum(r["se_det"] for r in rows)
            mc = sum(r["se_mc"] for r in rows)
            cells.append(f"  {lb:5.2f}/{det:5.2f}/{mc:5.2f}")
            prows = [r for r in all_rows[nd]
                     if r["snr_db"] == snr and r["scheme"] == "perfect_csit"]
            if prows:
                perfect = sum(r["se_det"] for r in prows)
        cells.append(f"  {perfect:6.2f}" if perfect is not None else "")
        print("".join(cells))
    print(f"\nwrote outputs under {out}")


if __name__ == "__main__":
    main()
