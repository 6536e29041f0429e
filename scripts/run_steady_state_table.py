#!/usr/bin/env python3
"""Steady-state comparison of every training scheme at one configuration.

Tabulates steady-state performance at the full-scale planar array
(--preset upa375, minutes) or the CI-scale linear array
(--preset ci_ula32, seconds).  Prints NMSE and received SNR per scheme.
"""

import argparse
import time

import numpy as np

from pilotseq import simulate as sim
from pilotseq.config import ExperimentConfig, preset

SCHEMES = ["perfect_csit", "exhaustive", "min_max", "min_max_dft",
           "nd_fixed", "orthogonal", "random", "mp_fixed"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="ci_ula32")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--mc-runs", type=int, default=None)
    ap.add_argument("--skip", nargs="*", default=[],
                    help="scheme names to leave out")
    args = ap.parse_args()

    doc = preset(args.preset).to_dict()
    for key, value in (("seed", args.seed), ("mc_runs", args.mc_runs)):
        if value is not None:
            doc[key] = value
    try:  # the overrides go through the load checks, which name the field
        cfg = ExperimentConfig.from_dict(doc)
    except ValueError as exc:
        ap.error(str(exc))
    schemes = [s for s in SCHEMES if s not in args.skip]

    scene = sim.build_scene(cfg.array.build(), cfg.ring.build(), cfg.frame.m,
                            cfg.rank_tol)
    frame = cfg.frame.build()
    print(f"array rank {scene.r_sim} (design rank {scene.r_design}), "
          f"a = {scene.a:.6f}, trace = {scene.trace():.4f}")
    t0 = time.time()
    table = sim.run_schemes(scene, frame, schemes, cfg.mc_runs, cfg.seed,
                            cfg.horizon_blocks)
    print(f"{cfg.mc_runs} runs x {cfg.horizon_blocks} blocks in "
          f"{time.time() - t0:.1f}s\n")
    print(f"{'scheme':<14} {'NMSE':>8} {'rx SNR (dB)':>12}")
    for name in schemes:
        nmse = table.steady_state("nmse", name)
        snr = 10.0 * np.log10(table.steady_state("sinr_mc", name))
        print(f"{name:<14} {nmse:8.4f} {snr:12.2f}")


if __name__ == "__main__":
    main()
