#!/usr/bin/env python3
"""Steady-state comparison of every training scheme at one configuration.

Tabulates steady-state performance at the full-scale planar array
(--preset upa375, minutes) or the CI-scale linear array
(--preset ci_ula32, seconds).  The schemes left after --skip form the
``schemes`` list of one config document, run as ``pilotseq simulate`` runs
it.  Prints NMSE and received SNR per scheme (the dB of the tail-mean
SINR).
"""

import argparse
import time

import numpy as np

from pilotseq import simulate as sim
from pilotseq.config import ExperimentConfig, preset

SCHEMES = ["exhaustive", "perfect_csit", "min_max", "min_max_dft",
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
    doc["schemes"] = [s for s in SCHEMES if s not in args.skip]
    for key, value in (("seed", args.seed), ("mc_runs", args.mc_runs)):
        if value is not None:
            doc[key] = value
    try:  # the overrides go through the load checks, which name the field
        cfg = ExperimentConfig.from_dict(doc)
    except ValueError as exc:
        ap.error(str(exc))

    t0 = time.time()
    table, _ = sim.run_multiuser(cfg)
    plan = table.user_plans[0][cfg.designer]
    print(f"array rank {len(plan.lam)}, a = {plan.a:.6f}, trace = {plan.lam.sum():.4f}")
    print(f"{cfg.mc_runs} runs x {cfg.horizon_blocks} blocks in "
          f"{time.time() - t0:.1f}s\n")
    print(f"{'scheme':<14} {'NMSE':>8} {'rx SNR (dB)':>12}")
    for name in cfg.schemes:
        nmse = table.steady_state("nmse", name)
        snr = 10.0 * np.log10(table.steady_state("sinr_mc", name))
        print(f"{name:<14} {nmse:8.4f} {snr:12.2f}")


if __name__ == "__main__":
    main()
