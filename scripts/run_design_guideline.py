#!/usr/bin/env python3
"""How the optimized sounding dimension reacts to power and mobility.

Sweeps the training power and user speed at a fixed frame and reports the
optimized number of distinct sounding directions n_d* together with the
envelope-predicted NMSE: more power or less mobility pushes the design to
sample a broader subspace.  Each cell shows the greedy min-max design's
n_d* and NMSE, then the exact (exhaustive) optimum's n_d* and how far the
greedy objective sits above it, in percent.  Each speed's channel scene is
built once, and its SNR cells are designed in one batched call per
designer (``sequence_design.design_cells``).
"""

import argparse

import numpy as np

from pilotseq import channel_model as cm
from pilotseq import sequence_design as sd
from pilotseq import steady_state as ss
from pilotseq import simulate as sim


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-t", type=int, default=64)
    ap.add_argument("--g", type=int, default=32)
    ap.add_argument("--m-p", type=int, default=1)
    ap.add_argument("--d-s", type=float, default=150.0)
    ap.add_argument("--snr-db", nargs="*", type=float,
                    default=[-10, -5, 0, 5, 10, 15, 20])
    ap.add_argument("--v-kmh", nargs="*", type=float, default=[3.0, 30.0])
    args = ap.parse_args()

    heads = [f"  v={v:g}km/h: n_d*, NMSE, exact n_d*, gap %" for v in args.v_kmh]
    columns = []  # per speed, one cell string per SNR point
    for v, head in zip(args.v_kmh, heads):
        ring = cm.OneRingGeometry(d_s=args.d_s, d_r=30.0, h=60.0,
                                  theta_h=np.pi / 6, v=v / 3.6)
        block_len = 5
        scene = sim.build_scene(cm.ArrayGeometry(1, args.n_t), ring, block_len)
        rhos = [10.0 ** (snr / 10.0) / scene.gamma for snr in args.snr_db]
        frame = sd.FrameParams(g_len=args.g, m_p=args.m_p, m=5,
                               n_d_max=args.g * args.m_p, rho=0.0)  # each cell has its rho
        lams = [scene.lam_sim[: scene.r_design]] * len(rhos)
        a = [scene.a] * len(rhos)
        greedy = sd.design_cells("min_max", lams, a, rhos, frame)
        exact = sd.design_cells("exhaustive", lams, a, rhos, frame)
        profiles = ss.profiles([scene.lam_sim] * len(rhos), a, rhos,
                               [asn.g_padded(scene.r_sim) for asn in greedy])
        cells = []
        for asn, best, prof in zip(greedy, exact, profiles):
            nmse = prof.upper_sum() / scene.trace()
            gap = 100.0 * (asn.objective / best.objective - 1.0)
            cells.append(f"{asn.n_d}, {nmse:.4f}, {best.n_d}, {gap:.3f}".rjust(len(head)))
        columns.append(cells)
    print(f"{'SNR dB':>7}" + "".join(heads))
    for snr, row in zip(args.snr_db, zip(*columns)):
        print(f"{snr:7.1f}" + "".join(row))

if __name__ == "__main__":
    main()
