"""Closed-form steady-state Kalman MSE per eigenmode under periodic training.

A mode with channel power lam, fading coefficient a and per-symbol training
power rho that is sounded every g blocks settles into a periodic error cycle.
The post-training floor (min_ss_mse) is the fixed point of the once-per-cycle
Riccati recursion; the pre-training ceiling (max_ss_mse) is the floor aged
through g - 1 prediction-only blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def min_ss_mse(lam, a, rho, g):
    """Post-training steady-state MSE of one trained eigenmode.

    Closed form: lam / (0.5*(1 + lam*rho) + sqrt((0.5*(1 + lam*rho))**2
    + a**(2g)/(1 - a**(2g)) * lam*rho)).  Accepts scalars or arrays.

    Boundary handling is analytic: a == 1 returns 0 whenever lam*rho > 0
    (a static mode is pinned down by repeated sounding), and a == 0
    collapses to the one-shot MMSE lam / (1 + lam*rho).
    """
    lam = np.asarray(lam, dtype=float)
    a = np.asarray(a, dtype=float)
    rho = np.asarray(rho, dtype=float)
    g = np.asarray(g, dtype=float)
    # each check is written to fail on nan
    if not ((lam > 0) & (lam < np.inf)).all():
        raise ValueError("eigenvalue must be positive and finite")
    if not ((a >= 0) & (a <= 1)).all():
        raise ValueError("temporal coefficient must lie in [0, 1]")
    if not (rho >= 0).all():
        raise ValueError("training power must be nonnegative")
    if not (g >= 1).all():
        raise ValueError("training interval must be >= 1")

    a2g = a ** (2.0 * g)
    half = 0.5 * (1.0 + lam * rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = a2g / (1.0 - a2g)  # +inf at a == 1
        out = lam / (half + np.sqrt(half * half + ratio * lam * rho))
    if (a2g >= 1.0).any():
        # at a == 1 the expression is 0 for lam*rho > 0 and 0/0 for rho == 0,
        # where no information ever arrives and the mode keeps its full power
        out = np.where(a2g >= 1.0, np.where(lam * rho > 0.0, 0.0, lam), out)
    return float(out) if out.ndim == 0 else out


def max_ss_mse(lam_floor, lam, a, g):
    """Pre-training steady-state MSE: the floor aged over g - 1 blocks."""
    lam_floor = np.asarray(lam_floor, dtype=float)
    lam = np.asarray(lam, dtype=float)
    a = np.asarray(a, dtype=float)
    g = np.asarray(g, dtype=float)
    # each check is written to fail on nan
    if not ((lam_floor >= 0) & (lam_floor < np.inf)).all():
        raise ValueError("lam_floor must be finite and nonnegative")
    if not ((lam > 0) & (lam < np.inf)).all():
        raise ValueError("eigenvalue lam must be positive and finite")
    if not ((a >= 0) & (a <= 1)).all():
        raise ValueError("temporal coefficient a must lie in [0, 1]")
    if not (g >= 1).all():
        raise ValueError("training interval g must be >= 1")
    decay = a ** (2.0 * (g - 1.0))
    out = decay * lam_floor + (1.0 - decay) * lam
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SteadyStateProfile:
    """Per-eigenmode steady-state MSE envelopes for one training plan.

    Modes carrying g = 0 are never sounded; both envelopes stay at the
    channel power lam for those.
    """

    lam: np.ndarray
    lambda_lower: np.ndarray
    lambda_upper: np.ndarray
    g: np.ndarray  # per-mode interval, 0 for untrained modes
    a: float
    rho: float
    n_d: int

    @property
    def trained(self) -> np.ndarray:
        return self.g > 0

    def upper_sum(self) -> float:
        return float(self.lambda_upper.sum())


def profiles(lams, a, rho, gs) -> list[SteadyStateProfile]:
    """Envelopes of C cells, cell c with its own spectrum lams[c], a[c],
    rho[c] and per-mode intervals gs[c], untrained modes padded at their
    full power.  One min_ss_mse and one max_ss_mse call over every cell's
    trained modes laid end to end, each beside its own cell's a and rho, so
    each cell's envelopes have the bits of its one-cell call."""
    if not lams:
        return []
    lams = [np.asarray(lam, dtype=float) for lam in lams]
    gs = [np.asarray(g, dtype=int) for g in gs]
    if any(g.shape != lam.shape for lam, g in zip(lams, gs)):
        raise ValueError("g must have one entry per eigenmode")
    trained = [g > 0 for g in gs]
    counts = [int(np.count_nonzero(t)) for t in trained]
    lam_t = np.concatenate([lam[t] for lam, t in zip(lams, trained)])
    g_t = np.concatenate([g[t] for g, t in zip(gs, trained)]).astype(float)
    a_t = np.repeat(np.asarray(a, dtype=float), counts)
    lower_t = min_ss_mse(lam_t, a_t, np.repeat(np.asarray(rho, dtype=float), counts), g_t)
    upper_t = max_ss_mse(lower_t, lam_t, a_t, g_t)
    out, end = [], 0
    for lam, g, t, n, a_c, rho_c in zip(lams, gs, trained, counts, a, rho):
        lower, upper = lam.copy(), lam.copy()
        lower[t], upper[t] = lower_t[end: end + n], upper_t[end: end + n]
        end += n
        out.append(SteadyStateProfile(lam=lam, lambda_lower=lower, lambda_upper=upper, g=g,
                                      a=float(a_c), rho=float(rho_c), n_d=n))
    return out


def profile(lam: np.ndarray, a: float, rho: float, g) -> SteadyStateProfile:
    """Vectorized envelopes with untrained modes padded at their full power
    (the one-cell ``profiles``)."""
    return profiles([lam], [a], [rho], [g])[0]


# live cells at or below which the oracle iterates each cell alone on
# Python floats: one numpy step over a few cells costs as much as tens of
# float steps.  On verify's 500-cell grid (2-core host) any value from 16 to
# 128 ran in 0.06-0.07 s, 8 in 0.10-0.11 s and the all-numpy loop in 0.3 s.
_TAIL_CELLS = 32


def riccati_iterate_oracle(lam, a, rho, g, tol: float = 1e-12, max_iter: int = 10**6):
    """Brute-force fixed point of the per-cycle Riccati recursion.

    Iterates x <- z / (rho*z + 1) with z = a**(2g)*x + (1 - a**(2g))*lam,
    starting from x = lam.  Each cell stops once its own successive change
    falls below tol.  The cells still moving are iterated as one array
    until at most ``_TAIL_CELLS`` of them are left; each of those then
    finishes alone on Python floats, with the same operations in the same
    order, so the values and counts do not depend on the switch.  Accepts
    scalars or broadcastable arrays; returns (value, iterations), the count
    being that of the slowest cell.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    lam = np.asarray(lam, dtype=float)
    a = np.asarray(a, dtype=float)
    rho = np.asarray(rho, dtype=float)
    g = np.asarray(g, dtype=float)
    a2g = a ** (2.0 * g)
    shape = np.broadcast_shapes(lam.shape, a2g.shape, rho.shape)
    flat = np.broadcast_to(lam, shape).flatten()  # a C-order copy; converged cells land here
    live = np.arange(flat.size)
    a2g_l = np.broadcast_to(a2g, shape).ravel()
    drift_l = (1.0 - a2g_l) * flat
    rho_l = np.broadcast_to(rho, shape).ravel()
    x = flat.copy()
    stuck = f"Riccati iteration did not converge within {max_iter} steps"
    it = 0
    while live.size > _TAIL_CELLS:
        if it >= max_iter:
            raise RuntimeError(stuck)
        it += 1
        z = a2g_l * x + drift_l
        x_next = z / (rho_l * z + 1.0)
        done = np.abs(x_next - x) < tol  # False on nan: such a cell never stops
        x = x_next
        if done.any():
            flat[live[done]] = x[done]
            moving = ~done
            live, x, a2g_l, drift_l, rho_l = (
                live[moving], x[moving], a2g_l[moving], drift_l[moving], rho_l[moving])
    slowest = it
    for cell, xc, a2g_c, drift_c, rho_c in zip(live.tolist(), x.tolist(), a2g_l.tolist(),
                                              drift_l.tolist(), rho_l.tolist()):
        for n in range(it + 1, max_iter + 1):
            z = a2g_c * xc + drift_c
            x_next = z / (rho_c * z + 1.0)
            if abs(x_next - xc) < tol:
                break
            xc = x_next
        else:
            raise RuntimeError(stuck)
        flat[cell] = x_next
        slowest = max(slowest, n)
    return (float(flat[0]), slowest) if not shape else (flat.reshape(shape), slowest)
