"""Multiuser matched-filter downlink analysis.

Realized SINR under worst-case uncorrelated noise (the per-realization
oracle of the Monte Carlo kernel), the pre-log weighted spectral
efficiency, and one evaluator of the deterministic equivalent over every
user at once: the per-block trace, the converged state and the closed-form
steady-state lower bound (its worst-case envelope state) all call it.  A
single-user link is the one-user case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel_model import ChannelStatistics
from .steady_state import SteadyStateProfile


@dataclass(frozen=True)
class UserLink:
    """One serviced user: its channel statistics."""

    stats: ChannelStatistics


@dataclass
class MultiuserScene:
    """Downlink scene: U single-antenna users sharing data symbols, with
    per-user pilots sounded over non-overlapping slots.  A single-user link
    is the one-user scene.  Only the scalar wrappers ``deterministic_sinr``
    and ``steady_state_sinr_lower_bound`` read the data power ``rho``; the
    run path passes rho per call, so one scene serves a whole SNR sweep."""

    users: list
    m: int
    m_p: int
    rho: float | None = None

    def __post_init__(self):
        if len(self.users) < 1:
            raise ValueError("need at least one user")
        if len(self.users) * self.m_p >= self.m:
            raise ValueError("U * M_p must stay below the block length M")
        self._coupling = {}

    @property
    def n_users(self) -> int:
        return len(self.users)

    @cached_property
    def cross(self) -> np.ndarray:
        """Read-only (U, U, r, r) stack of the cross products U_u^H U_v, which
        map user v's eigencoordinates into user u's, zero on the diagonal and
        in the padding to the largest rank r."""
        bases = [user.stats.u for user in self.users]
        r_max = max(b.shape[1] for b in bases)
        cross = np.zeros((self.n_users, self.n_users, r_max, r_max), dtype=complex)
        for u, bu in enumerate(bases):
            for v, bv in enumerate(bases):
                if u != v:
                    cross[u, v, :bu.shape[1], :bv.shape[1]] = bu.conj().T @ bv
        cross.flags.writeable = False
        return cross

    def coupling(self, v: int) -> np.ndarray:
        """Cached (U, r_v) leakage map of user v: row u = v is zero, and row u
        is lam_u^T |U_u^H U_v|^2, which weighs v's per-mode captured energy
        into the interference v's beam causes user u."""
        if v not in self._coupling:
            r_v = len(self.users[v].stats.lam)
            out = np.zeros((self.n_users, r_v))
            for u, user in enumerate(self.users):
                if u != v:
                    lam = user.stats.lam
                    out[u] = lam @ np.abs(self.cross[u, v, :len(lam), :r_v]) ** 2
            self._coupling[v] = out
        return self._coupling[v]


def instantaneous_sinr(h_list, h_hat_list, rho: float, u: int) -> float:
    """Worst-case-noise SINR of user u for one channel/estimate realization.

    Implements the desired power |h_hat_u^H h_hat_u|^2 against the
    self-estimation-error leakage, inter-user matched-filter interference
    (weighted by the realized per-user normalizations) and the noise floor
    1/(alpha_u^2 rho) with alpha_u = 1/(||h_hat_u|| sqrt(U)).
    """
    n_users = len(h_list)
    norms_sq = np.array([float(np.real(np.vdot(h, h))) for h in h_hat_list])
    if np.any(norms_sq == 0.0):
        raise ValueError("zero estimate in the scene")
    alpha_sq = 1.0 / (norms_sq * n_users)
    h_u = h_list[u]
    h_hat_u = h_hat_list[u]
    eta = np.abs(np.vdot(h_hat_u, h_hat_u)) ** 2
    err = h_u - h_hat_u
    sigma = 1.0 / (alpha_sq[u] * rho) + np.abs(np.vdot(err, h_hat_u)) ** 2
    for v in range(n_users):
        if v == u:
            continue
        sigma += (alpha_sq[v] / alpha_sq[u]) * np.abs(np.vdot(h_u, h_hat_list[v])) ** 2
    return float(eta / sigma)


def error_terms(lam, err_var, lower):
    """tr P and self-error term sum(err_var (lam - lower)) over the last axis
    of error variances whose captured energy is lam - lower (a posterior: lower = err_var)."""
    return err_var.sum(axis=-1), np.sum(err_var * (lam - lower), axis=-1)


def user_leakage(scene: MultiuserScene, v: int, diag) -> np.ndarray:
    """(..., U) leakage of user v into every user u: v's captured energy
    lam_v - diag, (..., r_v), through its coupling row u (zero at u = v)."""
    return (scene.coupling(v) @ (scene.users[v].stats.lam - diag)[..., None])[..., 0]


def sinr_inputs(scene: MultiuserScene, err_vars, lowers):
    """Per-user lam_sum, tr P, self-error term and (..., V, U) leakage of user
    v into user u of a state whose errors are ``err_vars`` and whose
    captured energy is lam - ``lowers``."""
    lams = [user.stats.lam for user in scene.users]
    err, self_err = (np.stack(t, axis=-1) for t in zip(*map(error_terms, lams, err_vars, lowers)))
    leak = np.stack([user_leakage(scene, v, lower) for v, lower in enumerate(lowers)], axis=-2)
    return np.array([lam.sum() for lam in lams]), err, self_err, leak


def sinr_equivalent(lam_sum, err, self_err, leak, rho) -> np.ndarray:
    """Large-array deterministic equivalent of every user's matched-filter
    SINR, (..., U), from per-user lam_sum = sum(lam), err = tr P and
    self-error term b, each (..., U), the leakage leak[..., v, u] of user v
    into user u (zero at v = u) and the data power rho, a scalar or an array
    that broadcasts against (..., U): with captured energy cap = lam_sum - err,
    cap_u^2 / (U cap_u/rho + max(b_u, 0) + sum_v (cap_u/cap_v) leak_vu), the
    interferers added in ascending v (alpha_v^2 = 1/(U cap_v) is the limit of
    the realized 1/(U ||h_hat_v||^2)).  It is zero where user u captures
    nothing, a user capturing nothing leaks nothing, and an exactly known
    channel without interference takes the form rho cap_u/U.
    """
    cap = lam_sum - err
    n_users = cap.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        c_term = np.zeros_like(cap)
        for v, leak_v in enumerate(np.moveaxis(leak, -2, 0)):  # one interferer at a time
            c_term += np.where(cap[..., v, None] > 0, cap / cap[..., v, None], 0.0) * leak_v
        den = n_users * cap / rho + np.maximum(self_err, 0.0) + c_term
        sinr = np.where((err == 0) & (c_term == 0), rho * cap / n_users, cap * cap / den)
    return np.where(cap > 0, sinr, 0.0)


def deterministic_sinr(scene: MultiuserScene, lambda_bars, u: int) -> float:
    """Deterministic SINR of user u for one posterior state, where
    lambda_bars[v] holds user v's per-mode error variances."""
    bars = [np.asarray(bar, dtype=float) for bar in lambda_bars]
    lam_sum, err, self_err, leak = sinr_inputs(scene, bars, bars)
    if err[u] >= lam_sum[u]:
        raise ValueError("user has no captured channel energy")
    return float(sinr_equivalent(lam_sum, err, self_err, leak, scene.rho)[u])


def spectral_efficiency(sinr, n_users: int, m_p: int, m: int):
    """Throughput in bits per channel use with the training pre-log factor,
    elementwise over an array of SINRs.

    The log is base 2: rates are reported in bits rather than nats.
    """
    if n_users * m_p >= m:
        raise ValueError("training does not fit in the block")
    return (1.0 - n_users * m_p / m) * np.log2(1.0 + sinr)


def steady_state_sinr_lower_bound(
    scene: MultiuserScene, profiles: list[SteadyStateProfile], u: int
) -> float:
    """Closed-form floor on the steady-state deterministic SINR of user u:
    the deterministic SINR at the least favourable envelope state, every
    user's error at its ceiling (captured energy ||lam - upper||_1 and
    self-error term ||upper (x) (lam - lower)||_1) and its leakage at the
    (lam - lower) ceiling.  Zero where user u's ceiling captures nothing.
    """
    if not np.any(profiles[u].trained):
        raise ValueError("user trains no modes; the bound is undefined")
    uppers, lowers = [p.lambda_upper for p in profiles], [p.lambda_lower for p in profiles]
    return float(sinr_equivalent(*sinr_inputs(scene, uppers, lowers), scene.rho)[u])
