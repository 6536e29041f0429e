"""Multiuser matched-filter downlink analysis.

Realized SINR under worst-case uncorrelated noise (the per-realization
oracle of the Monte Carlo kernel), its deterministic equivalent driven only
by per-user Kalman error traces, the pre-log weighted spectral efficiency,
and a closed-form steady-state SINR lower bound built from the
periodic-training MSE envelopes.  A single-user link is the one-user case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel_model import ChannelStatistics
from .steady_state import SteadyStateProfile


@dataclass(frozen=True)
class UserLink:
    """One serviced user: its channel statistics."""

    stats: ChannelStatistics


@dataclass
class MultiuserScene:
    """Downlink scene: U single-antenna users sharing data symbols of power
    rho, with per-user pilots sounded over non-overlapping slots.  A
    single-user link is the one-user scene."""

    users: list
    rho: float
    m: int
    m_p: int

    def __post_init__(self):
        if len(self.users) < 1:
            raise ValueError("need at least one user")
        if len(self.users) * self.m_p >= self.m:
            raise ValueError("U * M_p must stay below the block length M")
        self._cross = {}
        self._coupling = {}

    @property
    def n_users(self) -> int:
        return len(self.users)

    def cross_product(self, u: int, v: int) -> np.ndarray:
        """Cached U_u^H U_v, mapping user v's eigencoordinates into user u's."""
        key = (u, v)
        if key not in self._cross:
            self._cross[key] = self.users[u].stats.u.conj().T @ self.users[v].stats.u
        return self._cross[key]

    def coupling(self, v: int) -> np.ndarray:
        """Cached (U, r_v) leakage map of user v: row u = v is zero, and row u
        is lam_u^T |U_u^H U_v|^2, which weighs v's per-mode captured energy
        into the interference v's beam causes user u."""
        if v not in self._coupling:
            out = np.zeros((self.n_users, len(self.users[v].stats.lam)))
            for u in range(self.n_users):
                if u != v:
                    out[u] = self.users[u].stats.lam @ np.abs(self.cross_product(u, v)) ** 2
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


@dataclass
class ErrorTrace:
    """One user's posterior error covariances P over a horizon, reduced to
    the deterministic SINR's inputs (eigencoordinates, Lambda = diag(lam))."""

    err: np.ndarray  # (horizon,) tr P
    self_err: np.ndarray  # (horizon,) Re tr(P (Lambda - P)), the self-error term
    leak: np.ndarray  # (horizon, U) captured diag(Lambda - P) through coupling rows


def error_trace(lam, posteriors, coupling: np.ndarray) -> ErrorTrace:
    """Reduce a posterior trajectory block by block.  Each posterior is a
    vector of per-mode error variances (diag tracker, envelope state, zeros
    under perfect knowledge) or a full matrix, whose self-error term keeps
    the off-diagonal part; ``coupling`` is the user's leakage map."""
    err, self_err, leak = [], [], []
    for p in posteriors:
        if p.ndim == 1:
            d = p
            err.append(p.sum())
            self_err.append(np.sum(p * (lam - p)))
        else:
            d = np.diag(p)
            err.append(np.real(np.trace(p)))
            self_err.append(np.real(np.sum(d * lam) - np.sum(np.abs(p) ** 2)))
        leak.append(coupling @ (lam - d.real))
    return ErrorTrace(np.array(err, dtype=float), np.array(self_err, dtype=float),
                      np.array(leak))


def deterministic_sinr_trace(scene: MultiuserScene, traces: list, u: int) -> np.ndarray:
    """Large-array deterministic equivalent of user u's matched-filter SINR
    at every block of the per-user error traces.

    With captured energy cap_v = sum(lam_v) - tr P_v and the normalization
    alpha_v^2 = 1/(U cap_v), the limit of the realized 1/(U ||h_hat_v||^2):
    cap_u^2 / (U cap_u/rho + max(b_u, 0) + sum_v (cap_u/cap_v) c_vu), with
    self-error term b_u and leakage c_vu of user v.  It is zero where user
    u captures nothing, a user capturing nothing leaks nothing, and an
    exactly known channel without interference takes the form rho cap_u/U.
    """
    n = scene.n_users
    rho = scene.rho
    caps = [float(np.sum(user.stats.lam)) - t.err for user, t in zip(scene.users, traces)]
    cap = caps[u]
    c_term = 0.0
    for v in range(n):
        if v != u:
            ratio = np.divide(cap, caps[v], out=np.zeros_like(cap), where=caps[v] > 0)
            c_term = c_term + ratio * traces[v].leak[:, u]
    den = n * cap / rho + np.maximum(traces[u].self_err, 0.0) + c_term
    exact = (traces[u].err == 0) & (np.asarray(c_term) == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(exact, rho * cap / n, cap * cap / den)
    return np.where(cap > 0, sinr, 0.0)


def deterministic_sinr(scene: MultiuserScene, lambda_bars, u: int) -> float:
    """Deterministic SINR of user u for one posterior state, where
    lambda_bars[v] holds user v's per-mode error variances."""
    traces = [error_trace(user.stats.lam, [np.asarray(bar, dtype=float)], scene.coupling(v))
              for v, (user, bar) in enumerate(zip(scene.users, lambda_bars))]
    if traces[u].err[0] >= float(np.sum(scene.users[u].stats.lam)):
        raise ValueError("user has no captured channel energy")
    return float(deterministic_sinr_trace(scene, traces, u)[0])


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
    """Closed-form floor on the steady-state deterministic SINR of user u.

    Every profile quantity enters at its least favourable envelope: the
    captured energy at ||lam - upper||_1, the self-error term at
    ||upper (x) (lam - lower)||_1, and the interference with the other
    users' captured energy at its (lam - lower) ceiling.  Normalizations
    use alpha_v^2 = 1 / (U * ||lam_v - upper_v||_1), matching the
    deterministic-equivalent convention, and the bound is zero where the
    upper envelope leaves user u nothing captured.
    """
    caps = [p.lam - p.lambda_upper for p in profiles]  # worst captured energy
    s_min = np.array([c.sum() for c in caps])
    if not np.any(profiles[u].trained):
        raise ValueError("user trains no modes; the bound is undefined")
    s_u = s_min[u]
    if s_u <= 0.0:
        return 0.0
    p_u = profiles[u]
    noise = scene.n_users * s_u / scene.rho
    b_term = float(np.sum(p_u.lambda_upper * (p_u.lam - p_u.lambda_lower)))
    c_term = 0.0
    for v in range(scene.n_users):
        if v != u and s_min[v] > 0.0:
            c_term += (s_u / s_min[v]) * float(
                scene.coupling(v)[u] @ (profiles[v].lam - profiles[v].lambda_lower))
    return float(s_u * s_u / (noise + b_term + c_term))
