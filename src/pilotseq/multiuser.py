"""Multiuser matched-filter downlink analysis.

Realized SINR under worst-case uncorrelated noise, its deterministic
equivalent driven only by per-user Kalman eigenvalue profiles, the pre-log
weighted spectral efficiency, and a closed-form steady-state SINR lower
bound built from the periodic-training MSE envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel_model import ChannelStatistics
from .steady_state import SteadyStateProfile


@dataclass(frozen=True)
class UserLink:
    """One serviced user: channel statistics plus its training plan."""

    stats: ChannelStatistics
    g: np.ndarray | None = None  # per-mode sounding intervals (0 = untrained)
    alpha_sq: float | None = None  # power normalization; None = derive


@dataclass
class MultiuserScene:
    """Downlink scene: U single-antenna users sharing data symbols of power
    rho, with per-user pilots sounded over non-overlapping slots."""

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
        self._weights = {}

    @property
    def n_users(self) -> int:
        return len(self.users)

    def cross_product(self, u: int, v: int) -> np.ndarray:
        """Cached U_u^H U_v, mapping user v's eigencoordinates into user u's."""
        key = (u, v)
        if key not in self._cross:
            self._cross[key] = self.users[u].stats.u.conj().T @ self.users[v].stats.u
        return self._cross[key]

    def cross_subspace(self, u: int, v: int) -> np.ndarray:
        """Cached |U_u^H U_v|^2, the eigenmode coupling weights."""
        key = (u, v)
        if key not in self._weights:
            self._weights[key] = np.abs(self.cross_product(u, v)) ** 2
        return self._weights[key]


def matched_filter_precoder(h_hat_list) -> np.ndarray:
    """Per-user matched filters stacked as columns, total power one."""
    n_users = len(h_hat_list)
    cols = []
    for h_hat in h_hat_list:
        norm = np.linalg.norm(h_hat)
        if norm == 0.0:
            raise ValueError("matched filter undefined for a zero estimate")
        cols.append(h_hat / (norm * np.sqrt(n_users)))
    return np.stack(cols, axis=1)


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


def deterministic_sinr(scene: MultiuserScene, lambda_bars, u: int) -> float:
    """Large-array deterministic equivalent of the matched-filter SINR.

    lambda_bars[v] holds user v's current posterior eigenmode MSE profile.
    The normalization is the trace form alpha_v^2 = 1/(U * tr(Lambda_v -
    LambdaBar_v)): the U factor keeps the total precoder power at one, and
    it is what the realized normalization 1/(||h_hat|| sqrt(U)) converges
    to.  Cross-user couplings reuse the cached subspace products.
    """
    captured = [
        np.asarray(scene.users[v].stats.lam, dtype=float) - np.asarray(lambda_bars[v], dtype=float)
        for v in range(scene.n_users)
    ]
    traces = np.array([c.sum() for c in captured])
    if traces[u] <= 0.0:
        raise ValueError("user has no captured channel energy")
    lam_u = scene.users[u].stats.lam
    a_term = traces[u] ** 2
    b_term = float(np.sum(np.asarray(lambda_bars[u]) * captured[u]))
    c_term = 0.0
    for v in range(scene.n_users):
        if v == u:
            continue
        weights = scene.cross_subspace(u, v)
        # alpha_v^2/alpha_u^2 = tr_u / tr_v under the trace normalization
        c_term += (traces[u] / traces[v]) * float(lam_u @ weights @ captured[v])
    noise = scene.n_users * traces[u] / scene.rho
    return float(a_term / (noise + b_term + c_term))


def spectral_efficiency(sinr: float, n_users: int, m_p: int, m: int) -> float:
    """Throughput in bits per channel use with the training pre-log factor.

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
    deterministic-equivalent convention.
    """
    caps = [p.lam - p.lambda_upper for p in profiles]  # worst captured energy
    s_min = np.array([c.sum() for c in caps])
    if not np.any(profiles[u].trained):
        raise ValueError("user trains no modes; the bound is undefined")
    if s_min[u] <= 0.0:
        raise ValueError("upper envelope leaves no captured energy")
    p_u = profiles[u]
    noise = scene.n_users * s_min[u] / scene.rho
    b_term = float(np.sum(p_u.lambda_upper * (p_u.lam - p_u.lambda_lower)))
    c_term = 0.0
    for v in range(scene.n_users):
        if v == u:
            continue
        weights = scene.cross_subspace(u, v)
        c_term += (s_min[u] / s_min[v]) * float(
            p_u.lam @ weights @ (profiles[v].lam - profiles[v].lambda_lower)
        )
    return float(s_min[u] ** 2 / (noise + b_term + c_term))
