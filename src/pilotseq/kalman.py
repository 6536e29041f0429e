"""Reference Kalman channel tracker for the block-fading AR(1) state-space
model, and the antenna-space channel samplers it is driven with.

The full-matrix recursion in antenna space accepts arbitrary training
matrices.  It is the oracle that tests and ``pilotseq verify`` check the
engine's eigencoordinate tracker (``simulate.TrackerStack``) against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel_model import ChannelStatistics


def complex_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Circular CN(0, 1) samples: variance split equally over re/im parts."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def stationary_channel(stats: ChannelStatistics, rng: np.random.Generator) -> np.ndarray:
    """One draw from the stationary distribution CN(0, R_h)."""
    b = complex_normal(rng, stats.rank)
    return stats.u @ (np.sqrt(stats.lam) * b)


def evolve_channel(
    h_prev: np.ndarray, stats: ChannelStatistics, rng: np.random.Generator
) -> np.ndarray:
    """Advance the AR(1) channel by one block, preserving CN(0, R_h)."""
    b = complex_normal(rng, stats.rank)
    innovation = stats.u @ (np.sqrt(stats.lam) * b)
    return stats.a * h_prev + np.sqrt(1.0 - stats.a**2) * innovation


@dataclass
class KalmanState:
    """Full-matrix tracker state for one user.

    h_hat is the posterior mean, p_est / p_pred the posterior and prior
    error covariances for the current block index.
    """

    h_hat: np.ndarray
    p_est: np.ndarray
    p_pred: np.ndarray


def init(stats: ChannelStatistics) -> KalmanState:
    """Zero estimate with the stationary covariance as prior uncertainty."""
    n = stats.n_t
    return KalmanState(
        h_hat=np.zeros(n, dtype=complex),
        p_est=stats.r_h.copy(),
        p_pred=stats.r_h.copy(),
    )


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.conj().T)


def measurement_update(state: KalmanState, s: np.ndarray, y: np.ndarray) -> KalmanState:
    """Condition on one block of pilots.

    The innovation Gramian S^H P S + I is Hermitian positive definite by
    construction, so the gain solve never meets a singular system.  A zero
    training matrix leaves the state untouched.
    """
    if s.size == 0 or not np.any(s):
        return KalmanState(state.h_hat.copy(), state.p_pred.copy(), state.p_pred.copy())
    ps = state.p_pred @ s
    gram = _symmetrize(s.conj().T @ ps + np.eye(s.shape[1]))
    gain = np.linalg.solve(gram, ps.conj().T).conj().T  # P S (S^H P S + I)^-1
    innovation = y - s.conj().T @ state.h_hat
    h_hat = state.h_hat + gain @ innovation
    p_est = _symmetrize(state.p_pred - gain @ ps.conj().T)
    return KalmanState(h_hat=h_hat, p_est=p_est, p_pred=state.p_pred.copy())


def time_update(state: KalmanState, stats: ChannelStatistics) -> KalmanState:
    """Propagate one block ahead through the AR(1) dynamics."""
    a = stats.a
    p_pred = _symmetrize(a * a * state.p_est + (1.0 - a * a) * stats.r_h)
    return KalmanState(
        h_hat=a * state.h_hat,
        p_est=state.p_est.copy(),
        p_pred=p_pred,
    )
