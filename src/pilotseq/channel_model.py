"""Spatially correlated channel statistics for uniform planar arrays, a
uniform linear array being the one-row case.

Builds one-ring covariance matrices, Gauss-Markov temporal correlation
coefficients, covariance eigensystems (a planar array's from the eigensystems
of its two axis factors) and the per-axis DFT approximation of the eigenbasis
of large Toeplitz covariances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SPEED_OF_LIGHT = 299792458.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class ArrayGeometry:
    """Transmit array layout: an n_v x n_h planar grid; a ULA is the one-row grid."""

    n_v: int
    n_h: int
    spacing_over_wavelength: float = 0.5

    def __post_init__(self):
        if self.n_v < 1 or self.n_h < 1:
            raise ValueError("n_v and n_h must be >= 1")
        if self.spacing_over_wavelength <= 0:
            raise ValueError("spacing_over_wavelength must be positive")

    @property
    def n_t(self) -> int:
        return self.n_v * self.n_h


@dataclass(frozen=True)
class OneRingGeometry:
    """Scattering-ring geometry and mobility parameters for one user.

    Distances are in meters, angles in radians, f_c in Hz, t_s in seconds
    and v in m/s.
    """

    d_s: float = 100.0
    d_r: float = 30.0
    h: float = 60.0
    d_0: float = 30.0
    alpha_0: float = 3.8
    theta_h: float = 0.0  # horizontal AoA
    f_c: float = 2.5e9
    t_s: float = 100e-6
    v: float = 3.0 / 3.6

    def __post_init__(self):
        if not (self.d_s > self.d_r > 0):
            raise ValueError("need d_s > d_r > 0")
        if self.h <= 0 or self.d_0 <= 0 or self.alpha_0 <= 0:
            raise ValueError("h, d_0, alpha_0 must be positive")
        if not (-np.pi / 3 < self.theta_h < np.pi / 3):
            raise ValueError("theta_h must lie in (-pi/3, pi/3)")
        if self.v < 0:
            raise ValueError("v must be nonnegative")


def path_loss(geom: OneRingGeometry) -> float:
    """Distance-based propagation gain in (0, 1]."""
    return 1.0 / (1.0 + (geom.d_s / geom.d_0) ** geom.alpha_0)


def one_ring_params(geom: OneRingGeometry) -> tuple[float, float, float]:
    """Angle spreads and elevation AoA (delta_v, theta_v, delta_h) in radians."""
    hi = np.arctan((geom.d_s + geom.d_r) / geom.h)
    lo = np.arctan((geom.d_s - geom.d_r) / geom.h)
    delta_v = 0.5 * (hi - lo)
    theta_v = 0.5 * (hi + lo)
    delta_h = np.arctan(geom.d_r / geom.d_s)
    return float(delta_v), float(theta_v), float(delta_h)


# Bytes of integrand values one group of lags may hold: at m panels a group
# holds two (lags, m + 1) complex arrays at once, so it keeps at most
# _QUADRATURE_GROUP_BYTES // (32 * (m + 1)) lags.
_QUADRATURE_GROUP_BYTES = 8 << 20


def _simpson_rows(values: np.ndarray, h: float) -> np.ndarray:
    # composite Simpson of each row over an even number of panels
    return (h / 3.0) * (
        values[:, 0]
        + values[:, -1]
        + 4.0 * values[:, 1:-1:2].sum(axis=1)
        + 2.0 * values[:, 2:-2:2].sum(axis=1)
    )


def _one_ring_integrals(
    n: int, kappa: float, lo: float, hi: float, tol: float, max_panels: int
) -> np.ndarray:
    """Integrals over [lo, hi] of exp(-j*pi*k*kappa*sin(xi)) for k = 1..n-1,
    entry k - 1 for lag k (see one_ring_covariance)."""
    out = np.empty(n - 1, dtype=complex)
    todo = np.arange(1, n)
    width = _QUADRATURE_GROUP_BYTES // (32 * 17)  # the most lags that fit at 16 panels
    while todo.size:
        lags, todo = todo[:width], todo[width:]
        coef = -1j * np.pi * lags * kappa
        m = 16
        vals = np.multiply(coef[:, None], np.sin(np.linspace(lo, hi, m + 1)))
        np.exp(vals, out=vals)
        s_prev = _simpson_rows(vals, (hi - lo) / m)
        while lags.size:
            m *= 2
            if m > max_panels:
                raise QuadratureError(
                    f"quadrature did not converge within {max_panels} panels"
                )
            cap = max(1, _QUADRATURE_GROUP_BYTES // (32 * (m + 1)))
            if lags.size > cap:
                # the highest live lags start over in a later, narrower group
                todo = np.concatenate((lags[cap:], todo))
                width = cap
                lags, coef, vals, s_prev = lags[:cap], coef[:cap], vals[:cap], s_prev[:cap]
            # the even points of m panels are the points of m / 2 panels
            fine = np.empty((lags.size, m + 1), dtype=complex)
            fine[:, ::2] = vals
            del vals  # the dels free each level before the next one is made
            sin_odd = np.sin(np.linspace(lo, hi, m + 1))[1::2]
            np.multiply(coef[:, None], sin_odd, out=fine[:, 1::2])
            np.exp(fine[:, 1::2], out=fine[:, 1::2])
            s = _simpson_rows(fine, (hi - lo) / m)
            step = s - s_prev
            # abs() of one complex value is libm's hypot; np.abs of a complex
            # array can differ from it in the last bit, np.hypot cannot
            done = np.hypot(step.real, step.imag) / 15.0 < tol
            out[lags[done] - 1] = s[done] + step[done] / 15.0
            live = ~done
            lags, coef, s_prev, vals = lags[live], coef[live], s[live], fine[live]
            del fine
    return out


def one_ring_covariance(
    n: int,
    theta: float,
    delta: float,
    gamma: float,
    spacing_over_wavelength: float = 0.5,
    tol: float = 1e-10,
    max_panels: int = 1 << 22,
) -> np.ndarray:
    """Hermitian Toeplitz one-ring covariance for an n-element ULA.

    Entry (p, q) integrates the steering phase exp(-j*pi*(p-q)*kappa*sin(xi))
    over xi in [theta - delta, theta + delta], scaled by gamma/(2*delta),
    with kappa = 2 * spacing_over_wavelength.  Only the first column is
    integrated; the Toeplitz structure fills the rest.

    Every lag k >= 1 runs composite Simpson on the same nested grids of 16,
    32, 64, ... panels.  A level evaluates the integrand only at its new odd
    points, its even points being the previous level's.  Each lag stops at
    the first level where the Richardson estimate |s - s_prev| / 15 falls
    below ``tol`` (absolute) and returns the extrapolated s + (s - s_prev) / 15,
    whose residual error is an order smaller; QuadratureError is raised if a
    lag needs more than ``max_panels``.  Lags run as groups whose live
    integrand values stay under _QUADRATURE_GROUP_BYTES: when a level would
    exceed it, the group's highest live lags start over in a later group.
    Each lag takes the same values and operations as a quadrature of its
    own, so the result does not depend on the grouping.

    The degenerate delta = 0 case returns the rank-one steering outer
    product times gamma.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    kappa = 2.0 * spacing_over_wavelength
    lags = np.arange(n)
    if delta == 0.0:
        col = gamma * np.exp(-1j * np.pi * lags * kappa * np.sin(theta))
    else:
        col = np.empty(n, dtype=complex)
        col[0] = gamma  # integrand has unit magnitude on the diagonal
        col[1:] = gamma / (2.0 * delta) * _one_ring_integrals(
            n, kappa, theta - delta, theta + delta, tol, max_panels
        )
    # entry (p, q) is col[p - q] below the diagonal and its conjugate above:
    # vals[n - 1 + p - q], row p a window of the reversed vals, copied once
    vals = np.concatenate((np.conj(col[:0:-1]), col))
    return sliding_window_view(vals[::-1], n)[::-1].copy()


def upa_covariance(r_horizontal: np.ndarray, r_vertical: np.ndarray) -> np.ndarray:
    """Kronecker combination of per-axis covariances for a planar array."""
    if r_horizontal.ndim != 2 or r_horizontal.shape[0] != r_horizontal.shape[1]:
        raise ValueError("horizontal covariance must be square")
    if r_vertical.ndim != 2 or r_vertical.shape[0] != r_vertical.shape[1]:
        raise ValueError("vertical covariance must be square")
    return np.kron(r_horizontal, r_vertical)


_J0_FIRST_ZERO = 2.404825557695773


def bessel_j0(x: float) -> float:
    """Zeroth-order Bessel function by its power series.

    Terms are accumulated until they fall below 1e-15 in magnitude, which
    is ample for the small arguments produced by block-level Doppler.
    Arguments beyond |x| = 12 are rejected: the alternating series loses
    accuracy there and nothing in this package ever needs them.
    """
    if abs(x) > 12.0:
        raise ValueError("power series evaluation restricted to |x| <= 12")
    z = -0.25 * x * x
    term = 1.0
    total = 1.0
    m = 0
    while abs(term) >= 1e-15:
        m += 1
        term *= z / (m * m)
        total += term
    return total


def doppler_argument(v: float, f_c: float, t_s: float, block_len: int) -> float:
    """Argument 2*pi*f_D*T_s*M of the block fading correlation, with the
    Doppler shift f_D = v f_c / c; it must stay below the first J0 zero."""
    return 2.0 * np.pi * (v * f_c / SPEED_OF_LIGHT) * t_s * block_len


def temporal_coefficient(geom: OneRingGeometry, block_len: int) -> float:
    """Block-to-block fading correlation a = J0(2*pi*f_D*T_s*M).

    Returns exactly 1.0 for a static user.  Raises if the Doppler argument
    reaches the first Bessel zero, where J0 <= 0 and the first-order
    Gauss-Markov model stops making sense.
    """
    if geom.v == 0.0:
        return 1.0
    x = doppler_argument(geom.v, geom.f_c, geom.t_s, block_len)
    if x >= _J0_FIRST_ZERO:
        raise ValueError(
            f"Doppler argument {x:.4g} reaches the first J0 zero: "
            "mobility too high for the AR(1) fading model"
        )
    return min(bessel_j0(x), 1.0)


def _descending_eigh(r: np.ndarray):
    # eigenpairs of the Hermitian part, eigenvalues descending
    w, v = np.linalg.eigh(0.5 * (r + r.conj().T))
    return w[::-1], v[:, ::-1]


def eigendecompose(r_h: np.ndarray, rank_tol: float = 1e-6, *, r_vertical=None):
    """Rank-truncated eigensystem (U, lam, r) of the Hermitian PSD covariance
    kron(r_h, r_vertical), a planar array's horizontal and vertical factors.
    The default vertical factor [[1]] leaves r_h itself: a dense covariance,
    or a ULA's.

    Each factor is diagonalized on its own.  The eigenvalues are the products
    lam_H[i] * lam_V[j] of the factors' eigenvalues, each factor's in
    descending order, and the eigenvectors the matching columns
    kron(v_H[:, i], v_V[:, j]).  A stable sort orders them descending, so
    ties go by the flat index i * n_v + j, the order of kron and of
    dft_approximation_upa.  Keeps the products above rank_tol relative to
    the largest, lam_H[0] * lam_V[0], and builds the C-contiguous n_t x r
    eigenvectors of those alone: O(n_h^3 + n_v^3 + n_t r) work, no n_t x n_t
    matrix.  With the 1 x 1 factor [[1]] every product is r_h's own
    eigenvalue and every column its eigenvector, bit for bit.  Raises on an
    all-zero matrix.
    """
    w_h, v_h = _descending_eigh(r_h)
    w_v, v_v = _descending_eigh(np.ones((1, 1)) if r_vertical is None else r_vertical)
    w = np.multiply.outer(w_h, w_v).ravel()  # flat index i * n_v + j
    order = np.argsort(-w, kind="stable")
    w = w[order]
    if w[0] <= 0.0:
        raise ValueError("covariance has no positive eigenvalue (rank 0)")
    r = int(np.count_nonzero(w > rank_tol * w[0]))
    i, j = np.divmod(order[:r], len(w_v))
    # a 1 x 1 factor's eigenvector is [1], so the columns are r_h's own; the
    # product would turn a -0.0 part into +0.0
    cols = v_h[:, i] if len(w_v) == 1 else v_h[:, None, i] * v_v[None, :, j]
    return np.ascontiguousarray(cols).reshape(len(w), r), w[:r].copy(), r


@dataclass(frozen=True)
class ChannelStatistics:
    """Second-order channel description: AR(1) coefficient plus spatial
    covariance and its truncated eigensystem."""

    a: float
    r_h: np.ndarray
    u: np.ndarray  # n_t x r eigenvectors
    lam: np.ndarray  # r positive eigenvalues, descending
    rank: int

    @staticmethod
    def from_covariance(a: float, r_h: np.ndarray, rank_tol: float = 1e-6) -> "ChannelStatistics":
        if not (0.0 < a <= 1.0):
            raise ValueError("temporal coefficient must lie in (0, 1]")
        herm_err = np.linalg.norm(r_h - r_h.conj().T) / max(np.linalg.norm(r_h), 1e-300)
        if herm_err > 1e-12:
            raise ValueError(f"covariance not Hermitian (relative error {herm_err:.2e})")
        u, lam, rank = eigendecompose(r_h, rank_tol)
        return ChannelStatistics(a=a, r_h=r_h, u=u, lam=lam, rank=rank)

    @property
    def n_t(self) -> int:
        return self.r_h.shape[0]

    def trace(self) -> float:
        return float(np.real(np.trace(self.r_h)))


@dataclass(frozen=True)
class DftBasis:
    """Unit DFT columns approximating the covariance eigenbasis (TDT)."""

    f_tilde: np.ndarray  # n_t x r selected unit-norm DFT columns
    lambda_tilde: np.ndarray  # projected covariance values, descending


def _dft_matrix(n: int) -> np.ndarray:
    grid = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(grid, grid) / n) / np.sqrt(n)


def dft_approximation_upa(
    r_horizontal: np.ndarray, r_vertical: np.ndarray, r_target: int
) -> DftBasis:
    """Per-axis DFT approximation combined over the Kronecker structure.

    The planar covariance kron(R_H, R_V) is Toeplitz along each axis only,
    so the DFT projection is taken per axis and candidate columns are
    Kronecker products f_h(i) x f_v(j) with values q_h(i) * q_v(j).  A ULA
    passes the vertical factor [[1]], leaving the n_h-point projection.
    """
    n_h = r_horizontal.shape[0]
    n_v = r_vertical.shape[0]
    if not (1 <= r_target <= n_h * n_v):
        raise ValueError(f"r_target must be in [1, {n_h * n_v}]")
    f_h = _dft_matrix(n_h)
    f_v = _dft_matrix(n_v)
    q_h = np.real(np.einsum("ij,ik,kj->j", f_h.conj(), r_horizontal, f_h))
    q_v = np.real(np.einsum("ij,ik,kj->j", f_v.conj(), r_vertical, f_v))
    q = np.outer(q_h, q_v).ravel()  # flat index = i * n_v + j
    order = np.argsort(-q, kind="stable")[:r_target]
    cols = np.empty((n_h * n_v, r_target), dtype=complex)
    for out, flat in enumerate(order):
        i, j = divmod(int(flat), n_v)
        cols[:, out] = np.kron(f_h[:, i], f_v[:, j])
    return DftBasis(f_tilde=cols, lambda_tilde=q[order].copy())


def axis_covariances(array: ArrayGeometry, ring: OneRingGeometry):
    """Per-axis one-ring covariances (R_H, R_V) of the array, whose Kronecker
    product is its covariance.  Path loss is applied exactly once: the
    horizontal factor carries it, so trace(kron(R_H, R_V)) = n_t * gamma, and
    a ULA's vertical factor is the exact 1 x 1 identity."""
    gamma = path_loss(ring)
    delta_v, theta_v, delta_h = one_ring_params(ring)
    r_axis_h = one_ring_covariance(
        array.n_h, ring.theta_h, delta_h, gamma, array.spacing_over_wavelength
    )
    r_axis_v = one_ring_covariance(
        array.n_v, theta_v, delta_v, 1.0, array.spacing_over_wavelength
    )
    return r_axis_h, r_axis_v


def build_covariance(array: ArrayGeometry, ring: OneRingGeometry):
    """The dense n_t x n_t one-ring covariance and its factors,
    (kron(R_H, R_V), (R_H, R_V)); see axis_covariances."""
    axes = axis_covariances(array, ring)
    return upa_covariance(*axes), axes
