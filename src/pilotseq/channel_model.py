"""Spatially correlated channel statistics for uniform linear/planar arrays.

Builds one-ring covariance matrices, Gauss-Markov temporal correlation
coefficients, covariance eigensystems, DFT approximations of the eigenbasis
for large Toeplitz covariances, and time-correlated channel realizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class ArrayGeometry:
    """Transmit array layout: a ULA of n_t elements or an n_v x n_h UPA."""

    kind: str  # "ula" | "upa"
    n_t: int
    n_v: int = 1
    n_h: int = 1
    spacing_over_wavelength: float = 0.5

    def __post_init__(self):
        if self.kind not in ("ula", "upa"):
            raise ValueError(f"unknown array kind {self.kind!r}")
        if self.n_t < 1:
            raise ValueError("n_t must be >= 1")
        if self.kind == "upa" and self.n_t != self.n_v * self.n_h:
            raise ValueError("UPA requires n_t == n_v * n_h")
        if self.spacing_over_wavelength <= 0:
            raise ValueError("spacing_over_wavelength must be positive")

    @staticmethod
    def ula(n_t: int, spacing_over_wavelength: float = 0.5) -> "ArrayGeometry":
        return ArrayGeometry("ula", n_t, spacing_over_wavelength=spacing_over_wavelength)

    @staticmethod
    def upa(n_v: int, n_h: int, spacing_over_wavelength: float = 0.5) -> "ArrayGeometry":
        return ArrayGeometry("upa", n_v * n_h, n_v, n_h, spacing_over_wavelength)


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


def _simpson_sum(values: np.ndarray, h: float) -> complex:
    # composite Simpson over an even number of panels
    return (h / 3.0) * (
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum()
    )


def _adaptive_simpson(f, a: float, b: float, tol: float, max_panels: int) -> complex:
    """Composite Simpson with panel doubling until the Richardson estimate
    of the error drops below ``tol`` (absolute).  Returns the extrapolated
    value, whose residual error is an order smaller than the estimate."""
    n = 16
    xs = np.linspace(a, b, n + 1)
    s_prev = _simpson_sum(f(xs), (b - a) / n)
    while True:
        n *= 2
        if n > max_panels:
            raise QuadratureError(
                f"quadrature did not converge within {max_panels} panels"
            )
        xs = np.linspace(a, b, n + 1)
        s = _simpson_sum(f(xs), (b - a) / n)
        if abs(s - s_prev) / 15.0 < tol:
            return s + (s - s_prev) / 15.0
        s_prev = s


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

    The degenerate delta = 0 case returns the rank-one steering outer
    product times gamma.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    kappa = 2.0 * spacing_over_wavelength
    lags = np.arange(n)
    if delta == 0.0:
        col = gamma * np.exp(-1j * np.pi * lags * kappa * np.sin(theta))
    else:
        lo, hi = theta - delta, theta + delta
        col = np.empty(n, dtype=complex)
        col[0] = gamma  # integrand has unit magnitude on the diagonal
        for k in range(1, n):
            integral = _adaptive_simpson(
                lambda xi: np.exp(-1j * np.pi * k * kappa * np.sin(xi)),
                lo,
                hi,
                tol,
                max_panels,
            )
            col[k] = gamma / (2.0 * delta) * integral
    # entry (p, q) is col[p - q] below the diagonal and its conjugate above
    vals = np.concatenate((np.conj(col[:0:-1]), col))
    return vals[lags[:, None] - lags[None, :] + (n - 1)]


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


def eigendecompose(r_h: np.ndarray, rank_tol: float = 1e-6):
    """Rank-truncated eigensystem (U, lam, r) of a Hermitian PSD covariance.

    Keeps eigenvalues above rank_tol relative to the largest, sorted
    descending.  Raises on an all-zero matrix.
    """
    w, v = np.linalg.eigh(0.5 * (r_h + r_h.conj().T))
    w = w[::-1]
    v = v[:, ::-1]
    if w[0] <= 0.0:
        raise ValueError("covariance has no positive eigenvalue (rank 0)")
    r = int(np.count_nonzero(w > rank_tol * w[0]))
    return v[:, :r].copy(), w[:r].copy(), r


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


def dft_approximation(r_h: np.ndarray, r_target: int) -> DftBasis:
    """Approximate a (Toeplitz) covariance by its r_target strongest DFT modes.

    Projects the covariance onto every column of the unitary n-point DFT
    and keeps the columns with the largest quadratic form f^H R f.
    """
    n = r_h.shape[0]
    if not (1 <= r_target <= n):
        raise ValueError(f"r_target must be in [1, {n}]")
    f = _dft_matrix(n)
    q = np.real(np.einsum("ij,ik,kj->j", f.conj(), r_h, f))
    order = np.argsort(-q, kind="stable")[:r_target]
    order = order[np.argsort(-q[order], kind="stable")]
    return DftBasis(f_tilde=f[:, order].copy(), lambda_tilde=q[order].copy())


def dft_approximation_upa(
    r_horizontal: np.ndarray, r_vertical: np.ndarray, r_target: int
) -> DftBasis:
    """Per-axis DFT approximation combined over the Kronecker structure.

    The planar covariance kron(R_H, R_V) is Toeplitz along each axis only,
    so the DFT projection is taken per axis and candidate columns are
    Kronecker products f_h(i) x f_v(j) with values q_h(i) * q_v(j).
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


def build_covariance(array: ArrayGeometry, ring: OneRingGeometry, tol: float = 1e-10):
    """One-ring covariance for the array; path loss is applied exactly once.

    Returns (r_h, axes) where axes is None for a ULA and (r_h_axis, r_v_axis)
    for a UPA.  For the planar case the horizontal factor carries the path
    loss so that trace(r_h) = n_t * gamma matches the linear case.
    """
    gamma = path_loss(ring)
    delta_v, theta_v, delta_h = one_ring_params(ring)
    if array.kind == "ula":
        r_h = one_ring_covariance(
            array.n_t, ring.theta_h, delta_h, gamma, array.spacing_over_wavelength, tol
        )
        return r_h, None
    r_axis_h = one_ring_covariance(
        array.n_h, ring.theta_h, delta_h, gamma, array.spacing_over_wavelength, tol
    )
    r_axis_v = one_ring_covariance(
        array.n_v, theta_v, delta_v, 1.0, array.spacing_over_wavelength, tol
    )
    return upa_covariance(r_axis_h, r_axis_v), (r_axis_h, r_axis_v)
