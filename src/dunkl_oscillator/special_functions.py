"""Classical special functions used by the closed-form solutions.

Jacobi and generalized Laguerre polynomials are evaluated by forward
three-term recurrence, which is stable for the moderate degrees used here
(degrees are capped at 200). Bessel J is delegated to scipy's Amos
implementation because the declared range (order up to 200, argument up
to 1e4) sits far beyond what a hand-rolled series/asymptotic split can
cover at 1e-10 relative accuracy; scipy is imported on the first call, so
the package and its command line load without it. log-Gamma is the
standard library's ``math.lgamma`` behind the package's domain check.

All evaluators accept scalars or numpy arrays in the argument position
and return matching shapes. ``jacobi_rows`` and ``laguerre_rows`` return
every degree up to a top one, one row each; ``laguerre_rows`` and
``bessel_j`` also take a column of orders, one row per order.
"""

from __future__ import annotations

import math

import numpy as np

MAX_DEGREE = 200
MAX_BESSEL_ORDER = 200.0
MAX_BESSEL_ARG = 1.0e4


class DomainError(ValueError):
    """Raised when an argument is outside the supported domain."""


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def jacobi_p(n: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_n^{(alpha,beta)}(x) for x in [-1, 1], 0 <= n <= 200."""
    arr, scalar = _as_array(x)
    row = jacobi_rows(alpha, beta, arr, n)[n]
    return float(row) if scalar else row


def jacobi_rows(alpha: float, beta: float, x, j_top: int) -> np.ndarray:
    """P_0^{(alpha,beta)}(x), ..., P_{j_top}^{(alpha,beta)}(x) as one
    (j_top + 1, *x.shape) array, filled by the forward three-term recurrence.

    ``jacobi_p`` reads one row of it; row n does not depend on ``j_top``.
    """
    if j_top < 0 or j_top > MAX_DEGREE:
        raise DomainError(f"jacobi_p degree out of range: {j_top}")
    if alpha <= -1.0 or beta <= -1.0:
        raise DomainError(f"jacobi_p requires alpha, beta > -1, got ({alpha}, {beta})")
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise DomainError("jacobi_p argument outside [-1, 1]")
    rows = np.empty((j_top + 1, *arr.shape))
    rows[0] = 1.0
    if j_top > 0:
        rows[1] = (alpha + 1.0) + (alpha + beta + 2.0) * (arr - 1.0) / 2.0
    for m in range(2, j_top + 1):
        a = 2.0 * m * (m + alpha + beta) * (2.0 * m + alpha + beta - 2.0)
        b = (2.0 * m + alpha + beta - 1.0) * (alpha * alpha - beta * beta)
        c = (
            (2.0 * m + alpha + beta - 1.0)
            * (2.0 * m + alpha + beta)
            * (2.0 * m + alpha + beta - 2.0)
        )
        d = 2.0 * (m + alpha - 1.0) * (m + beta - 1.0) * (2.0 * m + alpha + beta)
        rows[m] = ((b + c * arr) * rows[m - 1] - d * rows[m - 2]) / a
    return rows


def laguerre_l(k: int, alpha: float, x):
    """Generalized Laguerre polynomial L_k^{alpha}(x) for x >= 0, 0 <= k <= 200."""
    arr, scalar = _as_array(x)
    row = laguerre_rows(alpha, arr, k)[k]
    return float(row) if scalar else row


def laguerre_rows(alpha, x, k_top: int) -> np.ndarray:
    """L_0^{alpha}(x), ..., L_{k_top}^{alpha}(x) as one
    (k_top + 1, *broadcast(alpha, x).shape) array, filled by the forward
    three-term recurrence.

    ``laguerre_l`` reads one row of it; a caller that needs several
    degrees of one argument array runs the recurrence once. ``alpha`` may
    be a column of orders, one row per order; each element is then the
    recurrence of its own order, bit for bit.
    """
    if k_top < 0 or k_top > MAX_DEGREE:
        raise DomainError(f"laguerre_l degree out of range: {k_top}")
    if (np.asarray(alpha) <= -1.0).any():
        raise DomainError(f"laguerre_l requires alpha > -1, got {alpha}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("laguerre_l argument must be >= 0")
    rows = np.empty((k_top + 1, *np.broadcast(alpha, arr).shape))
    rows[0] = 1.0
    if k_top > 0:
        rows[1] = 1.0 + alpha - arr
    for m in range(1, k_top):
        rows[m + 1] = ((2.0 * m + 1.0 + alpha - arr) * rows[m] - (m + alpha) * rows[m - 1]) / (m + 1.0)
    return rows


def bessel_j(nu, x):
    """Bessel function of the first kind J_nu(x), 0 <= nu <= 200, 0 <= x <= 1e4.

    ``nu`` may be a column of orders; the result then has one row per
    order, each equal to its own order's call."""
    nu_arr = np.asarray(nu, dtype=float)
    if not ((0.0 <= nu_arr) & (nu_arr <= MAX_BESSEL_ORDER)).all():
        raise DomainError(f"bessel_j order out of range: {nu}")
    arr, scalar = _as_array(x)
    if np.any(arr < 0.0) or np.any(arr > MAX_BESSEL_ARG):
        raise DomainError("bessel_j argument outside [0, 1e4]")
    from scipy import special

    val = special.jv(nu, arr)
    return float(val) if scalar and nu_arr.ndim == 0 else val


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)
