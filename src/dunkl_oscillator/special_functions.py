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
and return matching shapes.
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
    if n < 0 or n > MAX_DEGREE:
        raise DomainError(f"jacobi_p degree out of range: {n}")
    if alpha <= -1.0 or beta <= -1.0:
        raise DomainError(f"jacobi_p requires alpha, beta > -1, got ({alpha}, {beta})")
    arr, scalar = _as_array(x)
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise DomainError("jacobi_p argument outside [-1, 1]")

    p_prev = np.ones_like(arr)
    if n == 0:
        return float(p_prev) if scalar else p_prev
    p_cur = (alpha + 1.0) + (alpha + beta + 2.0) * (arr - 1.0) / 2.0
    for m in range(2, n + 1):
        a = 2.0 * m * (m + alpha + beta) * (2.0 * m + alpha + beta - 2.0)
        b = (2.0 * m + alpha + beta - 1.0) * (alpha * alpha - beta * beta)
        c = (
            (2.0 * m + alpha + beta - 1.0)
            * (2.0 * m + alpha + beta)
            * (2.0 * m + alpha + beta - 2.0)
        )
        d = 2.0 * (m + alpha - 1.0) * (m + beta - 1.0) * (2.0 * m + alpha + beta)
        p_next = ((b + c * arr) * p_cur - d * p_prev) / a
        p_prev, p_cur = p_cur, p_next
    return float(p_cur) if scalar else p_cur


def laguerre_l(k: int, alpha: float, x):
    """Generalized Laguerre polynomial L_k^{alpha}(x) for x >= 0, 0 <= k <= 200."""
    arr, scalar = _as_array(x)
    row = laguerre_rows(alpha, arr, k)[k]
    return float(row) if scalar else row


def laguerre_rows(alpha: float, x, k_top: int) -> np.ndarray:
    """L_0^{alpha}(x), ..., L_{k_top}^{alpha}(x) as one (k_top + 1, *x.shape)
    array, filled by the forward three-term recurrence.

    ``laguerre_l`` reads one row of it; a caller that needs several
    degrees of one argument array runs the recurrence once.
    """
    if k_top < 0 or k_top > MAX_DEGREE:
        raise DomainError(f"laguerre_l degree out of range: {k_top}")
    if alpha <= -1.0:
        raise DomainError(f"laguerre_l requires alpha > -1, got {alpha}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("laguerre_l argument must be >= 0")
    rows = np.empty((k_top + 1, *arr.shape))
    rows[0] = 1.0
    if k_top > 0:
        rows[1] = 1.0 + alpha - arr
    for m in range(1, k_top):
        rows[m + 1] = ((2.0 * m + 1.0 + alpha - arr) * rows[m] - (m + alpha) * rows[m - 1]) / (m + 1.0)
    return rows


def bessel_j(nu: float, x):
    """Bessel function of the first kind J_nu(x), nu >= 0, 0 <= x <= 1e4."""
    if not 0.0 <= nu <= MAX_BESSEL_ORDER:
        raise DomainError(f"bessel_j order out of range: {nu}")
    arr, scalar = _as_array(x)
    if np.any(arr < 0.0) or np.any(arr > MAX_BESSEL_ARG):
        raise DomainError("bessel_j argument outside [0, 1e4]")
    from scipy import special

    val = special.jv(nu, arr)
    return float(val) if scalar else val


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)
