"""Classical special functions used by the closed-form solutions.

Jacobi and generalized Laguerre polynomials are evaluated by forward
three-term recurrence, which is stable for the moderate degrees used here
(degrees are capped at 200). Bessel J is delegated to scipy's Amos
implementation because the declared range (order up to 200, argument up
to 1e4) sits far beyond what a hand-rolled series/asymptotic split can
cover at 1e-10 relative accuracy. log-Gamma uses a 15-term Lanczos sum.

All evaluators accept scalars or numpy arrays in the argument position
and return matching shapes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

MAX_DEGREE = 200
MAX_BESSEL_ORDER = 200.0
MAX_BESSEL_ARG = 1.0e4


class DomainError(ValueError):
    """Raised when an argument is outside the supported domain."""


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def jacobi_p(n: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_n^{(alpha,beta)}(x) for x in [-1, 1].

    Degree -1 is accepted as a sentinel and evaluates to 0, so that
    expressions like sin(phi)cos(phi) * P_{n-1} vanish cleanly at n = 0.
    """
    if n == -1:
        arr, scalar = _as_array(x)
        return 0.0 if scalar else np.zeros_like(arr)
    if n < -1 or n > MAX_DEGREE:
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
    """Generalized Laguerre polynomial L_k^{alpha}(x) for x >= 0."""
    if k == -1:
        arr, scalar = _as_array(x)
        return 0.0 if scalar else np.zeros_like(arr)
    if k < -1 or k > MAX_DEGREE:
        raise DomainError(f"laguerre_l degree out of range: {k}")
    if alpha <= -1.0:
        raise DomainError(f"laguerre_l requires alpha > -1, got {alpha}")
    arr, scalar = _as_array(x)
    if np.any(arr < 0.0):
        raise DomainError("laguerre_l argument must be >= 0")

    l_prev = np.ones_like(arr)
    if k == 0:
        return float(l_prev) if scalar else l_prev
    l_cur = 1.0 + alpha - arr
    for m in range(1, k):
        l_next = ((2.0 * m + 1.0 + alpha - arr) * l_cur - (m + alpha) * l_prev) / (m + 1.0)
        l_prev, l_cur = l_cur, l_next
    return float(l_cur) if scalar else l_cur


def bessel_j(nu: float, x):
    """Bessel function of the first kind J_nu(x), nu >= 0, 0 <= x <= 1e4."""
    if not 0.0 <= nu <= MAX_BESSEL_ORDER:
        raise DomainError(f"bessel_j order out of range: {nu}")
    arr, scalar = _as_array(x)
    if np.any(arr < 0.0) or np.any(arr > MAX_BESSEL_ARG):
        raise DomainError("bessel_j argument outside [0, 1e4]")
    val = _sp.jv(nu, arr)
    return float(val) if scalar else val


# Lanczos coefficients (g = 607/128, 15 terms); relative error below 1e-14
# for real positive arguments.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # Downward recursion keeps the Lanczos sum in its sweet spot.
        return log_gamma(x + 1.0) - math.log(x)
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (x + i - 1.0)
    t = x + _LANCZOS_G - 0.5
    return (x - 0.5) * math.log(t) - t + 0.5 * math.log(2.0 * math.pi) + math.log(acc)
