"""Classical special functions used by the closed-form solutions.

Jacobi and generalized Laguerre polynomials are evaluated by forward
three-term recurrence, which is stable for the moderate degrees used here
(degrees are capped at 200). Bessel J, on the declared range 0 <= nu <= 200,
0 <= x <= 1e4, takes one of four numpy branches by argument:

* x <= 8: the power series, 24 terms, formed by running products and sums
  along the term axis;
* x >= max(25, nu^2): Hankel's asymptotic expansion, 60 terms of P and Q;
* 25 <= x < nu^2 with nu <= x: the forward three-term recurrence from
  Hankel's J_mu and J_{mu+1}, mu = frac(nu), stable below the turning
  point nu = x;
* otherwise (8 < x < 25, or x < nu): Miller's backward recurrence for the
  minimal solution (Gautschi, SIAM Review 9, 1967), started at index
  floor(t + 30 + 14 t^(1/3)), t = max(nu, x), and normalized by Neumann's
  sum (x/2)^mu = sum_k c_k J_{mu+2k}.

Against mpmath at 30 digits (59 orders from 0 to 200, 120 arguments from
1e-3 to 1e4 each plus both sides of every branch edge), the relative
error is at most 2.2e-13 in the series, 2.4e-12 in Hankel's expansion and
1.1e-13 in the recurrences where |J| > 1e-3 min(1, x^-1/2), and the
absolute error stays below that fraction of min(1, x^-1/2) elsewhere.
log-Gamma is the standard library's ``math.lgamma`` behind the package's
domain check. The package imports nothing beyond numpy and the standard
library.

All evaluators accept scalars or numpy arrays in the argument position
and return matching shapes. ``jacobi_rows`` and ``laguerre_rows`` return
every degree up to a top one, one row each; ``laguerre_rows`` and
``bessel_j`` also take a column of orders, one row per order.
"""

from __future__ import annotations

import functools
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

    ``nu`` may be a column of orders: every axis after the first of
    length 1, and more axes than ``x``. The result then has one row
    per order, each equal to its own order's call, bit for bit. Any
    other order array raises ``ValueError``."""
    nu_arr = np.asarray(nu, dtype=float)
    outside = ~((0.0 <= nu_arr) & (nu_arr <= MAX_BESSEL_ORDER))
    if outside.any():
        raise DomainError(f"bessel_j order {np.max(nu_arr[outside]):g} is outside [0, {MAX_BESSEL_ORDER:g}]")
    arr, scalar = _as_array(x)
    if not ((0.0 <= arr) & (arr <= MAX_BESSEL_ARG)).all():
        raise DomainError("bessel_j argument outside [0, 1e4]")
    if nu_arr.ndim and (nu_arr.ndim <= arr.ndim or nu_arr.size != len(nu_arr)):
        raise ValueError(f"bessel_j orders of shape {nu_arr.shape} are not a column against arguments "
                         f"of shape {arr.shape}")
    val = _bessel_rows(nu_arr, arr)
    return float(val) if scalar and nu_arr.ndim == 0 else val


# Largest argument of the power series: at x = 8 its largest term, about
# 100, costs two of the 16 digits to cancellation.
_SERIES_MAX_ARG = 8.0
_SERIES_TERMS = 24
_HANKEL_TERMS = 60
# Miller's recurrence rescales a point whose value passes 2^830 (about
# 1e250) by 2^-830, exactly. It checks every 8 steps, over which a value
# grows by at most 79^8 (about 1e15): one step multiplies by at most
# 2 (nu + m) / x + 1 <= 2 * 312 / 8 + 1.
_MILLER_BIG = 2.0**830
_MILLER_CHECK_EVERY = 8


def _bessel_rows(nu: np.ndarray, x: np.ndarray):
    """J_nu(x) for a scalar order or a column of orders, one row per order.

    Every element is computed from its own (order, argument) pair alone:
    arithmetic is element by element, sums and products run along the
    term axis in a fixed order (``accumulate``), and powers take one
    scalar exponent at a time, since numpy's ``pow`` may round
    differently for a scalar and an array exponent.
    """
    orders = nu.ravel().tolist()
    if x.max(initial=0.0) <= _SERIES_MAX_ARG:
        return _series(nu, orders, x)
    val = _series(nu, orders, np.minimum(x, _SERIES_MAX_ARG))
    far = np.broadcast_to(x > _SERIES_MAX_ARG, val.shape)
    nu_far, x_far = np.broadcast_to(nu, val.shape)[far], np.broadcast_to(x, val.shape)[far]
    hankel = x_far >= np.maximum(25.0, nu_far * nu_far)
    forward = ~hankel & (x_far >= 25.0) & (nu_far <= x_far)
    picks = np.empty_like(x_far)
    for pick, branch in ((hankel, _hankel), (forward, _forward), (~(hankel | forward), _miller)):
        if pick.any():
            picks[pick] = branch(nu_far[pick], x_far[pick])
    val[far] = picks
    return val


@functools.lru_cache(maxsize=64)
def _series_constants(orders: tuple, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """Per order (one row each) against arguments of ``ndim`` axes: the
    ratios -1 / (k (nu + k)), k = 1..23, of consecutive power series terms
    over (x/2)^2, as a (23, M, 1, ...) array, and exp(-lgamma(nu + 1) / 2),
    as an (M, 1, ...) column."""
    column = (-1,) + (1,) * ndim
    k = np.arange(1.0, _SERIES_TERMS).reshape((-1, 1) + (1,) * ndim)
    ratios = -1.0 / (k * (np.reshape(orders, column) + k))
    roots = np.reshape([math.exp(-0.5 * math.lgamma(v + 1.0)) for v in orders], column)
    ratios.flags.writeable = roots.flags.writeable = False  # shared by every call of these orders
    return ratios, roots


def _series(nu: np.ndarray, orders: list, x: np.ndarray):
    """(x/2)^nu / Gamma(nu + 1) * sum_k (-(x/2)^2)^k / (k! (nu + 1)_k),
    24 terms, for x <= 8: at x = 8 the first term left out is below 2e-19,
    under the rounding of the largest one, about 100.

    1 / Gamma(nu + 1) enters as two factors exp(-lgamma(nu + 1) / 2), one
    constant per order: neither it nor (x/2)^nu leaves double range, and
    unlike exp(nu log(x/2) - lgamma(nu + 1)) it adds no noise from point
    to point, which a finite-difference stencil would amplify.
    """
    ratios, roots = _series_constants(tuple(orders), x.ndim)
    half = 0.5 * x
    power = np.array([np.power(half, v) for v in orders])  # one row per order
    terms = np.multiply.accumulate((half * half) * ratios, axis=0)
    val = power * roots * roots * (1.0 + np.add.accumulate(terms, axis=0)[-1])
    return val.reshape(nu.shape[:1] + (1,) * (nu.ndim - 1 - x.ndim) + x.shape)


def _hankel(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Hankel's expansion sqrt(2 / (pi x)) (P cos chi - Q sin chi),
    chi = x - (nu/2 + 1/4) pi, 60 terms of P and Q in all, for flat
    paired ``nu`` and ``x`` with x >= max(25, nu^2)."""
    k = np.arange(1.0, _HANKEL_TERMS)[:, None]
    ratios = (4.0 * nu * nu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
    ratios[1::2] *= -1.0  # term k carries the sign (-1)^floor(k/2)
    terms = np.multiply.accumulate(ratios, axis=0)
    p = 1.0 + np.add.accumulate(terms[1::2], axis=0)[-1]
    q = np.add.accumulate(terms[0::2], axis=0)[-1]
    # cos and sin of chi from those of x and of the phase: the library
    # reduces the large argument x exactly, where x - phase would round
    phase = (0.5 * nu + 0.25) * math.pi
    cos_x, sin_x, cos_p, sin_p = np.cos(x), np.sin(x), np.cos(phase), np.sin(phase)
    cos_chi = cos_x * cos_p + sin_x * sin_p
    sin_chi = sin_x * cos_p - cos_x * sin_p
    return np.sqrt(2.0 / (math.pi * x)) * (p * cos_chi - q * sin_chi)


def _integer_parts(nu: np.ndarray) -> tuple[np.ndarray, dict]:
    """mu = frac(nu), and the points of each integer part n = nu - mu, the
    index at which a recurrence in m reads J_{mu+m}."""
    mu = nu % 1.0
    reads: dict = {}
    for i, n in enumerate((nu - mu).astype(int).tolist()):
        reads.setdefault(n, []).append(i)
    return mu, reads


def _forward(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The forward recurrence J_{m+1} = 2 (mu + m) / x J_m - J_{m-1} from
    Hankel's J_mu and J_{mu+1}, mu = frac(nu), for flat paired ``nu`` and
    ``x`` with 25 <= x and nu <= x, where it is stable: at most 200 steps,
    where Miller's recurrence would take about x of them."""
    mu, reads = _integer_parts(nu)
    low, high = _hankel(mu, x), _hankel(mu + 1.0, x)  # J_{mu+m-1} and J_{mu+m}, m = 1
    val = np.where(nu < 1.0, low, high)
    for m in range(1, max(reads)):
        low, high = high, 2.0 * (mu + m) / x * high - low
        if m + 1 in reads:
            val[reads[m + 1]] = high[reads[m + 1]]
    return val


def _miller(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Miller's backward recurrence f_{m-1} = 2 (mu + m) / x f_m - f_{m+1},
    mu = frac(nu), for flat paired ``nu`` and ``x``; J_nu = f_n, n = nu - mu,
    normalized by Neumann's sum (x/2)^mu = sum_k c_k J_{mu+2k}(x) with
    c_0 = Gamma(mu + 1), c_k = (mu + 2k) Gamma(mu + k) / k!.

    Each point starts from f = 1 at its own index
    floor(t + 30 + 14 t^(1/3)), t = max(nu, x), and is checked for
    overflow at fixed indices, so its value does not depend on the other
    points of the call.
    """
    mu, reads = _integer_parts(nu)
    top = np.maximum(nu, x)
    seeds: dict = {}  # start index -> its points
    for i, start in enumerate((top + 30.0 + 14.0 * np.cbrt(top)).astype(int).tolist()):
        seeds.setdefault(start, []).append(i)
    f, f_up = np.zeros_like(x), np.zeros_like(x)  # f_m and f_{m+1}
    val = np.zeros_like(x)
    # h_k = Gamma(mu + k) / k! up to a factor per point, from h_{k-1} = h_k k / (mu + k - 1);
    # tail = sum_{k >= 1} (mu + 2k) h_k f_{2k}
    h, tail = np.ones_like(x), np.zeros_like(x)
    for m in range(max(seeds), -1, -1):
        if m in seeds:
            f[seeds[m]] = 1.0
            h[seeds[m]] = 1.0
        if m in reads:
            val[reads[m]] = f[reads[m]]
        if m == 0:
            break
        a = mu + m
        if m % 2 == 0:
            tail += a * h * f
            if m > 2:
                h *= (m // 2) / (mu + (m // 2 - 1))
        f, f_up = 2.0 * a / x * f - f_up, f
        if m % _MILLER_CHECK_EVERY == 1:
            big = np.abs(f) > _MILLER_BIG
            if big.any():
                scale = np.where(big, 1.0 / _MILLER_BIG, 1.0)
                f *= scale
                f_up *= scale
                val *= scale
                tail *= scale
    gamma = np.array([math.gamma(v + 1.0) for v in mu.tolist()])  # c_0
    return val * np.power(0.5 * x, mu) / (gamma * (f + tail / h))


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)
