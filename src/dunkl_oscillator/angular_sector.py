"""Angular eigenbasis of the deformed angular-momentum operator J.

Within each simultaneous parity class of the two reflections the spectrum
of J comes in signed pairs

    epsilon = +1 : lambda = +/- 2 sqrt(n (n + mu_x + mu_y)),   n = 0, 1, 2, ...
    epsilon = -1 : lambda = +/- 2 sqrt((n + mu_x)(n + mu_y)),  n = 1/2, 3/2, ...

with eigenfunctions built from weight-normalized Jacobi polynomials in
x = -cos(2 phi). The four Phi families carry definite reflection
signatures (s_x, s_y); the J eigenfunctions mix the two families of a
given epsilon:

    epsilon = +1 : F = (Phi^{++} + i b Phi^{--}) / sqrt(2)
    epsilon = -1 : F = (Phi^{-+} - i b Phi^{+-}) / sqrt(2)

where b = +/-1 is the branch sign of lambda. The sign pairing (+i with
+lambda for epsilon = +1, -i with +lambda for epsilon = -1) is fixed
numerically by the eigen-residual tests. The 1/sqrt(2) makes the modes
orthonormal under the reflection-symmetric angular weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dunkl_calculus import DunklParams, ScalarField2D, remember_last
from .special_functions import DomainError, jacobi_p, log_gamma

_HALF_TOL = 1e-9


@dataclass(frozen=True)
class SectorLabel:
    """Simultaneous reflection eigenvalues (s_x, s_y), each +1 or -1."""

    s_x: int
    s_y: int

    def __post_init__(self) -> None:
        if self.s_x not in (1, -1) or self.s_y not in (1, -1):
            raise ValueError(f"sector signs must be +1 or -1, got {self}")

    @property
    def epsilon(self) -> int:
        return self.s_x * self.s_y

    def __str__(self) -> str:
        return f"{self.s_x:+d},{self.s_y:+d}"


ALL_SECTORS = (
    SectorLabel(1, 1),
    SectorLabel(-1, -1),
    SectorLabel(1, -1),
    SectorLabel(-1, 1),
)


def _is_integer(n: float) -> bool:
    return abs(n - round(n)) <= _HALF_TOL


def _is_half_odd(n: float) -> bool:
    return _is_integer(n - 0.5)


@dataclass(frozen=True)
class AngularMode:
    """One angular eigenmode: sector label, index n, branch sign, parameters.

    n is a non-negative integer for epsilon = +1 and a positive half-odd
    integer for epsilon = -1. n = 0 has lambda = 0 and only a single
    eigenfunction (the odd-odd partner vanishes identically), so it lives
    in the (+1, +1) sector with branch +1 only.
    """

    sector: SectorLabel
    n: float
    branch: int
    params: DunklParams

    def __post_init__(self) -> None:
        if self.branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        if self.sector.epsilon == 1:
            if not _is_integer(self.n) or self.n < 0:
                raise ValueError(f"epsilon=+1 requires integer n >= 0, got n={self.n}")
            if self.n == 0:
                if self.sector != SectorLabel(1, 1):
                    raise ValueError("n=0 exists only in the (+1,+1) sector")
                if self.branch != 1:
                    raise ValueError("n=0 is a single mode; use branch=+1")
        else:
            if not _is_half_odd(self.n) or self.n < 0.5:
                raise ValueError(f"epsilon=-1 requires half-odd n >= 1/2, got n={self.n}")


def _norm_constant(log_num: float, log_den: float) -> float:
    return math.exp(0.5 * (log_num - log_den))


def _require_positive(*gamma_args: float) -> None:
    for a in gamma_args:
        if a <= 0.0:
            raise DomainError(f"Gamma argument must be positive, got {a}")


def phi_pp(n: int, params: DunklParams, phi):
    """Even-even angular basis function (reflection signature (+1, +1))."""
    mp = params.mu_plus
    _require_positive(n + params.mu_x + 0.5, n + params.mu_y + 0.5, n + mp + 1.0)
    x = -np.cos(2.0 * np.asarray(phi, dtype=float))
    # (2n+mu_p) Gamma(n+mu_p) is rewritten via Gamma(n+mu_p+1) so n = 0
    # with mu_p = 0 stays finite; the leftover ratio is 1 at n = 0.
    ratio = 1.0 if n == 0 else (2.0 * n + mp) / (n + mp)
    log_num = log_gamma(n + mp + 1.0) + log_gamma(n + 1.0)
    log_den = math.log(2.0) + log_gamma(n + params.mu_x + 0.5) + log_gamma(n + params.mu_y + 0.5)
    c = math.sqrt(ratio) * _norm_constant(log_num, log_den)
    return c * jacobi_p(n, params.mu_x - 0.5, params.mu_y - 0.5, x)


def phi_mm(n: int, params: DunklParams, phi):
    """Odd-odd angular basis function; identically zero at n = 0."""
    phi = np.asarray(phi, dtype=float)
    if n == 0:
        out = np.zeros_like(phi)
        return float(out) if out.ndim == 0 else out
    mp = params.mu_plus
    _require_positive(n + params.mu_x + 0.5, n + params.mu_y + 0.5, n + mp + 1.0)
    x = -np.cos(2.0 * phi)
    log_num = math.log(2.0 * n + mp) + log_gamma(n + mp + 1.0) + log_gamma(float(n))
    log_den = math.log(2.0) + log_gamma(n + params.mu_x + 0.5) + log_gamma(n + params.mu_y + 0.5)
    c = _norm_constant(log_num, log_den)
    return c * np.sin(phi) * np.cos(phi) * jacobi_p(n - 1, params.mu_x + 0.5, params.mu_y + 0.5, x)


def phi_mp(n: float, params: DunklParams, phi):
    """Odd-even angular basis function (signature (-1, +1)), half-odd n."""
    mp = params.mu_plus
    _require_positive(n + params.mu_x + 1.0, n + params.mu_y, n + mp + 0.5, n + 0.5)
    phi = np.asarray(phi, dtype=float)
    x = -np.cos(2.0 * phi)
    log_num = math.log(2.0 * n + mp) + log_gamma(n + mp + 0.5) + log_gamma(n + 0.5)
    log_den = math.log(2.0) + log_gamma(n + params.mu_x + 1.0) + log_gamma(n + params.mu_y)
    c = _norm_constant(log_num, log_den)
    return c * np.cos(phi) * jacobi_p(int(round(n - 0.5)), params.mu_x + 0.5, params.mu_y - 0.5, x)


def phi_pm(n: float, params: DunklParams, phi):
    """Even-odd angular basis function (signature (+1, -1)), half-odd n."""
    mp = params.mu_plus
    _require_positive(n + params.mu_x, n + params.mu_y + 1.0, n + mp + 0.5, n + 0.5)
    phi = np.asarray(phi, dtype=float)
    x = -np.cos(2.0 * phi)
    log_num = math.log(2.0 * n + mp) + log_gamma(n + mp + 0.5) + log_gamma(n + 0.5)
    log_den = math.log(2.0) + log_gamma(n + params.mu_x) + log_gamma(n + params.mu_y + 1.0)
    c = _norm_constant(log_num, log_den)
    return c * np.sin(phi) * jacobi_p(int(round(n - 0.5)), params.mu_x - 0.5, params.mu_y + 0.5, x)


def lambda_eigenvalue(mode: AngularMode) -> float:
    """Signed eigenvalue of J for the mode."""
    p = mode.params
    if mode.sector.epsilon == 1:
        lam = 2.0 * math.sqrt(mode.n * (mode.n + p.mu_plus))
    else:
        lam = 2.0 * math.sqrt((mode.n + p.mu_x) * (mode.n + p.mu_y))
    return mode.branch * lam


def f_eigenfunction(mode: AngularMode) -> ScalarField2D:
    """The (unit-normalized, purely angular) J eigenfunction of a mode.

    Each returned field remembers its last few angle arrays, so the two
    components of a spinor, which share this field, evaluate F once per
    distinct angle array.
    """
    n, p, b = mode.n, mode.params, mode.branch
    s = 1.0 / math.sqrt(2.0)
    if mode.sector.epsilon == 1:
        ni = int(round(n))
        if ni == 0:
            def angular(phi):
                return phi_pp(0, p, phi) + 0j
        else:
            def angular(phi):
                return s * (phi_pp(ni, p, phi) + 1j * b * phi_mm(ni, p, phi))
    else:
        def angular(phi):
            return s * (phi_mp(n, p, phi) - 1j * b * phi_pm(n, p, phi))
    angular = remember_last(angular)
    return ScalarField2D(lambda rho, phi: angular(phi))


def modes_for_sector(sector: SectorLabel, params: DunklParams, n_max: float):
    """All modes of a sector with n <= n_max, both branches where they exist."""
    out: list[AngularMode] = []
    if sector.epsilon == 1:
        n_start = 0 if sector == SectorLabel(1, 1) else 1
        for n in range(n_start, int(math.floor(n_max)) + 1):
            if n == 0:
                out.append(AngularMode(sector, 0, 1, params))
            else:
                out.append(AngularMode(sector, n, 1, params))
                out.append(AngularMode(sector, n, -1, params))
    else:
        n = 0.5
        while n <= n_max + _HALF_TOL:
            out.append(AngularMode(sector, n, 1, params))
            out.append(AngularMode(sector, n, -1, params))
            n += 1.0
    return out
