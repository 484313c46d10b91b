"""Angular eigenbasis of the deformed angular-momentum operator J.

Within each simultaneous parity class of the two reflections the spectrum
of J comes in signed pairs

    epsilon = +1 : lambda = +/- 2 sqrt(n (n + mu_x + mu_y)),   n = 0, 1, 2, ...
    epsilon = -1 : lambda = +/- 2 sqrt((n + mu_x)(n + mu_y)),  n = 1/2, 3/2, ...

with eigenfunctions built from one weight-normalized Jacobi rule in
x = -cos(2 phi). With e = (1 - s)/2 for each reflection sign s, the
family of signature (s_x, s_y) is

    Phi^{s_x s_y}_n(phi) = c cos^{e_x}(phi) sin^{e_y}(phi) P_j^{(a,b)}(x),
    a = mu_x - 1/2 + e_x,  b = mu_y - 1/2 + e_y,  j = n - (e_x + e_y)/2,
    c^2 = (2j+a+b+1) Gamma(j+a+b+1) j! / (2 Gamma(j+a+1) Gamma(j+b+1)),

(at j = 0 the numerator reads Gamma(a+b+2), so mu = 0, n = 0 stays
finite). The J eigenfunctions mix the two families of a given epsilon
as (Phi_A + i w Phi_B) / sqrt(1 + w^2) with w = epsilon b:

    epsilon = +1 : F = (Phi^{++} + i b Phi^{--}) / sqrt(2)
    epsilon = -1 : F = (Phi^{-+} - i b Phi^{+-}) / sqrt(2)

where b = +/-1 is the branch sign of lambda. The sign pairing (+i with
+lambda for epsilon = +1, -i with +lambda for epsilon = -1) is fixed
numerically by the eigen-residual tests. The 1/sqrt(2) makes the modes
orthonormal under the reflection-symmetric angular weight.

Every Phi and F is a row of one table builder, ``_mixed_rows``, of angular
keys (``_pair`` constants and w): ``f_eigenfunction``, ``mixed_pair`` and
``phi_*`` (the real part of a row that mixes in no Phi_B) are one-row
tables, and ``eigenfunction_rows`` is the table of many modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dunkl_calculus import DunklParams, ScalarField2D, remember_last
from .special_functions import jacobi_rows, log_gamma


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
    # exact: an n near but off its ladder would keep its typed value in
    # lambda and A, while the single-mode rule tests n == 0
    return float(n).is_integer()


def _is_half_odd(n: float) -> bool:
    return _is_integer(n - 0.5)


@dataclass(frozen=True)
class AngularMode:
    """One angular eigenmode: sector label, index n, branch sign, parameters.

    n is a non-negative integer for epsilon = +1 and a positive half-odd
    integer for epsilon = -1. n = 0 has lambda = 0 and only a single
    eigenfunction (the odd-odd partner vanishes identically), so it lives
    in the (+1, +1) sector with branch +1 only.

    A mode object also holds its angular key (``angular_key``), built on
    first use and shared by every state built on the object. F itself is a
    row of a ``_mixed_rows`` table of many keys: the states of a kg or dirac
    check call, or a sector's modes, share one Jacobi table per parity
    family, and each row equals its mode's F (``f_eigenfunction``) bit for
    bit.
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

    @cached_property
    def angular_key(self) -> tuple:
        """The ``_mixed_rows`` key of F, the ``_pair`` constants and w = epsilon b,
        found on first use and shared by its F and every table it is in; the
        modes of a sector and its mirror (both signs flipped) share their keys."""
        return _pair(self.sector.epsilon, self.n, self.params), self.sector.epsilon * self.branch


def _family(s_x: int, s_y: int, n: float, params: DunklParams):
    """(e_x, e_y, a, b, j, c) of Phi^{s_x s_y}_n by the Jacobi rule of the
    module docstring (a, b > -1, as each mu > -1/2); None where j < 0
    (Phi^{--}_0 vanishes identically)."""
    e_x, e_y = (1 - s_x) // 2, (1 - s_y) // 2
    a, b = params.mu_x - 0.5 + e_x, params.mu_y - 0.5 + e_y
    j = int(round(n - 0.5 * (e_x + e_y)))
    if j < 0:
        return None
    # c^2 = (2j+a+b+1) Gamma(j+a+b+1) j! / (2 Gamma(j+a+1) Gamma(j+b+1)); at
    # j = 0 its numerator is Gamma(a+b+2), finite also at a + b + 1 = 0.
    if j == 0:
        log_num = log_gamma(a + b + 2.0)
    else:
        log_num = math.log(2.0 * j + a + b + 1.0) + log_gamma(j + a + b + 1.0) + log_gamma(j + 1.0)
    log_den = math.log(2.0) + log_gamma(j + a + 1.0) + log_gamma(j + b + 1.0)
    return e_x, e_y, a, b, j, math.exp(0.5 * (log_num - log_den))


def _basis(s_x: int, s_y: int, n: float, params: DunklParams):
    """Phi^{s_x s_y}_n as a real function of phi: the real part of the one
    row of a ``_mixed_rows`` table that mixes in no Phi_B (a zero row where
    Phi vanishes)."""
    rows = _mixed_rows([((_family(s_x, s_y, n, params), None), 0.0)])
    return lambda phi: rows(phi)[0].real


def phi_pp(n: int, params: DunklParams, phi):
    """Even-even angular basis function (reflection signature (+1, +1))."""
    return _basis(1, 1, n, params)(phi)


def phi_mm(n: int, params: DunklParams, phi):
    """Odd-odd angular basis function; identically zero at n = 0."""
    return _basis(-1, -1, n, params)(phi)


def phi_mp(n: float, params: DunklParams, phi):
    """Odd-even angular basis function (signature (-1, +1)), half-odd n."""
    return _basis(-1, 1, n, params)(phi)


def phi_pm(n: float, params: DunklParams, phi):
    """Even-odd angular basis function (signature (+1, -1)), half-odd n."""
    return _basis(1, -1, n, params)(phi)


# (Phi_A, Phi_B) families of each epsilon
_PAIR_FAMILIES = {1: ((1, 1), (-1, -1)), -1: ((-1, 1), (1, -1))}


def _pair(epsilon: int, n: float, params: DunklParams) -> tuple:
    """The ``_family`` constants of (Phi_A, Phi_B) for (epsilon, n); Phi_B
    is None at n = 0, where j < 0: it vanishes and the mode is Phi_A alone."""
    sa, sb = _PAIR_FAMILIES[epsilon]
    return _family(*sa, n, params), _family(*sb, n, params)


def _mixed_rows(keys):
    """phi -> the (K, *phi.shape) complex array whose row i is
    (Phi_A + i w Phi_B) / sqrt(1 + w^2) of the angular key keys[i], ``_pair``
    constants and w; a pair whose Phi_B is None mixes with w = -0.0,
    so its row is Phi_A + 0j with the real part Phi_A bit for bit, signed
    zeros included (a +0.0 weight would add +0.0 to a -0.0). The last few
    angle arrays' tables are kept, by ``remember_last``, and are read-only.

    The package's one angular Jacobi path: families with the same constants
    (slot, e_x, e_y, a, b), which do not depend on n, share one
    ``jacobi_rows`` recurrence per angle array. Each Phi is c P_j^{(a,b)}(x),
    then times cos(phi) if e_x, then times sin(phi) if e_y, so a row does
    not depend, bit for bit, on the other rows of its table.
    """
    members: dict = {}  # (slot, e_x, e_y, a, b) -> [(row, j, c)]
    for i, (pair, _) in enumerate(keys):
        for slot, family in enumerate(pair):
            if family is not None:
                e_x, e_y, a, b, j, c = family
                members.setdefault((slot, e_x, e_y, a, b), []).append((i, j, c))
    groups = [(key, *map(np.array, zip(*rows)), max(j for _, j, _ in rows))
              for key, rows in members.items()]
    weights = np.array([-0.0 if family_b is None else w for (_, family_b), w in keys], dtype=float)
    i_weight = 1j * weights
    c_n = 1.0 / np.sqrt(1.0 + weights * weights)

    def table(phi):
        phi = np.asarray(phi, dtype=float)
        col = (-1,) + (1,) * phi.ndim
        x = -np.cos(2.0 * phi)
        families = np.zeros((2, len(keys), *phi.shape))
        for (slot, e_x, e_y, a, b), index, degrees, consts, top in groups:
            basis = consts.reshape(col) * jacobi_rows(a, b, x, top)[degrees]
            if e_x:
                basis = basis * np.cos(phi)
            if e_y:
                basis = basis * np.sin(phi)
            families[slot, index] = basis
        phi_a, phi_b = families
        return c_n.reshape(col) * (phi_a + i_weight.reshape(col) * phi_b)

    return remember_last(table)


def mixed_pair(epsilon: int, n: float, params: DunklParams, weight: float):
    """(Phi_A + i w Phi_B) / sqrt(1 + w^2) as a function of phi: the one
    row of a ``_mixed_rows`` table, so it remembers its last few angle
    arrays.

    (A, B) is (++, --) for epsilon = +1 and (-+, +-) for epsilon = -1.
    At n = 0 Phi^{--} vanishes and mixes with weight 0, so the mode is
    Phi^{++}_0 + 0j (``phi_pp`` bit for bit), whatever the weight.
    """
    rows = _mixed_rows([(_pair(epsilon, n, params), weight)])
    return lambda phi: rows(phi)[0]


def eigenfunction_rows(modes):
    """phi -> F of every mode of ``modes`` (any sectors and parameters) as
    one (K, *phi.shape) array, row i holding modes[i]: the ``_mixed_rows``
    table of the modes' ``AngularMode.angular_key``. Each row equals its
    mode's own F bit for bit.
    """
    return _mixed_rows([mode.angular_key for mode in modes])


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

    The field is row 0 of the mode's one-row ``eigenfunction_rows`` table,
    built on each call (the basis constants on the mode object's first).
    The table remembers its last few angle arrays, so the field evaluates
    F once per distinct angle array.
    """
    rows = eigenfunction_rows([mode])
    return ScalarField2D(lambda rho, phi: rows(phi)[0])


def modes_for_sector(sector: SectorLabel, params: DunklParams, n_max: float):
    """All modes of a sector with n <= n_max, both branches where they exist.
    One rule for both ladders (integer n from 0 or 1 at epsilon = +1,
    half-odd n from 1/2 at epsilon = -1): n_max is compared exactly, so no
    rung above it is let in."""
    first = 0.5 if sector.epsilon == -1 else 0 if sector == SectorLabel(1, 1) else 1
    ladder = [first + i for i in range(math.floor(n_max - first) + 1)]
    return [AngularMode(sector, n, branch, params) for n in ladder for branch in ((1, -1) if n else (1,))]
