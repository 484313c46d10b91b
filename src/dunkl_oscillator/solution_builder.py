"""Assembly of spinor eigenstates and spectra for all sectors and regimes.

The effective frequency w~ = omega - omega_c/2 splits the problem into
three regimes. For w~ > 0 (oscillator-dominated) and w~ < 0 (field-
dominated, handled through w-bar = |w~|) the radial factors are Laguerre
functions under a Gaussian; at the critical point w~ = 0 the system
degenerates to a free particle with Bessel radial profiles.

With sigma = s_x mu_x + s_y mu_y and A the radial order
(A = sqrt(lambda^2 + (mu_x + mu_y)^2) for epsilon = +1,
 A = sqrt(lambda^2 + (mu_x - mu_y)^2) for epsilon = -1),
the four sector spectra collapse to

    w~ > 0:  E(upper, k) = s m c^2 sqrt(1 + q (2k + A + lambda - sigma))
             E(lower, k') = s m c^2 sqrt(1 + q (2k' + A + lambda + sigma + 2))
             with q = 2 hbar w~ / (m c^2), pairing k' = k - sigma - 1;
    w~ < 0:  E(upper, k) = s m c^2 sqrt(1 + qb (2k + A - lambda + sigma + 2))
             E(lower, k') = s m c^2 sqrt(1 + qb (2k' + A - lambda - sigma))
             with qb = 2 hbar w-bar / (m c^2), pairing k' = k + sigma + 1.

Both components of a built spinor share the mode's angular eigenfunction;
the component norms split the total probability as (E +/- m c^2) / (2 E).
The lower component is c_l R_l(rho) F(phi) with a real c_l >= 0: the
first-order operators move each reflection-parity class to the opposite
one, so they couple a pair that shares F not at all, and no relative
phase can be read off the coupled equations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .angular_sector import AngularMode, SectorLabel, f_eigenfunction, lambda_eigenvalue
from .dunkl_calculus import Component, DunklParams, ScalarField2D, remember_last
from .special_functions import bessel_j, laguerre_l, log_gamma


class RegimeError(ValueError):
    """Operation not available in the configuration's frequency regime."""


class InvalidPairError(ValueError):
    """No bound partner index exists for the requested radial index."""


class IntegralityError(ValueError):
    """Deformation parameters incompatible with spinor pairing."""


class NegativeRadicandError(ValueError):
    """Energy radicand negative: unphysical parameter combination."""


class Regime(enum.Enum):
    POSITIVE = "positive"
    CRITICAL = "critical"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class OscillatorConfig:
    """Physical constants and the two frequencies.

    Defaults are natural units hbar = m = c = 1; all formulas keep
    the symbolic constants so SI-like values work as well.
    """

    omega: float
    omega_c: float = 0.0
    m: float = 1.0
    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.omega, self.omega_c, self.m, self.hbar, self.c)):
            raise ValueError(f"omega, omega_c, m, hbar, c must be finite, got {self}")
        if self.m <= 0 or self.hbar <= 0 or self.c <= 0:
            raise ValueError("m, hbar, c must be positive")
        if self.omega < 0 or self.omega_c < 0:
            raise ValueError("omega and omega_c must be non-negative")

    @property
    def omega_tilde(self) -> float:
        return self.omega - 0.5 * self.omega_c

    @property
    def effective_frequency(self) -> float:
        """|w~|, the frequency of the bound regimes' Gaussian."""
        if classify_regime(self) is Regime.CRITICAL:
            raise RegimeError("no effective frequency at the critical point")
        return abs(self.omega_tilde)

    @property
    def length_scale(self) -> float:
        """sqrt(hbar / (m |w~|)); the Compton length hbar / (m c) at the critical point."""
        if classify_regime(self) is Regime.CRITICAL:
            return self.hbar / (self.m * self.c)
        return math.sqrt(self.hbar / (self.m * self.effective_frequency))

    @property
    def rest_energy(self) -> float:
        return self.m * self.c * self.c


def classify_regime(config: OscillatorConfig) -> Regime:
    """Sign of the effective frequency; |w~| within 1e-14 of the larger
    frequency counts as the critical point."""
    scale = max(config.omega, 0.5 * config.omega_c, 1e-300)
    wt = config.omega_tilde
    if abs(wt) <= 1e-14 * scale:
        return Regime.CRITICAL
    return Regime.POSITIVE if wt > 0 else Regime.NEGATIVE


@dataclass(frozen=True)
class QuantumNumbers:
    k: int
    k_prime: int

    def __post_init__(self) -> None:
        if self.k < 0 or self.k_prime < 0:
            raise ValueError("radial indices must be non-negative")


def radial_order(mode: AngularMode) -> float:
    """Laguerre/Bessel order A for the mode's sector family."""
    lam = lambda_eigenvalue(mode)
    p = mode.params
    mu = p.mu_plus if mode.sector.epsilon == 1 else p.mu_minus
    return math.sqrt(lam * lam + mu * mu)


def pair_radial_indices(
    sector: SectorLabel,
    regime: Regime,
    k: int,
    params: DunklParams,
) -> int:
    """Partner (lower-component) radial index for upper index k."""
    if not params.is_spinor_compatible():
        raise IntegralityError(
            "spinor pairing requires both deformation parameters in N or both in N+1/2"
        )
    if k < 0:
        raise ValueError("k must be non-negative")
    sigma = params.signed_sum(sector.s_x, sector.s_y)
    if regime is Regime.POSITIVE:
        kp = k - sigma - 1.0
    elif regime is Regime.NEGATIVE:
        kp = k + sigma + 1.0
    else:
        raise RegimeError("the critical regime has no bound pairs; use free_particle")
    if abs(kp - round(kp)) > 1e-9 or round(kp) < 0:
        raise InvalidPairError(
            f"no partner index for sector ({sector}), k={k}: k'={kp} is not a natural number"
        )
    return int(round(kp))


def energy(
    component: Component,
    sector: SectorLabel,
    mode: AngularMode,
    k: int,
    config: OscillatorConfig,
    sign: int = 1,
) -> float:
    """Closed-form bound energy of one spinor component.

    ``sign`` selects the particle (+1) or antiparticle (-1) branch.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if k < 0:
        raise ValueError("k must be non-negative")
    if sector != mode.sector:
        raise ValueError(f"sector ({sector}) disagrees with the mode {mode}")
    regime = classify_regime(config)
    if regime is Regime.CRITICAL:
        raise RegimeError("no discrete spectrum at the critical frequency")
    lam = lambda_eigenvalue(mode)
    a_ord = radial_order(mode)
    sigma = mode.params.signed_sum(sector.s_x, sector.s_y)
    mc2 = config.rest_energy
    q = 2.0 * config.hbar * config.effective_frequency / mc2
    if regime is Regime.POSITIVE:
        s_num = 2.0 * k + a_ord + lam - sigma
        if component is Component.LOWER:
            s_num = 2.0 * k + a_ord + lam + sigma + 2.0
    else:
        s_num = 2.0 * k + a_ord - lam + sigma + 2.0
        if component is Component.LOWER:
            s_num = 2.0 * k + a_ord - lam - sigma
    radicand = 1.0 + q * s_num
    # Some states have a radicand of exactly 0 (E = 0); rounding of q and of
    # the terms of s_num must not turn it into a tiny E in some units and an
    # error in others, so a radicand within a few ulps of those terms is 0.
    scale = 1.0 + q * (2.0 * k + a_ord + abs(lam) + abs(sigma) + 2.0)
    if abs(radicand) <= 8.0 * math.ulp(1.0) * scale:
        radicand = 0.0
    if radicand < 0.0:
        raise NegativeRadicandError(
            f"negative energy radicand {radicand} for sector ({sector}), n={mode.n}, k={k}"
        )
    return sign * mc2 * math.sqrt(radicand)


@dataclass(frozen=True)
class RadialProfile:
    """Evaluable radial factor rho^{A-mu_+} e^{-s rho^2 / 2} L_k^A(s rho^2)."""

    order: float
    exponent: float
    scale: float
    index: int

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        u = self.scale * rho * rho
        return rho**self.exponent * np.exp(-0.5 * u) * laguerre_l(self.index, self.order, u)

    def norm_squared(self) -> float:
        """Exact squared norm against the radial measure rho^{2 mu_+ + 1} drho.

        Substituting u = s rho^2 turns the integral into the classical
        Laguerre orthogonality integral Gamma(k + A + 1) / k!.
        """
        a, k, s = self.order, self.index, self.scale
        return math.exp(
            log_gamma(k + a + 1.0)
            - log_gamma(k + 1.0)
            - (a + 1.0) * math.log(s)
            - math.log(2.0)
        )


def build_radial(mode: AngularMode, k: int, config: OscillatorConfig) -> RadialProfile:
    """Radial profile of one component (the index is the caller's k or k')."""
    omega_eff = config.effective_frequency
    if k < 0:
        raise ValueError("radial index must be non-negative")
    a_ord = radial_order(mode)
    return RadialProfile(
        order=a_ord,
        exponent=a_ord - mode.params.mu_plus,
        scale=config.m * omega_eff / config.hbar,
        index=k,
    )


@dataclass(frozen=True)
class SpinorSolution:
    """A paired two-component eigenstate with its energy and bookkeeping."""

    upper: ScalarField2D
    lower: ScalarField2D
    energy: float
    quantum: QuantumNumbers | None
    mode: AngularMode
    config: OscillatorConfig
    norm_upper: float | None = None
    norm_lower: float | None = None


def _product_field(radial: Callable, angular: ScalarField2D, scale: complex) -> ScalarField2D:
    """scale * radial(rho) * angular(phi), evaluating the radial factor
    once per distinct radius array (the angular field remembers its own)."""
    radial = remember_last(radial)
    return ScalarField2D(lambda rho, phi: scale * radial(rho) * angular.eval_polar(rho, phi))


def build_spinor(
    sector: SectorLabel,
    mode: AngularMode,
    k: int,
    config: OscillatorConfig,
    sign: int = 1,
) -> SpinorSolution:
    """Assemble the paired two-component state for upper radial index k.

    Component norms are set to <1|1> = (E + mc^2)/(2E) and
    <2|2> = (E - mc^2)/(2E); their sum is 1. Both components carry the
    mode's angular eigenfunction times a real, non-negative constant,
    which fixes the relative phase by convention (see the module
    docstring for why the coupled equations cannot fix it).
    """
    if sector != mode.sector:
        raise ValueError(f"sector ({sector}) disagrees with the mode {mode}")
    regime = classify_regime(config)
    k_prime = pair_radial_indices(sector, regime, k, mode.params)
    e_val = energy(Component.UPPER, sector, mode, k, config, sign)
    mc2 = config.rest_energy

    angular = f_eigenfunction(mode)
    rad_u = build_radial(mode, k, config)
    rad_l = build_radial(mode, k_prime, config)

    nu2 = (e_val + mc2) / (2.0 * e_val)
    nl2 = (e_val - mc2) / (2.0 * e_val)
    cu = math.sqrt(max(nu2, 0.0) / rad_u.norm_squared())
    cl = math.sqrt(max(nl2, 0.0) / rad_l.norm_squared())

    lower = ScalarField2D.zero() if cl == 0.0 else _product_field(rad_l, angular, cl)
    return SpinorSolution(
        upper=_product_field(rad_u, angular, cu),
        lower=lower,
        energy=e_val,
        quantum=QuantumNumbers(k, k_prime),
        mode=mode,
        config=config,
        norm_upper=nu2,
        norm_lower=nl2,
    )


def free_particle(
    sector: SectorLabel,
    mode: AngularMode,
    e_val: float,
    params: DunklParams,
    config: OscillatorConfig,
) -> SpinorSolution:
    """Critical-regime state: both components rho^{-mu_+} J_A(sqrt(2 Et) rho) F(phi).

    Et = (E^2 - m^2 c^4) / (2 hbar^2 c^2) >= 0 is the reduced energy; the
    Bessel order equals the radial order A of the mode (the small-rho
    behavior rho^{A - mu_+} forces this choice). Free states carry no
    normalization split. ``sector`` and ``params`` must be the mode's own.
    """
    if sector != mode.sector or params != mode.params:
        raise ValueError(f"sector ({sector}) or {params} disagrees with the mode {mode}")
    if classify_regime(config) is not Regime.CRITICAL:
        raise RegimeError("free_particle requires omega == omega_c / 2")
    mc2 = config.rest_energy
    if not (math.isfinite(e_val) and e_val >= mc2):
        raise ValueError(f"free-particle energy must be finite and >= m c^2, got {e_val}")
    tilde_e = (e_val * e_val - mc2 * mc2) / (2.0 * config.hbar**2 * config.c**2)
    wavenumber = math.sqrt(2.0 * tilde_e)
    a_ord = radial_order(mode)
    mu_p = mode.params.mu_plus

    def radial(rho):
        return rho ** (-mu_p) * bessel_j(a_ord, wavenumber * rho)

    field = _product_field(radial, f_eigenfunction(mode), 1.0)
    return SpinorSolution(
        upper=field,
        lower=field,
        energy=e_val,
        quantum=None,
        mode=mode,
        config=config,
    )
