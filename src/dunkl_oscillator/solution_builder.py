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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .angular_sector import (
    ALL_SECTORS,
    AngularMode,
    SectorLabel,
    _mixed_rows,
    lambda_eigenvalue,
    modes_for_sector,
)
from .dunkl_calculus import Component, DunklParams, ScalarField2D, remember_last
from .special_functions import MAX_DEGREE, DomainError, bessel_j, laguerre_rows, log_gamma


class RegimeError(ValueError):
    """Operation not available in the configuration's frequency regime."""


class InvalidPairError(ValueError):
    """No bound partner index exists for the requested radial index."""


class IntegralityError(ValueError):
    """Deformation parameters incompatible with spinor pairing."""


class NegativeRadicandError(ValueError):
    """Energy radicand negative: unphysical parameter combination."""


class NormRangeError(ValueError):
    """A state's normalization constant lies outside the double-precision range."""


class Regime(enum.Enum):
    POSITIVE = "positive"
    CRITICAL = "critical"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class OscillatorConfig:
    """The two frequencies and the speed of light c (default 1), in units
    hbar = m = 1: states and spectra depend on hbar and m only through q
    and the length sqrt(hbar / (m |w~|)), so the two only choose units.
    A c whose square m c^2 underflows to 0 or overflows a double (c below
    about 1.6e-162 or above about 1.34e154) raises ``ValueError``."""

    omega: float
    omega_c: float = 0.0
    c: float = 1.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.omega, self.omega_c, self.c)):
            raise ValueError(f"omega, omega_c, c must be finite, got {self}")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if not 0.0 < self.c * self.c < math.inf:
            raise ValueError(f"c = {self.c:g} {'overflows a double' if self.c > 1.0 else 'underflows to 0'} "
                             "when squared")
        if self.omega < 0 or self.omega_c < 0:
            raise ValueError("omega and omega_c must be non-negative")

    @property
    def omega_tilde(self) -> float:
        """w~ = omega - omega_c / 2, with its sign: the bound regimes' Gaussian
        is exp(-|w~| rho^2 / 2), and w~ multiplies J and the reflection term."""
        return self.omega - 0.5 * self.omega_c

    @property
    def effective_frequency(self) -> float:
        """|w~|, the frequency of the bound regimes' Gaussian."""
        if classify_regime(self) is Regime.CRITICAL:
            raise RegimeError("no effective frequency at the critical point")
        return abs(self.omega_tilde)

    @property
    def length_scale(self) -> float:
        """sqrt(hbar / (m |w~|)); the Compton length hbar / (m c) at the critical point.
        A |w~| whose length is not a finite double (below about 5.6e-309) raises ``ValueError``."""
        if classify_regime(self) is Regime.CRITICAL:
            return 1.0 / self.c
        length = math.sqrt(1.0 / self.effective_frequency)
        if not math.isfinite(length):
            raise ValueError(f"the length scale sqrt(hbar / (m |w~|)) of |w~| = {self.effective_frequency:g} "
                             "is not a finite double")
        return length

    @property
    def rest_energy(self) -> float:
        """m c^2."""
        return self.c * self.c


def classify_regime(config: OscillatorConfig) -> Regime:
    """Sign of the effective frequency; |w~| within 1e-14 of the larger
    frequency counts as the critical point, so omega = omega_c = 0 is
    critical and any other |w~| that 1e-14 of it does not reach is bound."""
    scale = max(config.omega, 0.5 * config.omega_c)
    wt = config.omega_tilde
    if abs(wt) <= 1e-14 * scale:
        return Regime.CRITICAL
    return Regime.POSITIVE if wt > 0 else Regime.NEGATIVE


def radial_order(mode: AngularMode) -> float:
    """Laguerre/Bessel order A for the mode's sector family."""
    lam = lambda_eigenvalue(mode)
    p = mode.params
    mu = p.mu_plus if mode.sector.epsilon == 1 else p.mu_minus
    return math.sqrt(lam * lam + mu * mu)


def partner_offset(sector: SectorLabel, regime: Regime, params: DunklParams) -> int:
    """k' - k, the lower component's radial index less the upper one's:
    -sigma - 1 at w~ > 0 and sigma + 1 at w~ < 0, sigma = s_x mu_x + s_y mu_y,
    an integer for spinor-compatible parameters."""
    if not params.is_spinor_compatible():
        raise IntegralityError("spinor pairing requires both deformation parameters in N or both in N+1/2")
    sigma = round(params.signed_sum(sector.s_x, sector.s_y))
    if regime is Regime.POSITIVE:
        return -sigma - 1
    if regime is Regime.NEGATIVE:
        return sigma + 1
    raise RegimeError("the critical regime has no bound pairs; use free_particle")


def pair_radial_indices(sector: SectorLabel, regime: Regime, k: int, params: DunklParams) -> int:
    """Partner (lower-component) radial index k + ``partner_offset`` of upper index k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    k_prime = k + partner_offset(sector, regime, params)
    if k_prime < 0:
        raise InvalidPairError(f"no partner index for sector ({sector}), k={k}: "
                               f"k'={k_prime} is not a natural number")
    return k_prime


def spectral_terms(mode: AngularMode) -> tuple[float, float, float]:
    """(lambda, A, sigma) of ``mode``, sigma = s_x mu_x + s_y mu_y: the
    mode's terms of ``spectral_sum``."""
    return lambda_eigenvalue(mode), radial_order(mode), mode.params.signed_sum(mode.sector.s_x, mode.sector.s_y)


def spectral_sum(component: Component, regime: Regime, ks, lam: float, a_ord: float, sigma: float):
    """The sum s of E = s m c^2 sqrt(1 + q s) (module docstring) of one
    spinor component in a bound regime, at each radial index of ``ks``,
    from a mode's ``spectral_terms``."""
    if regime is Regime.POSITIVE:
        if component is Component.UPPER:
            return 2.0 * ks + a_ord + lam - sigma
        return 2.0 * ks + a_ord + lam + sigma + 2.0
    if component is Component.UPPER:
        return 2.0 * ks + a_ord - lam + sigma + 2.0
    return 2.0 * ks + a_ord - lam - sigma


def energy_column(component: Component, mode: AngularMode, ks, config: OscillatorConfig):
    """Closed-form bound particle energies of one spinor component of
    ``mode`` at each radial index of ``ks``, an array of natural numbers (or
    one), with lambda, A, sigma, q and the regime found once. NaN marks a
    negative radicand (an unphysical combination, which no bound pair has).
    Energies that a double cannot resolve, at a huge q, raise ``ValueError``."""
    regime = classify_regime(config)
    if regime is Regime.CRITICAL:
        raise RegimeError("no discrete spectrum at the critical frequency")
    lam, a_ord, sigma = spectral_terms(mode)
    mc2 = config.rest_energy
    q = 2.0 * config.effective_frequency / mc2
    s_num = spectral_sum(component, regime, ks, lam, a_ord, sigma)
    # Some states have a radicand of exactly 0 (E = 0); rounding of q and of
    # the terms of s_num must not turn it into a tiny E in some units and an
    # error in others, so a radicand within a few ulps of those terms is 0.
    # A bound of 1 or more cannot tell E = 0 from E >= m c^2, and one that
    # overflows snaps every radicand: such energies raise instead.
    with np.errstate(over="ignore", invalid="ignore"):  # no overflow warning; sqrt of < 0 is NaN
        radicand = 1.0 + q * s_num
        bound = 8.0 * math.ulp(1.0) * (1.0 + q * (2.0 * ks + a_ord + abs(lam) + abs(sigma) + 2.0))
        snap = abs(radicand) <= bound
        if not np.logical_and.reduce(bound < 1.0, axis=None) and (
                np.any(snap & (bound >= 1.0)) or np.any(bound == math.inf)):
            raise ValueError(f"the energies of sector ({mode.sector}), n={mode.n:g}, b={mode.branch:+d} are "
                             f"not resolved in double precision at q = 2 hbar |w~| / (m c^2) = {q:g}")
        return mc2 * np.sqrt(np.where(snap, 0.0, radicand))


def energy(component: Component, sector: SectorLabel, mode: AngularMode, k: int,
           config: OscillatorConfig, sign: int = 1) -> float:
    """Closed-form bound energy of one spinor component: the one-element
    ``energy_column``, negated for the antiparticle branch (``sign`` -1),
    with a negative radicand raised as an error."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if sector != mode.sector:
        raise ValueError(f"sector ({sector}) disagrees with the mode {mode}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    e_val = sign * float(energy_column(component, mode, k, config))
    if math.isnan(e_val):
        raise NegativeRadicandError(f"negative energy radicand for sector ({sector}), n={mode.n}, k={k}")
    return e_val


def _column(values, ndim: int) -> np.ndarray:
    """``values`` as a (K, 1, ..., 1) column against ``ndim`` coordinate axes."""
    return np.reshape(values, (-1,) + (1,) * ndim)


def radial_rows(orders, mu_plus: float, scale: float, k_top: int):
    """rho -> the (k_top + 1, M, *rho.shape) table of
    R_k = t^{A-mu_+} e^{-t^2 / 2} L_k^A(t^2), k = 0..k_top, of each of the M
    orders A of ``orders``, at scale s, in the unit-free radius t = rho sqrt(s):
    one Laguerre recurrence for all M, each element equal to its own order's.
    The prefactor and the recurrence run once per distinct radius array
    (the last few are kept, by ``remember_last``); tables are read-only.
    """
    root_s = math.sqrt(scale)
    orders = np.ravel(orders).tolist()
    # the powers are taken one Python-float exponent at a time: numpy squares
    # t for a scalar 2 but calls pow for an exponent array, and the two can
    # differ in the last bit
    exponents = [a - mu_plus for a in orders]

    def table(rho):
        t = root_s * rho
        u = t * t
        power = np.array([t**e for e in exponents])
        return power * np.exp(-0.5 * u) * laguerre_rows(_column(orders, t.ndim), u, k_top)

    return remember_last(table)


@dataclass(frozen=True)
class RadialProfile:
    """Evaluable radial factor t^{A-mu_+} e^{-t^2 / 2} L_k^A(t^2), t = rho sqrt(s)."""

    order: float
    mu_plus: float
    scale: float
    index: int

    @cached_property
    def rows(self):
        """The one-order ``radial_rows`` table of rows 0..index, built on first use."""
        return radial_rows([self.order], self.mu_plus, self.scale, self.index)

    def __call__(self, rho):
        return self.rows(rho)[self.index, 0]

    def log_norm_squared(self) -> float:
        """Log of the exact squared norm against the radial measure
        rho^{2 mu_+ + 1} drho.

        Substituting u = t^2 = s rho^2 turns the integral into the classical
        Laguerre orthogonality integral Gamma(k + A + 1) / k!, times
        s^{-(mu_+ + 1)} from the measure: the only unit-dependent factor.
        """
        a, k, s = self.order, self.index, self.scale
        return log_gamma(k + a + 1.0) - log_gamma(k + 1.0) - math.log(2.0) - (self.mu_plus + 1.0) * math.log(s)


def build_radial(mode: AngularMode, k: int, config: OscillatorConfig) -> RadialProfile:
    """Radial profile of one component (the index is the caller's k or k'),
    of scale m |w~| / hbar."""
    if classify_regime(config) is Regime.CRITICAL:
        raise RegimeError("no bound radial profile at the critical point")
    if k < 0:
        raise ValueError("radial index must be non-negative")
    return RadialProfile(radial_order(mode), mode.params.mu_plus, abs(config.omega_tilde), k)


# The table rows one component of a built state reads: radial (index, order), angular key, and their amplitude.
ComponentRow = NamedTuple("ComponentRow", [("order", float), ("index", int), ("angular", tuple), ("amplitude", float)])


@dataclass(frozen=True)
class SpinorSolution:
    """A paired two-component eigenstate with its energy and bookkeeping.

    ``rows`` holds, per component (upper, lower), the ``ComponentRow`` that
    ``mode_states`` or ``free_particle`` named for a built state, or the
    component's own ``ScalarField2D`` for a hand-built one (both of one kind);
    a built state's radial indices (k and k', or 0 and 0) are their ``index``.
    ``upper`` and ``lower`` are a hand-built state's fields, or row 0 of a
    built state's one-state ``stacked_blocks`` fields, built on first use
    and kept on the object; a zero amplitude gives ``ScalarField2D.zero()``.
    """

    energy: float
    mode: AngularMode
    config: OscillatorConfig
    rows: tuple[ComponentRow | ScalarField2D, ComponentRow | ScalarField2D]

    @cached_property
    def _fields(self) -> tuple[ScalarField2D, ScalarField2D]:
        if all(isinstance(row, ScalarField2D) for row in self.rows):
            return self.rows
        [(_, fields)] = stacked_blocks([self])
        return tuple(ScalarField2D.zero() if row.amplitude == 0.0 else
                     ScalarField2D(lambda rho, phi, f=f: f.eval_polar(rho, phi)[0])
                     for row, f in zip(self.rows, fields))

    upper = property(lambda self: self._fields[0])
    lower = property(lambda self: self._fields[1])


# |log x| below this: x and 1 / x are normal doubles.
_LOG_NORMAL = 700.0


def _amplitude(share: float, radial: RadialProfile) -> float:
    """sqrt(share / <R|R>), the constant that gives a component its share
    of the probability.

    While the norm is a normal double this is the plain quotient. Past
    that (high radial orders, or extreme units) the quotient is formed in
    log space, so an amplitude that is itself a normal double is still
    found; one that is not raises ``NormRangeError`` rather than turn the
    state into zeros or infinities.
    """
    if share <= 0.0:
        return 0.0
    log_norm = radial.log_norm_squared()
    if abs(log_norm) < _LOG_NORMAL:
        return math.sqrt(share / math.exp(log_norm))
    log_amp = 0.5 * (math.log(share) - log_norm)
    if abs(log_amp) >= _LOG_NORMAL:
        raise NormRangeError(
            f"the normalization constant e^{log_amp:.6g} of radial index {radial.index} "
            "is outside the double-precision range"
        )
    return math.exp(log_amp)


def _check_last_pair(sector: SectorLabel, pairs) -> None:
    """Raise ``DomainError`` if the last pair of ``pairs`` (the largest k
    and k' of pairs in k order) of ``sector`` has an index past ``MAX_DEGREE``."""
    if pairs and max(pairs[-1]) > MAX_DEGREE:
        k, k_prime = pairs[-1]
        raise DomainError(f"k={k} pairs with the lower radial index k'={k_prime} in sector ({sector}); "
                          f"radial indices must be at most {MAX_DEGREE}")


def mode_states(mode: AngularMode, pairs, config: OscillatorConfig) -> dict:
    """The paired two-component states of ``mode`` for the (k, k') of
    ``pairs``, keyed by k in order, from one ``energy_column`` call and the
    mode's radial profile (``build_radial``) at each index; a pair's E is
    finite, E >= m c^2 sqrt(1 + q) (README, "Physics summary").

    Component norms are (E +/- mc^2)/(2E), summing to 1. Both components
    are a real constant >= 0 (the phase convention of the module docstring)
    times the mode's F: each state names its rows (``ComponentRow``), with
    the constants found here, and no field is evaluated. A last pair (the
    largest k and k' of pairs in k order) past ``MAX_DEGREE`` raises
    ``DomainError`` (``_check_last_pair``) before anything is built.
    """
    _check_last_pair(mode.sector, pairs)
    top = build_radial(mode, 0, config)
    mc2 = config.rest_energy
    e_vals = energy_column(Component.UPPER, mode, np.array([k for k, _ in pairs]), config).tolist()
    states = {}
    for (k, k_prime), e_val in zip(pairs, e_vals):
        shares = ((k, (e_val + mc2) / (2.0 * e_val)), (k_prime, (e_val - mc2) / (2.0 * e_val)))
        rows = tuple(ComponentRow(top.order, index, mode.angular_key,
                                  _amplitude(share, RadialProfile(top.order, top.mu_plus, top.scale, index)))
                     for index, share in shares)
        states[k] = SpinorSolution(e_val, mode, config, rows)
    return states


def build_spinor(mode: AngularMode, k: int, config: OscillatorConfig, made: dict | None = None) -> SpinorSolution:
    """The paired two-component state of ``mode`` for upper radial index k:
    a read of ``made``, the ``mode_states`` of this mode and config over
    many pairs, or else the one-pair ``mode_states`` call. A missing partner
    index raises ``InvalidPairError``."""
    if made is None or k not in made:
        k_prime = pair_radial_indices(mode.sector, classify_regime(config), k, mode.params)
        made = mode_states(mode, [(k, k_prime)], config)
    return made[k]


def sweep_bound_states(params: DunklParams, config: OscillatorConfig, n_max: float = 2, k_max: int = 2):
    """Yield every buildable bound state of the sweep: each mode of
    ``modes_for_sector`` up to ``n_max``, sector by sector, with each
    k <= k_max in order, a ``build_spinor`` read of the mode's one
    ``mode_states`` call. A k whose partner index k + ``partner_offset`` is
    negative is skipped (its read raises ``InvalidPairError``). The regime,
    the pairing and the last pair of every sector with modes
    (``_check_last_pair``) are checked, in that order, before the first state."""
    regime = classify_regime(config)
    if regime is Regime.CRITICAL:
        raise RegimeError("bound-state sweep requires a non-critical regime")
    offsets = {sector: partner_offset(sector, regime, params) for sector in ALL_SECTORS}
    sectors = [(sector, [(k, k + offset) for k in range(max(0, -offset), k_max + 1)], modes)
               for sector, offset in offsets.items() if (modes := modes_for_sector(sector, params, n_max))]
    for sector, pairs, _ in sectors:
        _check_last_pair(sector, pairs)
    for _, pairs, modes in sectors:
        for mode in modes:
            made = mode_states(mode, pairs, config)
            for k in range(k_max + 1):
                try:
                    yield build_spinor(mode, k, config, made)
                except InvalidPairError:
                    continue


# Most states in one block of ``stacked_blocks``: the checks apply their
# operators once per block, and the blocks of one call share their tables.
# Memory, not speed, sets it: over 30 alternating pairs of whole perfbench
# sweep passes (seed 0, 2-core VM) 48 and 96 took 1.01 and 1.02 of 24's time
# (IQRs 0.95-1.08 and 0.97-1.11), and a pass peaked at 35, 38, 41 and 44 MB
# at 24, 48, 96 and 600.
_STATE_BLOCK = 24


def stacked_blocks(states):
    """Yield each run of at most ``_STATE_BLOCK`` consecutive states of ``states``
    (a block) with its upper and lower components as fields with row i
    holding the block's state i: (K, *shape) on points of any broadcast
    shape, such as a radius column against an angle row, each factor on its
    own axis.

    The package's one row evaluator: a state's own ``upper`` and ``lower``
    are row 0 of its one-state call. All blocks read one set of tables,
    built here over all of ``states`` (of any modes of one config and one
    set of parameters; at the critical point, whose states are all free,
    of one energy too, as they share a grid) from the rows that each
    component names (``SpinorSolution.rows``): one ``_mixed_rows`` table
    of their distinct angular keys and one radial table of their distinct
    orders, per coordinate array: one Laguerre recurrence up to the largest
    index, or one ``free_rows`` Bessel call read at index 0, in one layout
    (k, order, *rho.shape). The tables
    remember their last few coordinate arrays, so blocks evaluated on one
    stencil share each recurrence; the products are not kept (the checks
    keep theirs). Row i is (c_i R_i(rho)) F_i(phi), and a table row does
    not depend on the other rows, so every row equals its state's own field
    (its one-state row) bit for bit; a zero amplitude gives a zero row. A
    hand-built state (``rows`` of fields) raises ``ValueError``. No states,
    no blocks.
    """
    if not states:
        return
    first = states[0]
    config, params, free = first.config, first.mode.params, classify_regime(first.config) is Regime.CRITICAL
    for st in states:
        if not all(isinstance(row, ComponentRow) for row in st.rows):
            raise ValueError("only states built by build_spinor or free_particle stack")
        if st.config != config or st.mode.params != params:
            raise ValueError(f"states of {first.mode} and {st.mode} do not share a config and parameters")
        if free and st.energy != first.energy:
            raise ValueError("free states stack only with free states of one energy")
    orders, keys = {}, {}  # each distinct radial order and angular key -> its row in its table
    # per state and component: its radial index, radial table row and angular table row
    layout = np.array([[(row.index, orders.setdefault(row.order, len(orders)), keys.setdefault(row.angular, len(keys)))
                        for row in st.rows] for st in states])
    amplitudes = np.array([[row.amplitude for row in st.rows] for st in states])
    angular = _mixed_rows(list(keys))
    table = (free_rows(list(orders), params.mu_plus, config, first.energy) if free else
             radial_rows(list(orders), params.mu_plus, abs(config.omega_tilde), int(layout[..., 0].max())))
    for lo in range(0, len(states), _STATE_BLOCK):
        own = slice(lo, lo + _STATE_BLOCK)
        yield states[own], tuple(_stacked(table, angular, *layout[own, c].T, amplitudes[own, c]) for c in (0, 1))


def _stacked(table, angular, radial_ks, rows, angular_rows, amplitudes) -> ScalarField2D:
    """The field whose row i is (amplitudes[i] R(rho)) F(phi), R row
    (radial_ks[i], rows[i]) of the radial ``table`` and F row angular_rows[i]
    of the ``angular`` one. Where rho and phi differ in rank, the lower one
    first gains leading unit axes, so every row broadcasts them as numpy would."""
    def rule(rho, phi):
        if np.ndim(rho) != np.ndim(phi):
            rank = max(np.ndim(rho), np.ndim(phi))
            rho, phi = (np.reshape(a, (1,) * (rank - np.ndim(a)) + np.shape(a)) for a in (rho, phi))
        return _column(amplitudes, np.ndim(rho)) * table(rho)[radial_ks, rows] * angular(phi)[angular_rows]

    return ScalarField2D(rule)


def reduced_energy(config: OscillatorConfig, e_val: float) -> float:
    """Et = (E^2 - m^2 c^4) / (2 hbar^2 c^2) of the energy E = ``e_val``;
    an E whose square overflows a double raises ``ValueError``."""
    mc2 = config.rest_energy
    try:
        return (e_val**2 - mc2**2) / (2.0 * config.c**2)
    except OverflowError:
        raise ValueError(f"the energy {e_val:g} is too large: its square overflows a double") from None


def free_rows(orders, mu_plus: float, config: OscillatorConfig, e_val: float):
    """rho -> the (1, M, *rho.shape) table of rho^{-mu_+} J_A(sqrt(2 Et) rho),
    one row per order A of ``orders``, of the free state of energy ``e_val``
    (Et = ``reduced_energy``), with ``radial_rows``' layout at k = 0 alone.
    One ``bessel_j`` call per distinct radius array (the last few are kept,
    by ``remember_last``); each row equals its own order's value bit for
    bit, and tables are read-only."""
    wavenumber = math.sqrt(2.0 * reduced_energy(config, e_val))
    return remember_last(lambda rho: (rho**-mu_plus * bessel_j(_column(orders, rho.ndim), wavenumber * rho))[None])


def free_particle(mode: AngularMode, e_val: float, config: OscillatorConfig) -> SpinorSolution:
    """Critical-regime state: both components rho^{-mu_+} J_A(sqrt(2 Et) rho) F(phi).

    Et = ``reduced_energy`` >= 0; the Bessel order equals the radial order
    A of the mode (the small-rho behavior rho^{A - mu_+} forces this
    choice). Free states carry no normalization split.
    """
    if classify_regime(config) is not Regime.CRITICAL:
        raise RegimeError("free states need the critical point, omega == omega_c / 2")
    if not (math.isfinite(e_val) and e_val >= config.rest_energy):
        raise ValueError(f"free-particle energy must be finite and >= m c^2, got {e_val}")
    reduced_energy(config, e_val)  # an E whose square overflows raises here, not at the first evaluation
    row = ComponentRow(radial_order(mode), 0, mode.angular_key, 1.0)
    return SpinorSolution(e_val, mode, config, (row, row))
