"""Spectra, pairing constraints, radial profiles, spinor assembly."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dunkl_oscillator import angular_sector, solution_builder, verification
from dunkl_oscillator.angular_sector import (
    ALL_SECTORS,
    AngularMode,
    SectorLabel,
    f_eigenfunction,
    lambda_eigenvalue,
    modes_for_sector,
    phi_mm,
    phi_pp,
)
from dunkl_oscillator.dunkl_calculus import (
    Component,
    DunklParams,
    ScalarField2D,
    polar_quadrature,
    weighted_inner_product,
)
from dunkl_oscillator.solution_builder import (
    ComponentRow,
    IntegralityError,
    InvalidPairError,
    NegativeRadicandError,
    OscillatorConfig,
    Regime,
    RegimeError,
    build_radial,
    build_spinor,
    classify_regime,
    energy,
    free_particle,
    pair_radial_indices,
    partner_offset,
    radial_order,
    sweep_bound_states,
)
from dunkl_oscillator.special_functions import DomainError
from dunkl_oscillator.verification import (
    _STATE_BLOCK,
    GridSpec,
    classical_oscillator_b_energy,
    run_suite,
)

P11 = DunklParams(1.0, 1.0)
P00 = DunklParams(0.0, 0.0)
CFG_POS = OscillatorConfig(omega=1.0)
CFG_NEG = OscillatorConfig(omega=0.25, omega_c=2.5)  # w~ = -1
CFG_CRIT = OscillatorConfig(omega=1.0, omega_c=2.0)


def _split(st) -> tuple[float, float]:
    """(E + m c^2) / (2E) and (E - m c^2) / (2E): the shares of a built
    state's probability that its upper and lower components carry."""
    e, mc2 = st.energy, st.config.rest_energy
    return (e + mc2) / (2.0 * e), (e - mc2) / (2.0 * e)


class TestRegime:
    def test_classification(self):
        assert classify_regime(OscillatorConfig(omega=1.0, omega_c=0.0)) is Regime.POSITIVE
        assert classify_regime(OscillatorConfig(omega=1.0, omega_c=2.0)) is Regime.CRITICAL
        assert classify_regime(OscillatorConfig(omega=0.0, omega_c=1.0)) is Regime.NEGATIVE

    def test_near_zero_tolerance(self):
        cfg = OscillatorConfig(omega=1.0, omega_c=2.0 * (1.0 + 5e-15))
        assert classify_regime(cfg) is Regime.CRITICAL

    def test_a_tiny_frequency_is_bound_and_zero_is_critical(self):
        # the tolerance is relative to the larger frequency alone, with no floor
        assert classify_regime(OscillatorConfig(omega=1e-320)) is Regime.POSITIVE
        assert classify_regime(OscillatorConfig(omega=0.0, omega_c=1e-320)) is Regime.NEGATIVE
        assert classify_regime(OscillatorConfig(omega=1e-320, omega_c=2e-320)) is Regime.CRITICAL
        assert classify_regime(OscillatorConfig(omega=0.0)) is Regime.CRITICAL

    @pytest.mark.parametrize("omega", [1e-320, 1e-313, 5.5e-309])
    def test_a_length_scale_past_the_largest_double_raises(self, omega):
        # 1 / sqrt(|w~|) is past the largest double below about 5.6e-309
        with pytest.raises(ValueError, match="length scale"):
            OscillatorConfig(omega=omega).length_scale
        assert OscillatorConfig(omega=5.6e-309).length_scale == math.sqrt(1.0 / 5.6e-309)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OscillatorConfig(omega=-1.0)
        with pytest.raises(ValueError):
            OscillatorConfig(omega=1.0, c=0.0)

    @pytest.mark.parametrize("c, why", [(1e-200, "underflows to 0"), (1.5e-162, "underflows to 0"),
                                        (1.35e154, "overflows a double"), (1e155, "overflows a double")])
    def test_a_c_whose_square_leaves_the_double_range_raises(self, c, why):
        # m c^2 = 0 would divide q = 2 hbar |w~| / (m c^2) by zero, and an
        # infinite one makes every energy infinite
        with pytest.raises(ValueError, match=re.escape(f"c = {c:g} {why} when squared")):
            OscillatorConfig(omega=1.0, c=c)
        for c in (1.6e-162, 1e-160, 1e154, 1.34e154):
            assert 0.0 < OscillatorConfig(omega=1.0, c=c).rest_energy < math.inf

    @pytest.mark.parametrize("field", ["omega", "omega_c", "c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_constants_rejected(self, field, value):
        with pytest.raises(ValueError):
            OscillatorConfig(**{"omega": 1.0, field: value})

    def test_effective_frequency_and_length_scale(self):
        assert CFG_NEG.effective_frequency == 1.0
        assert CFG_NEG.length_scale == 1.0
        cfg = OscillatorConfig(omega=16.0, c=3.0)
        assert cfg.length_scale == pytest.approx(0.25, rel=1e-15)
        # at the critical point the length is the Compton length 1 / c
        crit = OscillatorConfig(omega=1.0, omega_c=2.0, c=5.0)
        assert crit.length_scale == pytest.approx(0.2, rel=1e-15)
        with pytest.raises(RegimeError):
            crit.effective_frequency


class TestPairing:
    def test_oscillator_dominated_regime(self):
        sector = SectorLabel(1, 1)
        assert pair_radial_indices(sector, Regime.POSITIVE, 3, P11) == 0
        for k in (0, 1, 2):
            with pytest.raises(InvalidPairError):
                pair_radial_indices(sector, Regime.POSITIVE, k, P11)

    def test_field_dominated_regime(self):
        assert pair_radial_indices(SectorLabel(1, 1), Regime.NEGATIVE, 0, P11) == 3

    def test_signed_offsets_per_sector(self):
        # k' = k - sigma - 1 with sigma = s_x mu_x + s_y mu_y
        p = DunklParams(2.0, 1.0)
        assert pair_radial_indices(SectorLabel(-1, -1), Regime.POSITIVE, 0, p) == 2
        assert pair_radial_indices(SectorLabel(1, -1), Regime.POSITIVE, 2, p) == 0
        assert pair_radial_indices(SectorLabel(-1, 1), Regime.POSITIVE, 0, p) == 0

    def test_half_odd_family(self):
        p = DunklParams(0.5, 0.5)
        assert pair_radial_indices(SectorLabel(1, 1), Regime.POSITIVE, 2, p) == 0

    def test_integrality_guard(self):
        with pytest.raises(IntegralityError):
            pair_radial_indices(SectorLabel(1, 1), Regime.POSITIVE, 3, DunklParams(0.3, 1.0))

    def test_critical_regime_has_no_pairs(self):
        with pytest.raises(RegimeError):
            pair_radial_indices(SectorLabel(1, 1), Regime.CRITICAL, 0, P11)
        with pytest.raises(RegimeError):
            partner_offset(SectorLabel(1, 1), Regime.CRITICAL, P11)

    @pytest.mark.parametrize("params", [P00, P11, DunklParams(2.0, 1.0), DunklParams(0.5, 1.5)])
    def test_every_pair_is_k_plus_the_sector_offset(self, params):
        # pair_radial_indices and the sweep read k' - k from partner_offset:
        # each mode's states are one range of k, from the first k whose k' >= 0
        for regime, config in ((Regime.POSITIVE, CFG_POS), (Regime.NEGATIVE, CFG_NEG)):
            swept: dict = {}
            for st in sweep_bound_states(params, config, 1, 8):
                swept.setdefault(st.mode, []).append((st.rows[0].index, st.rows[1].index))
            assert swept
            for sector in ALL_SECTORS:
                offset = partner_offset(sector, regime, params)
                assert type(offset) is int
                for mode in modes_for_sector(sector, params, 1):
                    assert swept[mode] == [(k, k + offset) for k in range(9) if k + offset >= 0]
                for k in range(9):
                    if k + offset < 0:
                        with pytest.raises(InvalidPairError, match=f"k'={k + offset} is not"):
                            pair_radial_indices(sector, regime, k, params)
                    else:
                        assert pair_radial_indices(sector, regime, k, params) == k + offset


class TestEnergy:
    def test_rest_energy_state(self):
        mode = AngularMode(SectorLabel(1, 1), 0, 1, P00)
        assert energy(Component.UPPER, SectorLabel(1, 1), mode, 0, CFG_POS, 1) == 1.0

    def test_frozen_sqrt13(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P00)
        val = energy(Component.UPPER, SectorLabel(1, 1), mode, 1, CFG_POS, 1)
        assert val == pytest.approx(math.sqrt(13.0), rel=1e-15)

    def test_frozen_sqrt5_field_dominated(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P00)
        cfg = OscillatorConfig(omega=0.0, omega_c=2.0)  # w~ = -1
        val = energy(Component.UPPER, SectorLabel(1, 1), mode, 0, cfg, 1)
        assert val == pytest.approx(math.sqrt(5.0), rel=1e-15)

    def test_sign_branch(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        up = energy(Component.UPPER, SectorLabel(1, 1), mode, 2, CFG_POS, 1)
        dn = energy(Component.UPPER, SectorLabel(1, 1), mode, 2, CFG_POS, -1)
        assert dn == -up

    def test_upper_lower_agree_on_paired_indices(self):
        for params in (P00, P11, DunklParams(0.5, 0.5)):
            for cfg, regime in ((CFG_POS, Regime.POSITIVE), (CFG_NEG, Regime.NEGATIVE)):
                for sector in ALL_SECTORS:
                    for mode in modes_for_sector(sector, params, 3):
                        for k in range(4):
                            try:
                                kp = pair_radial_indices(sector, regime, k, params)
                            except InvalidPairError:
                                continue
                            e_up = energy(Component.UPPER, sector, mode, k, cfg, 1)
                            e_lo = energy(Component.LOWER, sector, mode, kp, cfg, 1)
                            assert e_lo == pytest.approx(e_up, rel=1e-14)
                            assert abs(e_up) >= cfg.rest_energy  # bound-state positivity

    def test_negative_radicand_flagged(self):
        mode = AngularMode(SectorLabel(1, 1), 1, -1, DunklParams(3.0, 3.0))
        cfg = OscillatorConfig(omega=50.0)
        with pytest.raises(NegativeRadicandError):
            energy(Component.UPPER, SectorLabel(1, 1), mode, 0, cfg, 1)

    def test_critical_raises(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        with pytest.raises(RegimeError):
            energy(Component.UPPER, SectorLabel(1, 1), mode, 0, CFG_CRIT, 1)

    def test_sector_must_match_the_mode(self):
        # sigma is read from the sector and lambda from the mode, so a
        # mismatch would mix two sectors' spectra into one finite number
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        for component in (Component.UPPER, Component.LOWER):
            with pytest.raises(ValueError, match="disagrees"):
                energy(component, SectorLabel(-1, -1), mode, 1, CFG_POS, 1)


# mu from the two spinor-compatible families: both natural or both half-odd
_SPINOR_PARAMS = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda t: (t[0] + 0.5, t[1] + 0.5)),
).map(lambda t: DunklParams(float(t[0]), float(t[1])))


@st.composite
def _bound_energy_args(draw):
    """(component, sector, mode, k, omega, omega_c) with n <= 4, k <= 6, in
    either bound regime (omega_c / omega = 2 is the critical point)."""
    params = draw(_SPINOR_PARAMS)
    sector = draw(st.sampled_from(ALL_SECTORS))
    mode = draw(st.sampled_from(modes_for_sector(sector, params, 4)))
    omega = draw(st.floats(0.05, 5.0))
    ratio = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 4.0, 8.0]))
    component = draw(st.sampled_from(list(Component)))
    return component, sector, mode, draw(st.integers(0, 6)), omega, ratio * omega


def _energy_or_none(component, sector, mode, k, config, sign=1):
    try:
        return energy(component, sector, mode, k, config, sign)
    except NegativeRadicandError:
        return None


class TestEnergyProperties:
    @given(_bound_energy_args(), st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_unchanged_when_units_are_rescaled(self, args, a):
        # c -> a c with omega, omega_c -> a^2 omega, a^2 omega_c keeps
        # q = 2 |w~| / c^2, so the spectrum scales with m c^2, as a^2
        component, sector, mode, k, omega, omega_c = args
        e1 = _energy_or_none(component, sector, mode, k, OscillatorConfig(omega=omega, omega_c=omega_c))
        e2 = _energy_or_none(component, sector, mode, k,
                             OscillatorConfig(omega=a * a * omega, omega_c=a * a * omega_c, c=a))
        assume(e1 is not None and e2 is not None)
        # where the radicand is near 0 (E near 0, reached exactly by some of
        # these states) its rounding enters E as sqrt(eps), not eps
        assume(abs(e1) > 1e-6)
        assert e2 == pytest.approx(a * a * e1, rel=1e-12)

    def test_exactly_zero_radicand_is_zero_in_any_units(self):
        # mu=(2,3), (+1,+1), n=4, b=+1: lambda=12, A=13, sigma=5, so the lower
        # k=0 radicand at w~ = -omega/2 is 1 + (2 |w~| / c^2)(13 - 12 - 5) = 0
        mode = AngularMode(SectorLabel(1, 1), 4, 1, DunklParams(2.0, 3.0))
        for i in range(1, 200):
            a = 0.05 * i
            config = OscillatorConfig(omega=0.25 * a * a, omega_c=0.75 * a * a, c=a)
            assert energy(Component.LOWER, SectorLabel(1, 1), mode, 0, config, 1) == 0.0, a

    @given(_bound_energy_args())
    @settings(max_examples=200, deadline=None)
    def test_antiparticle_is_the_mirror_image(self, args):
        component, sector, mode, k, omega, omega_c = args
        config = OscillatorConfig(omega=omega, omega_c=omega_c)
        e_plus = _energy_or_none(component, sector, mode, k, config, 1)
        assume(e_plus is not None)
        assert energy(component, sector, mode, k, config, -1) == -e_plus


@given(params=_SPINOR_PARAMS, omega=st.floats(0.05, 5.0),
       ratio=st.one_of(st.floats(0.0, 1.9), st.floats(2.1, 8.0)))
@settings(max_examples=40, deadline=None)
def test_every_bound_pair_has_an_energy_of_at_least_mc2_sqrt_1_plus_q(params, omega, ratio):
    # every paired upper index has s_num >= 1, since A >= |lambda| (README,
    # "Physics summary"): no pair of the sweep meets a negative radicand
    config = OscillatorConfig(omega=omega, omega_c=ratio * omega)
    mc2 = config.rest_energy
    floor = mc2 * math.sqrt(1.0 + 2.0 * config.effective_frequency / mc2)
    for sector in ALL_SECTORS:
        ks = np.arange(max(0, -partner_offset(sector, classify_regime(config), params)), 21)
        for mode in modes_for_sector(sector, params, 6):
            e_vals = solution_builder.energy_column(Component.UPPER, mode, ks, config)
            assert np.all(np.isfinite(e_vals)) and np.all(e_vals >= floor * (1.0 - 1e-12)), (sector, mode)


class TestClassicalReduction:
    def test_spectra_match_independent_formula(self):
        # mu = 0: compare against the textbook spectrum coded in terms of
        # the orbital number m = -lambda (upper component convention)
        for cfg in (CFG_POS, OscillatorConfig(omega=0.0, omega_c=2.0)):
            for sector in ALL_SECTORS:
                for mode in modes_for_sector(sector, P00, 3):
                    lam = lambda_eigenvalue(mode)
                    m_orb = int(round(-lam))
                    for k in range(4):
                        mine = energy(Component.UPPER, sector, mode, k, cfg, 1)
                        ref = classical_oscillator_b_energy(Component.UPPER, k, m_orb, cfg, 1)
                        assert mine == pytest.approx(ref, rel=1e-12)
                        mine_lo = energy(Component.LOWER, sector, mode, k, cfg, 1)
                        ref_lo = classical_oscillator_b_energy(Component.LOWER, k, m_orb, cfg, 1)
                        assert mine_lo == pytest.approx(ref_lo, rel=1e-12)


class TestRadialProfile:
    def test_ground_profile_is_gaussian_times_power(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P00)
        prof = build_radial(mode, 0, CFG_POS)
        assert prof.index == 0
        assert prof.order - prof.mu_plus == pytest.approx(2.0)  # A = |lambda| = 2 at mu = 0
        rho = 1.3
        assert prof(rho) == pytest.approx(rho**2 * math.exp(-0.5 * rho**2), rel=1e-14)

    def test_value_at_origin(self):
        mode1 = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        prof1 = build_radial(mode1, 0, CFG_POS)
        assert prof1.order - prof1.mu_plus > 0 and prof1(0.0) == 0.0
        mode0 = AngularMode(SectorLabel(1, 1), 0, 1, P11)
        prof0 = build_radial(mode0, 0, CFG_POS)
        assert prof0.order - prof0.mu_plus == pytest.approx(0.0, abs=1e-14)
        assert prof0(0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("config", [CFG_POS, OscillatorConfig(omega=0.02),
                                        OscillatorConfig(omega=0.5, omega_c=60.0)],
                             ids=["s=1", "s=0.02", "s=29.5"])
    def test_norm_squared_matches_quadrature(self, config):
        mode = AngularMode(SectorLabel(1, -1), 1.5, 1, P11)
        prof = build_radial(mode, 2, config)
        # Gauss-Legendre on [0, R], R where t^30 exp(-t^2) < 1e-18 for t = rho / length scale
        r_max = 10.838109195829931 * config.length_scale
        t, w = np.polynomial.legendre.leggauss(220)
        nodes, weights = 0.5 * r_max * t + 0.5 * r_max, 0.5 * r_max * w
        vals = prof(nodes)
        quad = np.sum(weights * vals * vals * nodes ** (2 * P11.mu_plus + 1))
        assert quad == pytest.approx(math.exp(prof.log_norm_squared()), rel=1e-12)

    def test_field_dominated_regime_uses_omega_bar(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        prof = build_radial(mode, 0, CFG_NEG)
        assert prof.scale == pytest.approx(CFG_NEG.effective_frequency, rel=1e-15)


@settings(max_examples=20, deadline=None)
@given(mu=st.sampled_from([(0.0, 0.0), (1.0, 1.0), (0.5, 1.5), (2.0, 1.0)]),
       log_a=st.floats(-3.0, 3.0), ratio=st.sampled_from([0.0, 4.0]),
       pick=st.integers(0, 10**6), phi=st.floats(0.05, 1.5))
def test_state_values_are_invariant_to_the_length_unit(mu, log_a, ratio, pick, phi):
    # c = 1 / a and omega, omega_c proportional to 1 / a^2 leave q = 2 w~ / c^2
    # alone and stretch lengths by a, so psi(t L_a, phi) L_a^(mu_+ + 1) is unit-free
    params = DunklParams(*mu)
    t = np.linspace(0.2, 3.0, 8)

    def scaled_values(a):
        config = OscillatorConfig(omega=1.0 / (a * a), omega_c=ratio / (a * a), c=1.0 / a)
        states = list(sweep_bound_states(params, config, 2, 2))
        state = states[pick % len(states)]
        rho, factor = t * config.length_scale, config.length_scale ** (params.mu_plus + 1.0)
        return len(states), [factor * f.eval_polar(rho, phi) for f in (state.upper, state.lower)]

    count, reference = scaled_values(1.0)
    other_count, values = scaled_values(10.0**log_a)
    assert other_count == count
    for ref, val in zip(reference, values):
        assert np.max(np.abs(val - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_the_sweep_enumerates_each_sectors_modes_once(monkeypatch):
    calls = []

    def counted(sector, params, n_max):
        calls.append(sector)
        return modes_for_sector(sector, params, n_max)

    reference = list(sweep_bound_states(P11, CFG_POS, 3, 2))
    monkeypatch.setattr(solution_builder, "modes_for_sector", counted)
    states = list(sweep_bound_states(P11, CFG_POS, 3, 2))
    assert len(calls) == len(set(calls)) == len(ALL_SECTORS)  # one call per sector
    assert [(st.mode, st.energy, st.rows) for st in states] == \
        [(st.mode, st.energy, st.rows) for st in reference]


class TestBuildSpinor:
    def test_component_norms_sum_to_one(self):
        # each amplitude c gives its component the norm c^2 <R|R> of its share
        mode = AngularMode(SectorLabel(1, -1), 0.5, 1, P11)
        sol = build_spinor(mode, 1, CFG_POS)
        ks = (sol.rows[0].index, sol.rows[1].index)
        assert ks == (1, 0)
        norms = [row.amplitude * row.amplitude * math.exp(build_radial(mode, k, CFG_POS).log_norm_squared())
                 for row, k in zip(sol.rows, ks)]
        assert sum(norms) == pytest.approx(1.0, rel=1e-14)
        assert norms == pytest.approx(_split(sol), rel=1e-14)

    def test_quadrature_norms_match_split(self):
        mode = AngularMode(SectorLabel(1, -1), 0.5, 1, P11)
        sol = build_spinor(mode, 1, CFG_POS)
        rule = polar_quadrature(P11, 10.838109195829931, 180)  # rho^30 exp(-rho^2) < 1e-18
        nu = weighted_inner_product(sol.upper, sol.upper, rule)
        nl = weighted_inner_product(sol.lower, sol.lower, rule)
        assert (nu.real, nl.real) == pytest.approx(_split(sol), abs=1e-6)

    def test_components_share_one_real_phase(self):
        # the lower component is c_l R_l F with c_l >= 0, so lower * conj(upper)
        # is real everywhere: the README state plus sweep states of both regimes
        rho, phi = GridSpec().polar_points(1.0)
        readme = build_spinor(AngularMode(SectorLabel(1, -1), 0.5, 1, P11), 1, CFG_POS)
        states = [readme]
        for cfg in (CFG_POS, CFG_NEG):
            states += [st for st in sweep_bound_states(P11, cfg, 2, 2) if _split(st)[1] > 0][:4]
        for sol in states:
            prod = sol.lower.eval_polar(rho, phi) * np.conj(sol.upper.eval_polar(rho, phi))
            assert np.max(np.abs(prod)) > 0
            assert np.max(np.abs(prod.imag)) <= 1e-12 * np.max(np.abs(prod)), sol.mode

    def test_invalid_pair_propagates(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        with pytest.raises(InvalidPairError):
            build_spinor(mode, 0, CFG_POS)

    def test_rows_name_the_radial_indices(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        sol = build_spinor(mode, 3, CFG_POS)
        assert sol.rows[0].index == 3 and sol.rows[1].index == 0


class TestFreeParticle:
    def test_requires_critical_regime(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        with pytest.raises(RegimeError):
            free_particle(mode, 2.0, CFG_POS)

    def test_requires_energy_above_rest(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        with pytest.raises(ValueError):
            free_particle(mode, 0.5, CFG_CRIT)

    @pytest.mark.parametrize("e_val", [math.nan, math.inf])
    def test_non_finite_energy_rejected(self, e_val):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        with pytest.raises(ValueError):
            free_particle(mode, e_val, CFG_CRIT)

    def test_an_energy_whose_square_overflows_raises_when_built(self):
        # a free state that cannot be evaluated is not built: its rows are
        # read only later, at the first evaluation
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        with pytest.raises(ValueError, match="its square overflows a double"):
            free_particle(mode, 1e155, CFG_CRIT)

    def test_threshold_state_vanishes(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        sol = free_particle(mode, 1.0, CFG_CRIT)
        vals = sol.upper.eval_polar(np.array([0.5, 1.0, 2.0]), np.array([0.4, 1.1, 2.0]))
        assert np.max(np.abs(vals)) <= 1e-14

    def test_small_radius_scaling_exponent(self):
        # field * rho^{mu_+} must scale like rho^A near the origin: the
        # Bessel order equals the radial order A of the mode
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        sol = free_particle(mode, 2.0, CFG_CRIT)
        a_ord = radial_order(mode)
        rho = np.array([1e-4, 2e-4])
        phi = np.full_like(rho, 0.7)
        vals = np.abs(sol.upper.eval_polar(rho, phi)) * rho**P11.mu_plus
        slope = math.log(vals[1] / vals[0]) / math.log(2.0)
        assert slope == pytest.approx(a_ord, abs=1e-3)

    def test_classical_order_two(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P00)
        assert radial_order(mode) == pytest.approx(2.0, rel=1e-15)


class TestFactorReuse:
    """Each state evaluates its radial and angular factors once per
    distinct coordinate array; the values are those of a fresh evaluation."""

    @staticmethod
    def _state():
        # a (+1,+1) sweep state with both components nonzero (k' = k + 3)
        return next(st for st in sweep_bound_states(P11, CFG_NEG, 2, 2)
                    if st.mode.sector == SectorLabel(1, 1) and st.mode.n >= 1 and _split(st)[1] > 0)

    def test_components_share_angular_evaluations(self, monkeypatch):
        sol = self._state()
        calls = {"jacobi_rows": 0, "laguerre_rows": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(angular_sector, "jacobi_rows",
                            counted("jacobi_rows", angular_sector.jacobi_rows))
        monkeypatch.setattr(solution_builder, "laguerre_rows",
                            counted("laguerre_rows", solution_builder.laguerre_rows))
        rho, phi = GridSpec().polar_points(1.0)
        angles = (phi, np.pi - phi, -phi)
        for fld in (sol.upper, sol.lower):
            for a in angles:
                fld.eval_polar(rho, a)
                fld.eval_polar(rho.copy(), a.copy())
        assert calls["jacobi_rows"] == 2 * len(angles)  # Phi^{++} and Phi^{--}
        assert calls["laguerre_rows"] == 1  # one radius array, shared by both components

    @pytest.mark.parametrize("mode", [AngularMode(SectorLabel(1, 1), 0, 1, P11),
                                      AngularMode(SectorLabel(-1, -1), 2, -1, P11),
                                      AngularMode(SectorLabel(1, -1), 1.5, 1, P11)])
    def test_angular_constants_are_computed_once_per_mode(self, monkeypatch, mode):
        calls = []
        log_gamma = angular_sector.log_gamma

        def counted(x):
            calls.append(x)
            return log_gamma(x)

        monkeypatch.setattr(angular_sector, "log_gamma", counted)
        fld = f_eigenfunction(mode)
        assert calls
        calls.clear()
        phi = GridSpec().angles()
        for a in (phi, np.pi - phi, -phi, phi + 0.1, 0.3):
            fld.eval_polar(1.0, a)
        assert calls == []

    def test_values_match_a_fresh_evaluation_bit_for_bit(self):
        sol = self._state()
        rho, phi = GridSpec().polar_points(1.0)
        for a in (phi, np.pi - phi, -phi, phi):
            sol.upper.eval_polar(rho, a)
            sol.lower.eval_polar(rho, a)
        # the same product, computed here without any cache
        mode = sol.mode
        s, ni, b = 1.0 / math.sqrt(2.0), int(mode.n), mode.branch
        ang = s * (phi_pp(ni, P11, phi) + 1j * b * phi_mm(ni, P11, phi))
        for fld, k, norm2 in zip((sol.upper, sol.lower), (sol.rows[0].index, sol.rows[1].index), _split(sol)):
            rad = build_radial(mode, k, CFG_NEG)
            c = math.sqrt(norm2 / math.exp(rad.log_norm_squared()))
            assert np.array_equal(fld.eval_polar(rho, phi), c * rad(rho) * ang)

    def test_scalar_point_gives_scalar(self):
        sol = self._state()
        vals = [sol.upper.eval_polar(0.7, 0.3) for _ in range(2)]
        assert all(np.ndim(v) == 0 for v in vals)
        assert complex(vals[0]) == complex(vals[1])

    def test_cached_factor_is_read_only(self):
        sol = self._state()
        rho, phi = GridSpec().polar_points(1.0)
        ang = f_eigenfunction(sol.mode).eval_polar(rho, phi)
        with pytest.raises(ValueError):
            ang[0] = 0.0


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def _kg_stencil(rho, phi, h=1e-4):
    return [(rho, phi), (rho + h, phi), (rho - h, phi), (rho, np.pi - phi),
            (rho, -phi), (rho, phi + h), (rho, phi - h)]


def _dirac_stencil(rho, phi, h=1e-4):
    x, y = rho * np.cos(phi), rho * np.sin(phi)
    return [(x, y), (x + h, y), (x - h, y), (-x, y), (x, y + h), (x, y - h), (x, -y)]


class TestModeFactorSharing:
    """A state's own fields read its one-state tables, and a check's blocks
    read one set of tables; sharing changes no bit of any state."""

    @pytest.mark.parametrize("config", [CFG_POS, CFG_NEG], ids=["w+", "w-"])
    def test_sweep_states_match_states_built_alone(self, config):
        rho, phi = GridSpec().polar_points(config.length_scale)
        states = list(sweep_bound_states(P11, config, 4, 4))
        assert len({id(st.mode) for st in states}) < len(states)  # modes do carry several k
        for stencil, evaluate in ((_kg_stencil(rho, phi), ScalarField2D.eval_polar),
                                  (_dirac_stencil(rho, phi), ScalarField2D.__call__)):
            for st in states:  # each state's own fields build their tables here
                for point in stencil:
                    evaluate(st.upper, *point)
                    evaluate(st.lower, *point)
            for st in states:
                mode = st.mode
                alone = build_spinor(AngularMode(mode.sector, mode.n, mode.branch, P11), st.rows[0].index, config)
                for point in stencil:
                    assert np.array_equal(evaluate(st.upper, *point), evaluate(alone.upper, *point))
                    assert np.array_equal(evaluate(st.lower, *point), evaluate(alone.lower, *point))

    @pytest.mark.parametrize("config", [CFG_POS, CFG_NEG], ids=["w+", "w-"])
    @pytest.mark.parametrize("mu", [(1.0, 1.0), (0.5, 1.5), (0.0, 0.0), (2.0, 1.0)])
    def test_block_rows_equal_the_fields_of_their_states(self, mu, config):
        # blocks as the checks form them: consecutive sweep states across
        # modes and sectors, every block reading the one set of tables of the run
        rho, phi = GridSpec().polar_points(config.length_scale)
        states = list(sweep_bound_states(DunklParams(*mu), config, 3, 3))
        blocks = list(solution_builder.stacked_blocks(states))
        assert [st for block, _ in blocks for st in block] == states
        assert any(len({st.mode.sector for st in block}) > 1 for block, _ in blocks)
        for block, (upper, lower) in blocks:
            for stencil, evaluate in ((_kg_stencil(rho, phi), ScalarField2D.eval_polar),
                                      (_dirac_stencil(rho, phi), ScalarField2D.__call__)):
                for point in stencil:
                    rows_u, rows_l = evaluate(upper, *point), evaluate(lower, *point)
                    for j, st in enumerate(block):
                        assert np.array_equal(rows_u[j], evaluate(st.upper, *point))
                        assert np.array_equal(rows_l[j], evaluate(st.lower, *point))

    @pytest.mark.parametrize("rho, phi", [
        (0.5, np.array([0.3, 0.4, 0.5])), (0.5, np.array([0.3, 0.4])), (np.array([0.3, 0.6, 0.9]), 0.7)],
        ids=["3-angles", "2-angles", "radii"])
    def test_block_rows_at_points_of_mixed_rank(self, rho, phi):
        # a radius and an angle array of other ranks broadcast as rho
        # against phi, in every row: no row mixes with the point axes
        # (three modes, so that no two rows share their angular factor)
        states = list({st.mode: st for st in sweep_bound_states(P11, CFG_POS, 2, 2)}.values())[:3]
        assert len({st.rows[0].angular for st in states}) == 3
        [(_, (upper, lower))] = list(solution_builder.stacked_blocks(states))
        rows_u, rows_l = upper.eval_polar(rho, phi), lower.eval_polar(rho, phi)
        assert rows_u.shape == rows_l.shape == (3, *np.broadcast(rho, phi).shape)
        for i, st in enumerate(states):
            assert np.array_equal(rows_u[i], st.upper.eval_polar(rho, phi))
            assert np.array_equal(rows_l[i], st.lower.eval_polar(rho, phi))

    @pytest.mark.parametrize("config", [CFG_POS, CFG_NEG], ids=["w+", "w-"])
    def test_each_component_reads_its_own_rows(self, config):
        # an exact eigenspinor's lower component reads its own pair, weight
        # and radial order: a block takes whatever rows a component names
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        state = build_spinor(mode, 4, config)
        pair, _ = AngularMode(SectorLabel(-1, 1), 0.5, 1, P11).angular_key
        lower = ComponentRow(radial_order(mode) - 1.0, 3, (pair, 0.37), 0.25)
        assert lower.order != state.rows[1].order and lower.index != state.rows[1].index
        hand = dataclasses.replace(state, rows=(state.rows[0], lower))
        [(block, fields)] = list(solution_builder.stacked_blocks([hand]))
        rho, phi = GridSpec().polar_points(config.length_scale)
        radial = solution_builder.radial_rows([lower.order], P11.mu_plus, abs(config.omega_tilde), lower.index)
        expected = lower.amplitude * radial(rho)[lower.index, 0] * angular_sector._mixed_rows([lower.angular])(phi)[0]
        assert block == [hand]
        assert np.array_equal(fields[1].eval_polar(rho, phi)[0], expected)
        assert np.array_equal(fields[0].eval_polar(rho, phi)[0], state.upper.eval_polar(rho, phi))
        # the state's own lower component is that row too: it has no other copy
        assert np.array_equal(hand.lower.eval_polar(rho, phi), expected)

    @pytest.mark.parametrize("config", [CFG_POS, CFG_NEG], ids=["w+", "w-"])
    def test_a_check_run_builds_one_f_row_per_distinct_angular_key(self, monkeypatch, config):
        # the states of one mode (one per k), and of the modes of sectors
        # (+1,+1) and (-1,-1), or (+1,-1) and (-1,+1), at one n and branch,
        # read one F row: a check call's angular table holds each distinct
        # angular key of all its blocks once, in state order, and each check
        # builds its own
        asked = []
        rows = solution_builder._mixed_rows

        def spy(keys):
            asked.append(list(keys))
            return rows(keys)

        monkeypatch.setattr(solution_builder, "_mixed_rows", spy)
        states = list(sweep_bound_states(P11, config, 4, 4))
        modes = list(dict.fromkeys(st.mode for st in states))
        keys = list(dict.fromkeys(mode.angular_key for mode in modes))
        assert len(keys) < len(modes) < len(states) and len(states) > _STATE_BLOCK
        for check in (verification.check_kg_eigen, verification.check_dirac_system):
            asked.clear()
            check(states)
            assert asked == [keys]

    @pytest.mark.parametrize("params, k_low", [(P00, 0), (P11, 1)])
    def test_kg_sweep_jacobi_calls_per_run_do_not_grow_with_k(self, monkeypatch, params, k_low):
        # at w~ < 0 every mode of these systems has a state at k = k_low; a
        # kg run makes one Jacobi recurrence per parity family it holds and
        # per angle array of the kg stencil (5), however many k and blocks
        def families(state):
            if state.mode.sector.epsilon == -1:
                return {(-1, 1), (1, -1)}
            return {(1, 1), (-1, -1)} if state.mode.n >= 1 else {(1, 1)}

        blocks = []
        for k_max in (k_low, 4):
            states = list(sweep_bound_states(params, CFG_NEG, 2, k_max))
            blocks.append(-(-len(states) // _STATE_BLOCK))
            calls = {}
            _counting(monkeypatch, angular_sector, "jacobi_rows", calls)
            run_suite(params, CFG_NEG, "kg", n_max=2, k_max=k_max)
            monkeypatch.undo()
            assert calls["jacobi_rows"] == 5 * len(set().union(*map(families, states))) == 5 * 4
        assert blocks[-1] > 1

    @pytest.mark.parametrize("suite, radius_arrays", [("kg", 3), ("dirac", 5)])
    @pytest.mark.parametrize("config", [CFG_POS, CFG_NEG], ids=["w+", "w-"])
    def test_laguerre_recurrence_runs_once_per_run_and_radius_array(
            self, monkeypatch, suite, radius_arrays, config):
        # kg asks for rho and rho +/- h; dirac for rho, hypot(x +/- h, y),
        # hypot(x, y +/- h): once each per run, whatever its block count
        states = len(list(sweep_bound_states(P11, config, 2, 4)))
        assert states > _STATE_BLOCK
        calls = {}
        _counting(monkeypatch, solution_builder, "laguerre_rows", calls)
        run_suite(P11, config, suite, n_max=2, k_max=4)
        assert calls["laguerre_rows"] == radius_arrays

    @pytest.mark.parametrize("config", [CFG_POS, CFG_CRIT], ids=["bound", "free"])
    def test_states_build_their_own_f_on_first_evaluation_only(self, monkeypatch, config):
        # a checked block reads its check call's tables; a state's own fields
        # wait for their first evaluation, which builds the state's one-state
        # tables once for both components
        asked = []
        rows = solution_builder._mixed_rows
        monkeypatch.setattr(solution_builder, "_mixed_rows", lambda keys: asked.append(list(keys)) or rows(keys))
        if config is CFG_CRIT:
            states = verification._critical_states(P11, config, 2)[0]
        else:
            states = list(sweep_bound_states(P11, config, 2, 2))[:_STATE_BLOCK]
        verification.check_kg_eigen(states)
        assert len(asked) == 1
        asked.clear()
        for _ in range(2):
            states[0].upper.eval_polar(1.0, 0.3)
            states[0].lower.eval_polar(1.0, 0.3)
        assert asked == [[states[0].mode.angular_key]]

    def test_identical_sweeps_make_identical_call_counts(self, monkeypatch):
        def counts():
            calls = {}
            _counting(monkeypatch, angular_sector, "jacobi_rows", calls)
            _counting(monkeypatch, angular_sector, "log_gamma", calls)
            _counting(monkeypatch, solution_builder, "laguerre_rows", calls)
            _counting(monkeypatch, solution_builder, "log_gamma", calls)
            run_suite(P11, CFG_POS, "all", n_max=2, k_max=2)
            monkeypatch.undo()
            return calls

        first = counts()
        assert len(first) == 3 and all(first.values())  # both log_gamma names count as one key
        assert counts() == first

    @pytest.mark.parametrize("config", [CFG_POS, CFG_NEG], ids=["w+", "w-"])
    def test_sweep_makes_one_energy_column_call_per_mode_and_no_energy_call(self, monkeypatch, config):
        calls = {}
        _counting(monkeypatch, solution_builder, "energy_column", calls)
        _counting(monkeypatch, solution_builder, "energy", calls)
        states = list(sweep_bound_states(P11, config, 3, 3))
        modes = sum(len(modes_for_sector(s, P11, 3)) for s in ALL_SECTORS)  # every sector pairs some k
        assert calls == {"energy_column": modes}
        assert len({id(st.mode) for st in states}) == modes

    @pytest.mark.parametrize("config, yielded", [(CFG_POS, 28), (CFG_NEG, 47)], ids=["w+", "w-"])
    def test_every_sweep_candidate_is_one_build_spinor_read(self, monkeypatch, config, yielded):
        calls = {}
        _counting(monkeypatch, solution_builder, "build_spinor", calls)
        _counting(monkeypatch, solution_builder, "mode_states", calls)
        states = list(sweep_bound_states(P11, config, 2, 2))
        modes = sum(len(modes_for_sector(s, P11, 2)) for s in ALL_SECTORS)
        # each (mode, k), k <= 2, read from its mode's states: one mode_states
        # call per mode, the sweep's, and none from build_spinor
        assert calls == {"build_spinor": modes * 3, "mode_states": modes}
        assert len(states) == yielded

    def test_build_spinor_is_the_one_pair_call_of_mode_states(self, monkeypatch):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        column = solution_builder.mode_states(mode, [(3, 0), (4, 1), (5, 2)], CFG_POS)
        calls = []
        original = solution_builder.mode_states
        monkeypatch.setattr(solution_builder, "mode_states", lambda *a: calls.append(a) or original(*a))
        alone = build_spinor(mode, 4, CFG_POS)
        assert calls == [(mode, [(4, 1)], CFG_POS)]
        rho, phi = GridSpec().polar_points(1.0)
        for st in (alone, column[4]):
            assert (st.energy, st.rows) == (column[4].energy, column[4].rows)
        for a, b in ((alone.upper, column[4].upper), (alone.lower, column[4].lower)):
            assert np.array_equal(a.eval_polar(rho, phi), b.eval_polar(rho, phi))

    def test_a_radial_index_past_the_largest_degree_is_named_before_any_build(self, monkeypatch):
        # at w~ > 0 and mu = (1,1), k' = k + 1 in sector (-1,-1): k = 199 is the largest k
        sector = SectorLabel(-1, -1)
        mode = AngularMode(sector, 1, 1, P11)
        assert build_spinor(mode, 199, CFG_POS).rows[1].index == 200
        calls = []
        monkeypatch.setattr(solution_builder, "build_radial", lambda *a: calls.append(a))
        with pytest.raises(DomainError) as exc:
            build_spinor(mode, 200, CFG_POS)
        assert calls == [] and str(exc.value) == (
            "k=200 pairs with the lower radial index k'=201 in sector (-1,-1); radial indices must be at most 200")

    def test_radial_rows_are_read_only_and_equal_the_profile(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        a_ord = radial_order(mode)
        rows3 = solution_builder.radial_rows([a_ord], P11.mu_plus, 1.0, 3)
        rows8 = solution_builder.radial_rows([a_ord], P11.mu_plus, 1.0, 8)
        rho = GridSpec().radii(1.0)
        table = rows8(rho)
        assert table.shape == (9, 1, rho.size)
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.0
        for k in range(9):
            assert np.array_equal(table[k, 0], build_radial(mode, k, CFG_POS)(rho))
        for k in range(4):
            assert np.array_equal(rows3(rho)[k, 0], table[k, 0])

    def test_radial_tables_have_a_leading_k_axis(self):
        # bound and free tables share one layout (k, order, *rho.shape): a
        # free table's k axis holds k = 0 alone
        orders = [radial_order(AngularMode(SectorLabel(1, 1), n, 1, P11)) for n in (0, 1, 2)]
        rho = GridSpec().radii(1.0)
        bound = solution_builder.radial_rows(orders, P11.mu_plus, 1.0, 4)(rho)
        free = solution_builder.free_rows(orders, P11.mu_plus, CFG_CRIT, 1.5)(rho)
        assert bound.shape == (5, 3, rho.size) and free.shape == (1, 3, rho.size)
        for column, order in enumerate(orders):
            alone = solution_builder.radial_rows([order], P11.mu_plus, 1.0, 4)(rho)
            assert np.array_equal(bound[:, column], alone[:, 0])
            assert np.array_equal(free[0, column], solution_builder.free_rows([order], P11.mu_plus, CFG_CRIT,
                                                                              1.5)(rho)[0, 0])

    def test_a_profile_keeps_its_table(self, monkeypatch):
        # two calls of one profile on one radius array run one Laguerre recurrence
        calls = {}
        _counting(monkeypatch, solution_builder, "laguerre_rows", calls)
        prof = build_radial(AngularMode(SectorLabel(1, 1), 1, 1, P11), 3, CFG_POS)
        rho = GridSpec().radii(1.0)
        first = prof(rho)
        assert np.array_equal(prof(rho.copy()), first)
        assert calls == {"laguerre_rows": 1}


class TestNormRange:
    """A high radial order overflows the norm, not the amplitude."""

    def test_norm_folded_in_log_space_keeps_a_large_n_state(self):
        mode = AngularMode(SectorLabel(1, 1), 100, 1, P00)
        assert build_radial(mode, 1, CFG_POS).log_norm_squared() > 710.0  # exp would overflow
        sol = build_spinor(mode, 1, CFG_POS)
        vals = sol.upper.eval_polar(np.array([3.0, 4.0]), np.array([0.3, 0.3]))
        assert np.all(np.isfinite(vals)) and np.all(vals != 0.0)

    @pytest.mark.parametrize("sector, n", [(SectorLabel(1, 1), 150), (SectorLabel(1, 1), 200),
                                           (SectorLabel(1, -1), 199.5)])
    def test_amplitude_below_the_double_range_raises(self, sector, n):
        mode = AngularMode(sector, n, 1, P00)
        with pytest.raises(solution_builder.NormRangeError):
            build_spinor(mode, 1, CFG_POS)
        assert issubclass(solution_builder.NormRangeError, ValueError)

    def test_a_tiny_lower_share_takes_the_sweep_past_the_double_range(self):
        # at c = 1000 the lower share (E - m c^2) / (2E) is about 1e-6, which
        # takes the k' = 2 amplitude of n = 146 just past the double range
        # (the command line has no flag for c; its cases are in test_cli)
        with pytest.raises(solution_builder.NormRangeError):
            for _ in sweep_bound_states(P11, OscillatorConfig(omega=1.0, c=1000.0), 146, 1):
                pass
