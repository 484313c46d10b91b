"""Spectra, pairing constraints, radial profiles, spinor assembly."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dunkl_oscillator import angular_sector, solution_builder
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
    polar_quadrature,
    weighted_inner_product,
)
from dunkl_oscillator.solution_builder import (
    IntegralityError,
    InvalidPairError,
    NegativeRadicandError,
    OscillatorConfig,
    RadialProfile,
    Regime,
    RegimeError,
    build_radial,
    build_spinor,
    classify_regime,
    energy,
    free_particle,
    pair_radial_indices,
    radial_order,
)
from dunkl_oscillator.verification import GridSpec, classical_oscillator_b_energy, sweep_bound_states

P11 = DunklParams(1.0, 1.0)
P00 = DunklParams(0.0, 0.0)
CFG_POS = OscillatorConfig(omega=1.0)
CFG_NEG = OscillatorConfig(omega=0.25, omega_c=2.5)  # w~ = -1
CFG_CRIT = OscillatorConfig(omega=1.0, omega_c=2.0)


class TestRegime:
    def test_classification(self):
        assert classify_regime(OscillatorConfig(omega=1.0, omega_c=0.0)) is Regime.POSITIVE
        assert classify_regime(OscillatorConfig(omega=1.0, omega_c=2.0)) is Regime.CRITICAL
        assert classify_regime(OscillatorConfig(omega=0.0, omega_c=1.0)) is Regime.NEGATIVE

    def test_near_zero_tolerance(self):
        cfg = OscillatorConfig(omega=1.0, omega_c=2.0 * (1.0 + 5e-15))
        assert classify_regime(cfg) is Regime.CRITICAL

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OscillatorConfig(omega=-1.0)
        with pytest.raises(ValueError):
            OscillatorConfig(omega=1.0, m=0.0)

    @pytest.mark.parametrize("field", ["omega", "omega_c", "m", "hbar", "c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_constants_rejected(self, field, value):
        with pytest.raises(ValueError):
            OscillatorConfig(**{"omega": 1.0, field: value})

    def test_effective_frequency_and_length_scale(self):
        assert CFG_NEG.effective_frequency == 1.0
        assert CFG_NEG.length_scale == 1.0
        cfg = OscillatorConfig(omega=4.0, m=2.0, hbar=0.5)
        assert cfg.length_scale == pytest.approx(0.25, rel=1e-15)
        crit = OscillatorConfig(omega=1.0, omega_c=2.0, m=2.0, hbar=3.0, c=5.0)
        assert crit.length_scale == pytest.approx(0.3, rel=1e-15)
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
        # hbar -> a hbar with omega, omega_c -> omega / a, omega_c / a keeps
        # every hbar * omega, so the spectrum is the same
        component, sector, mode, k, omega, omega_c = args
        e1 = _energy_or_none(component, sector, mode, k, OscillatorConfig(omega=omega, omega_c=omega_c))
        e2 = _energy_or_none(component, sector, mode, k,
                             OscillatorConfig(omega=omega / a, omega_c=omega_c / a, hbar=a))
        assume(e1 is not None and e2 is not None)
        # where the radicand is near 0 (E near 0, reached exactly by some of
        # these states) its rounding enters E as sqrt(eps), not eps
        assume(abs(e1) > 1e-6)
        assert e2 == pytest.approx(e1, rel=1e-12)

    def test_exactly_zero_radicand_is_zero_in_any_units(self):
        # mu=(2,3), (+1,+1), n=4, b=+1: lambda=12, A=13, sigma=5, so the lower
        # k=0 radicand at w~ = -omega/2 is 1 + (2 hbar |w~|)(13 - 12 - 5) = 0
        mode = AngularMode(SectorLabel(1, 1), 4, 1, DunklParams(2.0, 3.0))
        for i in range(1, 200):
            a = 0.05 * i
            config = OscillatorConfig(omega=0.25 / a, omega_c=0.75 / a, hbar=a)
            assert energy(Component.LOWER, SectorLabel(1, 1), mode, 0, config, 1) == 0.0, a

    @given(_bound_energy_args())
    @settings(max_examples=200, deadline=None)
    def test_antiparticle_is_the_mirror_image(self, args):
        component, sector, mode, k, omega, omega_c = args
        config = OscillatorConfig(omega=omega, omega_c=omega_c)
        e_plus = _energy_or_none(component, sector, mode, k, config, 1)
        assume(e_plus is not None)
        assert energy(component, sector, mode, k, config, -1) == -e_plus


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
        assert prof.exponent == pytest.approx(2.0)  # A = |lambda| = 2 at mu = 0
        rho = 1.3
        assert prof(rho) == pytest.approx(rho**2 * math.exp(-0.5 * rho**2), rel=1e-14)

    def test_value_at_origin(self):
        mode1 = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        prof1 = build_radial(mode1, 0, CFG_POS)
        assert prof1.exponent > 0 and prof1(0.0) == 0.0
        mode0 = AngularMode(SectorLabel(1, 1), 0, 1, P11)
        prof0 = build_radial(mode0, 0, CFG_POS)
        assert prof0.exponent == pytest.approx(0.0, abs=1e-14)
        assert prof0(0.0) == pytest.approx(1.0)

    def test_norm_squared_matches_quadrature(self):
        mode = AngularMode(SectorLabel(1, -1), 1.5, 1, P11)
        prof = build_radial(mode, 2, CFG_POS)
        # Gauss-Legendre on [0, R], R where rho^30 exp(-rho^2) < 1e-18 at scale 1
        r_max = 10.838109195829931
        t, w = np.polynomial.legendre.leggauss(220)
        nodes, weights = 0.5 * r_max * t + 0.5 * r_max, 0.5 * r_max * w
        vals = prof(nodes)
        quad = np.sum(weights * vals * vals * nodes ** (2 * P11.mu_plus + 1))
        assert quad == pytest.approx(prof.norm_squared(), rel=1e-12)

    def test_field_dominated_regime_uses_omega_bar(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        prof = build_radial(mode, 0, CFG_NEG)
        assert prof.scale == pytest.approx(CFG_NEG.effective_frequency, rel=1e-15)


class TestBuildSpinor:
    def test_component_norms_sum_to_one(self):
        mode = AngularMode(SectorLabel(1, -1), 0.5, 1, P11)
        sol = build_spinor(SectorLabel(1, -1), mode, 1, CFG_POS, 1)
        assert sol.norm_upper + sol.norm_lower == pytest.approx(1.0, rel=1e-14)
        e, mc2 = sol.energy, 1.0
        assert sol.norm_upper == pytest.approx((e + mc2) / (2 * e), rel=1e-14)
        assert sol.norm_lower == pytest.approx((e - mc2) / (2 * e), rel=1e-14)

    def test_quadrature_norms_match_split(self):
        mode = AngularMode(SectorLabel(1, -1), 0.5, 1, P11)
        sol = build_spinor(SectorLabel(1, -1), mode, 1, CFG_POS, 1)
        rule = polar_quadrature(10.838109195829931, 180, 48)  # rho^30 exp(-rho^2) < 1e-18
        nu = weighted_inner_product(sol.upper, sol.upper, P11, rule)
        nl = weighted_inner_product(sol.lower, sol.lower, P11, rule)
        assert nu.real == pytest.approx(sol.norm_upper, abs=1e-6)
        assert nl.real == pytest.approx(sol.norm_lower, abs=1e-6)

    def test_components_share_one_real_phase(self):
        # the lower component is c_l R_l F with c_l >= 0, so lower * conj(upper)
        # is real everywhere: the README state plus sweep states of both regimes
        rho, phi = GridSpec().polar_points(1.0)
        readme = build_spinor(SectorLabel(1, -1), AngularMode(SectorLabel(1, -1), 0.5, 1, P11),
                              1, CFG_POS, 1)
        states = [readme]
        for cfg in (CFG_POS, CFG_NEG):
            states += [st for st in sweep_bound_states(P11, cfg, 2, 2) if st.norm_lower > 0][:4]
        for sol in states:
            prod = sol.lower.eval_polar(rho, phi) * np.conj(sol.upper.eval_polar(rho, phi))
            assert np.max(np.abs(prod)) > 0
            assert np.max(np.abs(prod.imag)) <= 1e-12 * np.max(np.abs(prod)), sol.mode

    def test_invalid_pair_propagates(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        with pytest.raises(InvalidPairError):
            build_spinor(SectorLabel(1, 1), mode, 0, CFG_POS, 1)

    def test_quantum_numbers_recorded(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        sol = build_spinor(SectorLabel(1, 1), mode, 3, CFG_POS, 1)
        assert sol.quantum.k == 3 and sol.quantum.k_prime == 0

    def test_antiparticle_branch_swaps_norms(self):
        mode = AngularMode(SectorLabel(1, -1), 0.5, 1, P11)
        sol = build_spinor(SectorLabel(1, -1), mode, 1, CFG_POS, -1)
        assert sol.energy < 0
        assert sol.norm_upper == pytest.approx(
            (sol.energy + 1.0) / (2 * sol.energy), rel=1e-14
        )
        assert sol.norm_upper < sol.norm_lower


class TestFreeParticle:
    def test_requires_critical_regime(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        with pytest.raises(RegimeError):
            free_particle(SectorLabel(1, 1), mode, 2.0, P11, CFG_POS)

    def test_requires_energy_above_rest(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        with pytest.raises(ValueError):
            free_particle(SectorLabel(1, 1), mode, 0.5, P11, CFG_CRIT)

    @pytest.mark.parametrize("e_val", [math.nan, math.inf])
    def test_non_finite_energy_rejected(self, e_val):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        with pytest.raises(ValueError):
            free_particle(SectorLabel(1, 1), mode, e_val, P11, CFG_CRIT)

    def test_threshold_state_vanishes(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        sol = free_particle(SectorLabel(1, 1), mode, 1.0, P11, CFG_CRIT)
        vals = sol.upper.eval_polar(np.array([0.5, 1.0, 2.0]), np.array([0.4, 1.1, 2.0]))
        assert np.max(np.abs(vals)) <= 1e-14

    def test_small_radius_scaling_exponent(self):
        # field * rho^{mu_+} must scale like rho^A near the origin: the
        # Bessel order equals the radial order A of the mode
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        sol = free_particle(SectorLabel(1, 1), mode, 2.0, P11, CFG_CRIT)
        a_ord = radial_order(mode)
        rho = np.array([1e-4, 2e-4])
        phi = np.full_like(rho, 0.7)
        vals = np.abs(sol.upper.eval_polar(rho, phi)) * rho**P11.mu_plus
        slope = math.log(vals[1] / vals[0]) / math.log(2.0)
        assert slope == pytest.approx(a_ord, abs=1e-3)

    def test_sector_and_params_must_match_the_mode(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        with pytest.raises(ValueError):
            free_particle(SectorLabel(-1, -1), mode, 2.0, P00, CFG_CRIT)
        with pytest.raises(ValueError):
            free_particle(SectorLabel(1, 1), mode, 2.0, P00, CFG_CRIT)
        with pytest.raises(ValueError):
            free_particle(SectorLabel(-1, -1), mode, 2.0, P11, CFG_CRIT)
        with pytest.raises(ValueError):
            build_spinor(SectorLabel(-1, -1), mode, 3, CFG_POS, 1)

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
                    if st.mode.sector == SectorLabel(1, 1) and st.mode.n >= 1 and st.norm_lower > 0)

    def test_components_share_angular_evaluations(self, monkeypatch):
        sol = self._state()
        calls = {"jacobi_p": 0, "laguerre_l": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(angular_sector, "jacobi_p",
                            counted("jacobi_p", angular_sector.jacobi_p))
        monkeypatch.setattr(solution_builder, "laguerre_l",
                            counted("laguerre_l", solution_builder.laguerre_l))
        rho, phi = GridSpec().polar_points(1.0)
        angles = (phi, np.pi - phi, -phi)
        for fld in (sol.upper, sol.lower):
            for a in angles:
                fld.eval_polar(rho, a)
                fld.eval_polar(rho.copy(), a.copy())
        assert calls["jacobi_p"] == 2 * len(angles)  # Phi^{++} and Phi^{--}
        assert calls["laguerre_l"] == 2  # one radius array per component

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
        for fld, k, norm2 in ((sol.upper, sol.quantum.k, sol.norm_upper),
                              (sol.lower, sol.quantum.k_prime, sol.norm_lower)):
            rad = build_radial(mode, k, CFG_NEG)
            c = math.sqrt(norm2 / rad.norm_squared())
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
