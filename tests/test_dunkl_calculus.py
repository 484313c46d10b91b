"""Operator machinery: reflections, derivatives, polar operators, quadrature.

Analytic applications of the operators to low-degree polynomials serve as
oracles; step-halving checks second-order convergence of every
finite-difference path.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_oscillator.angular_sector import AngularMode, SectorLabel, f_eigenfunction
from dunkl_oscillator.dunkl_calculus import (
    ANGULAR_NODES,
    Axis,
    Component,
    DunklParams,
    ScalarField2D,
    SingularPointError,
    angular_j,
    angular_quadrature,
    b_phi_apply,
    dirac_apply,
    dunkl_derivative,
    kg_apply,
    polar_quadrature,
    remember_last,
    weighted_inner_product,
)
from dunkl_oscillator.solution_builder import OscillatorConfig, build_spinor
from dunkl_oscillator.verification import cartesian_states

F_X = ScalarField2D.from_xy(lambda x, y: x + 0j)
F_X2 = ScalarField2D.from_xy(lambda x, y: x * x + 0j)
F_X3 = ScalarField2D.from_xy(lambda x, y: x**3 + 0j)
F_R2 = ScalarField2D.from_xy(lambda x, y: x * x + y * y + 0j)

GAUSS = ScalarField2D.from_xy(
    lambda x, y: np.exp(-(x * x + y * y)) * (1.0 + 0.7 * x + 0.3 * x * y + 0.2j * y * y)
)


class TestDunklParams:
    def test_lower_bound(self):
        with pytest.raises(ValueError):
            DunklParams(-0.6, 0.0)

    @pytest.mark.parametrize("mu", [(math.inf, 0.0), (0.0, math.nan), (1e308, 1e308)])
    def test_non_finite_parameters_or_sum_rejected(self, mu):
        with pytest.raises(ValueError, match="finite"):
            DunklParams(*mu)

    def test_spinor_compatibility(self):
        assert DunklParams(0.0, 0.0).is_spinor_compatible()
        assert DunklParams(1.0, 2.0).is_spinor_compatible()
        assert DunklParams(0.5, 1.5).is_spinor_compatible()
        assert not DunklParams(0.3, 1.0).is_spinor_compatible()
        assert not DunklParams(1.0, 0.5).is_spinor_compatible()


class TestZeroField:
    @pytest.mark.parametrize("rho, phi", [(0.5, np.linspace(0.1, 1.0, 4)), (np.ones((2, 1)), np.zeros(3)),
                                          (np.ones(3), 0.2), (0.5, 0.2)])
    def test_zero_has_the_broadcast_shape_of_its_coordinates(self, rho, phi):
        vals = ScalarField2D.zero().eval_polar(rho, phi)
        assert vals.shape == np.broadcast(rho, phi).shape and vals.dtype == complex
        assert not vals.any()


class TestReflect:
    def test_parity_tags_describe_fields(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2, 2, size=(20, 2))
        for fld, sign in ((F_X, -1.0), (F_X2, 1.0), (F_X3, -1.0), (F_R2, 1.0)):
            assert np.allclose(fld(-pts[:, 0], pts[:, 1]),
                               sign * fld(pts[:, 0], pts[:, 1]), atol=1e-12)


class TestDunklDerivative:
    def test_linear_field(self):
        # D_x x = 1 + 2 mu_x on the odd part
        val = dunkl_derivative(F_X, Axis.X, (1.5, 0.7), DunklParams(0.5, 0.0))
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_even_field_reflection_free(self):
        val = dunkl_derivative(F_X2, Axis.X, (2.0, 0.0), DunklParams(1.0, 0.0))
        assert val == pytest.approx(4.0, abs=1e-7)

    def test_cubic_against_analytic(self):
        # D_x x^3 = 3x^2 + 2 mu x^2
        val = dunkl_derivative(F_X3, Axis.X, (1.0, 0.0), DunklParams(1.0, 0.0))
        assert val == pytest.approx(5.0, abs=1e-7)
        for x in (0.7, -1.3, 2.1):
            v = dunkl_derivative(F_X3, Axis.X, (x, 0.2), DunklParams(0.75, 0.0))
            assert v == pytest.approx(3 * x * x + 1.5 * x * x, rel=1e-6)

    def test_second_order_convergence(self):
        exact = 3.0 * 1.3**2 + 2 * 0.75 * 1.3**2
        r1 = abs(dunkl_derivative(F_X3, Axis.X, (1.3, 0.0), DunklParams(0.75, 0.0), h=1e-2) - exact)
        r2 = abs(dunkl_derivative(F_X3, Axis.X, (1.3, 0.0), DunklParams(0.75, 0.0), h=5e-3) - exact)
        assert 3.5 <= r1 / r2 <= 4.5

    def test_singular_guard(self):
        with pytest.raises(SingularPointError):
            dunkl_derivative(F_X, Axis.X, (1e-6, 0.4), DunklParams(1.0, 0.0))

    def test_on_axis_even_field_limit(self):
        # x == 0 exactly: even field has zero Dunkl x-derivative there
        val = dunkl_derivative(F_X2, Axis.X, (0.0, 0.4), DunklParams(1.0, 0.0))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_odd_field_on_and_off_axis_in_one_array(self):
        # x == 0 exactly takes the 2 mu_x central limit, the other entries
        # the reflection quotient; D_x x = 1 + 2 mu_x at every point
        params = DunklParams(1.0, 0.0)
        xs, ys = np.array([-1.3, 0.0, 0.7, 2.0]), np.array([0.4, 0.4, -0.9, 1.1])
        vals = dunkl_derivative(F_X, Axis.X, (xs, ys), params)
        for x, y, val in zip(xs, ys, vals):
            assert val == dunkl_derivative(F_X, Axis.X, (x, y), params)
        assert np.allclose(vals, 1.0 + 2.0 * params.mu_x, rtol=0.0, atol=1e-9)

    def test_array_broadcast(self):
        xs = np.array([0.5, 1.0, 2.0])
        ys = np.zeros(3)
        vals = dunkl_derivative(F_X3, Axis.X, (xs, ys), DunklParams(1.0, 0.0))
        assert np.allclose(vals, 5.0 * xs * xs, rtol=1e-6)


class TestAngularOperator:
    def test_pure_phase_classical(self):
        fld = ScalarField2D(lambda rho, phi: np.exp(1j * phi) * np.exp(-rho**2))
        val = angular_j(fld, (1.2, 0.7), DunklParams(0.0, 0.0))
        expect = -np.exp(1j * 0.7) * np.exp(-1.2**2)
        assert val == pytest.approx(expect, rel=1e-7)

    def test_annihilates_constants(self):
        const = ScalarField2D.from_xy(lambda x, y: 1.0 + 0j)
        assert angular_j(const, (1.0, 0.9), DunklParams(1.0, 1.0)) == 0.0

    def test_eigenfunction_frozen_eigenvalue(self):
        params = DunklParams(1.0, 1.0)
        mode = AngularMode(SectorLabel(1, 1), 1, 1, params)
        fld = f_eigenfunction(mode)
        lam = 2.0 * math.sqrt(3.0)
        phi = 0.9
        val = angular_j(fld, (1.0, phi), params)
        assert val == pytest.approx(lam * fld.eval_polar(1.0, phi), rel=1e-6)

    def test_square_identity(self):
        # applying J twice equals 2 B_phi + 2 mu_x mu_y (1 - R_x R_y)
        params = DunklParams(1.0, 0.5)
        h = 1e-3
        inner = ScalarField2D(lambda rho, phi: np.asarray(angular_j(GAUSS, (rho, phi), params, h)))
        for rho, phi in [(0.9, 0.6), (1.4, 2.2), (0.6, 4.0)]:
            jj = angular_j(inner, (rho, phi), params, h)
            f0 = GAUSS.eval_polar(rho, phi)
            fxy = GAUSS.eval_polar(rho, np.pi + phi)
            rhs = 2.0 * b_phi_apply(GAUSS, (rho, phi), params, h) \
                + 2.0 * params.mu_x * params.mu_y * (f0 - fxy)
            assert jj == pytest.approx(rhs, rel=2e-4, abs=1e-5)

    def test_commutes_with_double_reflection(self):
        params = DunklParams(1.0, 0.5)
        both = ScalarField2D(lambda rho, phi: GAUSS.eval_polar(rho, np.pi + phi))  # R_x R_y
        for rho, phi in [(1.0, 0.8), (0.7, 2.5)]:
            lhs = angular_j(both, (rho, phi), params)
            rhs_field_val = angular_j(GAUSS, (rho, np.pi + phi), params)
            assert lhs == pytest.approx(rhs_field_val, rel=1e-8, abs=1e-10)

    def test_guard_near_axis(self):
        fld = ScalarField2D.from_xy(lambda x, y: x + y + 0j)  # no reflection symmetry
        with pytest.raises(SingularPointError):
            angular_j(fld, (1.0, 1e-6), DunklParams(1.0, 1.0))


_ODD_XY = ScalarField2D.from_xy(lambda x, y: x + y + 0j)  # odd under both reflections
_EVEN_X = ScalarField2D.from_xy(lambda x, y: x * x + y + 0j)
_EVEN_Y = ScalarField2D.from_xy(lambda x, y: x + y * y + 0j)


def _polar(op, phi):
    return lambda fld, params: op(fld, (1.0, phi), params)


# (operator at a point near one singular locus, the params that switch off
# that locus' reflection, a field even under that reflection)
_GUARDED = {
    "derivative-x-at-x0": (lambda fld, params: dunkl_derivative(fld, Axis.X, (1e-6, 0.4), params),
                           DunklParams(0.0, 1.0), _EVEN_X),
    "derivative-y-at-y0": (lambda fld, params: dunkl_derivative(fld, Axis.Y, (0.4, 1e-6), params),
                           DunklParams(1.0, 0.0), _EVEN_Y),
    **{f"{op.__name__}-at-{label}": (_polar(op, phi + 1e-6), zero_mu, even)
       for op in (angular_j, b_phi_apply)
       for label, phi, zero_mu, even in (
           ("0", 0.0, DunklParams(1.0, 0.0), _EVEN_Y),
           ("pi/2", 0.5 * np.pi, DunklParams(0.0, 1.0), _EVEN_X),
           ("pi", np.pi, DunklParams(1.0, 0.0), _EVEN_Y),
           ("3pi/2", 1.5 * np.pi, DunklParams(0.0, 1.0), _EVEN_X))},
}


class TestSingularLocusGuard:
    @pytest.mark.parametrize("case", _GUARDED.values(), ids=_GUARDED.keys())
    def test_raises_only_where_the_reflection_difference_and_its_mu_are_nonzero(self, case):
        apply, zero_mu, even = case
        with pytest.raises(SingularPointError):
            apply(_ODD_XY, DunklParams(1.0, 1.0))
        assert np.isfinite(apply(_ODD_XY, zero_mu))
        assert np.isfinite(apply(even, DunklParams(1.0, 1.0)))


class TestOnAxisLimits:
    # exactly on an axis a reflection term is 0/0; a field even under that
    # reflection passes the guard and gets the term's limit
    @pytest.mark.parametrize("op", [angular_j, b_phi_apply], ids=lambda op: op.__name__)
    @pytest.mark.parametrize("phi, field", [(0.0, _EVEN_Y), (0.5 * np.pi, _EVEN_X), (np.pi, _EVEN_Y),
                                            (1.5 * np.pi, _EVEN_X)], ids=["0", "pi/2", "pi", "3pi/2"])
    def test_finite_without_warnings_and_equal_to_the_nearby_mean(self, op, phi, field):
        params = DunklParams(1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            on_axis = op(field, (1.0, phi), params)
            # either side of the axis the phi-linear part cancels in the
            # mean; what is left is the rounding of the reflection
            # quotient, about eps |f| / 1e-12
            beside = 0.5 * (op(field, (1.0, phi + 1e-6), params) + op(field, (1.0, phi - 1e-6), params))
        assert np.isfinite(on_axis)
        assert abs(on_axis - beside) <= 1e-5

    def test_array_with_one_angle_on_the_axis(self):
        params = DunklParams(1.0, 1.0)
        phi = np.array([0.3, 0.0, 2.0])
        for op in (angular_j, b_phi_apply):
            vals = op(_EVEN_Y, (1.0, phi), params)
            assert vals[0] == op(_EVEN_Y, (1.0, 0.3), params)
            assert vals[1] == op(_EVEN_Y, (1.0, 0.0), params)
            assert vals[2] == op(_EVEN_Y, (1.0, 2.0), params)


class TestKgApply:
    def test_exact_eigenstate_mixed_parity_sector(self):
        # mu_x = mu_y makes the mixed-parity closed forms exact eigenstates
        params = DunklParams(1.0, 1.0)
        config = OscillatorConfig(omega=1.0)
        mode = AngularMode(SectorLabel(1, -1), 0.5, 1, params)
        sol = build_spinor(mode, 1, config)
        tilde_e = (sol.energy**2 - 1.0) / 2.0
        rho = np.array([0.5, 1.1, 2.0])
        phi = np.array([0.6, 2.3, 5.1])
        for comp, fld in ((Component.UPPER, sol.upper), (Component.LOWER, sol.lower)):
            vals = fld.eval_polar(rho, phi)
            applied = kg_apply(comp, fld, params, config, (rho, phi))
            assert np.max(np.abs(applied - tilde_e * vals)) <= 1e-5 * np.max(np.abs(vals))

    def test_zero_field(self):
        zero = ScalarField2D.zero()
        config = OscillatorConfig(omega=1.0)
        val = kg_apply(Component.UPPER, zero, DunklParams(1.0, 1.0), config, (1.0, 0.7))
        assert val == 0.0

    def test_linearity(self):
        params = DunklParams(1.0, 0.5)
        config = OscillatorConfig(omega=1.0)
        v1 = kg_apply(Component.UPPER, GAUSS, params, config, (1.0, 0.8))
        doubled = ScalarField2D(lambda rho, phi: 2.0 * GAUSS.eval_polar(rho, phi))
        v2 = kg_apply(Component.UPPER, doubled, params, config, (1.0, 0.8))
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_equal_parity_closed_form_is_not_an_eigenstate(self):
        # For n >= 1 with nonzero deformation the reflection term swaps the
        # two lambda branches instead of acting as a scalar, so the built
        # closed form leaves an O(1) residual. Documented library finding.
        params = DunklParams(1.0, 1.0)
        config = OscillatorConfig(omega=1.0)
        mode = AngularMode(SectorLabel(1, 1), 1, 1, params)
        sol = build_spinor(mode, 3, config)
        tilde_e = (sol.energy**2 - 1.0) / 2.0
        rho = np.array([0.8, 1.3])
        phi = np.array([0.7, 2.4])
        vals = sol.upper.eval_polar(rho, phi)
        applied = kg_apply(Component.UPPER, sol.upper, params, config, (rho, phi))
        assert np.max(np.abs(applied - tilde_e * vals)) > 0.1 * np.max(np.abs(vals))


class TestDiracApply:
    def test_zero_pair_at_rest_energy(self):
        zero = ScalarField2D.zero()
        config = OscillatorConfig(omega=1.0)
        r1, r2 = dirac_apply((zero, zero), 1.0, DunklParams(1.0, 1.0),
                             config, (0.8, 0.5))
        assert r1 == 0.0 and r2 == 0.0

    @pytest.mark.parametrize("omega_c", [0.0, 5.0], ids=["w>0", "w<0"])
    def test_shell_pair_is_exact(self, omega_c):
        config, params = OscillatorConfig(omega=1.0, omega_c=omega_c), DunklParams(1.0, 0.5)
        xs = np.array([0.4, 0.9, 1.6])
        ys = np.array([0.6, -0.8, 0.3])
        for upper, lower, e_val in cartesian_states(2, params, config):
            r1, r2 = dirac_apply((upper, lower), e_val, params, config, (xs, ys))
            scale = np.max(np.abs(upper(xs, ys)))
            assert np.max(np.abs(r1)) <= 1e-6 * scale
            assert np.max(np.abs(r2)) <= 1e-6 * scale

    def test_scaling_component_scales_residual(self):
        config, params = OscillatorConfig(omega=1.0), DunklParams(1.0, 0.5)
        upper, lower, e_val = cartesian_states(2, params, config)[-1]
        pt = (np.array([0.9]), np.array([0.4]))
        doubled = ScalarField2D(lambda rho, phi: 2.0 * upper.eval_polar(rho, phi))
        r1a, _ = dirac_apply((doubled, lower), e_val, params, config, pt)
        # doubling psi_1 leaves a residual -(E - mc^2) psi_1 in r1
        expect = -(e_val - 1.0) * upper(*pt)
        assert r1a[0] == pytest.approx(complex(expect[0]), rel=1e-5)


class TestAngularQuadrature:
    # (0, 0): a + b = -1; (0.3, 0.7): a + b rounds to about -3e-17, not 0
    @pytest.mark.parametrize("mu", [(0.0, 0.0), (0.3, 0.7), (3.0, 0.0)], ids=str)
    def test_first_quarter_is_the_gauss_jacobi_rule(self, mu):
        from scipy.special import roots_jacobi

        a, b = mu[0] - 0.5, mu[1] - 0.5
        x_ref, w_ref = roots_jacobi(ANGULAR_NODES, a, b)
        rule = angular_quadrature(DunklParams(*mu))
        quarter = slice(0, ANGULAR_NODES)
        # x = -cos 2phi maps the Jacobi weight dx onto 2^{a+b+2} times the measure dphi
        w = rule.weights[quarter] * 2.0 ** (a + b + 2.0)
        assert np.max(np.abs(-np.cos(2.0 * rule.phi[quarter]) - x_ref)) <= 1e-12
        assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.sum(w_ref)

    @pytest.mark.parametrize("mu", [(0.0, 0.0), (0.3, 0.7), (3.0, 0.0), (0.25, 2.5)], ids=str)
    def test_mass_is_twice_the_beta_function(self, mu):
        a, b = mu[0] + 0.5, mu[1] + 0.5
        mass = 2.0 * math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        rule = angular_quadrature(DunklParams(*mu))
        assert np.sum(rule.weights) == pytest.approx(mass, rel=1e-13)

    def test_nodes_fill_the_four_quarters_by_mirroring(self):
        phi = angular_quadrature(DunklParams(0.3, 0.7)).phi
        assert phi.shape == (4 * ANGULAR_NODES,)
        assert np.all((phi > 0.0) & (phi < 2.0 * np.pi))
        quarter = phi[:ANGULAR_NODES]
        assert np.array_equal(phi[ANGULAR_NODES:], np.concatenate(
            (np.pi - quarter, np.pi + quarter, 2.0 * np.pi - quarter)))

    def test_mu_minus_one_half_is_a_domain_error(self):
        # the measure |cos phi|^(2 mu_x) is not integrable at mu_x = -1/2
        with pytest.raises(ValueError, match="must be > -1/2"):
            DunklParams(-0.5, 1.0)


class TestWeightedInnerProduct:
    def test_rules_integrate_plain_measure(self):
        # |cos|^{2mu_x} |sin|^{2mu_y} dphi has mass 2 B(mu_x + 1/2, mu_y + 1/2);
        # the disk of radius 5 adds rho^{2mu_+ + 1} drho, 5^{2mu_+ + 2} / (2mu_+ + 2)
        params = DunklParams(0.3, 0.7)
        mass = 2 * math.gamma(0.8) * math.gamma(1.2) / math.gamma(2.0)
        ang = angular_quadrature(params)
        assert np.all(ang.weights > 0)
        assert np.sum(ang.weights) == pytest.approx(mass, rel=1e-13)
        pol = polar_quadrature(params, 5.0, 64)
        assert np.sum(pol.weights) == pytest.approx(mass * 5.0**4 / 4.0, rel=1e-13)

    def test_angular_rule_is_built_once_and_read_only(self):
        rule = angular_quadrature(DunklParams(1.0, 1.0))
        assert angular_quadrature(DunklParams(1.0, 1.0)) is rule
        for arr in (rule.rho, rule.phi, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_normalized_angular_mode(self):
        params = DunklParams(1.0, 1.0)
        mode = AngularMode(SectorLabel(1, 1), 0, 1, params)
        fld = f_eigenfunction(mode)
        val = weighted_inner_product(fld, fld, angular_quadrature(params))
        assert val.real == pytest.approx(1.0, abs=1e-10)
        assert abs(val.imag) <= 1e-12

    def test_orthogonality_distinct_indices(self):
        params = DunklParams(1.0, 1.0)
        f1 = f_eigenfunction(AngularMode(SectorLabel(1, 1), 1, 1, params))
        f2 = f_eigenfunction(AngularMode(SectorLabel(1, 1), 2, 1, params))
        val = weighted_inner_product(f1, f2, angular_quadrature(params))
        assert abs(val) <= 1e-10

    def test_zero_fields(self):
        z = ScalarField2D.zero()
        val = weighted_inner_product(z, z, angular_quadrature(DunklParams(1.0, 1.0)))
        assert val == 0.0

    def test_scalar_fields_give_the_plain_weighted_sum_and_rows_do_not_mix_with_them(self):
        params = DunklParams(0.5, 1.5)
        rule = angular_quadrature(params)
        modes = [AngularMode(SectorLabel(1, 1), n, 1, params) for n in (1, 2)]
        f, g = (f_eigenfunction(m) for m in modes)
        plain = complex(np.sum(rule.weights * (np.conjugate(f.eval_polar(rule.rho, rule.phi))
                                               * g.eval_polar(rule.rho, rule.phi))))
        val = weighted_inner_product(f, g, rule)
        assert type(val) is complex and val == plain
        rows = ScalarField2D(lambda rho, phi: np.stack([f.eval_polar(rho, phi), g.eval_polar(rho, phi)]))
        assert weighted_inner_product(rows, rows, rule)[0, 1] == plain
        for a, b in ((f, rows), (rows, g)):
            with pytest.raises(ValueError, match="both"):
                weighted_inner_product(a, b, rule)

    def test_anti_hermiticity_of_dunkl_derivative(self):
        # <f | D g> = -<g | D f>* for decaying smooth fields; the step is
        # small because quadrature nodes approach the axes and the
        # operators refuse points inside 10*h of a singular locus
        params = DunklParams(1.0, 0.5)
        h = 1e-6
        f = ScalarField2D.from_xy(lambda x, y: (x + 0.5 * y + 0.3) * np.exp(-(x * x + y * y)))
        g = ScalarField2D.from_xy(lambda x, y: (y * y + 1j * x - 0.2) * np.exp(-(x * x + y * y)))
        # r_min > 0 keeps every node coordinate outside the operators'
        # 10*h axis guard; the dropped disk contributes O(r_min^5) here
        rule = polar_quadrature(params, 7.0, 180, r_min=0.02)

        def d_of(fld, axis):
            return ScalarField2D.from_xy(
                lambda x, y: np.asarray(dunkl_derivative(fld, axis, (x, y), params, h))
            )

        for axis in (Axis.X, Axis.Y):
            lhs = weighted_inner_product(f, d_of(g, axis), rule)
            rhs = -np.conjugate(weighted_inner_product(g, d_of(f, axis), rule))
            assert lhs == pytest.approx(rhs, abs=1e-8)


_FINITE_COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)
_NONZERO_REAL = st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0)


def _assert_reciprocal_multiply_equals_division(x, c):
    """x * (1.0 / c) equals x / c: real and imaginary parts elementwise, NaN
    matching NaN (the reciprocal of a subnormal c overflows to inf in both)."""
    with np.errstate(all="ignore"):
        product, quotient = x * (1.0 / c), x / c
    for u, v in ((product.real, quotient.real), (product.imag, quotient.imag)):
        assert np.array_equal(u, v, equal_nan=True), (x, c)


# The stencils multiply a complex array by 1.0 / c where they once divided it
# by a real step or coordinate c: numpy divides by c + 0j as Smith's algorithm
# does, which multiplies by fl(1 / c), so the two agree up to the sign of an
# exact zero. The operators' values, and every record, rest on this identity.
@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), shape=st.sampled_from(["scalar", "column", "row"]))
def test_reciprocal_multiply_equals_complex_division(data, n, shape):
    x = np.array(data.draw(st.lists(_FINITE_COMPLEX, min_size=n * n, max_size=n * n)), dtype=complex)
    c_shape = {"scalar": (), "column": (n, 1), "row": (1, n)}[shape]
    c = np.array(data.draw(st.lists(_NONZERO_REAL, min_size=math.prod(c_shape), max_size=math.prod(c_shape))))
    # a scalar c is a Python float, as the stencils hold their steps
    _assert_reciprocal_multiply_equals_division(x.reshape(n, n), c.reshape(c_shape) if c_shape else float(c[0]))


def test_reciprocal_multiply_equals_complex_division_at_the_extremes():
    x = np.array([[5e-324 + 1e308j, -1e-310 - 0.0j], [1.7e308 - 2.2e-308j, 0.0 + 3.0j]])
    for c in (1e-310, np.array([[1e-310], [-1.7e308]]), np.array([[5e-324, 1.7e308]])):
        _assert_reciprocal_multiply_equals_division(x, c)


class TestRememberLast:
    def _counted(self):
        seen = []

        def fn(a):
            seen.append(a.shape)
            return np.cos(a) + 0j

        return remember_last(fn), seen

    def test_one_call_per_distinct_value(self):
        f, seen = self._counted()
        phi = np.linspace(0.1, 3.0, 7)
        first = f(phi)
        assert f(phi.copy()) is first  # equal values, another array
        assert f(list(phi)) is first  # converted to float before keying
        f(np.pi - phi)
        assert len(seen) == 2
        f(phi.reshape(7, 1))  # same bytes, other shape: another key
        assert len(seen) == 3

    def test_least_recently_used_is_dropped(self):
        f, seen = self._counted()
        a, b, *rest = (np.full(3, 0.1 * v) for v in range(1, 10))
        f(a), f(b), f(a)
        for c in rest[:-1]:
            f(c)  # 8 distinct arguments kept so far
        f(rest[-1])  # the 9th evicts b, the least recently used
        f(a)
        assert len(seen) == 9
        f(b)
        assert len(seen) == 10

    def test_scalar_stays_scalar(self):
        f, _ = self._counted()
        out = f(0.3)
        assert np.ndim(out) == 0
        assert complex(out) == complex(math.cos(0.3))

    def test_stored_arrays_are_read_only(self):
        f, _ = self._counted()
        out = f(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            out[0] = 0.0
        assert f(np.array([0.1, 0.2]))[0] == np.cos(0.1)

    def _counted_pair(self):
        seen = []

        def fn(rho, phi):
            seen.append((rho.shape, phi.shape))
            return rho * np.exp(1j * phi)

        return remember_last(fn), seen

    def test_pair_keys_on_both_arguments_in_order(self):
        f, seen = self._counted_pair()
        rho, phi = np.linspace(0.5, 2.0, 4)[:, None], np.linspace(0.1, 3.0, 5)[None, :]
        first = f(rho, phi)
        assert f(rho.copy(), phi.copy()) is first
        assert len(seen) == 1
        f(rho, phi + 1e-4)  # the same radii with other angles: a new key
        assert len(seen) == 2
        a = np.full(3, 0.4)
        b = np.full(3, 0.9)
        assert f(a, b)[0] == 0.4 * np.exp(0.9j)
        assert f(b, a)[0] == 0.9 * np.exp(0.4j)  # swapped arguments: another key
        assert len(seen) == 4

    def test_pair_least_recently_used_is_dropped(self):
        f, seen = self._counted_pair()
        rho = np.full(3, 1.5)
        a, b, *rest = (np.full(3, 0.1 * v) for v in range(1, 10))
        f(rho, a), f(rho, b), f(rho, a)
        for c in rest[:-1]:
            f(rho, c)  # 8 distinct pairs kept so far
        f(rho, rest[-1])  # the 9th evicts (rho, b), the least recently used
        f(rho, a)
        assert len(seen) == 9
        f(rho, b)
        assert len(seen) == 10

    def test_pair_stored_arrays_are_read_only(self):
        f, _ = self._counted_pair()
        out = f(np.array([1.0, 2.0]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            out[0] = 0.0
        assert f(np.array([1.0, 2.0]), np.array([0.1, 0.2]))[1] == 2.0 * np.exp(0.2j)
