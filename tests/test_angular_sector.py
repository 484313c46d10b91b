"""Angular eigenbasis: normalization, reflection signatures, eigen-residuals.

The decisive check is numeric: applying the angular operator to each
constructed mode must reproduce branch * |lambda| pointwise, which pins
down the sign pairing between the imaginary combination and the branch.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_oscillator.angular_sector import (
    ALL_SECTORS,
    AngularMode,
    SectorLabel,
    eigenfunction_rows,
    f_eigenfunction,
    lambda_eigenvalue,
    mixed_pair,
    modes_for_sector,
    phi_mm,
    phi_mp,
    phi_pm,
    phi_pp,
)
from dunkl_oscillator.dunkl_calculus import (
    DunklParams,
    ScalarField2D,
    angular_j,
    angular_quadrature,
    weighted_inner_product,
)

P11 = DunklParams(1.0, 1.0)
P21 = DunklParams(2.0, 1.0)


def _angular_field(fn):
    return ScalarField2D(lambda rho, phi: np.asarray(fn(phi)) + 0j)


class TestSectorLabel:
    def test_epsilon(self):
        assert SectorLabel(1, 1).epsilon == 1
        assert SectorLabel(-1, 1).epsilon == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            SectorLabel(0, 1)


class TestAngularMode:
    def test_integer_requirement(self):
        with pytest.raises(ValueError):
            AngularMode(SectorLabel(1, 1), 0.5, 1, P11)
        with pytest.raises(ValueError):
            AngularMode(SectorLabel(1, -1), 1, 1, P11)
        with pytest.raises(ValueError):  # 1e-10 off the ladder
            AngularMode(SectorLabel(1, 1), 2.0000000001, 1, P11)

    def test_n_zero_is_single_even_mode(self):
        with pytest.raises(ValueError):
            AngularMode(SectorLabel(-1, -1), 0, 1, P11)
        with pytest.raises(ValueError):
            AngularMode(SectorLabel(1, 1), 0, -1, P11)
        mode = AngularMode(SectorLabel(1, 1), 0, 1, P11)
        assert lambda_eigenvalue(mode) == 0.0

    def test_mode_listing(self):
        assert len(modes_for_sector(SectorLabel(1, 1), P11, 4)) == 9
        assert len(modes_for_sector(SectorLabel(-1, -1), P11, 4)) == 8
        assert len(modes_for_sector(SectorLabel(1, -1), P11, 4)) == 8

    @pytest.mark.parametrize("sector, n_max, top", [
        (SectorLabel(1, -1), 1.4999999995, 0.5), (SectorLabel(1, -1), 1.5, 1.5),
        (SectorLabel(1, 1), 1.9999999995, 1), (SectorLabel(1, 1), 2.0, 2),
        (SectorLabel(-1, -1), 0.9999999995, None), (SectorLabel(-1, 1), 0.4999999995, None)])
    def test_n_max_is_compared_exactly_on_both_ladders(self, sector, n_max, top):
        # a rung 5e-10 above n_max is left out, half-odd or integer alike
        modes = modes_for_sector(sector, P11, n_max)
        assert (modes[-1].n if modes else None) == top


class TestPhiFamilies:
    def test_constant_mode_value(self):
        # Phi_0^{++} for mu = (1,1) is the constant 2/sqrt(pi)
        assert phi_pp(0, P11, 0.37) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)

    def test_odd_odd_vanishes_at_zero_index(self):
        assert phi_mm(0, P11, 0.9) == 0.0

    def test_prefactor_zeros(self):
        assert phi_mp(0.5, P11, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert phi_pm(0.5, P11, 0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("params", [P11, P21, DunklParams(0.5, 0.5)])
    def test_normalization_all_families(self, params):
        rule = angular_quadrature(params)
        cases = [
            (lambda phi: phi_pp(2, params, phi)),
            (lambda phi: phi_mm(3, params, phi)),
            (lambda phi: phi_mp(1.5, params, phi)),
            (lambda phi: phi_pm(2.5, params, phi)),
        ]
        for fn in cases:
            fld = _angular_field(fn)
            val = weighted_inner_product(fld, fld, rule)
            assert val.real == pytest.approx(1.0, abs=1e-10)

    def test_reflection_signatures(self):
        # Phi^{s_x s_y}(pi - phi) = s_x Phi(phi), Phi(-phi) = s_y Phi(phi)
        phis = np.linspace(0.1, 2.9, 8)
        cases = [
            (lambda p: phi_pp(2, P21, p), 1, 1),
            (lambda p: phi_mm(2, P21, p), -1, -1),
            (lambda p: phi_mp(1.5, P21, p), -1, 1),
            (lambda p: phi_pm(1.5, P21, p), 1, -1),
        ]
        for fn, sx, sy in cases:
            assert np.allclose(fn(np.pi - phis), sx * fn(phis), atol=1e-12)
            assert np.allclose(fn(-phis), sy * fn(phis), atol=1e-12)

    def test_gamma_domain_guard(self):
        # mu = -1/2 gives Jacobi parameter a = -1, where the weight cannot be
        # integrated: the parameters refuse it before any Phi is formed
        with pytest.raises(ValueError, match="must be > -1/2"):
            DunklParams(-0.5, 0.0)


class TestLambdaEigenvalue:
    def test_frozen_values(self):
        assert lambda_eigenvalue(AngularMode(SectorLabel(1, 1), 0, 1, P11)) == 0.0
        assert lambda_eigenvalue(
            AngularMode(SectorLabel(1, 1), 2, 1, P11)
        ) == pytest.approx(2.0 * math.sqrt(8.0), rel=1e-15)
        half = DunklParams(0.5, 0.5)
        assert lambda_eigenvalue(
            AngularMode(SectorLabel(1, -1), 0.5, -1, half)
        ) == pytest.approx(-2.0, rel=1e-15)


class TestEigenfunctions:
    def test_n_zero_is_real_constant_family(self):
        mode = AngularMode(SectorLabel(1, 1), 0, 1, P11)
        fld = f_eigenfunction(mode)
        vals = fld.eval_polar(np.ones(5), np.linspace(0.2, 6.0, 5))
        assert np.allclose(vals.imag, 0.0)
        assert np.allclose(vals, vals[0])

    @pytest.mark.parametrize("sector", ALL_SECTORS)
    @pytest.mark.parametrize("params", [P11, P21, DunklParams(0.5, 1.5)])
    def test_sign_pairing_via_eigen_residual(self, sector, params):
        # the numeric check that branch b really carries eigenvalue b*|lambda|
        phis = np.linspace(0.13, 2 * np.pi, 17, endpoint=False)
        rho = np.ones_like(phis)
        for mode in modes_for_sector(sector, params, 2):
            fld = f_eigenfunction(mode)
            lam = lambda_eigenvalue(mode)
            vals = fld.eval_polar(rho, phis)
            applied = angular_j(fld, (rho, phis), params)
            assert np.max(np.abs(applied - lam * vals)) <= 1e-6

    def test_double_reflection_parity(self):
        phis = np.linspace(0.1, 3.0, 9)
        for sector, params in ((SectorLabel(1, 1), P21), (SectorLabel(1, -1), P21)):
            for mode in modes_for_sector(sector, params, 2):
                fld = f_eigenfunction(mode)
                lhs = fld.eval_polar(np.ones_like(phis), np.pi + phis)
                rhs = sector.epsilon * fld.eval_polar(np.ones_like(phis), phis)
                assert np.allclose(lhs, rhs, atol=1e-12)

    def test_single_reflection_swaps_branches(self):
        # R_x F^{(b)} = F^{(-b)} for epsilon = +1 and -F^{(-b)} for
        # epsilon = -1 (R_y gives +F^{(-b)} there): the individual
        # reflections connect the two lambda branches rather than acting
        # as scalars on a mode.
        phis = np.linspace(0.1, 3.0, 9)
        ones = np.ones_like(phis)
        plus = f_eigenfunction(AngularMode(SectorLabel(1, 1), 2, 1, P21))
        minus = f_eigenfunction(AngularMode(SectorLabel(1, 1), 2, -1, P21))
        assert np.allclose(plus.eval_polar(ones, np.pi - phis),
                           minus.eval_polar(ones, phis), atol=1e-12)
        fplus = f_eigenfunction(AngularMode(SectorLabel(1, -1), 1.5, 1, P21))
        fminus = f_eigenfunction(AngularMode(SectorLabel(1, -1), 1.5, -1, P21))
        assert np.allclose(fplus.eval_polar(ones, np.pi - phis),
                           -fminus.eval_polar(ones, phis), atol=1e-12)
        assert np.allclose(fplus.eval_polar(ones, -phis),
                           fminus.eval_polar(ones, phis), atol=1e-12)

    def test_classical_limit_is_pure_phase(self):
        # mu = 0: modes reduce to exp(i m phi) with m = -lambda
        params = DunklParams(0.0, 0.0)
        mode = AngularMode(SectorLabel(1, 1), 1, 1, params)
        lam = lambda_eigenvalue(mode)
        fld = f_eigenfunction(mode)
        phis = np.linspace(0.0, 6.0, 13)
        vals = fld.eval_polar(np.ones_like(phis), phis)
        expect = vals[0] * np.exp(-1j * lam * phis)
        assert np.allclose(vals, expect, atol=1e-12)

    def test_orthonormal_within_sector(self):
        rule = angular_quadrature(P11)
        for sector in ALL_SECTORS:
            modes = modes_for_sector(sector, P11, 4)
            fields = [f_eigenfunction(m) for m in modes]
            gram = np.array(
                [[weighted_inner_product(a, b, rule) for b in fields] for a in fields]
            )
            assert np.max(np.abs(gram - np.eye(len(modes)))) <= 1e-8

    def test_eigen_residual_small_modes(self):
        # absolute residual <= 100 h^2 holds for the low modes; for large
        # n and mu the prefactor |F'''|/6 exceeds 100 and only the
        # relative residual stays at the O(h^2) scale (see acceptance)
        h = 1e-4
        phis = (np.arange(64) + 0.5) * 2 * np.pi / 64
        ones = np.ones_like(phis)
        for mx in (0.0, 0.5, 1.0, 2.0):
            for my in (0.0, 0.5, 1.0, 2.0):
                params = DunklParams(mx, my)
                for sector in ALL_SECTORS:
                    for mode in modes_for_sector(sector, params, 2):
                        fld = f_eigenfunction(mode)
                        lam = lambda_eigenvalue(mode)
                        vals = fld.eval_polar(ones, phis)
                        res = np.max(np.abs(angular_j(fld, (ones, phis), params, h) - lam * vals))
                        assert res <= 100.0 * h * h, (mode, res)


def _reference_phi(s_x, s_y, n, params, phi):
    """Phi^{s_x s_y}_n by the module docstring's rule, from scipy's Jacobi
    polynomial and a math.lgamma normalization: no code of the package."""
    from scipy.special import eval_jacobi

    e_x, e_y = (1 - s_x) // 2, (1 - s_y) // 2
    a, b = params.mu_x - 0.5 + e_x, params.mu_y - 0.5 + e_y
    j = round(n - 0.5 * (e_x + e_y))
    if j < 0:
        return np.zeros_like(phi)
    log_num = (math.lgamma(a + b + 2.0) if j == 0 else
               math.log(2 * j + a + b + 1.0) + math.lgamma(j + a + b + 1.0) + math.lgamma(j + 1.0))
    c = math.exp(0.5 * (log_num - math.log(2.0) - math.lgamma(j + a + 1.0) - math.lgamma(j + b + 1.0)))
    return c * np.cos(phi) ** e_x * np.sin(phi) ** e_y * eval_jacobi(j, a, b, -np.cos(2.0 * phi))


class TestOneJacobiPath:
    """Every Phi and F is a row of the one angular table builder; checked
    against an independent reference, and row against row."""

    PHIS = np.linspace(-3.1, 3.1, 41)

    @pytest.mark.parametrize("params", [DunklParams(0.3, 0.7), DunklParams(1.0, 0.5)], ids=str)
    def test_phi_and_f_equal_a_scipy_reference(self, params):
        phis = self.PHIS
        for n in range(7):
            for fn, (s_x, s_y), m in ((phi_pp, (1, 1), n), (phi_mm, (-1, -1), n),
                                      (phi_mp, (-1, 1), n + 0.5), (phi_pm, (1, -1), n + 0.5)):
                ref = _reference_phi(s_x, s_y, m, params, phis)
                np.testing.assert_allclose(fn(m, params, phis), ref, rtol=0, atol=1e-13)
                # signed zeros too: Phi at phi = 0 is -0.0 where sin(phi) meets a negative c P_j
                assert np.array_equal(np.signbit(fn(m, params, phis)), np.signbit(ref))
        pairs = {1: ((1, 1), (-1, -1)), -1: ((-1, 1), (1, -1))}
        for sector in ALL_SECTORS:
            for mode in modes_for_sector(sector, params, 6):
                (sa, sb), eps = pairs[sector.epsilon], sector.epsilon
                for weight in (eps * mode.branch, 0.3, -1.7):
                    ref = (_reference_phi(*sa, mode.n, params, phis)
                           + 1j * weight * _reference_phi(*sb, mode.n, params, phis))
                    ref = ref if mode.n == 0 else ref / math.sqrt(1.0 + weight * weight)
                    np.testing.assert_allclose(mixed_pair(eps, mode.n, params, weight)(phis), ref,
                                               rtol=0, atol=1e-13)
                    if mode.n == 0:
                        # the n = 0 mode mixes in nothing, whatever the weight: Phi^{++}_0 bit for bit
                        assert np.array_equal(mixed_pair(1, 0, params, weight)(phis),
                                              phi_pp(0, params, phis) + 0j)
                    if weight == eps * mode.branch:
                        np.testing.assert_allclose(f_eigenfunction(mode).eval_polar(1.0, phis), ref,
                                                   rtol=0, atol=1e-13)

    POOL = [mode for mu in ((0.0, 0.0), (1.0, 1.0), (0.3, 0.7), (1.0, 0.5), (2.0, 1.0))
            for sector in ALL_SECTORS for mode in modes_for_sector(sector, DunklParams(*mu), 4)]

    @settings(max_examples=60, deadline=None)
    @given(picks=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=16),
           angles=st.sampled_from(["grid", "scalar", "matrix"]))
    def test_a_row_of_any_table_is_the_mode_f_bit_for_bit(self, picks, angles):
        # random subsets across sectors and mu, in any order and with repeats
        phi = {"grid": self.PHIS, "scalar": 0.37, "matrix": self.PHIS[:40].reshape(5, 8)}[angles]
        modes = [self.POOL[i] for i in picks]
        rows = eigenfunction_rows(modes)(phi)
        assert rows.shape == (len(modes), *np.shape(phi))
        for row, mode in zip(rows, modes):
            assert np.array_equal(row, f_eigenfunction(mode).eval_polar(1.0, phi))
