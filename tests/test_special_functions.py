"""Special-function evaluators against independent oracles.

Expected values are computed in-test from explicit series/closed forms
(never from the functions under test); scipy and math.lgamma serve as
additional independent cross-checks.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special

from dunkl_oscillator.special_functions import (
    DomainError,
    bessel_j,
    jacobi_p,
    jacobi_rows,
    laguerre_l,
    laguerre_rows,
    log_gamma,
)


class TestJacobi:
    def test_degree_zero_is_one(self):
        for alpha, beta, x in [(0.3, -0.4, 0.2), (2.0, 5.0, -1.0), (0.0, 0.0, 1.0)]:
            assert jacobi_p(0, alpha, beta, x) == 1.0

    def test_legendre_series_oracle(self):
        # P_2^{(0,0)} is the Legendre polynomial (3x^2 - 1)/2
        x = 0.5
        assert jacobi_p(2, 0.0, 0.0, x) == pytest.approx((3 * x * x - 1) / 2, rel=1e-14)

    def test_degree_one_closed_form(self):
        alpha, beta, x = 0.5, -0.5, 0.0
        expected = (alpha + 1) + (alpha + beta + 2) * (x - 1) / 2
        assert expected == 0.5
        assert jacobi_p(1, alpha, beta, x) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n", range(0, 21, 4))
    def test_symmetry_under_argument_flip(self, n):
        x = np.linspace(-1.0, 1.0, 50)
        lhs = jacobi_p(n, 0.75, 0.25, -x)
        rhs = (-1.0) ** n * jacobi_p(n, 0.25, 0.75, x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(rhs)))

    @pytest.mark.parametrize("n,alpha,beta", [(3, 0.5, 1.5), (7, -0.5, -0.5), (12, 2.0, 0.0)])
    def test_against_scipy(self, n, alpha, beta):
        x = np.linspace(-1, 1, 31)
        assert np.allclose(jacobi_p(n, alpha, beta, x),
                           scipy_special.eval_jacobi(n, alpha, beta, x),
                           rtol=1e-12, atol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jacobi_p(2, -1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            jacobi_p(2, 0.0, -1.5, 0.5)
        with pytest.raises(DomainError):
            jacobi_p(2, 0.0, 0.0, 1.1)
        with pytest.raises(DomainError):
            jacobi_p(201, 0.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            jacobi_p(-1, 0.7, 0.1, 0.3)


class TestJacobiRows:
    """jacobi_rows is the one Jacobi recurrence; jacobi_p reads one row."""

    @pytest.mark.parametrize("x", [np.linspace(-1.0, 1.0, 41), 0.3], ids=["array", "scalar"])
    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (1.5, -0.5), (-0.5, 2.5)])
    def test_rows_equal_jacobi_p_for_every_degree(self, x, alpha, beta):
        rows = jacobi_rows(alpha, beta, x, 12)
        assert rows.shape == (13, *np.shape(x))
        for n in range(13):
            assert np.array_equal(rows[n], jacobi_p(n, alpha, beta, x))

    def test_rows_do_not_depend_on_the_top_degree(self):
        x = np.linspace(-1.0, 1.0, 33)
        full = jacobi_rows(0.7, 1.3, x, 200)
        for j_top in (0, 1, 2, 7, 150):
            assert np.array_equal(jacobi_rows(0.7, 1.3, x, j_top), full[: j_top + 1])

    def test_domain_errors(self):
        for args in ((-1.0, 0.0, 0.5, 2), (0.0, -1.5, 0.5, 2), (0.0, 0.0, np.array([0.2, 1.1]), 2),
                     (0.0, 0.0, 0.5, 201), (0.7, 0.1, 0.3, -1)):
            with pytest.raises(DomainError):
                jacobi_rows(*args)


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre_l(0, 3.7, 11.0) == 1.0

    def test_degree_one_closed_form(self):
        # L_1^{alpha}(x) = 1 + alpha - x
        assert laguerre_l(1, 2.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_series_oracle_degree_two(self):
        # L_2^{(0)}(x) = (x^2 - 4x + 2)/2
        x = 1.0
        assert laguerre_l(2, 0.0, x) == pytest.approx((x * x - 4 * x + 2) / 2, rel=1e-14)

    def test_derivative_identity(self):
        # d/dx L_k^a = -L_{k-1}^{a+1}, checked against central differences
        h = 1e-6
        for k, a in [(1, 0.0), (3, 0.5), (6, 2.0)]:
            for x in (0.4, 1.7, 5.0):
                fd = (laguerre_l(k, a, x + h) - laguerre_l(k, a, x - h)) / (2 * h)
                assert fd == pytest.approx(-laguerre_l(k - 1, a + 1.0, x), abs=1e-6)

    @pytest.mark.parametrize("k,alpha", [(4, 0.0), (9, 1.5), (15, 4.0)])
    def test_against_scipy(self, k, alpha):
        x = np.linspace(0.0, 30.0, 40)
        assert np.allclose(laguerre_l(k, alpha, x),
                           scipy_special.eval_genlaguerre(k, alpha, x),
                           rtol=1e-10, atol=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            laguerre_l(2, -1.0, 0.5)
        with pytest.raises(DomainError):
            laguerre_l(2, 0.0, -0.1)
        with pytest.raises(DomainError):
            laguerre_l(201, 0.0, 0.5)
        with pytest.raises(DomainError):
            laguerre_l(-1, 0.0, 0.5)

    @pytest.mark.parametrize("x", [np.linspace(0.0, 30.0, 40), 2.5], ids=["array", "scalar"])
    def test_rows_equal_laguerre_l_for_every_degree(self, x):
        rows = laguerre_rows(1.5, x, 12)
        assert rows.shape == (13, *np.shape(x))
        for k in range(13):
            assert np.array_equal(rows[k], laguerre_l(k, 1.5, x))

    def test_rows_past_the_top_degree_raise(self):
        assert laguerre_rows(0.0, 0.5, 200).shape == (201,)
        with pytest.raises(DomainError):
            laguerre_rows(0.0, 0.5, 201)

    def test_order_column_equals_each_order_alone(self):
        orders = np.array([0.0, 0.5, 2.0, 4.47213595499958, 7.25])
        x = np.linspace(0.0, 30.0, 40)
        rows = laguerre_rows(orders[:, None], x, 9)
        assert rows.shape == (10, orders.size, x.size)
        for i, alpha in enumerate(orders):
            assert np.array_equal(rows[:, i], laguerre_rows(alpha, x, 9))
        with pytest.raises(DomainError):
            laguerre_rows(np.array([[0.5], [-1.0]]), x, 3)


class TestBessel:
    def test_at_origin(self):
        assert bessel_j(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert bessel_j(1.0, 0.0) == 0.0

    def test_half_integer_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin(x); at x = pi/2 this is 2/pi
        x = math.pi / 2
        assert bessel_j(0.5, x) == pytest.approx(2.0 / math.pi, rel=1e-12)
        for xv in (0.3, 2.2, 17.0):
            assert bessel_j(0.5, xv) == pytest.approx(
                math.sqrt(2.0 / (math.pi * xv)) * math.sin(xv), rel=1e-12
            )

    def test_recurrence(self):
        for nu in (1.0, 3.7, 10.0):
            for x in (0.5, 2.0, 10.0, 50.0):
                lhs = bessel_j(nu - 1.0, x) + bessel_j(nu + 1.0, x)
                rhs = 2.0 * nu / x * bessel_j(nu, x)
                scale = max(abs(lhs), abs(rhs), 1e-3)
                assert abs(lhs - rhs) <= 1e-10 * scale

    def test_accuracy_on_declared_range(self):
        # spot checks deep into the declared (nu, x) rectangle
        for nu, x in [(200.0, 250.0), (50.0, 9.0e3), (0.0, 1.0e4)]:
            ref = scipy_special.jv(nu, x)
            assert bessel_j(nu, x) == pytest.approx(ref, rel=1e-10, abs=1e-305)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j(-0.1, 1.0)
        with pytest.raises(DomainError):
            bessel_j(201.0, 1.0)
        with pytest.raises(DomainError):
            bessel_j(1.0, -1.0)
        with pytest.raises(DomainError):
            bessel_j(1.0, 1.1e4)
        with pytest.raises(DomainError):
            bessel_j(1.0, math.nan)
        with pytest.raises(DomainError):
            bessel_j(1.0, np.array([0.5, math.nan]))

    def test_order_column_equals_each_order_alone(self):
        orders = np.array([0.0, 0.5, 2.0, 4.47213595499958, 7.25])
        x = np.geomspace(0.01, 50.0, 64)
        table = bessel_j(orders[:, None], x)
        assert table.shape == (orders.size, x.size)
        for i, nu in enumerate(orders):
            assert np.array_equal(table[i], bessel_j(nu, x))
        assert bessel_j(orders, 2.0).shape == orders.shape
        for bad in (np.array([[1.0], [-0.1]]), np.array([[1.0], [201.0]]), np.array([[np.nan]])):
            with pytest.raises(DomainError):
                bessel_j(bad, x)


# orders of the mpmath comparison: the fixed ones below and six drawn once
BESSEL_ORDERS = [0.0, 0.5, 1.0, 2.0 * math.sqrt(2.0), math.sqrt(20.0), 10.0, 50.0, 99.5, 200.0,
                 *np.random.default_rng(20).uniform(0.0, 200.0, 6).tolist()]


def _branch_edges(nu: float) -> list[float]:
    """Both sides of the series/recurrence edge x = 8 and of the
    recurrence/Hankel edge x = max(25, nu^2), where that is in range."""
    hankel = max(25.0, nu * nu)
    edges = [8.0, math.nextafter(8.0, math.inf)]
    if hankel <= 1e4:
        edges += [math.nextafter(hankel, 0.0), hankel]
    return edges


def _error_against_mpmath(nu: float, x: np.ndarray, got: np.ndarray) -> np.ndarray:
    """|got - J_nu(x)| relative to |J| where |J| stands above 1e-3 of its
    envelope min(1, x^-1/2), and relative to the envelope elsewhere (near
    a zero, or where J underflows towards 0)."""
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besselj(nu, v)) for v in x.tolist()])
    envelope = np.minimum(1.0, x**-0.5)
    return np.abs(got - ref) / np.where(np.abs(ref) > 1e-3 * envelope, np.abs(ref), envelope)


class TestBesselAgainstMpmath:
    @pytest.mark.parametrize("nu", BESSEL_ORDERS, ids=lambda v: f"{v:.6g}")
    def test_declared_range(self, nu):
        x = np.sort(np.concatenate([np.geomspace(1e-3, 1e4, 57), _branch_edges(nu)]))
        got = bessel_j(nu, x)
        err = _error_against_mpmath(nu, x, got)
        assert err.max() <= 1e-10, x[err.argmax()]
        # each point alone equals its place in the array
        for i in range(0, x.size, 7):
            assert bessel_j(nu, float(x[i])) == got[i]

    @pytest.mark.parametrize("nu, x", [(145.12418328330284, 9763.973492976183),
                                       (88.92222346333551, 7690.765905889186), (200.0, 1e4)])
    def test_below_the_turning_point_at_large_argument(self, nu, x):
        # 25 <= x < nu^2 and nu <= x: the forward recurrence from Hankel's
        # J_mu and J_mu+1 holds 4e-13 here, where Miller's backward
        # recurrence misses 1e-10 next to a zero of J (2.3e-10 and 1.5e-10
        # at the first two points)
        assert _error_against_mpmath(nu, np.array([x]), np.array([bessel_j(nu, x)]))[0] <= 1e-10

    @given(
        orders=st.lists(st.one_of(st.floats(0.0, 6.0), st.floats(0.0, 200.0), st.sampled_from([0.0, 0.5, 2.0])),
                        min_size=1, max_size=4),
        x=st.lists(st.one_of(st.floats(0.0, 8.0), st.floats(8.0, 40.0), st.floats(25.0, 1000.0)),
                   min_size=1, max_size=6),
        scalar_x=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_order_column_equals_each_order_alone(self, orders, x, scalar_x):
        # arguments from the series (x <= 8), recurrence and Hankel branches
        arg = np.asarray(x[0] if scalar_x else x)
        column = np.reshape(orders, (-1,) + (1,) * arg.ndim)
        table = bessel_j(column, arg)
        assert table.shape == (len(orders), *arg.shape)
        for row, nu in zip(table, orders):
            assert np.array_equal(row, bessel_j(nu, arg))

    def test_orders_that_are_not_a_column_are_rejected(self):
        for nu, x in [(np.array([0.5, 2.0]), np.array([1.0, 30.0])), (np.array([[0.5, 2.0]]), 1.0),
                      (np.array([[0.5], [2.0]]), np.ones((2, 3)))]:
            with pytest.raises(ValueError, match="not a column"):
                bessel_j(nu, x)


class TestLogGamma:
    def test_integers(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_half_from_duplication_identity(self):
        # Gamma(1/2) = sqrt(pi) follows from the duplication formula
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    @given(st.floats(min_value=0.05, max_value=150.0))
    @settings(max_examples=60, deadline=None)
    def test_recursion_identity(self, x):
        assert log_gamma(x + 1.0) == pytest.approx(
            log_gamma(x) + math.log(x), rel=1e-13, abs=1e-13
        )

    @given(st.floats(min_value=0.01, max_value=170.0))
    @settings(max_examples=60, deadline=None)
    def test_against_stdlib(self, x):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-2.0)
