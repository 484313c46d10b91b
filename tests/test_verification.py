"""Verification checks, oracles, and the suite runner."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_oscillator import solution_builder, verification

from dunkl_oscillator.angular_sector import (
    ALL_SECTORS,
    AngularMode,
    SectorLabel,
    f_eigenfunction,
    lambda_eigenvalue,
    modes_for_sector,
)
from dunkl_oscillator.dunkl_calculus import (
    Component,
    DunklParams,
    ScalarField2D,
    MIN_STEP,
    SingularPointError,
    angular_j,
    b_phi_apply,
    dirac_apply,
    kg_apply,
)
from dunkl_oscillator.solution_builder import (
    InvalidPairError,
    NegativeRadicandError,
    NormRangeError,
    OscillatorConfig,
    Regime,
    RegimeError,
    SpinorSolution,
    build_radial,
    build_spinor,
    classify_regime,
    energy,
    free_particle,
    pair_radial_indices,
)
from dunkl_oscillator.special_functions import DomainError
from dunkl_oscillator.verification import (
    GridSpec,
    VerificationReport,
    CheckRecord,
    cartesian_states,
    check_angular_eigen,
    check_dirac_system,
    check_kg_eigen,
    check_nonrelativistic_limit,
    check_orthonormality,
    classical_oscillator_b_energy,
    coupled_reflection_eigenstate,
    matrix_oracle_lambda,
    nonrelativistic_target,
    run_suite,
    sweep_bound_states,
)

P11 = DunklParams(1.0, 1.0)
P00 = DunklParams(0.0, 0.0)
CFG = OscillatorConfig(omega=1.0)
CFG_NEG = OscillatorConfig(omega=0.25, omega_c=2.5)
CFG_CRIT = OscillatorConfig(omega=1.0, omega_c=2.0)
MODE11 = AngularMode(SectorLabel(1, 1), 1, 1, P11)


def _shell_solution(shell, params, config, index, lower_of=None):
    """State ``index`` of the shell's ``cartesian_states`` as a check input,
    labelled by an n = 0 mode of the same parameters; ``lower_of`` swaps in
    the lower component of another state of the shell."""
    states = cartesian_states(shell, params, config)
    upper, lower, e_val = states[index]
    if lower_of is not None:
        lower = states[lower_of][1]
    return SpinorSolution(e_val, AngularMode(SectorLabel(1, 1), 0, 1, params), config, (upper, lower))


class TestReportMechanics:
    def test_aggregate_pass_iff_all_records_pass(self):
        good, bad = CheckRecord("a", {}, 0.0, 1.0), CheckRecord("b", {}, 2.0, 1.0)
        assert VerificationReport("demo", [good]).passed
        assert not VerificationReport("demo", [good, bad]).passed

    def test_nan_residual_fails(self):
        assert CheckRecord("a", {}, math.nan, 1.0).passed is False

    def test_inputs_keys_of_every_suite(self):
        # the README's "Verify records" table gives these patterns and keys
        state = {"sector", "n", "branch"}
        nrlimit = state | {"k", "target", "c_values"}
        mode = r"\[[+-]1,[+-]1\] n=\d+(\.5)? b=[+-]1"
        expected = {
            "kg": (state | {"component", "energy", "h"}, rf"kg{mode} k=\d+ (upper|lower)"),
            "kg E": (state | {"component", "energy", "h"}, rf"kg{mode} E=[\d.]+ (upper|lower)"),
            "dirac": (state | {"energy", "h"}, rf"dirac{mode} k=\d+"),
            "angular": (state | {"mu_x", "mu_y", "lambda", "relative_residual", "h"},
                        rf"angular{mode} mu=\(1,1\)"),
            "ortho": ({"modes", "mu_x", "mu_y"}, r"ortho\[[+-]1,[+-]1\] \d+ modes mu=\(1,1\)"),
            "nrlimit match": (nrlimit, rf"nrlimit{mode} k=2 match"),
            "nrlimit rate": (nrlimit | {"rate"}, rf"nrlimit{mode} k=2 rate"),
        }
        critical = run_suite(P11, OscillatorConfig(omega=1.0, omega_c=2.0), "kg", n_max=1).records
        assert critical and all(" E=" in r.name for r in critical)
        seen = set()
        for rec in run_suite(P11, CFG, "all", n_max=1, k_max=1).records + critical:
            suite = rec.name.split("[")[0]
            if suite == "nrlimit":
                suite += " " + rec.name.rsplit(" ", 1)[1]
            elif " E=" in rec.name:
                suite += " E"
            keys, pattern = expected[suite]
            assert set(rec.inputs) == keys, rec.name
            assert re.fullmatch(pattern, rec.name), (rec.name, pattern)
            if suite != "ortho":
                assert list(rec.inputs)[:3] == ["sector", "n", "branch"], rec.name
                assert rec.name.startswith(f"{suite.split()[0]}[{rec.inputs['sector']}] n={rec.inputs['n']:g} "
                                           f"b={rec.inputs['branch']:+d}"), rec.name
            seen.add(suite)
        assert seen == set(expected)

    def test_to_dict_schema(self):
        rep = check_angular_eigen(AngularMode(SectorLabel(1, 1), 0, 1, P11))
        d = rep.to_dict()
        assert set(d) == {"suite", "checks", "pass"}
        assert set(d["checks"][0]) == {"name", "inputs", "residual", "tol", "pass"}


class TestKgCheck:
    def test_valid_state_passes(self):
        mode = AngularMode(SectorLabel(-1, 1), 0.5, -1, P11)
        sol = build_spinor(mode, 2, CFG)
        rep = check_kg_eigen(sol, tol=1e-5)
        assert rep.passed

    def test_perturbed_energy_fails(self):
        mode = AngularMode(SectorLabel(-1, 1), 0.5, -1, P11)
        sol = build_spinor(mode, 2, CFG)
        bumped = SpinorSolution(
            energy=sol.energy + 0.1, mode=sol.mode, config=sol.config,
            rows=(sol.upper, sol.lower),
        )
        rep = check_kg_eigen(bumped, tol=1e-5)
        assert not rep.passed
        assert max(r.residual for r in rep.records) > 0.01

    def test_zero_component_passes_with_zero_residual(self):
        sol = _shell_solution(2, P11, CFG, 0)  # Et = 0: E = mc^2 and the lower component is zero
        assert sol.energy == CFG.rest_energy
        rep = check_kg_eigen(sol, tol=1e-5)
        lower_rec = [r for r in rep.records if "lower" in r.name][0]
        assert lower_rec.residual == 0.0


class TestAngularCheck:
    def test_constant_mode_residual_is_rounding_level(self):
        rep = check_angular_eigen(AngularMode(SectorLabel(1, 1), 0, 1, P11))
        assert rep.records[0].residual <= 1e-12

    def test_deformed_mode_passes(self):
        rep = check_angular_eigen(AngularMode(SectorLabel(1, 1), 2, 1, P11))
        assert rep.passed

    def test_wrong_branch_sign_fails(self):
        mode = AngularMode(SectorLabel(1, 1), 2, 1, P11)
        fld = f_eigenfunction(mode)
        lam = lambda_eigenvalue(mode)
        phi = np.linspace(0.3, 2.8, 7)
        ones = np.ones_like(phi)
        vals = fld.eval_polar(ones, phi)
        applied = angular_j(fld, (ones, phi), P11)
        assert np.max(np.abs(applied + lam * vals)) > 0.1  # -lambda is wrong

    @pytest.mark.parametrize("mu", [(1.0, 1.0), (0.5, 1.5), (0.0, 0.0), (2.0, 1.0)])
    def test_modes_of_a_sector_in_one_call_keep_each_records_bits(self, monkeypatch, mu):
        params = DunklParams(*mu)
        phi = GridSpec(n_phi=64).angles()
        rho = np.ones_like(phi)

        def alone(mode):  # one mode on its own F, as the check ran before sectors were batched
            fld, lam = f_eigenfunction(mode), lambda_eigenvalue(mode)
            vals = fld.eval_polar(rho, phi)
            residual = float(np.max(np.abs(angular_j(fld, (rho, phi), params) - lam * vals)))
            relative = residual / max(float(np.max(np.abs(vals))) * max(abs(lam), 1.0), 1e-300)
            return residual.hex(), relative.hex()

        calls = []
        original = verification.angular_j

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for sector in ALL_SECTORS:
            modes = modes_for_sector(sector, params, 4)
            expected = [alone(mode) for mode in modes]
            names = [check_angular_eigen(mode).records[0].name for mode in modes]
            monkeypatch.setattr(verification, "angular_j", counted)
            records = check_angular_eigen(modes).records
            monkeypatch.undo()
            assert [r.name for r in records] == names
            assert [(r.residual.hex(), r.inputs["relative_residual"].hex()) for r in records] == expected
        assert len(calls) == len(ALL_SECTORS)


class TestOrthonormality:
    def test_within_sector(self):
        rep = check_orthonormality(modes_for_sector(SectorLabel(1, 1), P11, 4))
        assert rep.passed and rep.records[0].residual <= 1e-10

    def test_single_mode_measures_norm_defect(self):
        rep = check_orthonormality([AngularMode(SectorLabel(1, 1), 1, 1, P11)])
        assert rep.records[0].residual <= 1e-12

    @pytest.mark.parametrize("params", [P00, P11, DunklParams(0.3, 0.7)], ids=str)
    def test_one_jacobi_recurrence_per_family_sector_and_angle_array(self, monkeypatch, params):
        # each sector's modes read one eigenfunction_rows table on the one
        # quadrature angle array: a recurrence for Phi_A and one for Phi_B
        from dunkl_oscillator import angular_sector

        calls = []
        original = angular_sector.jacobi_rows
        monkeypatch.setattr(angular_sector, "jacobi_rows", lambda *a: calls.append(a[:2]) or original(*a))
        rep = run_suite(params, CFG, suite="ortho")
        assert len(rep.records) == 4
        assert len(calls) == 4 * 2
        assert len(set(calls)) == 4  # the four parity families' (a, b)

    @pytest.mark.parametrize("mu", [(1.0, 1.0), (0.0, 0.0), (0.3, 0.7), (0.25, 0.25)], ids=str)
    def test_gram_matrix_is_one_product_equal_to_the_pairwise_one(self, monkeypatch, mu):
        from dunkl_oscillator.angular_sector import eigenfunction_rows
        from dunkl_oscillator.dunkl_calculus import angular_quadrature, weighted_inner_product

        params = DunklParams(*mu)
        rule = angular_quadrature(params)
        for sector in ALL_SECTORS:
            rows = eigenfunction_rows(modes_for_sector(sector, params, verification.ANGULAR_N_MAX))
            fields = [ScalarField2D(lambda rho, phi, i=i: rows(phi)[i]) for i in range(len(rows(0.3)))]
            pairwise = np.array([[weighted_inner_product(a, b, rule) for b in fields] for a in fields])
            stacked = ScalarField2D(lambda rho, phi: rows(phi))
            gram = weighted_inner_product(stacked, stacked, rule)
            assert gram.shape == pairwise.shape
            assert np.max(np.abs(gram - pairwise)) <= 1e-15
            assert np.max(np.abs(gram - gram.conj().T)) <= 1e-15  # Hermitian to rounding
        calls = []
        monkeypatch.setattr(verification, "weighted_inner_product",
                            lambda *a: calls.append(a) or weighted_inner_product(*a))
        rep = run_suite(params, CFG, suite="ortho")
        assert len(calls) == len(rep.records) == 4  # one product per sector
        assert rep.passed

    @settings(max_examples=40, deadline=None)
    @given(mu_x=st.floats(0.0, 3.0), mu_y=st.floats(0.0, 3.0))
    def test_ortho_passes_for_any_real_mu(self, mu_x, mu_y):
        # the Gauss-Jacobi rule holds the deformation weight, so 2 mu need
        # not be an integer
        rep = run_suite(DunklParams(mu_x, mu_y), CFG, suite="ortho")
        assert rep.passed, max(rec.residual for rec in rep.records)

    def test_cross_parity_classes_orthogonal(self):
        from dunkl_oscillator.dunkl_calculus import angular_quadrature, weighted_inner_product

        f_even = f_eigenfunction(AngularMode(SectorLabel(1, 1), 1, 1, P11))
        f_odd = f_eigenfunction(AngularMode(SectorLabel(1, -1), 0.5, 1, P11))
        val = weighted_inner_product(f_even, f_odd, angular_quadrature(P11))
        assert abs(val) <= 1e-12


class TestDiracCheck:
    @pytest.mark.parametrize("mu", [(0.0, 0.0), (1.0, 1.0), (0.3, 0.7)], ids=str)
    @pytest.mark.parametrize("config", [CFG, CFG_NEG], ids=["w>0", "w<0"])
    def test_shell_pair_passes(self, mu, config):
        for index in range(4):
            assert check_dirac_system(_shell_solution(3, DunklParams(*mu), config, index), tol=1e-5).passed

    @pytest.mark.parametrize("c", [1e154, 1.34e154])
    def test_a_scale_past_the_double_range_raises_before_the_operator(self, monkeypatch, c):
        # |E| + m c^2 overflows a double where m c^2 nears the largest double:
        # the check raises rather than write NaN records
        calls = []
        monkeypatch.setattr(verification, "dirac_apply", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"\|E\| \+ m c\^2 overflows a double"):
            run_suite(P11, OscillatorConfig(omega=1.0, c=c), "dirac", n_max=1, k_max=1)
        assert calls == []

    def test_wrong_partner_index_fails(self):
        # the lower component of another eigenvector of the same shell
        assert check_dirac_system(_shell_solution(2, P11, CFG, 1), tol=1e-4).passed
        assert not check_dirac_system(_shell_solution(2, P11, CFG, 1, lower_of=2), tol=1e-4).passed

    def test_same_angular_closed_form_fails_coupling(self):
        # the built pair shares one angular factor; the first-order system
        # maps between the two parity classes, so the coupled residual is
        # O(1) even where both components solve the second-order checks
        mode = AngularMode(SectorLabel(1, -1), 0.5, 1, P11)
        sol = build_spinor(mode, 1, CFG)
        rep = check_dirac_system(sol, tol=1e-4)
        assert not rep.passed
        assert rep.records[0].residual > 0.1


class TestMatrixOracle:
    def test_classical_spectrum(self):
        vals = matrix_oracle_lambda(SectorLabel(1, 1), P00, 20)
        for lam in (0.0, 2.0, -2.0, 4.0, -4.0):
            assert np.min(np.abs(vals - lam)) <= 1e-10

    def test_deformed_eigenvalues_present(self):
        vals = matrix_oracle_lambda(SectorLabel(1, 1), P11, 48)
        for lam in (2 * math.sqrt(3), 2 * math.sqrt(8), -2 * math.sqrt(3)):
            assert np.min(np.abs(vals - lam)) <= 1e-8

    def test_minimal_basis(self):
        vals = matrix_oracle_lambda(SectorLabel(1, 1), P11, 1)
        assert len(vals) == 1 and abs(vals[0]) <= 1e-12

    def test_every_analytic_eigenvalue_found(self):
        grid = (0.0, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0)
        for mx in grid:
            for my in grid:
                params = DunklParams(mx, my)
                for sector in (SectorLabel(1, 1), SectorLabel(1, -1)):
                    vals = matrix_oracle_lambda(sector, params, 48)
                    for mode in modes_for_sector(sector, params, 4):
                        lam = lambda_eigenvalue(mode)
                        assert np.min(np.abs(vals - lam)) <= 1e-8, (params, mode)

    def test_every_eigenvalue_is_analytic(self):
        # basis 48 holds the shells N = 46 (epsilon = +1) and N = 47
        # (epsilon = -1), whose eigenvalues are +/- lambda for n <= N/2
        params = DunklParams(0.3, 0.7)
        for sector, shell in ((SectorLabel(1, 1), 46), (SectorLabel(1, -1), 47)):
            vals = matrix_oracle_lambda(sector, params, 48)
            lams = np.array([lambda_eigenvalue(m)
                             for m in modes_for_sector(sector, params, shell / 2)])
            assert len(vals) == len(lams) == shell + 1
            for v in vals:
                assert np.min(np.abs(lams - v)) <= 1e-12, (sector, v)

    def test_no_odd_shell_at_basis_one(self):
        with pytest.raises(ValueError):
            matrix_oracle_lambda(SectorLabel(1, -1), P11, 1)


def _outer_kg_residual(field, component, params, config, e_val, h):
    """kg residual of a field on the check grid's radii of 0.27 length
    scales or more, relative to its largest value there."""
    length = config.length_scale
    radii = GridSpec().radii(length)
    rho, phi = radii[radii >= 0.27 * length][:, None], GridSpec().angles()[None, :]
    vals = field.eval_polar(rho, phi)
    applied = kg_apply(component, field, params, config, (rho, phi), h)
    return np.max(np.abs(applied - verification.reduced_energy(config, e_val) * vals)) / np.max(np.abs(vals))


class TestCartesianStates:
    @pytest.mark.parametrize("wt", [1.0, -1.0, 0.55])
    def test_undeformed_energies_are_the_textbook_spectrum(self, wt):
        config = OscillatorConfig(omega=1.0, omega_c=2.0 * (1.0 - wt))
        for shell in range(8):
            got = sorted(e for _, _, e in cartesian_states(shell, P00, config))
            want = sorted(classical_oscillator_b_energy(Component.UPPER, (shell - abs(m)) // 2, m, config)
                          for m in range(-shell, shell + 1, 2))
            assert np.allclose(got, want, rtol=1e-14, atol=0.0), (shell, got, want)

    @pytest.mark.parametrize("params", [P00, P11, DunklParams(0.3, 2.7)], ids=str)
    def test_one_rest_energy_state_per_shell_at_positive_frequency(self, params):
        for shell in range(6):
            for config, count in ((CFG, 1), (CFG_NEG, 0)):
                at_rest = [(lower, e) for _, lower, e in cartesian_states(shell, params, config)
                           if e == config.rest_energy]
                assert len(at_rest) == count
                for lower, _ in at_rest:
                    assert not np.any(lower.eval_polar(np.array([0.5, 1.5]), np.array([0.3, 2.0])))

    @settings(max_examples=16, deadline=None)
    @given(mu=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)), shell=st.integers(0, 4),
           wt=st.sampled_from([1.0, 0.55, -0.5, -1.5]))
    def test_states_solve_both_equations_at_second_order(self, mu, shell, wt):
        params, config = DunklParams(*mu), OscillatorConfig(omega=1.0, omega_c=2.0 * (1.0 - wt))
        for index, (upper, lower, e_val) in enumerate(cartesian_states(shell, params, config)):
            assert check_dirac_system(_shell_solution(shell, params, config, index), tol=1e-6).passed
            for component, field in ((Component.UPPER, upper), (Component.LOWER, lower)):
                if e_val == config.rest_energy and component is Component.LOWER:
                    continue  # the zero lower component of an Et = 0 state
                coarse, fine = (_outer_kg_residual(field, component, params, config, e_val, h)
                                for h in (1e-3, 5e-4))
                assert 3.5 <= coarse / fine <= 4.5, (index, component, coarse, fine)


class TestNonrelativisticLimit:
    def test_flat_case_handled(self):
        mode = AngularMode(SectorLabel(1, 1), 0, 1, P00)
        rep = check_nonrelativistic_limit(mode, 0, CFG)
        assert rep.passed
        assert nonrelativistic_target(mode, 0, CFG) == 0.0

    def test_deformed_case_rate_and_match(self):
        mode = AngularMode(SectorLabel(1, 1), 1, 1, P11)
        rep = check_nonrelativistic_limit(mode, 2, CFG)
        assert rep.passed
        rate_rec = [r for r in rep.records if r.name.endswith("rate")][0]
        assert 1.8 <= rate_rec.inputs["rate"] <= 2.2

    def test_series_coefficient_high_precision(self):
        # the hard-coded target must equal the first-order term of the
        # energy expansion; float64 loses the shift to cancellation at
        # large c, so the radicand is re-evaluated with 50-digit
        # arithmetic and pushed to c = 1e8 where the next term is ~1e-16
        import mpmath

        sector = SectorLabel(-1, 1)
        mode = AngularMode(sector, 1.5, -1, P11)
        k = 1
        target = nonrelativistic_target(mode, k, CFG)
        with mpmath.workdps(50):
            lam = -2 * mpmath.sqrt((mpmath.mpf("1.5") + 1) * (mpmath.mpf("1.5") + 1))
            a_ord = mpmath.sqrt(lam * lam)  # mu_x - mu_y = 0 here
            sigma = -P11.mu_x + P11.mu_y
            s_num = 2 * k + a_ord + lam - sigma
            c = mpmath.mpf(10) ** 8
            q = 2 * CFG.omega_tilde / (c * c)
            delta = c * c * (mpmath.sqrt(1 + q * s_num) - 1)
            assert abs(float(delta) - target) <= 1e-12 * max(abs(target), 1.0)

    @pytest.mark.parametrize("ratio", [0.0, 4.0], ids=["w+", "w-"])
    @pytest.mark.parametrize("omega", [1e-300, 1e-8, 1e-6, 1e-3, 1.0, 1e3, 1e200, 1e300])
    def test_every_record_passes_at_any_frequency(self, omega, ratio):
        # the check runs in units of |w~|: q = 2 / c^2 and with it the
        # rounding of E(c) - c^2 do not move with omega
        config = OscillatorConfig(omega=omega, omega_c=ratio * omega)
        records = run_suite(P11, config, "nrlimit").records
        assert len(records) == 8 and all(r.passed for r in records), [(r.name, r.residual) for r in records]
        for rec in records:
            assert rec.inputs["c_values"] == [10.0, 100.0, 1000.0]

    @pytest.mark.parametrize("ratio", [0.0, 4.0], ids=["w+", "w-"])
    def test_records_at_extreme_frequencies_are_those_of_unit_frequency(self, ratio):
        # |w~| near either end of the double range: no light speed squared
        # overflows and no error rounds to 0, as the check sees |w~| = 1
        unit = _signature(run_suite(P11, OscillatorConfig(omega=1.0, omega_c=ratio), "nrlimit").records)
        for omega in (1e305, 1.8e302, 5e-319, 4.72e-319, 1e-318, 1e-313):
            config = OscillatorConfig(omega=omega, omega_c=ratio * omega)
            assert _signature(run_suite(P11, config, "nrlimit").records) == unit, omega

    @pytest.mark.parametrize("config", [OscillatorConfig(omega=4.72e-319), OscillatorConfig(omega=5e-319),
                                        OscillatorConfig(omega=3.19e-320, omega_c=1.28e-319)],
                             ids=["4.72e-319", "5e-319", "mixed"])
    def test_every_record_passes_near_the_bottom_of_the_double_range(self, config):
        # the subnormal |w~| once gave a failing rate, or errors of which
        # some, not all, were exactly 0 and had no log-log fit
        records = run_suite(P11, config, "nrlimit").records
        assert len(records) == 8 and all(r.passed for r in records), [(r.name, r.residual) for r in records]


class TestReferenceEigenstates:
    @pytest.mark.parametrize("component", [Component.UPPER, Component.LOWER])
    @pytest.mark.parametrize("epsilon,n", [(1, 1), (1, 2), (-1, 0.5), (-1, 1.5)])
    def test_coupled_reflection_modes_are_exact(self, component, epsilon, n):
        # the machinery oracle: these states diagonalize the reflection
        # coupling, so the second-order residual must be pure O(h^2)
        params = DunklParams(2.0, 1.0)
        for cfg in (CFG, CFG_NEG):
            fld, tilde_e = coupled_reflection_eigenstate(
                component, epsilon, n, 1, 1, params, cfg
            )
            rho, phi = GridSpec().polar_points(1.0)
            vals = fld.eval_polar(rho, phi)
            applied = kg_apply(component, fld, params, cfg, (rho, phi))
            res = np.max(np.abs(applied - tilde_e * vals)) / np.max(np.abs(vals))
            assert res <= 1e-5, (component, epsilon, n, cfg, res)

    def test_n_zero_reference_state(self):
        fld, tilde_e = coupled_reflection_eigenstate(
            Component.UPPER, 1, 0, 1, 2, P11, CFG
        )
        assert tilde_e == pytest.approx(4.0, rel=1e-14)  # 2k with k = 2
        rho, phi = GridSpec().polar_points(1.0)
        vals = fld.eval_polar(rho, phi)
        applied = kg_apply(Component.UPPER, fld, P11, CFG, (rho, phi))
        assert np.max(np.abs(applied - tilde_e * vals)) <= 1e-5 * np.max(np.abs(vals))

    @pytest.mark.parametrize("component", [Component.UPPER, Component.LOWER])
    def test_factors_run_once_per_coordinate_array(self, monkeypatch, component):
        # kg_apply evaluates the field 15 times on 3 radius arrays and 5
        # angle arrays; each factor remembers them, so the Laguerre
        # recurrence runs once per radius array
        from dunkl_oscillator import angular_sector, solution_builder

        calls = {"laguerre_rows": 0, "jacobi_rows": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(solution_builder, "laguerre_rows")
        counted(angular_sector, "jacobi_rows")
        fld, _ = coupled_reflection_eigenstate(component, 1, 2, 1, 1, P11, CFG)
        rho, phi = GridSpec().polar_points(1.0)
        kg_apply(component, fld, P11, CFG, (rho, phi))
        assert calls["laguerre_rows"] == 3
        assert calls["jacobi_rows"] == 2 * 5  # Phi^{++} and Phi^{--} per angle array

    # with mu != 0 some shells sit at the rounding floor of their Cartesian
    # polynomials at the innermost grid radius (see ``cartesian_states``)
    @pytest.mark.parametrize("mu, config", [((0.0, 0.0), CFG), ((0.0, 0.0), CFG_NEG), ((1.0, 0.5), CFG)],
                             ids=["mu=0 w>0", "mu=0 w<0", "mu=(1,1/2) w>0"])
    def test_shell_pair_kg_consistency(self, mu, config):
        for index in range(4):
            rep = check_kg_eigen(_shell_solution(3, DunklParams(*mu), config, index), tol=1e-5)
            assert rep.passed


class TestSweepAndSuite:
    def test_grid_is_built_once_per_length_scale_and_read_only(self):
        rho, phi = GridSpec().polar_points(1.5)
        again = GridSpec().polar_points(1.5)
        assert again[0] is rho and again[1] is phi
        assert rho.shape == (12, 1) and phi.shape == (1, 16)
        assert np.array_equal(rho[:, 0], GridSpec().radii(1.5))
        assert np.array_equal(phi[0], GridSpec().angles())
        for arr in (rho, phi):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0

    def test_sweep_counts(self):
        assert len(list(sweep_bound_states(P11, CFG, 2, 2))) == 28
        assert len(list(sweep_bound_states(P00, CFG, 2, 2))) == 34

    def test_suite_names_guarded(self):
        with pytest.raises(ValueError):
            run_suite(P00, CFG, suite="bogus")

    def test_classical_suites_pass(self):
        runs = [(name, CFG) for name in ("kg", "angular", "ortho", "nrlimit")]
        runs.append(("nrlimit", OscillatorConfig(omega=1.0, omega_c=4.0)))
        for name, cfg in runs:
            rep = run_suite(P00, cfg, suite=name)
            assert rep.passed, (name, cfg, [r.name for r in rep.records if not r.passed])

    def test_dirac_suite_documents_same_angular_failure(self):
        rep = run_suite(P00, CFG, suite="dirac")
        assert not rep.passed

    def test_explicit_tolerance_is_used_even_when_zero(self):
        for tol in (0.0, 0.5):
            rep = run_suite(P00, CFG, suite="ortho", tol=tol)
            assert [r.tol for r in rep.records] == [tol] * 4
            assert all(r.passed == (r.residual <= tol) for r in rep.records)
        assert {r.tol for r in run_suite(P00, CFG, suite="ortho").records} == {1e-8}

    def test_threads_other_than_one_rejected(self):
        with pytest.raises(ValueError):
            run_suite(P00, CFG, suite="kg", threads=2)

    def test_critical_regime_suites(self):
        # at (2, 1) and (1/2, 3/2) the n = 0 records leave no room for
        # rounding in rho: the rho^-2 of the angular term at the smallest
        # radius would lift a last-bit change of rho above the tolerance
        crit = OscillatorConfig(omega=1.0, omega_c=2.0)
        for params in (P11, DunklParams(2.0, 1.0), DunklParams(0.5, 1.5)):
            rep = run_suite(params, crit, suite="kg")
            assert rep.passed, (params, [r.name for r in rep.records if not r.passed])
        with pytest.raises(RegimeError):
            run_suite(P11, crit, suite="dirac")

    @pytest.mark.parametrize("params, h, message", [
        # unchecked, 1e300 overflows to NaN records, and 0.005 meets the axis
        # guard of dunkl_derivative halfway through the run
        (P00, 1e300, "h 1e+300 must be at most 0.01 for suite dirac: the dirac check, whose Cartesian "
                     "stencil must stay off the origin on a grid of length scale 1"),
        (P11, 0.005, "h 0.005 must be at most 0.0019509 for suite dirac: the dirac check, whose Cartesian "
                     "stencil must stay off the axes on a grid of length scale 1"),
    ], ids=["origin", "axes"])
    def test_h_past_the_step_limit_raises_before_any_check(self, params, h, message, monkeypatch):
        calls = []
        monkeypatch.setattr(verification, "dirac_apply", lambda *a: calls.append(a))
        with pytest.raises(ValueError) as exc:
            run_suite(params, CFG, "dirac", h=h, n_max=1, k_max=1)
        assert (exc.type, str(exc.value), calls) == (ValueError, message, [])

    @pytest.mark.parametrize("h", [0.0, math.nan, -1e-4, 1e-200, math.inf])
    @pytest.mark.parametrize("suite", [*verification.SUITE_NAMES, "all"])
    def test_a_step_off_its_range_raises_for_every_suite_before_any_check(self, suite, h, monkeypatch):
        # the command line's step range, for every suite: at h = 0 or 1e-200
        # (whose h^2 is 0) the stencils divide by zero, NaN gives NaN
        # residuals, and a negative h turns each stencil around
        calls = []
        original = verification.kg_apply
        monkeypatch.setattr(verification, "kg_apply", lambda *a: calls.append(a) or original(*a))
        with pytest.raises(ValueError) as exc:
            run_suite(P11, CFG, suite, h=h, n_max=1, k_max=1)
        message = f"h {h:g} must be finite and at least {MIN_STEP:g}"
        assert (exc.type, str(exc.value), calls) == (ValueError, message, [])

    def test_a_radial_index_past_the_largest_degree_raises_before_any_check(self, monkeypatch):
        # at mu = (1,1), k = 200 pairs with k' = 201 in sector (-1,-1), which
        # the sweep reaches after (+1,+1): none of (+1,+1)'s states is checked
        calls = []
        original = verification.kg_apply
        monkeypatch.setattr(verification, "kg_apply", lambda *a: calls.append(a) or original(*a))
        with pytest.raises(DomainError) as exc:
            run_suite(P11, CFG, "kg", n_max=1, k_max=200)
        assert str(exc.value) == ("k=200 pairs with the lower radial index k'=201 in sector (-1,-1); "
                                  "radial indices must be at most 200")
        assert calls == []

    @pytest.mark.parametrize("omega, message", [
        (1e-313, "the length scale sqrt(hbar / (m |w~|)) of |w~| = 1e-313 is not a finite double"),
        # kg_apply squares radii up to 4 length scales: past the largest double below |w~| of about 8.9e-308
        (5e-308, "the kg check's largest radius, 1.78885e+154, overflows a double when squared"),
    ])
    def test_a_grid_past_the_double_range_raises_before_any_check(self, omega, message, monkeypatch):
        calls = []
        monkeypatch.setattr(verification, "kg_apply", lambda *a: calls.append(a))
        with pytest.raises(ValueError) as exc:
            run_suite(P00, OscillatorConfig(omega=omega), "kg", n_max=1, k_max=1)
        assert (str(exc.value), calls) == (message, [])
        # the suites that run on no grid read no length
        for suite in ("angular", "ortho", "nrlimit"):
            assert run_suite(P00, OscillatorConfig(omega=omega), suite).records

    def test_suite_names_then_regime_then_h(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite(P11, CFG_CRIT, "nonsense", h=1e300)
        with pytest.raises(RegimeError, match="the dirac suite needs a non-critical regime"):
            run_suite(P11, CFG_CRIT, "all", h=1e300)

    def test_a_state_past_the_first_batch_fails_before_any_check(self, monkeypatch):
        # this sweep yields 876 states, past the first batch, before one
        # cannot be built: run_suite walks the sweep to its end before its
        # first check, and before it checks h
        count = 0
        with pytest.raises(NormRangeError):
            for _ in sweep_bound_states(P11, CFG, 150, 2):
                count += 1
        assert count == 876 > verification._SWEEP_BATCH
        calls = []
        original = verification.kg_apply
        monkeypatch.setattr(verification, "kg_apply", lambda *a: calls.append(a) or original(*a))
        with pytest.raises(NormRangeError):
            run_suite(P11, CFG, "kg", n_max=150, k_max=2)
        with pytest.raises(NormRangeError):
            run_suite(P11, CFG, "kg", n_max=150, k_max=2, h=1e300)
        assert calls == []


class TestConstantAngularFactor:
    """An n = 0 state has a constant angular factor, so every angular
    difference of it, and with it the whole angular operator, is exactly 0."""

    @pytest.mark.parametrize("params", [P11, DunklParams(2.0, 1.0)])
    def test_angular_operators_vanish_exactly(self, params):
        mode = AngularMode(SectorLabel(1, 1), 0, 1, params)
        k = round(params.mu_plus) + 1  # pairs with k' = 0
        bound = build_spinor(mode, k, CFG)
        crit = OscillatorConfig(omega=1.0, omega_c=2.0)
        free = free_particle(mode, 2.0, crit)
        rho, phi = GridSpec().polar_points(1.0)
        for fld in (bound.upper, bound.lower, free.upper):
            assert np.all(b_phi_apply(fld, (rho, phi), params) == 0.0)
            assert np.all(angular_j(fld, (rho, phi), params) == 0.0)


def _by_mode(states):
    return [list(group) for _, group in itertools.groupby(states, key=lambda st: st.mode)]


def _alone(state):
    """The state on its own fields, as the checks saw every state before
    states were stacked by mode; hand-built, it is tagged by its energy."""
    return dataclasses.replace(state, rows=(state.upper, state.lower))


def _signature(records):
    return [(r.name, r.inputs, r.passed, float(r.residual).hex()) for r in records]


def _buildable_modes(params, config, n_max, k_max):
    """Modes with at least one buildable state, counted without building any."""
    regime = classify_regime(config)
    count = 0
    for sector in ALL_SECTORS:
        for mode in modes_for_sector(sector, params, n_max):
            for k in range(k_max + 1):
                try:
                    pair_radial_indices(sector, regime, k, params)
                    energy(Component.UPPER, sector, mode, k, config, 1)
                except (InvalidPairError, NegativeRadicandError):
                    continue
                count += 1
                break
    return count


STACK_CONFIGS = [OscillatorConfig(omega=1.1), OscillatorConfig(omega=1.1, omega_c=4.4)]


class TestModeStacks:
    """kg and dirac check the k states of one mode object in one operator
    application on (K, P) fields, and every record keeps its per-state bits."""

    @pytest.mark.parametrize("config", STACK_CONFIGS, ids=["w+", "w-"])
    @pytest.mark.parametrize("mu", [(1.0, 1.0), (0.5, 1.5), (0.0, 0.0), (2.0, 1.0)])
    def test_stacked_records_equal_records_of_states_checked_alone(self, mu, config):
        groups = _by_mode(sweep_bound_states(DunklParams(*mu), config, 4, 4))
        assert max(len(g) for g in groups) > 1
        for check in (check_kg_eigen, check_dirac_system):
            for group in groups:
                alone = [r for st in group for r in check(st).records]
                assert _signature(check(group).records) == _signature(alone)

    def test_stack_of_one_equals_the_single_state_call(self):
        for group in _by_mode(sweep_bound_states(P11, CFG, 2, 2))[:6]:
            for check in (check_kg_eigen, check_dirac_system):
                single = _signature(check(group[-1]).records)
                assert _signature(check(group[-1:]).records) == single
                assert [sig[1:] for sig in _signature(check(_alone(group[-1])).records)] == \
                    [sig[1:] for sig in single]

    def test_zero_lower_row_keeps_residual_zero(self):
        group = max(_by_mode(sweep_bound_states(P11, CFG, 2, 2)), key=len)
        upper, lower = group[0].rows
        zeroed = dataclasses.replace(group[0], rows=(upper, lower._replace(amplitude=0.0)))
        stack = [zeroed, *group[1:]]
        for check in (check_kg_eigen, check_dirac_system):
            alone = [r for st in stack for r in check(st).records]
            assert _signature(check(stack).records) == _signature(alone)
        kg = check_kg_eigen(stack).records
        assert kg[1].name.endswith(" lower") and kg[1].residual == 0.0

    def test_a_state_whose_rows_are_replaced_is_named_by_its_new_rows(self):
        # a built state's k is its upper row's radial index, stored nowhere else
        state = build_spinor(AngularMode(SectorLabel(-1, -1), 1, 1, P11), 1, CFG)
        upper, lower = state.rows
        moved = dataclasses.replace(state, rows=(upper._replace(index=2), lower._replace(index=3)))
        assert [r.name for r in check_kg_eigen(moved).records] == [
            "kg[-1,-1] n=1 b=+1 k=2 upper", "kg[-1,-1] n=1 b=+1 k=2 lower"]
        assert [r.name for r in check_dirac_system(moved).records] == ["dirac[-1,-1] n=1 b=+1 k=2"]

    def test_states_of_two_modes_stack_and_hand_built_or_mixed_states_raise(self):
        states = list(sweep_bound_states(P11, CFG, 2, 2))
        a, b = states[0], next(st for st in states if st.mode.sector != states[0].mode.sector)
        twin = build_spinor(AngularMode(a.mode.sector, a.mode.n, a.mode.branch, P11),
                            a.rows[0].index, CFG)  # an equal mode, built apart
        for check in (check_kg_eigen, check_dirac_system):
            for pair in ([a, b], [a, twin]):
                alone = [r for st in pair for r in check(st).records]
                assert _signature(check(pair).records) == _signature(alone)
        other_config = build_spinor(a.mode, a.rows[0].index, OscillatorConfig(omega=1.3))
        other_params = next(sweep_bound_states(P00, CFG, 2, 2))
        crit = OscillatorConfig(omega=1.0, omega_c=2.0)
        free = [free_particle(AngularMode(SectorLabel(1, 1), 1, 1, P11), e_val, crit)
                for e_val in (1.25, 2.0)]
        for check in (check_kg_eigen, check_dirac_system):
            for pair in ([a, _alone(a)], [a, other_config], [a, other_params], [a, free[0]]):
                with pytest.raises(ValueError):
                    check(pair)
        with pytest.raises(ValueError):  # a free state's grid follows its energy
            check_kg_eigen(free)

    def test_the_builder_stacks_builder_states_only(self):
        # a lone hand-built state is checked on its own fields by the checks'
        # block helper; the builder's stacker refuses it, alone or in a list
        state = next(sweep_bound_states(P11, CFG, 2, 2))
        oracle = _shell_solution(2, P11, CFG, 1)
        for hand_built in (_alone(state), oracle):
            with pytest.raises(ValueError):
                list(solution_builder.stacked_blocks([hand_built]))
            for check in (check_kg_eigen, check_dirac_system):
                assert check(hand_built).records
                with pytest.raises(ValueError):
                    check([hand_built])

    @pytest.mark.parametrize("config", STACK_CONFIGS, ids=["w+", "w-"])
    def test_operators_run_once_per_component_per_block(self, monkeypatch, config):
        calls = {"kg_apply": 0, "dirac_apply": 0}
        for name in calls:
            original = getattr(verification, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(verification, name, counted)
        states = len(list(sweep_bound_states(P11, config, 2, 3)))
        blocks = -(-states // verification._STATE_BLOCK)
        assert blocks > 1
        run_suite(P11, config, "kg", n_max=2, k_max=3)
        run_suite(P11, config, "dirac", n_max=2, k_max=3)
        assert calls == {"kg_apply": 2 * blocks, "dirac_apply": blocks}

    def test_suite_calls_the_public_checks_once_per_run(self, monkeypatch):
        # perfbench's span recorder counts these two names in the module
        # namespace; a check path that bypassed them would trace as 0 calls.
        # Each takes the whole sweep (critical regime: one call per energy)
        calls = {"check_kg_eigen": [], "check_dirac_system": []}
        for name in calls:
            original = getattr(verification, name)

            def counted(states, *args, name=name, original=original, **kwargs):
                calls[name].append(states)
                return original(states, *args, **kwargs)

            monkeypatch.setattr(verification, name, counted)
        kg = run_suite(P11, CFG, "kg")
        dirac = run_suite(P11, CFG, "dirac")
        states = list(sweep_bound_states(P11, CFG, 2, 2))
        assert len(states) > verification._STATE_BLOCK
        for name in calls:
            assert [[(st.mode, st.rows) for st in run] for run in calls[name]] == [
                [(st.mode, st.rows) for st in states]]
        assert len(kg.records) == 2 * len(states) and len(dirac.records) == len(states)
        calls["check_kg_eigen"].clear()
        run_suite(P11, OscillatorConfig(omega=1.0, omega_c=2.0), "kg", n_max=8)
        modes = sum(len(modes_for_sector(s, P11, 8)) for s in ALL_SECTORS)
        assert [len(run) for run in calls["check_kg_eigen"]] == [modes, modes]
        assert [{st.energy for st in run} for run in calls["check_kg_eigen"]] == [{1.25}, {2.0}]

    @pytest.mark.parametrize("config", [CFG, CFG_CRIT], ids=["bound", "free"])
    def test_suite_hands_a_long_sweep_to_the_checks_in_batches(self, monkeypatch, config):
        # run_suite takes the sweep one batch at a time, so states and
        # tables stay bounded; the batching changes no record
        suites = ("kg",) if config is CFG_CRIT else ("kg", "dirac")
        whole = {name: run_suite(P11, config, name, n_max=3, k_max=3).records for name in suites}
        sizes = []
        original = verification.check_kg_eigen

        def counted(states, *args, **kwargs):
            sizes.append(len(states))
            return original(states, *args, **kwargs)

        monkeypatch.setattr(verification, "check_kg_eigen", counted)
        monkeypatch.setattr(verification, "_SWEEP_BATCH", verification._STATE_BLOCK)
        for name in suites:
            assert _signature(run_suite(P11, config, name, n_max=3, k_max=3).records) == _signature(whole[name])
        if config is CFG_CRIT:
            groups = [len(group) for group in verification._critical_states(P11, config, 3)]
        else:
            groups = [len(list(sweep_bound_states(P11, config, 3, 3)))]
        batch = verification._SWEEP_BATCH
        assert sizes == [min(batch, n - lo) for n in groups for lo in range(0, n, batch)]
        assert len(sizes) > len(groups)

    def test_every_sweep_up_to_8_8_is_one_batch(self):
        # the largest (8, 8) sweep: mu = (0, 0) at w~ < 0
        assert len(list(sweep_bound_states(P00, CFG_NEG, 8, 8))) == 585 <= verification._SWEEP_BATCH

    def test_no_operator_application_receives_more_than_a_block(self, monkeypatch):
        seen = {"kg_apply": [], "dirac_apply": []}
        for name in seen:
            original = getattr(verification, name)

            def counted(*args, name=name, original=original):
                out = original(*args)
                seen[name].append(len(out[0] if name == "dirac_apply" else out))
                return out

            monkeypatch.setattr(verification, name, counted)
        run_suite(P11, CFG, "all", n_max=8, k_max=8)
        states = len(list(sweep_bound_states(P11, CFG, 8, 8)))
        assert max(seen["kg_apply"]) == max(seen["dirac_apply"]) == verification._STATE_BLOCK
        assert sum(seen["kg_apply"]) == 2 * states and sum(seen["dirac_apply"]) == states
        seen["kg_apply"].clear()
        run_suite(P11, OscillatorConfig(omega=1.0, omega_c=2.0), "kg", n_max=8)
        assert max(seen["kg_apply"]) <= verification._STATE_BLOCK
        assert sum(seen["kg_apply"]) == 2 * 2 * sum(len(modes_for_sector(s, P11, 8)) for s in ALL_SECTORS)

    @pytest.mark.parametrize("check, operator, per_block", [
        (check_kg_eigen, "kg_apply", 2), (check_dirac_system, "dirac_apply", 1)], ids=["kg", "dirac"])
    def test_a_direct_check_call_runs_its_operator_once_per_block(self, monkeypatch, check, operator, per_block):
        # any number of states: the check blocks them itself, and every
        # state keeps the record it gets alone
        states = list(sweep_bound_states(P11, CFG, 3, 3))
        blocks = -(-len(states) // verification._STATE_BLOCK)
        assert blocks > 2
        calls = []
        original = getattr(verification, operator)
        monkeypatch.setattr(verification, operator, lambda *args: calls.append(args) or original(*args))
        records = check(states).records
        assert len(calls) == per_block * blocks
        monkeypatch.undo()
        alone = [r for st in states for r in check(st).records]
        assert _signature(records) == _signature(alone)

    @pytest.mark.parametrize("check, asks, products", [
        (check_kg_eigen, 16, 7), (check_dirac_system, 10, 7)], ids=["kg", "dirac"])
    def test_a_block_computes_each_distinct_stencil_point_once(self, monkeypatch, check, asks, products):
        # the checks' block fields remember their products by (rho, phi):
        # kg asks each component 16 times (the check's values and kg_apply's
        # 15) for 7 distinct points, dirac each 10 times (dirac_apply's 9 and
        # the check's scale) for 7, 20 asks and 14 products per block
        original = verification.remember_last
        fields = []

        def counted(fn):
            seen = {"asks": 0, "products": 0, "coords": set()}
            fields.append(seen)

            def product(*coords):
                seen["products"] += 1
                return fn(*coords)

            remembered = original(product)

            def ask(*coords):
                seen["asks"] += 1
                seen["coords"].add(len(coords))
                return remembered(*coords)

            return ask

        monkeypatch.setattr(verification, "remember_last", counted)
        states = list(sweep_bound_states(P11, CFG, 2, 2))[:verification._STATE_BLOCK]
        records = check(states).records
        stacked = [(seen["asks"], seen["products"]) for seen in fields if seen["coords"] == {2}]
        assert stacked == [(asks, products)] * 2
        monkeypatch.undo()
        alone = [r for st in states for r in check(st).records]
        assert _signature(records) == _signature(alone)

    @pytest.mark.parametrize("config", STACK_CONFIGS, ids=["w+", "w-"])
    def test_all_suite_walks_the_sweep_once_for_kg_and_dirac(self, monkeypatch, config):
        calls = []
        original = solution_builder.mode_states

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solution_builder, "mode_states", counted)
        list(sweep_bound_states(P11, config, 3, 3))
        modes = len(calls)
        assert modes == sum(len(modes_for_sector(s, P11, 3)) for s in ALL_SECTORS)
        calls.clear()
        both = run_suite(P11, config, "all", n_max=3, k_max=3).records
        assert len(calls) == modes
        for name in ("kg", "dirac"):
            alone = run_suite(P11, config, name, n_max=3, k_max=3).records
            assert _signature([r for r in both if r.name.startswith(name + "[")]) == _signature(alone)


@settings(max_examples=12, deadline=None)
@given(mu=st.one_of(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    st.tuples(st.sampled_from([0.5, 1.5]), st.sampled_from([0.5, 1.5]))),
       omega=st.floats(0.5, 2.0), ratio=st.sampled_from([0.0, 4.0]), pick=st.integers(0, 10**6))
def test_random_mode_stack_matches_its_states_bit_for_bit(mu, omega, ratio, pick):
    config = OscillatorConfig(omega=omega, omega_c=ratio * omega)
    groups = _by_mode(sweep_bound_states(DunklParams(*map(float, mu)), config, 2, 3))
    group = groups[pick % len(groups)]
    for check in (check_kg_eigen, check_dirac_system):
        alone = [float(r.residual).hex() for st in group for r in check(_alone(st)).records]
        assert [float(r.residual).hex() for r in check(group).records] == alone


def _flat_points(state):
    """The state's check grid as flattened meshgrid points, one (rho, phi)
    per point, as ``GridSpec.polar_points`` gave them before it split the
    grid into a radius column and an angle row."""
    grid = GridSpec()
    length = verification._length_scale(state.config, state.energy)
    rr, pp = np.meshgrid(grid.radii(length), grid.angles(), indexing="ij")
    return rr.ravel(), pp.ravel()


def _kg_residual_on_flat_points(state, component):
    fld = state.upper if component is Component.UPPER else state.lower
    rho, phi = _flat_points(state)
    vals = fld.eval_polar(rho, phi)
    scale = np.max(np.abs(vals))
    if scale == 0.0:
        return 0.0
    applied = kg_apply(component, fld, state.mode.params, state.config, (rho, phi))
    return float(np.max(np.abs(applied - verification.reduced_energy(state.config, state.energy) * vals)) / scale)


def _dirac_residual_on_flat_points(state):
    rho, phi = _flat_points(state)
    xs, ys = rho * np.cos(phi), rho * np.sin(phi)
    config = state.config
    r1, r2 = dirac_apply((state.upper, state.lower), state.energy, state.mode.params, config, (xs, ys))
    amp = max(np.max(np.abs(state.upper(xs, ys))), np.max(np.abs(state.lower(xs, ys))), 1e-300)
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))) / ((abs(state.energy) + config.rest_energy) * amp))


@settings(max_examples=24, deadline=None)
@given(mu=st.sampled_from([(1.0, 1.0), (0.5, 1.5), (1.5, 0.5), (0.0, 0.0)]),
       ratio=st.sampled_from([0.0, 2.0, 4.0]), e_ratio=st.sampled_from([1.25, 2.0]),
       picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=verification._STATE_BLOCK))
def test_separable_grid_records_equal_the_flattened_grid_residuals_bit_for_bit(mu, ratio, e_ratio, picks):
    # a block checked on the radius column x angle row against each of its
    # states alone on every (rho, phi) point: bound states at w~ = +1 and
    # w~ = -1, free states of one energy at the critical point (kg only)
    params, config = DunklParams(*mu), OscillatorConfig(omega=1.0, omega_c=ratio)
    if ratio == 2.0:
        states = [free_particle(mode, e_ratio, config)
                  for sector in ALL_SECTORS for mode in modes_for_sector(sector, params, 2)]
    else:
        states = list(sweep_bound_states(params, config, 2, 3))
    block = [states[p % len(states)] for p in picks]
    kg = [float(r.residual).hex() for r in check_kg_eigen(block).records]
    assert kg == [float(_kg_residual_on_flat_points(st, c)).hex()
                  for st in block for c in (Component.UPPER, Component.LOWER)]
    if ratio != 2.0:
        dirac = [float(r.residual).hex() for r in check_dirac_system(block).records]
        assert dirac == [float(_dirac_residual_on_flat_points(st)).hex() for st in block]


_MU = st.one_of(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                st.tuples(st.sampled_from([0.5, 1.5]), st.sampled_from([0.5, 1.5])))
_PICKS = st.lists(st.integers(0, 10**6), min_size=2, max_size=verification._STATE_BLOCK)


@settings(max_examples=12, deadline=None)
@given(mu=_MU, omega=st.floats(0.5, 2.0), ratio=st.sampled_from([0.0, 4.0]), picks=_PICKS)
def test_random_cross_mode_block_matches_its_states_bit_for_bit(mu, omega, ratio, picks):
    config = OscillatorConfig(omega=omega, omega_c=ratio * omega)
    states = list(sweep_bound_states(DunklParams(*map(float, mu)), config, 2, 3))
    block = [states[p % len(states)] for p in picks]  # any modes and sectors, in any order
    for check in (check_kg_eigen, check_dirac_system):
        alone = [r for st in block for r in check(st).records]
        assert _signature(check(block).records) == _signature(alone)


@settings(max_examples=12, deadline=None)
@given(mu=_MU, omega=st.floats(0.5, 2.0), e_ratio=st.floats(1.0, 3.0), picks=_PICKS)
def test_random_block_of_free_states_of_one_energy_matches_its_states_bit_for_bit(mu, omega, e_ratio, picks):
    params = DunklParams(*map(float, mu))
    config = OscillatorConfig(omega=omega, omega_c=2.0 * omega)
    states = [free_particle(mode, e_ratio * config.rest_energy, config)
              for sector in ALL_SECTORS for mode in modes_for_sector(sector, params, 2)]
    block = [states[p % len(states)] for p in picks]
    alone = [r for st in block for r in check_kg_eigen(st).records]
    assert _signature(check_kg_eigen(block).records) == _signature(alone)


@pytest.mark.parametrize("call, error", [
    (lambda: AngularMode(SectorLabel(1, 1), 1, 0, P11), ValueError),
    (lambda: kg_apply(Component.UPPER, ScalarField2D.zero(), P11, CFG, (np.array([1e-4]), np.array([0.3])),
                      h=1e-4), SingularPointError),
    (lambda: pair_radial_indices(SectorLabel(1, 1), Regime.POSITIVE, -1, P11), ValueError),
    (lambda: energy(Component.UPPER, SectorLabel(1, 1), MODE11, -1, CFG, 1), ValueError),
    (lambda: build_radial(MODE11, -1, CFG), ValueError),
    (lambda: energy(Component.UPPER, SectorLabel(1, 1), MODE11, 0, CFG, 2), ValueError),
    (lambda: matrix_oracle_lambda(SectorLabel(1, 1), P11, basis_size=0), ValueError),
    (lambda: classical_oscillator_b_energy(Component.UPPER, 0, 0, CFG_CRIT), RegimeError),
    (lambda: cartesian_states(1, P11, CFG_CRIT), RegimeError),
    (lambda: cartesian_states(-1, P11, CFG), ValueError),
    (lambda: coupled_reflection_eigenstate(Component.UPPER, 0, 1, 1, 0, P11, CFG), ValueError),
    (lambda: coupled_reflection_eigenstate(Component.UPPER, 1, 1, 1, 0, P11, CFG_CRIT), RegimeError),
    (lambda: coupled_reflection_eigenstate(Component.UPPER, 1, 0.5, 1, 0, P11, CFG), ValueError),
    (lambda: coupled_reflection_eigenstate(Component.UPPER, -1, 1.0, 1, 0, P11, CFG), ValueError),
    (lambda: next(sweep_bound_states(P11, CFG_CRIT)), RegimeError),
], ids=["branch", "kg-origin", "pair-k", "energy-k", "radial-k", "energy-sign", "basis-size",
        "classical-critical", "shell-critical", "shell-negative", "coupled-epsilon", "coupled-critical",
        "coupled-off-ladder-plus", "coupled-off-ladder-minus", "sweep-critical"])
def test_each_input_guard_raises_its_own_error(call, error):
    with pytest.raises(ValueError) as exc:
        call()
    assert exc.type is error


@pytest.mark.parametrize("check, suite", [(check_kg_eigen, "kg"), (check_angular_eigen, "angular"),
                                          (check_orthonormality, "ortho"), (check_dirac_system, "dirac")],
                         ids=["kg", "angular", "ortho", "dirac"])
def test_no_modes_or_states_give_an_empty_report(check, suite):
    assert check([]) == VerificationReport(suite, [])
