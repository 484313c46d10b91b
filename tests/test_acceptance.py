"""Acceptance criteria, one test per criterion, one printed line each.

Run ``pytest -s tests/test_acceptance.py -v`` to see the line-by-line
report. Three criteria measure genuine defects of the closed forms (or of
the stated tolerance) and fail by design of this suite: they are reported
with full diagnostics rather than weakened. See README "Verification
findings" for the analysis:

* Criterion 1: the absolute eigen-residual bound 1e-6 at h = 1e-4 is not
  reachable for the largest modes (n = 4 with deformation 2), whose third
  angular derivative exceeds the bound's implied prefactor; the relative
  residual stays at the O(h^2) scale ~1e-8 for every mode.
* Criterion 3: equal-parity closed-form states with n >= 1 and nonzero
  deformation are not eigenstates of the decoupled second-order equations
  (the reflection term exchanges the two lambda branches instead of
  reducing to a scalar); mixed-parity sectors with mu_x = mu_y and all
  undeformed states pass at the FD floor.
* Criterion 4: the coupled first-order system maps between the two
  parity classes, so no pair sharing a single angular factor can satisfy
  it; every swept pair fails at O(1) independent of the fitted phase.

The reference eigenstates of verification.coupled_reflection_eigenstate
pass the same operators at O(h^2) (test_verification), which localizes
these failures in the closed forms, not in the machinery.
"""

import math

import numpy as np
import pytest

from dunkl_oscillator.angular_sector import (
    ALL_SECTORS,
    AngularMode,
    SectorLabel,
    lambda_eigenvalue,
    modes_for_sector,
)
from dunkl_oscillator.dunkl_calculus import Component, DunklParams
from dunkl_oscillator.solution_builder import (
    InvalidPairError,
    OscillatorConfig,
    Regime,
    energy,
    free_particle,
    pair_radial_indices,
    radial_order,
)
from dunkl_oscillator.verification import (
    check_angular_eigen,
    check_dirac_system,
    check_kg_eigen,
    check_nonrelativistic_limit,
    check_orthonormality,
    classical_oscillator_b_energy,
    matrix_oracle_lambda,
    sweep_bound_states,
)

CFG_POS = OscillatorConfig(omega=1.0)                  # effective frequency +1
CFG_NEG = OscillatorConfig(omega=0.25, omega_c=2.5)    # effective frequency -1
CFG_CRIT = OscillatorConfig(omega=1.0, omega_c=2.0)
MU_GRID = (0.0, 0.5, 1.0, 2.0)
SWEEP_PARAMS = (DunklParams(0.0, 0.0), DunklParams(1.0, 1.0))


def _report(num: int, title: str, passed: bool, detail: str) -> None:
    line = f"CRITERION {num:02d} {title}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    if not passed:
        pytest.fail(line, pytrace=False)


def _angular_mode_set():
    for mx in MU_GRID:
        for my in MU_GRID:
            params = DunklParams(mx, my)
            for sector in ALL_SECTORS:
                yield from modes_for_sector(sector, params, 4)


def test_criterion_01_angular_eigen_residual():
    tol, h = 1e-6, 1e-4
    failures, worst, count = [], (0.0, None), 0
    for mode in _angular_mode_set():
        count += 1
        rec = check_angular_eigen(mode, tol=tol, h=h).records[0]
        if rec.residual > worst[0]:
            worst = (rec.residual, rec.name)
        if not rec.passed:
            failures.append((rec.name, rec.residual, rec.inputs["relative_residual"]))
    detail = f"{count - len(failures)}/{count} modes within {tol:g}; worst {worst[0]:.3e} at {worst[1]}"
    if failures:
        lines = "\n".join(
            f"  {name}: abs={res:.3e} rel={rel:.3e}" for name, res, rel in failures
        )
        detail += (
            f"; {len(failures)} high modes exceed the absolute bound while their "
            f"relative residuals stay at the O(h^2) scale:\n{lines}"
        )
    _report(1, "angular eigen-residual <= 1e-6 at h=1e-4", not failures, detail)


def test_criterion_02_matrix_oracle_match():
    tol, basis = 1e-8, 48
    worst = 0.0
    for params in (DunklParams(0, 0), DunklParams(0.5, 0.5), DunklParams(1, 1),
                   DunklParams(2, 2), DunklParams(2, 1)):
        for sector in (SectorLabel(1, 1), SectorLabel(1, -1)):
            vals = matrix_oracle_lambda(sector, params, basis)
            for mode in modes_for_sector(sector, params, 4):
                gap = float(np.min(np.abs(vals - lambda_eigenvalue(mode))))
                worst = max(worst, gap)
    _report(2, "analytic eigenvalues inside dense-oracle spectrum",
            worst <= tol, f"worst gap {worst:.2e} (tol {tol:g}, basis {basis})")


def _bound_sweep():
    for params in SWEEP_PARAMS:
        for cfg in (CFG_POS, CFG_NEG):
            for sol in sweep_bound_states(params, cfg, 2, 2):
                yield params, cfg, sol


def test_criterion_03_kg_residual_sweep():
    tol, h = 1e-5, 1e-4
    failures, count = [], 0
    for params, cfg, sol in _bound_sweep():
        count += 1
        rep = check_kg_eigen(sol, tol, h)
        res = max(r.residual for r in rep.records)
        if not rep.passed:
            failures.append(
                f"  mu=({params.mu_x:g},{params.mu_y:g}) wt={cfg.omega_tilde:+g} "
                f"[{sol.mode.sector}] n={sol.mode.n:g} b={sol.mode.branch:+d} "
                f"k={sol.rows[0].index}: residual {res:.3e}"
            )
    detail = f"{count - len(failures)}/{count} swept states within {tol:g}"
    if failures:
        detail += (
            "; the failing states are exactly the equal-parity closed forms "
            "with n >= 1 under nonzero deformation (branch-exchanging "
            "reflection term):\n" + "\n".join(failures)
        )
    _report(3, "second-order-equation residual over the bound sweep", not failures, detail)


def test_criterion_04_coupled_system_residual():
    tol, h = 1e-4, 1e-4
    failures, count = [], 0
    for params, cfg, sol in _bound_sweep():
        count += 1
        rep = check_dirac_system(sol, tol, h)
        if not rep.passed:
            failures.append(
                f"  mu=({params.mu_x:g},{params.mu_y:g}) wt={cfg.omega_tilde:+g} "
                f"[{sol.mode.sector}] n={sol.mode.n:g} b={sol.mode.branch:+d} "
                f"k={sol.rows[0].index}: residual {rep.records[0].residual:.3e}"
            )
    detail = f"{count - len(failures)}/{count} pairs within {tol:g}"
    if failures:
        detail += (
            "; pairs sharing one angular factor cannot satisfy the "
            "parity-exchanging first-order coupling (independent of the "
            "fitted phase):\n" + "\n".join(failures[:8])
        )
        if len(failures) > 8:
            detail += f"\n  ... and {len(failures) - 8} more"
    _report(4, "first-order coupled-system residual over the sweep", not failures, detail)


def test_criterion_05_undeformed_reduction():
    tol = 1e-12
    params = DunklParams(0.0, 0.0)
    worst = 0.0
    for cfg in (CFG_POS, OscillatorConfig(omega=0.0, omega_c=2.0)):
        for sector in ALL_SECTORS:
            for mode in modes_for_sector(sector, params, 3):
                m_orb = int(round(-lambda_eigenvalue(mode)))
                for k in range(4):
                    for comp in (Component.UPPER, Component.LOWER):
                        mine = energy(comp, sector, mode, k, cfg, 1)
                        ref = classical_oscillator_b_energy(comp, k, m_orb, cfg, 1)
                        worst = max(worst, abs(mine - ref) / abs(ref))
    _report(5, "mu=0 spectra equal the independently coded classical formula",
            worst <= tol, f"worst relative gap {worst:.2e} (tol {tol:g})")


def test_criterion_06_orthonormality():
    tol = 1e-8
    params = DunklParams(1.0, 1.0)
    worst = 0.0
    for sector in ALL_SECTORS:
        rec = check_orthonormality(modes_for_sector(sector, params, 4), tol=tol).records[0]
        worst = max(worst, rec.residual)
    _report(6, "Gram matrix of angular modes is the identity",
            worst <= tol, f"worst deviation {worst:.2e} (tol {tol:g})")


def test_criterion_07_quantum_number_pairing():
    params = DunklParams(1.0, 1.0)
    sector = SectorLabel(1, 1)
    kp = pair_radial_indices(sector, Regime.POSITIVE, 3, params)
    invalid_ok = True
    for k in (0, 1, 2):
        try:
            pair_radial_indices(sector, Regime.POSITIVE, k, params)
            invalid_ok = False
        except InvalidPairError:
            pass
    mode = AngularMode(sector, 1, 1, params)
    e_up = energy(Component.UPPER, sector, mode, 3, CFG_POS, 1)
    e_lo = energy(Component.LOWER, sector, mode, kp, CFG_POS, 1)
    equal = abs(e_up - e_lo) <= 4 * np.finfo(float).eps * abs(e_up)
    _report(7, "pairing constraint k=3 -> k'=0 with exact energy match",
            kp == 0 and invalid_ok and equal,
            f"k'={kp}, E_upper(3)={e_up!r}, E_lower(0)={e_lo!r}, k<=2 invalid={invalid_ok}")


def test_criterion_08_critical_regime():
    tol, h = 1e-5, 1e-4
    params = DunklParams(1.0, 1.0)
    worst, orders_ok = 0.0, True
    for sector in ALL_SECTORS:
        for mode in modes_for_sector(sector, params, 2):
            for e_val in (1.25, 2.0):
                sol = free_particle(mode, e_val, CFG_CRIT)
                rep = check_kg_eigen(sol, tol, h)
                worst = max(worst, max(r.residual for r in rep.records))
                # documented deviation: Bessel order is the radial order A
                rho = np.array([1e-4, 2e-4])
                vals = np.abs(sol.upper.eval_polar(rho, np.full_like(rho, 0.7)))
                slope = math.log(vals[1] / vals[0]) / math.log(2.0) + params.mu_plus
                if abs(slope - radial_order(mode)) > 1e-3:
                    orders_ok = False
    _report(8, "free-particle states satisfy the w~=0 equations",
            worst <= tol and orders_ok,
            f"worst residual {worst:.3e} (tol {tol:g}); small-rho order matches A: {orders_ok}")


def test_criterion_09_nonrelativistic_limit():
    params = DunklParams(1.0, 1.0)
    mode = AngularMode(SectorLabel(1, 1), 1, 1, params)
    rep = check_nonrelativistic_limit(mode, 2, CFG_POS)
    rate = [r for r in rep.records if r.name.endswith("rate")][0].inputs["rate"]
    match = [r for r in rep.records if r.name.endswith("match")][0].residual
    _report(9, "energy shift converges to the series target at rate ~ c^-2",
            rep.passed, f"rate {rate:.3f} in [1.8, 2.2]; relative mismatch {match:.2e}")


def test_criterion_10_convergence_order():
    # criterion-1 residuals: measured at the criterion's own step
    def worst_angular(h):
        return max(
            check_angular_eigen(m, h=h).records[0].residual
            for m in _angular_mode_set()
        )

    r_ang = worst_angular(1e-4) / worst_angular(5e-5)

    # criterion-3 residuals: measured on the states that pass criterion 3,
    # inside the truncation-dominated step window (1e-3 -> 5e-4). At the
    # acceptance step 1e-4 those residuals sit at the double-precision
    # cancellation floor ~1e-6 (well inside the 1e-5 tolerance), where
    # halving the step amplifies rounding instead of truncation.
    passing = [
        sol
        for _, _, sol in _bound_sweep()
        if check_kg_eigen(sol, 1e-5, 1e-4).passed
    ]
    assert passing, "no criterion-3 states available for the convergence study"

    def worst_kg(h):
        return max(
            max(r.residual for r in check_kg_eigen(sol, 1.0, h).records)
            for sol in passing
        )

    r_kg = worst_kg(1e-3) / worst_kg(5e-4)
    ok = 3.5 <= r_ang <= 4.5 and 3.5 <= r_kg <= 4.5
    _report(10, "halving h cuts FD residuals fourfold",
            ok, f"angular ratio {r_ang:.2f}, second-order-equation ratio {r_kg:.2f}")
