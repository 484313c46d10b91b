"""Independent numerical checks of every closed form the builder produces.

Each check applies an operator from :mod:`dunkl_calculus` directly to an
evaluable state and measures the residual on a grid that dodges the
reflection-singular loci. Checks never reuse the closed-form algebra they
test: eigenvalues are cross-checked against the exact tridiagonal
matrix of the angular operator on one shell of the Cartesian ladder,
the undeformed limit against an independently coded textbook spectrum,
and the deformed operators against reference eigenstates constructed
here by explicitly diagonalizing the 2x2 reflection coupling on each
branch pair. A reference eigenstate takes lambda, the radial order A
and the radial profile from the builder (``build_radial``); its 2x2
weights, kappa, its n = 0 case and its reduced energy Et are its own,
and they are what it checks. The same shell block, with the oscillator
and reflection terms added, gives exact eigenspinors of both the second-
and the first-order equations for any mu >= 0 in both bound regimes
(:func:`cartesian_states`); they are the oracle of ``dirac_apply``.

A finding the suite makes visible (see README): for nonzero deformation
the builder's closed-form bound states with n >= 1 are exact solutions
of the decoupled second-order equations only in the mixed-parity sectors
with mu_x = mu_y; elsewhere the reflection term swaps the lambda branches
instead of acting as a scalar, and the residual checks report O(1)
failures. The reference eigenstates built by
:func:`coupled_reflection_eigenstate` pass the same checks at O(h^2),
and the shell eigenspinors pass the first-order check, which pins the
discrepancy on the closed forms rather than the operators.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .angular_sector import (
    ALL_SECTORS,
    AngularMode,
    SectorLabel,
    eigenfunction_rows,
    lambda_eigenvalue,
    mixed_pair,
    modes_for_sector,
)
from .dunkl_calculus import (
    DEFAULT_STEP,
    CLEARANCE_STEPS,
    MIN_STEP,
    Component,
    DunklParams,
    ScalarField2D,
    angular_j,
    angular_quadrature,
    axis_distance,
    dirac_apply,
    kg_apply,
    remember_last,
    weighted_inner_product,
)
from .solution_builder import (
    OscillatorConfig,
    Regime,
    RegimeError,
    SpinorSolution,
    _STATE_BLOCK,
    build_radial,
    classify_regime,
    energy,
    free_particle,
    reduced_energy,
    spectral_sum,
    spectral_terms,
    stacked_blocks,
    sweep_bound_states,
)
from .special_functions import laguerre_rows

DEFAULT_TOLS = {
    "kg": 1e-5,
    "angular": 1e-6,
    "ortho": 1e-8,
    "dirac": 1e-4,
    "nrlimit": 1e-5,
}

SUITE_NAMES = tuple(DEFAULT_TOLS)

# Highest mode index n of the angular and ortho suites.
ANGULAR_N_MAX = 4
# Angles of the angular suite's grid.
ANGULAR_N_PHI = 64

# Light speeds of the nonrelativistic limit's rate fit, increasing, in units
# hbar = m = |w~| = 1: q = 2 / c^2 is then 2e-2, 2e-4 and 2e-6 at any frequency.
NRLIMIT_C_VALUES = (10.0, 100.0, 1000.0)

# Energies of the critical regime's free states, in units of m c^2.
_FREE_ENERGIES = (1.25, 2.0)

# Most states that run_suite hands to one kg or dirac check call, a whole
# number of blocks: every sweep up to (n_max, k_max) = (8, 8) (at most 585
# states) is one call with one set of tables, while a larger sweep's
# states and tables stay bounded instead of growing with the sweep.
_SWEEP_BATCH = 25 * _STATE_BLOCK


@dataclass(frozen=True)
class CheckRecord:
    name: str
    inputs: dict
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "residual": self.residual,
            "tol": self.tol,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    suite: str
    records: list[CheckRecord]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [r.to_dict() for r in self.records],
            "pass": self.passed,
        }


@dataclass(frozen=True)
class GridSpec:
    """Residual-check grid: radii log-spaced from 0.1 to 4 length scales
    times axis-avoiding angles."""

    n_rho: int = 12
    n_phi: int = 16

    def angles(self) -> np.ndarray:
        # half a step off 0: when 4 divides n_phi every angle is pi/n_phi from
        # the axes, but otherwise one can lie on an axis (n_phi = 6 gives pi/2)
        return (np.arange(self.n_phi) + 0.5) * 2.0 * np.pi / self.n_phi

    def radii(self, length_scale: float) -> np.ndarray:
        return np.geomspace(0.1 * length_scale, 4.0 * length_scale, self.n_rho)

    @functools.lru_cache(maxsize=16)
    def polar_points(self, length_scale: float) -> tuple[np.ndarray, np.ndarray]:
        """The grid as a (n_rho, 1) radius column and a (1, n_phi) angle row,
        so a separable factor runs on each axis alone. Built once per (spec,
        length scale), since every state of a run shares its grid; read-only."""
        rho, phi = self.radii(length_scale)[:, None], self.angles()[None, :]
        rho.flags.writeable = phi.flags.writeable = False
        return rho, phi


def _length_scale(config: OscillatorConfig, e_val: float) -> float:
    """The oscillator length for bound states; the inverse wavenumber of a
    free state of energy ``e_val`` at the critical point (its Compton length at rest)."""
    if classify_regime(config) is Regime.CRITICAL:
        tilde_e = reduced_energy(config, e_val)
        if tilde_e > 0.0:
            return 1.0 / math.sqrt(2.0 * tilde_e)
    return config.length_scale


def step_limit(suite: str, params: DunklParams, config: OscillatorConfig) -> tuple[float, str]:
    """The largest step h of ``run_suite(params, config, suite)``, at which
    every stencil of its checks stays ``CLEARANCE_STEPS`` steps from its
    singular locus on its grid, and the check and grid that set it ('all':
    the smallest of its suites' limits). The origin bounds kg's radial and
    dirac's Cartesian stencil (dirac runs off the critical point only); with
    mu != 0 the axes bound kg's and angular's angle stencils and dirac's
    Cartesian one. A suite that takes no step, or angular at mu = 0, has no
    limit: (inf, ""). Only kg and dirac read the grid's length scale."""
    wanted = SUITE_NAMES if suite == "all" else (suite,)
    if "kg" in wanted or "dirac" in wanted:
        length = _length_scale(config, max(_FREE_ENERGIES) * config.rest_energy)
        rho, phi = GridSpec().polar_points(length)
        grid = f"on a grid of length scale {length:g}"
    axes = params.mu_x != 0.0 or params.mu_y != 0.0
    bounds = [(math.inf, "")]
    if "kg" in wanted:
        bounds.append((rho.min(), f"kg check, whose radial stencil must stay off the origin {grid}"))
        if axes:
            bounds.append((axis_distance(phi).min(), f"kg check, whose angle stencil must stay off the axes {grid}"))
    if "dirac" in wanted and classify_regime(config) is not Regime.CRITICAL:
        bounds.append((rho.min(), f"dirac check, whose Cartesian stencil must stay off the origin {grid}"))
        if axes:
            bounds.append((np.minimum(np.abs(rho * np.cos(phi)), np.abs(rho * np.sin(phi))).min(),
                           f"dirac check, whose Cartesian stencil must stay off the axes {grid}"))
    if "angular" in wanted and axes:
        angles = GridSpec(n_phi=ANGULAR_N_PHI).angles()
        bounds.append((axis_distance(angles).min(),
                       f"angular check, whose angle stencil must stay off the axes on {angles.size} angles"))
    clearance, why = min(bounds, key=lambda bound: bound[0])
    return clearance / CLEARANCE_STEPS, why


def _mode_record(suite: str, mode: AngularMode, tag: str, inputs: dict, residual: float,
                 tol: float) -> CheckRecord:
    """The record of one check on ``mode``, named
    ``<suite>[<sector>] n=<n> b=<branch><tag>``, with the mode's sector, n
    and branch first among its inputs. Every record is made here but
    ortho's, whose name lists a whole sector's modes."""
    return CheckRecord(
        name=f"{suite}[{mode.sector}] n={mode.n:g} b={mode.branch:+d}{tag}",
        inputs={"sector": str(mode.sector), "n": mode.n, "branch": mode.branch, **inputs},
        residual=residual,
        tol=tol,
    )


def _state_tag(solution: SpinorSolution) -> str:
    """A built bound state's k (its upper row's index) as a record-name tag;
    a free or hand-built state (``rows`` of fields) is tagged by its energy."""
    upper = solution.rows[0]
    if isinstance(upper, ScalarField2D) or classify_regime(solution.config) is Regime.CRITICAL:
        return f" E={solution.energy:.6g}"
    return f" k={upper.index}"


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _state_blocks(states):
    """One state or any number of states that stack, in blocks of at most
    ``_STATE_BLOCK`` consecutive states, as (block, (upper, lower), params,
    config, rho, phi): the ``stacked_blocks`` fields, whose blocks share
    their tables, and the radius column and angle row of the
    check grid ``GridSpec()``, the one ``step_limit`` bounds, at the first
    state's length scale. A lone hand-built state (``rows`` of fields),
    such as an oracle's, is one block of its own fields with a leading axis
    of 1. Each block field keeps the values of its last few (rho, phi)
    pairs (``remember_last``), so a stencil that asks it at one point again
    reads the stored product. No states, no blocks."""
    lone = isinstance(states, SpinorSolution)
    states = [states] if lone else list(states)
    if states:
        first = states[0]
        rho, phi = GridSpec().polar_points(_length_scale(first.config, first.energy))
        blocks = ([(states, tuple(ScalarField2D(lambda rho, phi, f=f: np.expand_dims(f.eval_polar(rho, phi), 0))
                                  for f in first.rows))]
                  if lone and all(isinstance(f, ScalarField2D) for f in first.rows) else stacked_blocks(states))
        for block, fields in blocks:
            yield (block, tuple(ScalarField2D(remember_last(f.fn)) for f in fields), first.mode.params, first.config,
                   rho, phi)


def _mode_rows(modes) -> tuple[list[AngularMode], DunklParams | None, ScalarField2D]:
    """One mode or the modes of one sector, their parameters (None for no
    modes), and their F rows as one field (row i is mode i's F) from one
    set of ``eigenfunction_rows`` tables."""
    modes = [modes] if isinstance(modes, AngularMode) else list(modes)
    rows = eigenfunction_rows(modes)
    return modes, modes[0].params if modes else None, ScalarField2D(lambda rho, phi: rows(phi))


def check_kg_eigen(
    states,
    tol: float = DEFAULT_TOLS["kg"],
    h: float = DEFAULT_STEP,
) -> VerificationReport:
    """Pointwise residual of the decoupled second-order equations.

    ``states`` is one state or any number of states that stack (see
    ``stacked_blocks``: ``mode_states`` states of any modes of one config,
    or free states of one energy). They share one set of tables, and each
    component of a block of at most ``_STATE_BLOCK`` of them is checked in
    one operator application on (K, n_rho, n_phi) fields. Each residual keeps its own state's scale,
    and a component that is zero on the grid has residual 0. The records
    come per state, upper then lower, in input order.
    """
    records = []
    for block, fields, params, config, rho, phi in _state_blocks(states):
        tilde_e = np.array([reduced_energy(st.config, st.energy) for st in block])[:, None, None]
        residuals = []
        for component, fld in zip((Component.UPPER, Component.LOWER), fields):
            vals = fld.eval_polar(rho, phi)
            scale = np.max(np.abs(vals), axis=(1, 2))
            applied = kg_apply(component, fld, params, config, (rho, phi), h)
            with np.errstate(divide="ignore", invalid="ignore"):
                residual = np.max(np.abs(applied - tilde_e * vals), axis=(1, 2)) / scale
            residuals.append((component, np.where(scale == 0.0, 0.0, residual)))
        records += [
            _mode_record("kg", st.mode, f"{_state_tag(st)} {component.value}",
                         {"component": component.value, "energy": st.energy, "h": h}, float(residual[i]), tol)
            for i, st in enumerate(block)
            for component, residual in residuals
        ]
    return VerificationReport("kg", records)


def check_angular_eigen(
    modes,
    tol: float = DEFAULT_TOLS["angular"],
    h: float = DEFAULT_STEP,
) -> VerificationReport:
    """Max |J F - lambda F| over ``ANGULAR_N_PHI`` axis-avoiding angles (absolute).

    ``modes`` is one mode or the modes of one sector: their F rows come
    from one set of ``eigenfunction_rows`` tables and take one ``angular_j``
    call. One record per mode, in input order; no modes, no records.
    """
    modes, params, fld = _mode_rows(modes)
    if not modes:
        return VerificationReport("angular", [])
    lams = [lambda_eigenvalue(mode) for mode in modes]
    phi = GridSpec(n_phi=ANGULAR_N_PHI).angles()
    rho = np.ones_like(phi)
    vals = fld.eval_polar(rho, phi)
    applied = angular_j(fld, (rho, phi), params, h)
    residuals = np.max(np.abs(applied - np.array(lams)[:, None] * vals), axis=1).tolist()
    scales = np.max(np.abs(vals), axis=1).tolist()
    tag = f" mu=({params.mu_x:g},{params.mu_y:g})"
    records = [
        _mode_record("angular", mode, tag, {
            "mu_x": params.mu_x,
            "mu_y": params.mu_y,
            "lambda": lam,
            "relative_residual": residual / max(scale * max(abs(lam), 1.0), 1e-300),
            "h": h,
        }, residual, tol)
        for mode, lam, residual, scale in zip(modes, lams, residuals, scales)
    ]
    return VerificationReport("angular", records)


def check_orthonormality(
    modes: list[AngularMode],
    tol: float = DEFAULT_TOLS["ortho"],
) -> VerificationReport:
    """Gram matrix of the modes against the identity, by the weighted
    angular quadrature: one ``weighted_inner_product`` of the modes' F
    rows, which come from one ``eigenfunction_rows`` table. No modes, no
    record."""
    modes, params, fld = _mode_rows(modes)
    if not modes:
        return VerificationReport("ortho", [])
    gram = weighted_inner_product(fld, fld, angular_quadrature(params))
    deviation = float(np.max(np.abs(gram - np.eye(len(modes)))))
    labels = ";".join(f"{m.sector}|{m.n:g}|{m.branch:+d}" for m in modes)
    record = CheckRecord(
        name=f"ortho[{modes[0].sector}] {len(modes)} modes "
        f"mu=({params.mu_x:g},{params.mu_y:g})",
        inputs={"modes": labels, "mu_x": params.mu_x, "mu_y": params.mu_y},
        residual=deviation,
        tol=tol,
    )
    return VerificationReport("ortho", [record])


def check_dirac_system(
    states,
    tol: float = DEFAULT_TOLS["dirac"],
    h: float = DEFAULT_STEP,
) -> VerificationReport:
    """Max residual of the coupled first-order system on an off-axis grid.

    ``states`` is one state or any number of states that stack (see
    ``stacked_blocks``). They share their tables as in ``check_kg_eigen``,
    and a block of at most ``_STATE_BLOCK`` of them is checked in one
    operator application on the grid's Cartesian points with their energies
    as a (K, 1, 1) column.
    Each residual is scaled by its own state's (|E| + m c^2) times its
    largest component value; a block where that sum overflows a double
    raises ``ValueError`` before its operator runs. One record per state,
    in input order.
    """
    records = []
    for block, (upper, lower), params, config, rho, phi in _state_blocks(states):
        if not math.isfinite(max(abs(st.energy) for st in block) + config.rest_energy):
            raise ValueError(f"the dirac check's |E| + m c^2 overflows a double at m c^2 = {config.rest_energy:g}")
        xs, ys = rho * np.cos(phi), rho * np.sin(phi)
        energies = np.array([st.energy for st in block])
        r1, r2 = dirac_apply((upper, lower), energies[:, None, None], params, config, (xs, ys), h)
        amp = np.maximum(np.max(np.maximum(np.abs(upper(xs, ys)), np.abs(lower(xs, ys))), axis=(1, 2)), 1e-300)
        scale = (np.abs(energies) + config.rest_energy) * amp
        residual = np.maximum(np.max(np.abs(r1), axis=(1, 2)), np.max(np.abs(r2), axis=(1, 2))) / scale
        records += [_mode_record("dirac", st.mode, _state_tag(st), {"energy": st.energy, "h": h},
                                 float(residual[i]), tol) for i, st in enumerate(block)]
    return VerificationReport("dirac", records)


def matrix_oracle_lambda(
    sector: SectorLabel,
    params: DunklParams,
    basis_size: int = 48,
) -> np.ndarray:
    """Eigenvalues of J on one shell of the Cartesian parabose ladder.

    On the ladder A^+ |n> = sqrt([n+1]_mu) |n+1>, [n]_mu = n + mu (1 - (-1)^n),
    of A^{+-} = (x -+ D_x) / sqrt(2), J = i (A_x^+ A_y^- - A_x^- A_y^+) keeps
    each shell N = n_x + n_y and is tridiagonal on it, with off-diagonals
    +/- i sqrt([n_x+1]_{mu_x} [N-n_x]_{mu_y}), n_x = 0..N-1. The phase
    change |n_x> -> i^{n_x} |n_x> removes the +/- i, so the real symmetric
    matrix built here has the spectrum of J. The shell is the largest N
    with (-1)^N = epsilon and N + 1 <= basis_size; its eigenvalues are
    +/- lambda of every mode with n <= N/2. No Jacobi polynomial,
    quadrature or finite difference enters, so the oracle is independent
    of the construction it checks (Genest, Ismail, Vinet and Zhedanov,
    "The Dunkl oscillator in the plane I", J. Phys. A, 2013).
    """
    if basis_size < 1 or basis_size > 64:
        raise ValueError("basis_size must be in [1, 64]")
    shell = basis_size - 1
    if (-1) ** shell != sector.epsilon:
        shell -= 1
    if shell < 0:
        raise ValueError("basis_size 1 holds no odd shell (epsilon = -1)")
    return np.linalg.eigvalsh(_shell_ladder(shell, params)[0])


def _shell_ladder(shell: int, params: DunklParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The real symmetric tridiagonal T_N of J on shell N, with off-diagonal
    sqrt([n_x+1]_{mu_x} [N-n_x]_{mu_y}), and those two factors, n_x = 0..N-1:
    [n]_mu is n + 2 mu (n mod 2), and A^- |n> = sqrt([n]_mu) |n-1>."""
    up = np.arange(1, shell + 1)
    down = shell + 1 - up
    up, down = up + 2.0 * params.mu_x * (up % 2), down + 2.0 * params.mu_y * (down % 2)
    off = np.sqrt(up * down)
    return np.diag(off, 1) + np.diag(off, -1), up, down


def _hermite_rows(t: np.ndarray, params: DunklParams, n_top: int) -> np.ndarray:
    """psi_n(t) e^(t^2/2), n = 0..n_top, of t = (t_x, t_y) of shape (2, *shape)
    as a (n_top + 1, 2, *shape) array, with mu_x on t_x and mu_y on t_y. The
    generalized Hermite functions of unit norm on |t|^(2 mu) dt (Rosenblum 1994)
    are psi_2m = (-1)^m sqrt(m! / Gamma(m + mu + 1/2)) L_m^(mu-1/2)(t^2) e^(-t^2/2)
    and psi_2m+1 = (-1)^m sqrt(m! / Gamma(m + mu + 3/2)) t L_m^(mu+1/2)(t^2) e^(-t^2/2);
    one Laguerre table per parity covers both axes."""
    column = (2,) + (1,) * (t.ndim - 1)
    rows = np.empty((n_top + 1, *t.shape))
    for parity in range(min(n_top, 1) + 1):
        m_top = (n_top - parity) // 2
        alphas = (params.mu_x + parity - 0.5, params.mu_y + parity - 0.5)
        laguerre = laguerre_rows(np.reshape(alphas, column), t * t, m_top)
        norms = [[(-1) ** m * math.exp(0.5 * (math.lgamma(m + 1.0) - math.lgamma(m + a + 1.0))) for a in alphas]
                 for m in range(m_top + 1)]
        rows[parity::2] = np.reshape(norms, (m_top + 1,) + column) * laguerre * (t if parity else 1.0)
    return rows


def cartesian_states(
    shell: int,
    params: DunklParams,
    config: OscillatorConfig,
) -> list[tuple[ScalarField2D, ScalarField2D, float]]:
    """The exact positive-energy eigenspinors (upper, lower, E) of shell
    N = n_x + n_y, in rising energy, for any mu >= 0 in both bound regimes.

    On the products |n_x, N - n_x> of ``_hermite_rows``, t = sqrt|w| (x, y)
    and w = m w~ / hbar = w~ (hbar = m = 1), the upper component's operator is the block
    M = |w| (N + 1 + mu_+) I + w T_N - w diag(1 + mu_x (-1)^n_x + mu_y (-1)^n_y),
    T_N as in ``matrix_oracle_lambda``. An eigenpair (Et, v) gives the upper
    component sum i^n_x v_n_x |n_x, N - n_x> and E = sqrt(m^2 c^4 + 2 hbar^2 c^2 Et).
    The lower one is hbar c Pi+ psi_upper / (E + m c^2), exact on the
    coefficients: Pi+ = -i sqrt(2|w|) (A_x^- + i A_y^-), to shell N - 1, at
    w~ > 0 and +i sqrt(2|w|) (A_x^+ + i A_y^+), to N + 1, at w~ < 0. As
    |Pi+ psi|^2 = 2 Et, an Et within rounding of 0 is 0: that state (one per
    shell at w~ > 0) has E = m c^2 and a zero lower component. The
    polynomials are Cartesian: at the check grid's innermost radius (0.1
    length scales) their terms cancel, and with mu != 0 the kg residual can
    reach its rounding floor, about 1e-5 at h = 1e-4, which grows as h falls.
    """
    if shell < 0:
        raise ValueError(f"the shell must be a natural number, got {shell}")
    if classify_regime(config) is Regime.CRITICAL:
        raise RegimeError("the critical point has no Gaussian, so no shells")
    w = config.omega_tilde
    abs_w, n_x = abs(w), np.arange(shell + 1)
    tridiagonal = _shell_ladder(shell, params)[0]
    reflection = 1.0 + params.mu_x * (-1.0) ** n_x + params.mu_y * (-1.0) ** (shell - n_x)
    floor = abs_w * (shell + 1.0 + params.mu_plus)
    ets, vecs = np.linalg.eigh(floor * np.eye(shell + 1) + w * tridiagonal - w * np.diag(reflection))
    # A_x^- + i A_y^- from the shell above to the one below: at w~ < 0 its transpose is A_x^+ + i A_y^+
    top = shell if w > 0 else shell + 1
    _, up, down = _shell_ladder(top, params)
    lowering = np.diag(np.sqrt(up), 1)[:-1] + 1j * np.eye(top, top + 1) * np.sqrt(down)[:, None]
    pi_plus = -1j * lowering if w > 0 else 1j * lowering.T
    mc2, root, phases = config.rest_energy, math.sqrt(abs_w), np.array([1, 1j, -1, -1j])[n_x % 4]

    def field(coef: np.ndarray) -> ScalarField2D:
        # the Gaussian e^(-t^2/2) of both axes is a polar factor; only the polynomials see t_x, t_y
        def rule(rho, phi):
            t = root * np.asarray(rho, dtype=float)
            rows = _hermite_rows(np.stack(np.broadcast_arrays(t * np.cos(phi), t * np.sin(phi))), params,
                                 len(coef) - 1)
            return np.exp(-0.5 * t * t) * np.tensordot(coef, rows[:, 0] * rows[::-1, 1], axes=1)
        return ScalarField2D(rule)

    states = []
    for et, v in zip(ets.tolist(), vecs.T):
        upper = phases * v  # i^n_x v_n_x
        et = 0.0 if et <= 1e-12 * floor else et
        e_val = math.sqrt(mc2 * mc2 + 2.0 * config.c**2 * et)
        lower = (ScalarField2D.zero() if et == 0.0 else
                 field(config.c * math.sqrt(2.0 * abs_w) / (e_val + mc2) * (pi_plus @ upper)))
        states.append((field(upper), lower, e_val))
    return states


def nonrelativistic_target(
    mode: AngularMode,
    k: int,
    base_config: OscillatorConfig,
) -> float:
    """First-order term of the upper energy's expansion in 1/c^2:
    hbar |w~| s, with s the builder's ``spectral_sum`` of the upper
    component (2k + A + lambda - sigma for w~ > 0 and
    2k + A - lambda + sigma + 2 for w~ < 0).
    """
    s_num = spectral_sum(Component.UPPER, classify_regime(base_config), k, *spectral_terms(mode))
    target = base_config.effective_frequency * s_num
    if not math.isfinite(target):
        raise ValueError(f"the nonrelativistic target of sector ({mode.sector}), n={mode.n:g}, k={k} overflows")
    return target


def check_nonrelativistic_limit(
    mode: AngularMode,
    k: int,
    base_config: OscillatorConfig,
    tol: float = DEFAULT_TOLS["nrlimit"],
) -> VerificationReport:
    """delta E(c) = E(c) - m c^2 against the series target, with rate fit
    over the light speeds ``NRLIMIT_C_VALUES``. Both are in units
    hbar = m = |w~| = 1: the check runs on the config of the input's
    frequencies over |w~|, so its records are those of |w~| = 1 at any
    frequency (at |w~| = 1 that config is the input's), and no light speed
    or target leaves the double range.

    The shift must approach the target like c^{-2} (the Taylor remainder
    of sqrt(1 + u)), so the fitted log-log rate should sit near 2.
    """
    w_bar = base_config.effective_frequency
    unit = OscillatorConfig(base_config.omega / w_bar, base_config.omega_c / w_bar)
    target = nonrelativistic_target(mode, k, unit)
    errs_arr = np.array([abs(energy(Component.UPPER, mode.sector, mode, k, cfg) - cfg.rest_energy - target)
                         for cfg in (replace(unit, c=c) for c in NRLIMIT_C_VALUES)])
    scale = max(abs(target), 1.0)
    mismatch = errs_arr[-1] / scale
    if np.all(errs_arr < 1e-13 * scale):
        # exact cancellation (target 0 and spectrum flat in c): no rate to fit
        rate, rate_residual = None, 0.0
    else:
        rate = -float(np.polyfit(np.log(np.asarray(NRLIMIT_C_VALUES)), np.log(errs_arr), 1)[0])
        rate_residual = abs(rate - 2.0)

    inputs = {"k": k, "target": target, "c_values": list(NRLIMIT_C_VALUES)}
    return VerificationReport("nrlimit", [
        _mode_record("nrlimit", mode, f" k={k} match", inputs, float(mismatch), tol),
        _mode_record("nrlimit", mode, f" k={k} rate", {**inputs, "rate": rate}, rate_residual, 0.2),
    ])


# ---------------------------------------------------------------------------
# independent reference constructions (oracles)
# ---------------------------------------------------------------------------

def classical_oscillator_b_energy(
    component: Component,
    k: int,
    m_angular: int,
    config: OscillatorConfig,
    sign: int = 1,
) -> float:
    """Textbook spectrum of the undeformed relativistic oscillator in a field.

    Written directly in terms of the orbital quantum number m of the
    component (upper components carry exp(i m phi)); kept deliberately
    separate from :func:`solution_builder.energy` so the mu = 0 reduction
    is a genuine two-sided check.
    """
    wt = config.omega_tilde
    mc2 = config.rest_energy
    am = abs(m_angular)
    if wt > 0:
        s_num = 2.0 * k + am - m_angular
        if component is Component.LOWER:
            s_num += 2.0
    elif wt < 0:
        s_num = 2.0 * k + am + m_angular
        if component is Component.UPPER:
            s_num += 2.0
    else:
        raise RegimeError("no discrete spectrum at the critical frequency")
    return sign * mc2 * math.sqrt(1.0 + 2.0 * abs(wt) / mc2 * s_num)


def coupled_reflection_eigenstate(
    component: Component,
    epsilon: int,
    n: float,
    kappa_sign: int,
    k: int,
    params: DunklParams,
    config: OscillatorConfig,
) -> tuple[ScalarField2D, float]:
    """Exact eigenstate of the full second-order operator, deformations on.

    Within a branch pair of fixed (epsilon, n) the angular-plus-reflection
    part of the operator is a constant 2x2 Hermitian matrix; its
    eigenvalues are kappa = +/- (2n + mu_x + mu_y) and its eigenvectors
    mix the two parity families with lambda-dependent weights. The
    returned field is the builder's radial Laguerre profile (``build_radial``
    of the branch-+1 mode of (epsilon, n), so an n off the family's ladder
    raises ``ValueError``) times that eigenvector, and the returned number
    is the exact reduced energy, so ``kg_apply(field) - Et * field`` must
    vanish to O(h^2). Serves as the machinery oracle for the deformed case.
    """
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    mode = AngularMode(SectorLabel(1, 1) if epsilon == 1 else SectorLabel(-1, 1), n, 1, params)
    profile = build_radial(mode, k, config)  # a RegimeError at the critical point
    lam0, a_ord, upper = lambda_eigenvalue(mode), profile.order, component is Component.UPPER
    if n == 0:
        # a single mode (epsilon = +1 only); the component fixes kappa
        kappa, weight = (-params.mu_plus if upper else params.mu_plus), 0.0
    else:
        kappa = kappa_sign * a_ord
        # eigenvector Phi_A + i weight Phi_B of the 2x2 coupling
        mu_e = params.mu_plus if epsilon == 1 else params.mu_minus
        toward = mu_e if upper else -mu_e
        weight = (kappa + toward) / lam0 if epsilon == 1 else -(kappa - toward) / lam0
    ang = mixed_pair(epsilon, n, params, weight)
    shift = -1.0 if upper else 1.0
    tilde_e = profile.scale * (2.0 * k + 1.0 + a_ord) + config.omega_tilde * (kappa + shift)
    # both factors remember their tables, so each runs once per distinct coordinate array of a stencil
    return ScalarField2D(lambda rho, phi: profile(rho) * ang(phi)), tilde_e


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def _critical_states(params: DunklParams, config: OscillatorConfig, n_max: float) -> list[list[SpinorSolution]]:
    """Free states of every mode, one list per energy of ``_FREE_ENERGIES``
    (a free state's grid follows its energy); both energies share each
    mode object."""
    modes = [mode for sector in ALL_SECTORS for mode in modes_for_sector(sector, params, n_max)]
    return [[free_particle(mode, ratio * config.rest_energy, config) for mode in modes]
            for ratio in _FREE_ENERGIES]


def _batches(states):
    """Lists of at most ``_SWEEP_BATCH`` consecutive states of ``states``,
    taken from it one batch at a time."""
    states = iter(states)
    while batch := list(itertools.islice(states, _SWEEP_BATCH)):
        yield batch


def run_suite(
    params: DunklParams,
    config: OscillatorConfig,
    suite: str = "all",
    tol: float | None = None,
    h: float = DEFAULT_STEP,
    threads: int = 1,
    n_max: float = 2,
    k_max: int = 2,
) -> VerificationReport:
    """Run one named verification suite (or 'all') and collect the records.

    Before the first check of any suite it checks the suite names, then
    the regime, then builds kg's and dirac's states, then checks h (finite,
    at least ``MIN_STEP`` and at most ``step_limit``, as the command line's
    parser does) and that kg's largest grid radius squared is a finite
    double, so a state that cannot be built (a norm or radial index out of
    range) or a grid that cannot be checked fails before any check. The states are the builder's
    ``sweep_bound_states`` (critical regime: the free states of each
    energy): its first batch of ``_SWEEP_BATCH`` states is kept for the
    checks, and a longer sweep is walked to its end, then built again batch
    by batch after the first. The checks run one after another. kg and
    dirac take the states one batch at a time, and each check takes a batch
    in one call, which builds its tables and checks the states in blocks of
    at most ``_STATE_BLOCK`` (every sweep up to (n_max, k_max) = (8, 8) is
    one batch, so each of its states is built once); the angular suite
    checks each sector's modes in one application, on the mode list that
    the ortho suite shares. Records come sorted by name, so the blocking
    does not show in the report.
    ``threads`` accepts only 1: it is kept so that existing callers passing
    ``threads=1`` keep working; a thread pool gave no speed-up, as the
    numpy work per check is too small to release the interpreter lock for
    long.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    wanted = SUITE_NAMES if suite == "all" else (suite,)
    for name in wanted:
        if name not in SUITE_NAMES:
            raise ValueError(f"unknown suite {name!r}")
    regime = classify_regime(config)
    if regime is Regime.CRITICAL:
        for name in ("dirac", "nrlimit"):
            if name in wanted:
                raise RegimeError(f"the {name} suite needs a non-critical regime")
    checks = [(name, check) for name, check in (("kg", check_kg_eigen), ("dirac", check_dirac_system))
              if name in wanted]
    groups = []  # kg's and dirac's states: lists, or a stream taken a batch at a time
    if checks and regime is Regime.CRITICAL:
        groups = _critical_states(params, config, n_max)
    elif checks:
        sweep = sweep_bound_states(params, config, n_max, k_max)
        groups = [list(itertools.islice(sweep, _SWEEP_BATCH))]
        if sum(1 for _ in sweep):  # longer than one batch: walked to its end, the rest built again
            groups.append(itertools.islice(sweep_bound_states(params, config, n_max, k_max), _SWEEP_BATCH, None))
    if not (math.isfinite(h) and h >= MIN_STEP):
        raise ValueError(f"h {h:g} must be finite and at least {MIN_STEP:g}")
    limit, why = step_limit(suite, params, config)
    if h > limit:
        raise ValueError(f"h {h:g} must be at most {limit:g} for suite {suite}: the {why}")
    if "kg" in wanted:  # kg_apply squares each radius; the largest is on the lowest free energy's grid
        top = float(GridSpec().radii(_length_scale(config, min(_FREE_ENERGIES) * config.rest_energy))[-1])
        if not math.isfinite(top * top):
            raise ValueError(f"the kg check's largest radius, {top:g}, overflows a double when squared")

    def tol_for(name: str) -> float:
        return DEFAULT_TOLS[name] if tol is None else tol

    records: list[CheckRecord] = []
    if "angular" in wanted or "ortho" in wanted:
        for sector in ALL_SECTORS:
            modes = modes_for_sector(sector, params, ANGULAR_N_MAX)
            if "angular" in wanted:
                records.extend(check_angular_eigen(modes, tol=tol_for("angular"), h=h).records)
            if "ortho" in wanted:
                records.extend(check_orthonormality(modes, tol=tol_for("ortho")).records)
    # kg and dirac each check a batch of at most _SWEEP_BATCH states in one call
    for states in (batch for group in groups for batch in _batches(group)):
        for name, check in checks:
            records.extend(check(states, tol=tol_for(name), h=h).records)
    if "nrlimit" in wanted:
        for sector in ALL_SECTORS:
            mode = modes_for_sector(sector, params, 1.5)[-1]
            records.extend(check_nonrelativistic_limit(mode, 2, config, tol=tol_for("nrlimit")).records)
    return VerificationReport(suite, sorted(records, key=lambda r: r.name))
