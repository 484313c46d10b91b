"""Exact solutions of the (2+1)-D reflection-deformed relativistic
oscillator coupled to a uniform magnetic field, with independent
numerical verification of every closed form."""

from .angular_sector import (
    ALL_SECTORS,
    AngularMode,
    SectorLabel,
    f_eigenfunction,
    lambda_eigenvalue,
    modes_for_sector,
)
from .dunkl_calculus import (
    Axis,
    Component,
    DunklParams,
    QuadratureRule,
    ScalarField2D,
    SingularPointError,
    angular_j,
    angular_quadrature,
    b_phi_apply,
    dirac_apply,
    dunkl_derivative,
    kg_apply,
    polar_quadrature,
    weighted_inner_product,
)
from .solution_builder import (
    IntegralityError,
    InvalidPairError,
    NegativeRadicandError,
    NormRangeError,
    OscillatorConfig,
    RadialProfile,
    Regime,
    RegimeError,
    SpinorSolution,
    build_radial,
    build_spinor,
    classify_regime,
    energy,
    free_particle,
    pair_radial_indices,
    sweep_bound_states,
)
from .special_functions import DomainError, bessel_j, jacobi_p, laguerre_l, log_gamma
from .verification import (
    CheckRecord,
    GridSpec,
    VerificationReport,
    cartesian_states,
    check_angular_eigen,
    check_dirac_system,
    check_kg_eigen,
    check_nonrelativistic_limit,
    check_orthonormality,
    classical_oscillator_b_energy,
    coupled_reflection_eigenstate,
    matrix_oracle_lambda,
    run_suite,
)

__version__ = "0.1.0"
