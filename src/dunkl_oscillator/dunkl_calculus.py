"""Reflection-difference (Dunkl) calculus on evaluable plane fields.

Fields are carried as exact evaluation rules in polar coordinates
``(rho, phi)``, never as sampled grids, so the reflection parts of every
operator are applied exactly and only the genuine derivatives are
discretized (second-order central differences of step ``h``). That
isolates all discretization error to O(h^2), which the test suite checks
by Richardson-style step halving. The polar operators call the rule
directly; only the Cartesian ones convert their points, once per point.

Conventions
-----------
* ``D_x = d/dx + (mu_x / x) (1 - R_x)`` with ``R_x f(x, y) = f(-x, y)``,
  and symmetrically for ``D_y``.
* The deformed Laplacian is ``D_x^2 + D_y^2``. ``kg_apply`` applies it
  in polar form, with ``b_phi_apply`` as its angular part; in Cartesian
  form it reads
  ``d2/dx2 + d2/dy2 + (2 mu_x / x) d/dx + (2 mu_y / y) d/dy
  - (mu_x / x^2)(1 - R_x) - (mu_y / y^2)(1 - R_y)``.
  (Note the minus sign on the reflection-difference terms; it follows
  from squaring D_x and is confirmed by the polar-form checks.)
* The angular operator is ``J = i (x D_y - y D_x)``; in polar form
  ``J = i (d/dphi + mu_y cot(phi) (1 - R_y) - mu_x tan(phi) (1 - R_x))``
  where ``R_x: phi -> pi - phi`` and ``R_y: phi -> -phi``.

Operator application accepts scalar points or numpy arrays of points and
broadcasts; the verification grids rely on this.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .solution_builder import OscillatorConfig

DEFAULT_STEP = 1e-4
# Smallest step h: the second differences divide by h^2, a normal double from 2^-511.
MIN_STEP = 2.0**-511
# Steps h that a stencil keeps from each singular locus: kg_apply's radii from
# the origin, and the points of a reflection with mu != 0 from its axis.
CLEARANCE_STEPS = 10.0
# Reflection differences smaller than this (relative to the local field
# magnitude) are treated as identically zero near a singular locus.
SYMMETRY_TOL = 1e-10
# |sin phi| or |cos phi| at most this puts an angle on an axis: the double
# nearest an axis angle is off by its rounding (sin of float(pi) is 1.2e-16,
# cos of float(3pi/2) is -1.8e-16).
AXIS_ROUNDING = 1e-15


class SingularPointError(ValueError):
    """Operator applied too close to a reflection-singular locus."""


class Axis(enum.Enum):
    X = "x"
    Y = "y"


class Component(enum.Enum):
    """Spinor component selector for the decoupled second-order equations."""

    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class DunklParams:
    """Reflection-deformation parameters, one per axis (each > -1/2, so that
    the weight |x|^(2 mu_x) |y|^(2 mu_y) can be integrated)."""

    mu_x: float
    mu_y: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.mu_x, self.mu_y, self.mu_x + self.mu_y)):
            raise ValueError(f"deformation parameters and their sum must be finite, got {self}")
        if self.mu_x <= -0.5 or self.mu_y <= -0.5:
            raise ValueError(f"deformation parameters must be > -1/2, got {self}")

    @property
    def mu_plus(self) -> float:
        return self.mu_x + self.mu_y

    @property
    def mu_minus(self) -> float:
        return self.mu_x - self.mu_y

    def signed_sum(self, s_x: int, s_y: int) -> float:
        """s_x*mu_x + s_y*mu_y for a reflection-sector label."""
        return s_x * self.mu_x + s_y * self.mu_y

    def is_spinor_compatible(self) -> bool:
        """True when both parameters are naturals or both positive half-odds.

        Pairing the two spinor components requires integer index offsets,
        which restricts the deformation parameters to these two families.
        """

        def near_int(v: float) -> bool:
            return abs(v - round(v)) <= 1e-12

        both_int = near_int(self.mu_x) and near_int(self.mu_y) and self.mu_x >= -1e-12 and self.mu_y >= -1e-12
        both_half = near_int(self.mu_x - 0.5) and near_int(self.mu_y - 0.5) and self.mu_x > 0 and self.mu_y > 0
        return both_int or both_half


@dataclass(frozen=True)
class ScalarField2D:
    """Complex-valued field on the plane given by an exact rule ``fn(rho, phi)``.

    ``fn`` must accept scalars or numpy arrays for both coordinates.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, x, y):
        return self.fn(np.hypot(x, y), np.arctan2(y, x))

    def eval_polar(self, rho, phi):
        return self.fn(rho, phi)

    @staticmethod
    def from_xy(g: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "ScalarField2D":
        """Build a field from a rule in Cartesian coordinates (x, y)."""
        return ScalarField2D(lambda rho, phi: g(rho * np.cos(phi), rho * np.sin(phi)))

    @staticmethod
    def zero() -> "ScalarField2D":
        return ScalarField2D(lambda rho, phi: np.zeros(np.broadcast(rho, phi).shape, dtype=complex))


# Distinct arguments a remembered factor keeps: dirac_apply asks one shared
# factor for 7 distinct angle arrays and 5 radius arrays, kg_apply for 5
# angles and 3 radii. The blocks of a kg or dirac check call share their
# tables, so each recurrence runs once per table, not per block; the two
# checks build separate tables, as together they ask for 12 angle arrays.
# A check block's fields (verification._state_blocks) keep their products
# by (rho, phi) pair: kg_apply and its check ask a component for 7 distinct
# pairs, dirac_apply and its check each component for 7 (14 per block).
_REMEMBERED = 8


def remember_last(fn: Callable[..., np.ndarray]):
    """Wrap a factor ``fn(a, ...)`` of one or more coordinates so that
    repeated arguments are evaluated once.

    The last ``_REMEMBERED`` distinct argument tuples are kept, keyed by the
    value (shape and bytes) of every argument in order, so a stencil that
    asks a factor for the same radii or angles, or a field for the same
    points, again gets the stored result. Stored arrays are read-only. The
    cache belongs to the returned function: give each field its own.
    """
    cache: OrderedDict = OrderedDict()

    def remembered(*coords):
        coords = tuple(np.asarray(a, dtype=float) for a in coords)
        key = tuple((a.shape, a.tobytes()) for a in coords)
        if key in cache:
            cache.move_to_end(key)
            return cache[key]
        out = fn(*coords)
        if isinstance(out, np.ndarray):
            out.flags.writeable = False
        cache[key] = out
        if len(cache) > _REMEMBERED:
            cache.popitem(last=False)
        return out

    return remembered


def _check_symmetric_near_axis(distance, diff, scale: Callable[[], np.ndarray], h: float, what: str) -> None:
    """Raise ``SingularPointError`` where a point lies within
    ``CLEARANCE_STEPS`` steps h of a singular locus (``distance``, or a
    signed coordinate, to it) and the reflection difference ``diff`` there
    does not vanish relative to the local field magnitude ``scale()``,
    formed only when some point is that near."""
    near = np.abs(np.asarray(distance, dtype=float)) < CLEARANCE_STEPS * h
    if not np.any(near):
        return
    bad = near & (np.abs(diff) > SYMMETRY_TOL * np.maximum(1.0, scale()))
    if np.any(bad):
        raise SingularPointError(
            f"{what} applied within {CLEARANCE_STEPS:g}*h of its singular locus where the "
            "reflection difference does not vanish"
        )


def _reflection_quotient(coord, diff, central, mu: float):
    """(mu/coord)*diff with the coord -> 0 limit patched in.

    At coord == 0 the odd part of the field vanishes, and
    (mu/x)(f - Rf) -> 2*mu*(d/dx f_odd)(0), which the central difference
    already approximates, hence the 2*mu*central substitute. The patch is
    built only when some coordinate is exactly 0.
    """
    coord = np.asarray(coord, dtype=float)
    zero = coord == 0.0
    if not np.any(zero):
        return mu * diff * (1.0 / coord)
    return np.where(zero, 2.0 * mu * central, mu * diff * (1.0 / np.where(zero, 1.0, coord)))


def dunkl_derivative(
    field: ScalarField2D,
    axis: Axis,
    point,
    params: DunklParams,
    h: float = DEFAULT_STEP,
):
    """Apply D_x or D_y at ``point = (x, y)``.

    The plain derivative is a central difference of step ``h``; the
    reflection-difference term is exact.
    """
    x, y = np.asarray(point[0], dtype=float), np.asarray(point[1], dtype=float)
    if axis is Axis.X:
        plus, minus, mirror, coord, mu = (x + h, y), (x - h, y), (-x, y), x, params.mu_x
    else:
        plus, minus, mirror, coord, mu = (x, y + h), (x, y - h), (x, -y), y, params.mu_y
    f0 = field(x, y)
    central = (field(*plus) - field(*minus)) * (1.0 / (2.0 * h))
    if mu == 0.0:
        return central
    diff = f0 - field(*mirror)
    _check_symmetric_near_axis(coord, diff, lambda: np.abs(f0), h, "dunkl_derivative")
    return central + _reflection_quotient(coord, diff, central, mu)


def axis_distance(phi):
    """The distance of each angle of ``phi`` to the nearest axis, a multiple of pi/2."""
    return np.abs(phi / (0.5 * np.pi) - np.round(phi / (0.5 * np.pi))) * 0.5 * np.pi


def _angular_stencil(field: ScalarField2D, point_polar, params: DunklParams, h: float, what: str):
    """phi, the field at phi, pi - phi (R_x), -phi (R_y), phi + h and
    phi - h, and the masks of the angles on the x and on the y axis (both
    None unless some angle is).

    Before phi +/- h, a reflection with mu != 0 is checked at the angles
    within ``CLEARANCE_STEPS`` steps h of its singular locus: R_x near pi/2
    and 3pi/2, R_y near 0 and pi."""
    rho, phi = np.asarray(point_polar[0], dtype=float), np.asarray(point_polar[1], dtype=float)
    f0 = field.eval_polar(rho, phi)
    frx = field.eval_polar(rho, np.pi - phi)
    fry = field.eval_polar(rho, -phi)
    d = axis_distance(phi)
    on_x_axis = on_y_axis = None
    if np.any(d < CLEARANCE_STEPS * h):
        sin, cos = np.abs(np.sin(phi)), np.abs(np.cos(phi))
        near_y_axis = cos < sin  # phi near pi/2, 3pi/2
        for on_locus, mu, mirrored in ((near_y_axis, params.mu_x, frx), (~near_y_axis, params.mu_y, fry)):
            if mu != 0.0:
                _check_symmetric_near_axis(np.where(on_locus, d, np.inf), f0 - mirrored, lambda: np.abs(f0), h, what)
        if np.any(np.minimum(sin, cos) <= AXIS_ROUNDING):
            on_x_axis, on_y_axis = sin <= AXIS_ROUNDING, cos <= AXIS_ROUNDING
    return phi, f0, frx, fry, field.eval_polar(rho, phi + h), field.eval_polar(rho, phi - h), on_x_axis, on_y_axis


def angular_j(
    field: ScalarField2D,
    point_polar,
    params: DunklParams,
    h: float = DEFAULT_STEP,
):
    """Apply J = i (x D_y - y D_x) at a polar point ``(rho, phi)``.

    Only d/dphi is discretized; the reflection differences and the
    cot/tan factors are exact. On an axis, where one of them is 0/0, its
    term takes the limit: mu_y (f - R_y f) / tan(phi) -> 2 mu_y df/dphi on
    the x axis, -mu_x tan(phi) (f - R_x f) -> 2 mu_x df/dphi on the y axis.
    """
    phi, f0, frx, fry, fp, fm, on_x_axis, on_y_axis = _angular_stencil(
        field, point_polar, params, h, "angular_j")
    out = d1 = (fp - fm) * (1.0 / (2.0 * h))
    del fp, fm
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on an axis, replaced by its limit
        if params.mu_y != 0.0:
            out = out + _on_axis(on_x_axis, params.mu_y * (f0 - fry) * (1.0 / np.tan(phi)),
                                 lambda: 2.0 * params.mu_y * d1)
        if params.mu_x != 0.0:
            out = out - _on_axis(on_y_axis, params.mu_x * np.tan(phi) * (f0 - frx), lambda: -2.0 * params.mu_x * d1)
    return 1j * out


def _on_axis(on_axis, value, limit: Callable[[], np.ndarray]):
    """``value``, with ``limit()`` at the angles ``on_axis`` (None: no angle
    lies on one)."""
    return value if on_axis is None else np.where(on_axis, limit(), value)


def b_phi_apply(
    field: ScalarField2D,
    point_polar,
    params: DunklParams,
    h: float = DEFAULT_STEP,
):
    """Apply the angular part of the deformed Laplacian at ``(rho, phi)``.

    This is the operator whose double relation to J reads
    ``J^2 = 2 B_phi + 2 mu_x mu_y (1 - R_x R_y)``. On an axis, the two
    terms of the reflection singular there take their joint limit:
    -mu_y d1 / tan(phi) + mu_y (f - R_y f) / (2 sin^2 phi) -> -mu_y d2 on
    the x axis, mu_x d1 tan(phi) + mu_x (f - R_x f) / (2 cos^2 phi) ->
    -mu_x d2 on the y axis, with d1, d2 the first and second phi
    derivatives.
    """
    phi, f0, frx, fry, fp, fm, on_x_axis, on_y_axis = _angular_stencil(
        field, point_polar, params, h, "b_phi_apply")
    d1 = (fp - fm) * (1.0 / (2.0 * h))
    d2 = (fp - 2.0 * f0 + fm) * (1.0 / (h * h))
    del fp, fm
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on an axis, replaced by its limit
        tan = np.tan(phi)
        slope = params.mu_x * tan - params.mu_y / tan
        if on_x_axis is not None:
            slope = np.where(on_x_axis, params.mu_x * tan, np.where(on_y_axis, -params.mu_y / tan, slope))
        out = -0.5 * d2 + slope * d1
        del d1
        if params.mu_x != 0.0:
            out = out + _on_axis(on_y_axis, params.mu_x * (f0 - frx) * (1.0 / (2.0 * np.cos(phi) ** 2)),
                                 lambda: -params.mu_x * d2)
        if params.mu_y != 0.0:
            out = out + _on_axis(on_x_axis, params.mu_y * (f0 - fry) * (1.0 / (2.0 * np.sin(phi) ** 2)),
                                 lambda: -params.mu_y * d2)
    return out


def kg_apply(
    component: Component,
    field: ScalarField2D,
    params: DunklParams,
    config: "OscillatorConfig",
    point_polar,
    h: float = DEFAULT_STEP,
):
    """Apply the decoupled second-order operator to a field at ``(rho, phi)``.

    Returns the full left-hand side whose eigenvalue on a bound state is
    ``(E^2 - m^2 c^4) / (2 hbar^2 c^2)``. The upper component carries
    ``-(m w~/hbar)(1 + mu_x R_x + mu_y R_y)``, the lower one the same
    term with a plus sign. The code works in units hbar = m = c = 1, so it
    multiplies by w~ alone. All reflection terms are exact; rho and phi
    derivatives are central differences of step ``h``.
    """
    rho, phi = np.asarray(point_polar[0], dtype=float), np.asarray(point_polar[1], dtype=float)
    if np.any(rho < CLEARANCE_STEPS * h):
        raise SingularPointError(f"kg_apply requires rho >= {CLEARANCE_STEPS:g}*h")
    w = config.omega_tilde
    mu_p = params.mu_plus

    # The terms are summed left to right as they are formed, and each
    # stencil value is released once used, so few (K, P) arrays are alive.
    f0 = field.eval_polar(rho, phi)
    frp = field.eval_polar(rho + h, phi)
    frm = field.eval_polar(rho - h, phi)
    d1r = (frp - frm) * (1.0 / (2.0 * h))
    d2r = (frp - 2.0 * f0 + frm) * (1.0 / (h * h))
    del frp, frm
    out = -0.5 * d2r - (0.5 + mu_p) * d1r * (1.0 / rho)
    del d1r, d2r
    out = out + b_phi_apply(field, (rho, phi), params, h) * (1.0 / rho**2)
    out = out + w * angular_j(field, (rho, phi), params, h)
    refl = f0 + params.mu_x * field.eval_polar(rho, np.pi - phi) + params.mu_y * field.eval_polar(rho, -phi)
    sign = -1.0 if component is Component.UPPER else 1.0
    return out + sign * w * refl + 0.5 * w * w * rho**2 * f0


def dirac_apply(
    pair,
    energy: float,
    params: DunklParams,
    config: "OscillatorConfig",
    point,
    h: float = DEFAULT_STEP,
):
    """Residuals of the coupled first-order system at ``point = (x, y)``.

    For a genuine eigenspinor (psi_1, psi_2) of energy E both residuals
    vanish:

        r1 = [-i hbar c (D_x - i D_y) + i m c w~ (x - i y)] psi_2
             - (E - m c^2) psi_1
        r2 = [-i hbar c (D_x + i D_y) - i m c w~ (x + i y)] psi_1
             - (E + m c^2) psi_2

    The code works in units hbar = m = c = 1, so it drops all three.
    """
    upper, lower = pair
    x, y = np.asarray(point[0], dtype=float), np.asarray(point[1], dtype=float)
    wt = config.omega_tilde

    u0 = upper(x, y)
    l0 = lower(x, y)
    dx_l = dunkl_derivative(lower, Axis.X, (x, y), params, h)
    dy_l = dunkl_derivative(lower, Axis.Y, (x, y), params, h)
    dx_u = dunkl_derivative(upper, Axis.X, (x, y), params, h)
    dy_u = dunkl_derivative(upper, Axis.Y, (x, y), params, h)

    r1 = -1j * (dx_l - 1j * dy_l) + 1j * wt * (x - 1j * y) * l0 - (energy - 1.0) * u0
    r2 = -1j * (dx_u + 1j * dy_u) - 1j * wt * (x + 1j * y) * u0 - (energy + 1.0) * l0
    return r1, r2


# ---------------------------------------------------------------------------
# weighted quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Polar nodes ``(rho, phi)`` and weights that hold the measure
    |x|^{2mu_x} |y|^{2mu_y} dx dy of one ``DunklParams``. An angular rule
    puts every node on the unit circle (rho = 1)."""

    rho: np.ndarray
    phi: np.ndarray
    weights: np.ndarray


ANGULAR_NODES = 40  # Gauss-Jacobi nodes per quarter turn


@functools.lru_cache(maxsize=8)
def angular_quadrature(params: DunklParams) -> QuadratureRule:
    """Gauss-Jacobi rule for |cos phi|^{2mu_x} |sin phi|^{2mu_y} dphi on [0, 2pi).

    On a quarter turn, x = -cos 2phi makes the measure the Jacobi weight
    (1-x)^a (1+x)^b dx / 2^{a+b+2}, a = mu_x - 1/2, b = mu_y - 1/2, whose
    Golub-Welsch rule integrates products of one sector's modes exactly;
    mirrored into the four quarters, it sums odd cross terms to zero. Built
    once per ``params``, with read-only arrays.
    """
    a, b = params.mu_x - 0.5, params.mu_y - 0.5
    # The monic recurrence, its k = 0 and k = 1 terms in closed form: a + b
    # may round to a tiny nonzero value where it is 0, and they divide by it.
    k = np.arange(1, ANGULAR_NODES)
    s = 2.0 * k + a + b
    diag = np.concatenate(([(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))))
    k, s = k[1:], s[1:]
    off2 = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    off = np.sqrt(np.concatenate(([4.0 * (a + 1.0) * (b + 1.0) / ((a + b + 2.0) ** 2 * (a + b + 3.0))], off2)))
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mass = math.exp(math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)) / 2.0
    phi = 0.5 * np.arccos(-x)
    phi = np.concatenate((phi, np.pi - phi, np.pi + phi, 2.0 * np.pi - phi))
    rule = QuadratureRule(np.ones_like(phi), phi, np.tile(mass * vecs[0] ** 2, 4))
    for arr in (rule.rho, rule.phi, rule.weights):
        arr.flags.writeable = False
    return rule


def polar_quadrature(
    params: DunklParams,
    r_max: float,
    n_radial: int = 200,
    r_min: float = 0.0,
) -> QuadratureRule:
    """Gauss-Legendre radii on [r_min, r_max], with rho^{2mu_+ + 1} in their
    weights, times the angular rule of ``params``."""
    t, wt = np.polynomial.legendre.leggauss(n_radial)
    r = 0.5 * (r_max - r_min) * t + 0.5 * (r_max + r_min)
    wr = 0.5 * (r_max - r_min) * wt * r ** (2.0 * params.mu_plus + 1.0)
    ang = angular_quadrature(params)
    rr, pp = np.meshgrid(r, ang.phi, indexing="ij")
    return QuadratureRule(rr.ravel(), pp.ravel(), np.outer(wr, ang.weights).ravel())


def weighted_inner_product(f: ScalarField2D, g: ScalarField2D, rule: QuadratureRule) -> complex | np.ndarray:
    """<f, g> as the plain weighted sum of the rule, which holds the measure.

    Two fields of K rows give the (K, K) matrix of <f_i, g_j>, summed over
    the nodes elementwise (a BLAS product costs memory); two scalar ones, a
    value.
    """
    f_vals, g_vals = np.conjugate(f.eval_polar(rule.rho, rule.phi)), g.eval_polar(rule.rho, rule.phi)
    if (rows := np.ndim(f_vals) > 1) != (np.ndim(g_vals) > 1):
        raise ValueError("f and g must both be scalar fields or both have rows")
    gram = np.sum(rule.weights * (np.atleast_2d(f_vals)[:, None] * np.atleast_2d(g_vals)[None]), axis=-1)
    return gram if rows else complex(gram[0, 0])
