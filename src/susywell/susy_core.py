"""Shape-invariant complex superpotential families on the line and the box.

Units: hbar = 2m = 1, so H = -d^2/dx^2 + V(x).

Four families are supported, each a real base profile plus an imaginary
constraint term of amplitude q (q = 0 recovers the ordinary real problem):

    cotangent well   W(x) = -k cot(alpha x) + i q csc(alpha x)
    tangent well     W(x) =  k tan(alpha x) + i q sec(alpha x)
    plane, right     W(x) = -i k + q exp(-i alpha x)
    plane, left      W(x) = +i k + q exp(+i alpha x)

Partner potentials follow the usual factorization V_{1,2} = W^2 -/+ W'
(upper sign is V1). The parameter step is alpha (defaults to k); stepping
k -> k + alpha in V1 reproduces V2 up to the constant remainder
alpha(alpha + 2k), which is what check_shape_invariance verifies.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularPoint, StepTooLarge


class Family(enum.Enum):
    """The four closed-form superpotential families."""

    COTANGENT_WELL = "cotangent_well"
    TANGENT_WELL = "tangent_well"
    PLANE_RIGHT = "plane_right"
    PLANE_LEFT = "plane_left"


WELL_FAMILIES = (Family.COTANGENT_WELL, Family.TANGENT_WELL)
PLANE_FAMILIES = (Family.PLANE_RIGHT, Family.PLANE_LEFT)


class Partner(enum.Enum):
    """Which member of the factorization pair V_{1,2} = W^2 -/+ W'."""

    V1 = 1
    V2 = 2


@dataclass(frozen=True)
class SuperpotentialSpec:
    """Parameters of one family member.

    k: real well/wave number, k > 0.
    q: real amplitude of the imaginary constraint term (any sign).
    alpha: parameter step used by the shape-invariance ladder; stored
        independently of k and defaulting to k (the closed-form wave
        functions and the constant remainder 3k^2 arise at alpha = k).
    """

    family: Family
    k: float
    q: float = 0.0
    alpha: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValueError(f"k must be finite and > 0, got {self.k!r}")
        if not math.isfinite(self.q):
            raise ValueError(f"q must be finite, got {self.q!r}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", float(self.k))
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha!r}")

    def shifted(self, steps: int = 1) -> "SuperpotentialSpec":
        """Spec with k advanced along the ladder: k -> k + steps*alpha."""
        return SuperpotentialSpec(
            self.family, self.k + steps * self.alpha, self.q, self.alpha
        )


def default_exclusion(spec: SuperpotentialSpec) -> float:
    """Default singularity exclusion radius, 1e-6 of the cell width pi/k."""
    return 1e-6 * math.pi / spec.k


def _nearest_pole(spec: SuperpotentialSpec, xs):
    period = math.pi / spec.alpha
    if spec.family is Family.COTANGENT_WELL:
        return np.round(xs / period) * period
    return (np.round(xs / period - 0.5) + 0.5) * period


def singularity_distance(spec: SuperpotentialSpec, x) -> np.ndarray:
    """Distance from each x to the nearest pole of the family.

    Cotangent-well poles sit at multiples of pi/alpha, tangent-well poles
    at odd multiples of pi/(2 alpha). Plane families have none (inf).
    """
    xs = np.asarray(x, dtype=np.float64)
    if spec.family not in WELL_FAMILIES:
        return np.full_like(xs, np.inf)
    return np.abs(xs - _nearest_pole(spec, xs))


def _guard_singularities(spec: SuperpotentialSpec, xs: np.ndarray, exclusion: float | None):
    if spec.family not in WELL_FAMILIES:
        return
    if exclusion is None:
        exclusion = default_exclusion(spec)
    bad = np.atleast_1d(singularity_distance(spec, xs) < exclusion)
    if bad.any():
        xb = float(np.atleast_1d(xs)[bad][0])
        raise SingularPoint(xb, float(_nearest_pole(spec, xb)))


def _scalar_like(x, values: np.ndarray):
    # hand back a python complex when the caller passed a scalar
    return values.item() if np.ndim(x) == 0 else values


def constraint_function(spec: SuperpotentialSpec, x, frequency: float = 1.0):
    """Constraint amplitude f(x) entering the imaginary part of W.

    f_c = q csc(alpha x), f_t = q sec(alpha x),
    f = q exp(-i alpha x) (right-moving plane),
    f = q exp(+i alpha x) (left-moving plane; sign forced by k -> -k).

    frequency != 1 rescales the argument (f_c -> q csc(frequency alpha x),
    etc.); it exists as the negative control that breaks the remainder
    cancellation and is never part of the physical families.
    """
    xs = np.asarray(x, dtype=np.float64)
    a = frequency * spec.alpha
    if spec.family is Family.COTANGENT_WELL:
        out = spec.q / np.sin(a * xs) + 0j
    elif spec.family is Family.TANGENT_WELL:
        out = spec.q / np.cos(a * xs) + 0j
    elif spec.family is Family.PLANE_RIGHT:
        out = spec.q * np.exp(-1j * a * xs)
    else:
        out = spec.q * np.exp(1j * a * xs)
    return _scalar_like(x, out)


def _constraint_derivative(spec: SuperpotentialSpec, xs: np.ndarray, frequency: float):
    a = frequency * spec.alpha
    if spec.family is Family.COTANGENT_WELL:
        # d/dx [q csc(ax)] = -q a csc(ax) cot(ax)
        return -spec.q * a * np.cos(a * xs) / np.sin(a * xs) ** 2 + 0j
    if spec.family is Family.TANGENT_WELL:
        # d/dx [q sec(ax)] = q a sec(ax) tan(ax)
        return spec.q * a * np.sin(a * xs) / np.cos(a * xs) ** 2 + 0j
    if spec.family is Family.PLANE_RIGHT:
        return -1j * a * spec.q * np.exp(-1j * a * xs)
    return 1j * a * spec.q * np.exp(1j * a * xs)


def eval_superpotential(spec: SuperpotentialSpec, x, exclusion: float | None = None):
    """Value of W(x) for the family, complex.

    Raises SingularPoint within `exclusion` (default 1e-6 pi/k) of a pole.
    """
    xs = np.asarray(x, dtype=np.float64)
    _guard_singularities(spec, xs, exclusion)
    k, a = spec.k, spec.alpha
    if spec.family is Family.COTANGENT_WELL:
        s = np.sin(a * xs)
        w = -k * np.cos(a * xs) / s + 1j * spec.q / s
    elif spec.family is Family.TANGENT_WELL:
        c = np.cos(a * xs)
        w = k * np.sin(a * xs) / c + 1j * spec.q / c
    elif spec.family is Family.PLANE_RIGHT:
        w = -1j * k + spec.q * np.exp(-1j * a * xs)
    else:
        w = 1j * k + spec.q * np.exp(1j * a * xs)
    return _scalar_like(x, w + 0j)


def eval_superpotential_derivative(
    spec: SuperpotentialSpec, x, exclusion: float | None = None
):
    """Closed-form W'(x), used by the sign-convention identity V2 - V1 = 2W'."""
    xs = np.asarray(x, dtype=np.float64)
    _guard_singularities(spec, xs, exclusion)
    k, a = spec.k, spec.alpha
    if spec.family is Family.COTANGENT_WELL:
        s = np.sin(a * xs)
        wp = k * a / s**2 - 1j * spec.q * a * np.cos(a * xs) / s**2
    elif spec.family is Family.TANGENT_WELL:
        c = np.cos(a * xs)
        wp = k * a / c**2 + 1j * spec.q * a * np.sin(a * xs) / c**2
    else:
        wp = _constraint_derivative(spec, xs, 1.0)
    return _scalar_like(x, wp + 0j)


def _partner_values(
    spec: SuperpotentialSpec, which: Partner, xs: np.ndarray, frequency: float
) -> np.ndarray:
    """Expanded closed forms of V_{1,2} for arbitrary alpha and constraint.

    Well families (f real, g = csc or sec, upper sign V1):
        V_{1,2} = k(k -/+ alpha) g^2(alpha x) - k^2 - f^2 + i(-/+ f' + c),
        with the trig cross term
        c = -2k cot(alpha x) f   (cotangent)  or  c = +2k tan(alpha x) f   (tangent).
    Plane families:
        V_{1,2} = -k^2 + f^2 -/+ f' - 2ikf  (right; +2ikf for left).
    """
    sgn = -1.0 if which is Partner.V1 else 1.0  # sign in front of f' / alpha
    k, alpha = spec.k, spec.alpha
    f = np.asarray(constraint_function(spec, xs, frequency))
    fp = _constraint_derivative(spec, xs, frequency)
    if spec.family in WELL_FAMILIES:
        # g = 1/s with s = sin or cos; the cross term is 2k (t/s) f
        if spec.family is Family.COTANGENT_WELL:
            s, t = np.sin(alpha * xs), -np.cos(alpha * xs)
        else:
            s, t = np.cos(alpha * xs), np.sin(alpha * xs)
        g2 = 1.0 / s**2
        cross = 2.0 * k * (t / s) * f
        return k * (k + sgn * alpha) * g2 - k**2 - f**2 + 1j * (sgn * fp + cross)
    if spec.family is Family.PLANE_RIGHT:
        return -(k**2) + f**2 - 2j * k * f + sgn * fp
    return -(k**2) + f**2 + 2j * k * f + sgn * fp


def eval_partner(
    spec: SuperpotentialSpec, which: Partner, x, exclusion: float | None = None
):
    """Closed-form partner potential V1 or V2 at x.

    At alpha = k the cotangent pair reduces to
        V1 = -q^2 csc^2(kx) - k^2 - i q k cot(kx) csc(kx)
        V2 = (2k^2 - q^2) csc^2(kx) - k^2 - 3 i q k cot(kx) csc(kx)
    with the analogous sec/tan forms for the tangent well, and the plane
    families give -k^2 + q^2 e^{-/+ 2ikx} + i q k (+/-1 - 2) e^{-/+ ikx}.
    """
    xs = np.asarray(x, dtype=np.float64)
    _guard_singularities(spec, xs, exclusion)
    v = _partner_values(spec, which, xs, 1.0)
    return _scalar_like(x, v)


def partner_from_superpotential(
    spec: SuperpotentialSpec,
    which: Partner,
    x,
    h: float = 1e-5,
    exclusion: float | None = None,
):
    """V_{1,2} = W^2 -/+ W' with W' by central difference, step h.

    Cross-validation route for eval_partner; the two must agree to O(h^2).
    Raises StepTooLarge when h exceeds 1/10 of the distance to the nearest
    pole, and SingularPoint when any stencil point falls inside the
    exclusion radius.
    """
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h!r}")
    xs = np.asarray(x, dtype=np.float64)
    if spec.family in WELL_FAMILIES:
        dist = singularity_distance(spec, xs)
        limit = float(np.min(dist)) / 10.0
        if h > limit:
            raise StepTooLarge(h, float(np.min(dist)))
    w = np.asarray(eval_superpotential(spec, xs, exclusion))
    wp = (
        np.asarray(eval_superpotential(spec, xs + h, exclusion))
        - np.asarray(eval_superpotential(spec, xs - h, exclusion))
    ) / (2.0 * h)
    sgn = -1.0 if which is Partner.V1 else 1.0
    return _scalar_like(x, w**2 + sgn * wp)


def remainder(spec: SuperpotentialSpec, x, constraint_frequency: float = 1.0):
    """Shape-invariance remainder R(x) = V2(k; x) - V1(k + alpha; x).

    For the physical constraint the x-dependent bracket cancels and
    R = alpha(alpha + 2k) identically (= 3k^2 at alpha = k). A perturbed
    constraint_frequency breaks the cancellation; that path is the
    negative control used by the verification suite.
    """
    xs = np.asarray(x, dtype=np.float64)
    _guard_singularities(spec, xs, None)
    v2 = _partner_values(spec, Partner.V2, xs, constraint_frequency)
    v1_up = _partner_values(spec.shifted(), Partner.V1, xs, constraint_frequency)
    return _scalar_like(x, v2 - v1_up)


@dataclass(frozen=True)
class ShapeInvarianceResult:
    """Constancy statistics of the remainder over a sample set."""

    mean: complex
    max_abs_deviation: float
    tolerance: float
    holds: bool


def check_shape_invariance(
    spec: SuperpotentialSpec,
    sample_points,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    constraint_frequency: float = 1.0,
) -> ShapeInvarianceResult:
    """Test R(x) = const over sample_points.

    Holds when max |R(x) - mean| <= max(rel_tol * |mean|, abs_tol); the
    absolute floor covers mean ~ 0.
    """
    xs = np.asarray(sample_points, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("sample_points must be non-empty")
    r = np.asarray(remainder(spec, xs, constraint_frequency))
    mean = complex(np.mean(r))
    dev = float(np.max(np.abs(r - mean)))
    tol = max(rel_tol * abs(mean), abs_tol)
    return ShapeInvarianceResult(mean, dev, tol, bool(dev <= tol))


def partner_field(
    spec: SuperpotentialSpec, which: Partner, exclusion: float | None = None
):
    """V1 or V2 as a plain callable of position (scalar or array)."""
    return lambda x: eval_partner(spec, which, x, exclusion)


def fundamental_cell(spec: SuperpotentialSpec) -> tuple[float, float] | None:
    """Open interval on which the well closed forms are regular.

    (0, pi/alpha) for the cotangent well, (-pi/2alpha, pi/2alpha) for the
    tangent well; None for the plane families (entire line).
    """
    if spec.family is Family.COTANGENT_WELL:
        return (0.0, math.pi / spec.alpha)
    if spec.family is Family.TANGENT_WELL:
        half = math.pi / (2.0 * spec.alpha)
        return (-half, half)
    return None
