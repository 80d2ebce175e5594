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
        independently of k and defaulting to k (where the constant
        remainder alpha(alpha + 2k) is 3k^2).
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
    """Singularity exclusion radius, 1e-6 of the cell width pi/alpha."""
    return 1e-6 * math.pi / spec.alpha


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


def _check_step(spec: SuperpotentialSpec, xs: np.ndarray, h: float):
    """Refuse a central-difference step h <= 0 (ValueError), or one above
    1/10 of the distance from xs to the nearest pole (StepTooLarge)."""
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h!r}")
    dist = float(np.min(singularity_distance(spec, xs), initial=np.inf))
    if h > dist / 10.0:
        raise StepTooLarge(h, dist)


def _guard_singularities(spec: SuperpotentialSpec, xs: np.ndarray):
    if spec.family not in WELL_FAMILIES:
        return
    bad = np.atleast_1d(singularity_distance(spec, xs) < default_exclusion(spec))
    if bad.any():
        xb = float(np.atleast_1d(xs)[bad][0])
        raise SingularPoint(xb, float(_nearest_pole(spec, xb)))


def _scalar_like(x, values: np.ndarray):
    # hand back a python complex when the caller passed a scalar
    return values.item() if np.ndim(x) == 0 else values


def _constraint_terms(spec: SuperpotentialSpec, xs: np.ndarray, frequency: float):
    """(f, f', sin(a x), cos(a x)) with a = frequency alpha, each trig
    function evaluated once, f and f' real; the plane families give
    (f, f', None, None), complex, from one exp(-/+ i a x)."""
    a = frequency * spec.alpha
    if spec.family in WELL_FAMILIES:
        sin, cos = np.sin(a * xs), np.cos(a * xs)
        if spec.family is Family.COTANGENT_WELL:
            # d/dx [q csc(ax)] = -q a csc(ax) cot(ax)
            return spec.q / sin, -spec.q * a * cos / sin ** 2, sin, cos
        # d/dx [q sec(ax)] = q a sec(ax) tan(ax)
        return spec.q / cos, spec.q * a * sin / cos ** 2, sin, cos
    if spec.family is Family.PLANE_RIGHT:
        wave = np.exp(-1j * a * xs)
        return spec.q * wave, -1j * a * spec.q * wave, None, None
    wave = np.exp(1j * a * xs)
    return spec.q * wave, 1j * a * spec.q * wave, None, None


def eval_superpotential(spec: SuperpotentialSpec, x):
    """Value of W(x) for the family, complex.

    Raises SingularPoint within default_exclusion(spec) of a pole.
    """
    xs = np.asarray(x, dtype=np.float64)
    _guard_singularities(spec, xs)
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


def eval_superpotential_derivative(spec: SuperpotentialSpec, x):
    """Closed-form W'(x), used by the sign-convention identity V2 - V1 = 2W'."""
    xs = np.asarray(x, dtype=np.float64)
    _guard_singularities(spec, xs)
    k, a = spec.k, spec.alpha
    if spec.family is Family.COTANGENT_WELL:
        s = np.sin(a * xs)
        wp = k * a / s**2 - 1j * spec.q * a * np.cos(a * xs) / s**2
    elif spec.family is Family.TANGENT_WELL:
        c = np.cos(a * xs)
        wp = k * a / c**2 + 1j * spec.q * a * np.sin(a * xs) / c**2
    else:
        wp = _constraint_terms(spec, xs, 1.0)[1]
    return _scalar_like(x, wp + 0j)


def _partner_values(
    spec: SuperpotentialSpec, which: Partner, xs: np.ndarray, frequency: float
) -> np.ndarray:
    """Expanded closed forms of V_{1,2} for arbitrary alpha and constraint.

    Well families (f real, g = csc or sec, upper sign V1):
        V_{1,2} = k(k -/+ alpha) g^2(alpha x) - k^2 - f^2 + i(-/+ f' + c),
        with the trig cross term
        c = -2k cot(alpha x) f   (cotangent)  or  c = +2k tan(alpha x) f   (tangent).
    Both parts are evaluated in float64 and written into one complex array;
    a zero imaginary part is +0, as complex arithmetic would leave it.
    Plane families:
        V_{1,2} = -k^2 + f^2 -/+ f' - 2ikf  (right; +2ikf for left).
    """
    sgn = -1.0 if which is Partner.V1 else 1.0  # sign in front of f' / alpha
    k, alpha = spec.k, spec.alpha
    f, fp, sin, cos = _constraint_terms(spec, xs, frequency)
    # at a scalar x, f ** 2 of a 0-d array and of a numpy scalar can differ in the last bit
    f = np.asarray(f)
    if spec.family in WELL_FAMILIES:
        if frequency != 1.0:
            # the negative control detunes the constraint, not the well
            sin, cos = np.sin(alpha * xs), np.cos(alpha * xs)
        # g = 1/s with s = sin or cos; the cross term is 2k (t/s) f
        if spec.family is Family.COTANGENT_WELL:
            s, t = sin, -cos
        else:
            s, t = cos, sin
        g2 = 1.0 / s**2
        cross = 2.0 * k * (t / s) * f
        values = np.empty(f.shape, dtype=np.complex128)
        values.real = k * (k + sgn * alpha) * g2 - k**2 - f**2
        # + 0.0 turns -0 into +0 (at q = 0 the products are signed zeros)
        values.imag = sgn * fp + cross + 0.0
        return values
    if spec.family is Family.PLANE_RIGHT:
        return -(k**2) + f**2 - 2j * k * f + sgn * fp
    return -(k**2) + f**2 + 2j * k * f + sgn * fp


def eval_partner(spec: SuperpotentialSpec, which: Partner, x):
    """Closed-form partner potential V1 or V2 at x.

    At alpha = k the cotangent pair reduces to
        V1 = -q^2 csc^2(kx) - k^2 - i q k cot(kx) csc(kx)
        V2 = (2k^2 - q^2) csc^2(kx) - k^2 - 3 i q k cot(kx) csc(kx)
    with the analogous sec/tan forms for the tangent well, and the plane
    families give -k^2 + q^2 e^{-/+ 2ikx} + i q k (+/-1 - 2) e^{-/+ ikx}.
    """
    xs = np.asarray(x, dtype=np.float64)
    _guard_singularities(spec, xs)
    v = _partner_values(spec, which, xs, 1.0)
    return _scalar_like(x, v)


def remainder(spec: SuperpotentialSpec, x, constraint_frequency: float = 1.0):
    """Shape-invariance remainder R(x) = V2(k; x) - V1(k + alpha; x).

    For the physical constraint the x-dependent bracket cancels and
    R = alpha(alpha + 2k) identically (= 3k^2 at alpha = k). A perturbed
    constraint_frequency breaks the cancellation; that path is the
    negative control used by the verification suite.
    """
    xs = np.asarray(x, dtype=np.float64)
    _guard_singularities(spec, xs)
    v2 = _partner_values(spec, Partner.V2, xs, constraint_frequency)
    v1_up = _partner_values(spec.shifted(), Partner.V1, xs, constraint_frequency)
    return _scalar_like(x, v2 - v1_up)


@dataclass(frozen=True)
class ShapeInvarianceResult:
    """Constancy statistics of the remainder over a sample set."""

    mean: complex
    max_abs_deviation: float


def check_shape_invariance(
    spec: SuperpotentialSpec, sample_points, constraint_frequency: float = 1.0
) -> ShapeInvarianceResult:
    """Mean of R(x) over sample_points and its largest deviation from
    it; the caller holds the deviation to its own bound (gates.SHAPE_TOL).
    """
    xs = np.asarray(sample_points, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("sample_points must be non-empty")
    r = np.asarray(remainder(spec, xs, constraint_frequency))
    mean = complex(np.mean(r))
    return ShapeInvarianceResult(mean, float(np.max(np.abs(r - mean))))


def pole_coupling(spec: SuperpotentialSpec) -> complex:
    """g in V1 ~ g / d^2 at distance d inside the lower wall of a well's
    cell; the upper wall has conj(g).

    g = (k - iq)(k - alpha - iq) / alpha^2 for both wells. Where Re g < -1/4
    a Dirichlet wall at d = epsilon admits states with E ~ -1/epsilon^2
    (fall to centre, Case, Phys. Rev. 80 (1950) 797), so box spectra do not
    converge as the truncation shrinks.
    """
    if spec.family not in WELL_FAMILIES:
        raise ValueError(f"pole coupling needs a well family, got {spec.family}")
    return (spec.k - 1j * spec.q) * (spec.k - spec.alpha - 1j * spec.q) / spec.alpha**2


def partner_field(spec: SuperpotentialSpec, which: Partner):
    """V1 or V2 as a plain callable of position (scalar or array)."""
    return lambda x: eval_partner(spec, which, x)


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
