"""Shape-invariant complex superpotential families on the line and the box.

Units: hbar = 2m = 1, so H = -d^2/dx^2 + V(x).

Four families are supported, each a real base profile plus an imaginary
constraint term of amplitude q (q = 0 recovers the ordinary real problem):

    cotangent well   W(x) = -k cot(alpha x) + i q csc(alpha x)
    tangent well     W(x) =  k tan(alpha x) + i q sec(alpha x)
    plane, right     W(x) = -i k + q exp(-i alpha x)
    plane, left      W(x) = +i k + q exp(+i alpha x)

Only the cotangent well and the right plane are written out (_twin). As
tan t = -cot(t + pi/2) and sec t = csc(t + pi/2), the tangent well is the
cotangent well at x + pi/(2 alpha), poles, cell and ground state included;
the left plane is the complex conjugate of the right one.

Partner potentials follow the usual factorization V_{1,2} = W^2 -/+ W'
(upper sign is V1). The parameter step is alpha (defaults to k); stepping
k -> k + alpha in V1 reproduces V2 up to the constant remainder
alpha(alpha + 2k), which gates.shape_invariance verifies.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SusywellError


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

    def shifted(self) -> "SuperpotentialSpec":
        """Spec one step up the ladder: k -> k + alpha."""
        return replace(self, k=self.k + self.alpha)


def default_exclusion(spec: SuperpotentialSpec) -> float:
    """Singularity exclusion radius, 1e-6 of the cell width pi/alpha."""
    return 1e-6 * math.pi / spec.alpha


def _twin(spec: SuperpotentialSpec):
    """(twin, shift, conjugate): the spec's closed forms are the twin's at
    x + shift, conjugated if conjugate is set. The tangent well is the
    cotangent well at x + pi/(2 alpha), the left plane the conjugate of the
    right one, and the other two families are their own twins."""
    if spec.family is Family.TANGENT_WELL:
        return replace(spec, family=Family.COTANGENT_WELL), math.pi / (2.0 * spec.alpha), False
    if spec.family is Family.PLANE_LEFT:
        return replace(spec, family=Family.PLANE_RIGHT), 0.0, True
    return spec, 0.0, False


def _nearest_pole(spec: SuperpotentialSpec, xs):
    # the twin's poles sit at multiples of pi/alpha
    period, shift = math.pi / spec.alpha, _twin(spec)[1]
    return np.round((xs + shift) / period) * period - shift


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
    1/10 of the distance from xs to the nearest pole (SusywellError)."""
    if h <= 0:
        raise ValueError(f"step h must be positive, got {float(h)!r}")
    dist = float(np.min(singularity_distance(spec, xs), initial=np.inf))
    if h > dist / 10.0:
        raise SusywellError(f"step h={float(h)!r} exceeds 1/10 of the distance {dist!r} to the "
                            "nearest singularity")


def _guard_singularities(spec: SuperpotentialSpec, xs: np.ndarray):
    if spec.family not in WELL_FAMILIES:
        return
    bad = np.atleast_1d(singularity_distance(spec, xs) < default_exclusion(spec))
    if bad.any():
        xb = float(np.atleast_1d(xs)[bad][0])
        raise SusywellError(f"evaluation at x={xb!r} is within the exclusion radius of the "
                            f"singular point {float(_nearest_pole(spec, xb))!r}")


def _on_twin(spec: SuperpotentialSpec, x, form):
    """form(twin, x + shift), conjugated as _twin says, after the pole guard
    at x. Scalar in, python complex out; arrays pass through."""
    xs = np.asarray(x, dtype=np.float64)
    _guard_singularities(spec, xs)
    twin, shift, conjugate = _twin(spec)
    values = form(twin, xs + shift)
    values = np.conj(values) if conjugate else values
    return values.item() if np.ndim(x) == 0 else values


def _constraint_terms(twin: SuperpotentialSpec, ys: np.ndarray):
    """(f, f', sin(a y), cos(a y)) of a cotangent well, a = alpha, each trig
    function evaluated once, f and f' real; a right plane gives
    (f, f', None, None), complex, from one exp(-i a y)."""
    a = twin.alpha
    if twin.family is Family.COTANGENT_WELL:
        sin, cos = np.sin(a * ys), np.cos(a * ys)
        # d/dy [q csc(ay)] = -q a csc(ay) cot(ay)
        return twin.q / sin, -twin.q * a * cos / sin ** 2, sin, cos
    wave = np.exp(-1j * a * ys)
    return twin.q * wave, -1j * a * twin.q * wave, None, None


def _superpotential(twin: SuperpotentialSpec, ys: np.ndarray):
    """W of a cotangent well, -k cot(a y) + i f, or a right plane, -ik + f."""
    f, _, sin, cos = _constraint_terms(twin, ys)
    if twin.family is Family.COTANGENT_WELL:
        return -twin.k * cos / sin + 1j * f
    return -1j * twin.k + f


def eval_superpotential(spec: SuperpotentialSpec, x):
    """Value of W(x) for the family, complex.

    Raises SusywellError within default_exclusion(spec) of a pole.
    """
    return _on_twin(spec, x, _superpotential)


def _partner_values(twin: SuperpotentialSpec, which: Partner, ys: np.ndarray) -> np.ndarray:
    """Expanded closed forms of V_{1,2} for arbitrary alpha and constraint.

    Cotangent well (f = q csc(alpha y) real, upper sign V1):
        V_{1,2} = k(k -/+ alpha) csc^2(alpha y) - k^2 - f^2
                  + i(-/+ f' - 2k cot(alpha y) f).
    Both parts are evaluated in float64 and written into one complex array;
    a zero imaginary part is +0, as complex arithmetic would leave it.
    Right plane (f = q exp(-i alpha y)):
        V_{1,2} = -k^2 + f^2 -/+ f' - 2ikf.
    """
    sgn = -1.0 if which is Partner.V1 else 1.0  # sign in front of f' / alpha
    k, alpha = twin.k, twin.alpha
    f, fp, sin, cos = _constraint_terms(twin, ys)
    # at a scalar y, f ** 2 of a 0-d array and of a numpy scalar can differ in the last bit
    f = np.asarray(f)
    if twin.family is Family.COTANGENT_WELL:
        values = np.empty(f.shape, dtype=np.complex128)
        values.real = k * (k + sgn * alpha) * (1.0 / sin**2) - k**2 - f**2
        # + 0.0 turns -0 into +0 (at q = 0 the products are signed zeros)
        values.imag = sgn * fp - 2.0 * k * (cos / sin) * f + 0.0
        return values
    return -(k**2) + f**2 - 2j * k * f + sgn * fp


def eval_partner(spec: SuperpotentialSpec, which: Partner, x):
    """Closed-form partner potential V1 or V2 at x.

    At alpha = k the cotangent pair reduces to
        V1 = -q^2 csc^2(kx) - k^2 - i q k cot(kx) csc(kx)
        V2 = (2k^2 - q^2) csc^2(kx) - k^2 - 3 i q k cot(kx) csc(kx)
    (the tangent pair is this one at x + pi/(2k)), and the right plane gives
    -k^2 + q^2 e^{-2ikx} + i q k (+/-1 - 2) e^{-ikx}, the left one its conjugate.
    """
    return _on_twin(spec, x, lambda twin, ys: _partner_values(twin, which, ys))


def plane_coefficients(spec: SuperpotentialSpec, which: Partner) -> tuple[int, complex, complex]:
    """(d, v1, v2) of a plane partner written V = -k^2 + v1 z + v2 z^2 with
    z = e^{i d alpha x}. The right plane has d = -1, v2 = q^2, and
    v1 = iq(alpha - 2k) for V1 and -iq(alpha + 2k) for V2, the expansion of
    _partner_values; its conjugate twin, the left plane, has d = +1 and the
    conjugate coefficients."""
    if spec.family not in PLANE_FAMILIES:
        raise ValueError(f"plane coefficients need a plane family, got {spec.family}")
    twin, _, conjugate = _twin(spec)
    k, q, alpha = twin.k, twin.q, twin.alpha
    v1 = 1j * q * (alpha - 2.0 * k if which is Partner.V1 else -(alpha + 2.0 * k))
    v2 = complex(q * q)
    return (1, v1.conjugate(), v2.conjugate()) if conjugate else (-1, v1, v2)


def partner_field(spec: SuperpotentialSpec, which: Partner):
    """V1 or V2 as a plain callable of position (scalar or array)."""
    return lambda x: eval_partner(spec, which, x)


def fundamental_cell(spec: SuperpotentialSpec) -> tuple[float, float] | None:
    """Open interval on which the well closed forms are regular.

    (0, pi/alpha) for the cotangent well, (-pi/2alpha, pi/2alpha) for the
    tangent well; None for the plane families (entire line).
    """
    shift = _twin(spec)[1]
    return (0.0 - shift, math.pi / spec.alpha - shift) if spec.family in WELL_FAMILIES else None
