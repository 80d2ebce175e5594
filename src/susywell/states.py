"""Closed-form zero-energy states of the V1 partners, and field utilities.

All wave functions are the unbroken-SUSY ground states psi = exp(-int W dx)
of their family's V1 at alpha = k:

    cotangent well  psi = A sin(kx) exp{-i (q/k) ln[csc(kx) - cot(kx)]}
    tangent well    psi = B cos(kx) exp{-i (q/k) ln[sec(kx) + tan(kx)]}
    plane, right    psi = N exp(+ikx) exp{-i (q/k) exp(-ikx)}
    plane, left     psi = N exp(-ikx) exp{+i (q/k) exp(+ikx)}

For real q the q-dependent factor of the well states is a pure phase, so
|psi|^2 is q-independent (sin^2 / cos^2 envelopes). Logarithms are taken on
the principal branch only; evaluation refuses to leave the fundamental cell
where the log argument is positive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, SingularPoint, StepTooLarge
from .susy_core import (
    Family,
    SuperpotentialSpec,
    singularity_distance,
)


class DomainKind(enum.Enum):
    BOX = "box"
    LINE = "line"


@dataclass(frozen=True)
class Domain:
    """Sampling interval; Box carries Dirichlet walls, Line is open."""

    x_min: float
    x_max: float
    kind: DomainKind = DomainKind.BOX

    def __post_init__(self):
        if not (self.x_min < self.x_max):
            raise ValueError(f"empty domain [{self.x_min!r}, {self.x_max!r}]")


@dataclass(frozen=True)
class WaveFunctionSpec:
    """family, wave number k > 0, real q, overall constant `norm`."""

    family: Family
    k: float
    q: float = 0.0
    norm: complex = 1.0 + 0j

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValueError(f"k must be finite and > 0, got {self.k!r}")
        if not math.isfinite(self.q):
            raise ValueError(f"q must be finite, got {self.q!r}")
        n = complex(self.norm)
        if not (math.isfinite(n.real) and math.isfinite(n.imag)):
            raise ValueError(f"norm must be finite, got {self.norm!r}")


def default_domain(spec: WaveFunctionSpec) -> Domain:
    """Natural cell of the family: (0, pi/k) box, symmetric tangent box,
    or a finite sampling window on the line for the plane states."""
    if spec.family is Family.COTANGENT_WELL:
        return Domain(0.0, math.pi / spec.k, DomainKind.BOX)
    if spec.family is Family.TANGENT_WELL:
        half = math.pi / (2.0 * spec.k)
        return Domain(-half, half, DomainKind.BOX)
    span = 2.0 * math.pi / spec.k
    return Domain(-span, span, DomainKind.LINE)


def parity_center(domain: Domain) -> float:
    """Reflection point for PT checks: box midpoint, or 0 on the line."""
    if domain.kind is DomainKind.BOX:
        return 0.5 * (domain.x_min + domain.x_max)
    return 0.0


def _ladder_spec(spec: WaveFunctionSpec) -> SuperpotentialSpec:
    return SuperpotentialSpec(spec.family, spec.k, spec.q, spec.k)


def eval_wavefunction(spec: WaveFunctionSpec, x, exclusion: float | None = None):
    """psi(x), complex. Scalar in, scalar out; arrays pass through.

    Raises DomainViolation outside the family's fundamental cell (where
    the principal log would cross a branch cut) and SingularPoint within
    the exclusion radius of the cell endpoints.
    """
    if exclusion is None:
        exclusion = 1e-6 * math.pi / spec.k
    xs = np.asarray(x, dtype=np.float64)
    k, q = spec.k, spec.q
    if spec.family is Family.COTANGENT_WELL:
        lo, hi = 0.0, math.pi / k
        _require_inside(xs, lo, hi, exclusion, "csc(kx) - cot(kx) > 0 only on (0, pi/k)")
        # csc - cot = tan(kx/2), positive on the cell
        phase = np.exp(-1j * (q / k) * np.log(np.tan(0.5 * k * xs)))
        out = spec.norm * np.sin(k * xs) * phase
    elif spec.family is Family.TANGENT_WELL:
        half = math.pi / (2.0 * k)
        _require_inside(
            xs, -half, half, exclusion, "sec(kx) + tan(kx) > 0 only on (-pi/2k, pi/2k)"
        )
        arg = (1.0 + np.sin(k * xs)) / np.cos(k * xs)  # sec + tan
        out = spec.norm * np.cos(k * xs) * np.exp(-1j * (q / k) * np.log(arg))
    elif spec.family is Family.PLANE_RIGHT:
        out = spec.norm * np.exp(1j * k * xs) * np.exp(-1j * (q / k) * np.exp(-1j * k * xs))
    else:
        out = spec.norm * np.exp(-1j * k * xs) * np.exp(1j * (q / k) * np.exp(1j * k * xs))
    return out.item() if np.ndim(x) == 0 else out


def _require_inside(xs: np.ndarray, lo: float, hi: float, exclusion: float, why: str):
    flat = np.atleast_1d(xs)
    near = np.minimum(np.abs(flat - lo), np.abs(flat - hi)) < exclusion
    if near.any():
        xb = float(flat[near][0])
        edge = lo if abs(xb - lo) < abs(xb - hi) else hi
        raise SingularPoint(xb, edge)
    outside = (flat <= lo) | (flat >= hi)
    if outside.any():
        raise DomainViolation(float(flat[outside][0]), why)


def wavefunction_field(spec: WaveFunctionSpec, exclusion: float | None = None):
    """psi as a plain callable of position."""
    return lambda x: eval_wavefunction(spec, x, exclusion)


def superpose(a: complex, spec1: WaveFunctionSpec, b: complex, spec2: WaveFunctionSpec, x):
    """a psi1(x) + b psi2(x). The two specs must share one domain; both
    evaluations enforce their own cells, so a mismatch surfaces as
    DomainViolation at the offending position."""
    return a * eval_wavefunction(spec1, x) + b * eval_wavefunction(spec2, x)


def probability_density(spec: WaveFunctionSpec, x):
    """|psi(x)|^2, computed from the full closed form (phase included)."""
    psi = eval_wavefunction(spec, x)
    return np.abs(psi) ** 2 if np.ndim(x) else abs(psi) ** 2


def pt_asymmetry(field, center: float, sample_points) -> float:
    """max_x |field(2 center - x) - conj(field(x))| over the samples.

    Zero (below ~1e-12) means the field is PT-symmetric about `center`.
    """
    xs = np.asarray(sample_points, dtype=np.float64)
    reflected = np.asarray(field(2.0 * center - xs))
    direct = np.asarray(field(xs))
    return float(np.max(np.abs(reflected - np.conj(direct))))


def schrodinger_residual(potential, spec: WaveFunctionSpec, energy: complex, x, h: float = 1e-4):
    """Normalized defect of -psi'' + V psi = E psi at x.

    psi'' by the three-point central difference with step h; the defect is
    divided by max(|psi(x)|, 1e-30). Decays as O(h^2) where psi is smooth.
    """
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h!r}")
    xs = np.asarray(x, dtype=np.float64)
    if spec.family in (Family.COTANGENT_WELL, Family.TANGENT_WELL):
        dist = float(np.min(singularity_distance(_ladder_spec(spec), xs)))
        if h > dist / 10.0:
            raise StepTooLarge(h, dist)
    psi_m = np.asarray(eval_wavefunction(spec, xs - h))
    psi_0 = np.asarray(eval_wavefunction(spec, xs))
    psi_p = np.asarray(eval_wavefunction(spec, xs + h))
    lap = (psi_m - 2.0 * psi_0 + psi_p) / h**2
    defect = -lap + (np.asarray(potential(xs)) - energy) * psi_0
    out = defect / np.maximum(np.abs(psi_0), 1e-30)
    return out.item() if np.ndim(x) == 0 else out


def normalized(spec: WaveFunctionSpec, domain: Domain, mesh: int = 2001) -> WaveFunctionSpec:
    """Rescale `norm` so that int |psi|^2 dx = 1 on the domain.

    Composite Simpson on `mesh` points (odd). Well-family cell endpoints
    are not evaluable (log singularity under a vanishing envelope); their
    density limit is 0 and is substituted when evaluation refuses.
    """
    # imported here, not at the top: scipy.integrate adds ~0.3 s to every
    # import of the CLI, which never calls this function
    from scipy.integrate import simpson

    if mesh < 3 or mesh % 2 == 0:
        raise ValueError(f"mesh must be odd and >= 3, got {mesh!r}")
    xs = np.linspace(domain.x_min, domain.x_max, mesh)
    rho = np.empty(mesh, dtype=np.float64)
    rho[1:-1] = np.asarray(probability_density(spec, xs[1:-1]), dtype=np.float64)
    for idx in (0, mesh - 1):
        try:
            rho[idx] = float(probability_density(spec, float(xs[idx])))
        except (SingularPoint, DomainViolation):
            rho[idx] = 0.0
    total = float(simpson(rho, x=xs))
    if total <= 0:
        raise ValueError("norm integral is not positive; domain too small?")
    return WaveFunctionSpec(spec.family, spec.k, spec.q, spec.norm / math.sqrt(total))
