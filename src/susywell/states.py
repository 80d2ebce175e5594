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

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, SingularPoint, StepTooLarge
from .susy_core import (
    Family,
    SuperpotentialSpec,
    singularity_distance,
)


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
        dist = float(np.min(singularity_distance(SuperpotentialSpec(spec.family, spec.k), xs)))
        if h > dist / 10.0:
            raise StepTooLarge(h, dist)
    psi_m = np.asarray(eval_wavefunction(spec, xs - h))
    psi_0 = np.asarray(eval_wavefunction(spec, xs))
    psi_p = np.asarray(eval_wavefunction(spec, xs + h))
    lap = (psi_m - 2.0 * psi_0 + psi_p) / h**2
    defect = -lap + (np.asarray(potential(xs)) - energy) * psi_0
    out = defect / np.maximum(np.abs(psi_0), 1e-30)
    return out.item() if np.ndim(x) == 0 else out
