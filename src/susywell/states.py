"""Closed-form zero-energy states of the V1 partners, and field utilities.

A ground state is psi = exp(-int W dx), the unbroken-SUSY zero mode of V1,
for the W of a SuperpotentialSpec at alpha = k (the only step at which these
closed forms hold; other steps raise ValueError):

    cotangent well  psi = A sin(kx) exp{-i (q/k) ln[csc(kx) - cot(kx)]}
    tangent well    psi = B cos(kx) exp{-i (q/k) ln[sec(kx) + tan(kx)]}
    plane, right    psi = N exp(+ikx) exp{-i (q/k) exp(-ikx)}
    plane, left     psi = N exp(-ikx) exp{+i (q/k) exp(+ikx)}

For real q the q-dependent factor of the well states is a pure phase, so
|psi|^2 is q-independent (sin^2 / cos^2 envelopes). Logarithms are taken on
the principal branch only; evaluation refuses to leave the spec's
fundamental_cell, where the log argument is positive.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainViolation, SingularPoint
from .susy_core import (
    Family,
    Partner,
    SuperpotentialSpec,
    _check_step,
    default_exclusion,
    eval_partner,
    fundamental_cell,
)

# why a well state is refused outside its cell
_LOG_DOMAINS = {
    Family.COTANGENT_WELL: "csc(kx) - cot(kx) > 0 only on (0, pi/k)",
    Family.TANGENT_WELL: "sec(kx) + tan(kx) > 0 only on (-pi/2k, pi/2k)",
}


def _require_ground_state(spec: SuperpotentialSpec):
    if spec.alpha != spec.k:
        raise ValueError(
            f"closed-form ground states need alpha = k, got alpha={spec.alpha!r}, k={spec.k!r}")


def eval_wavefunction(spec: SuperpotentialSpec, x):
    """psi(x), complex, unnormalized. Scalar in, scalar out; arrays pass
    through.

    Raises DomainViolation outside the family's fundamental cell (where
    the principal log would cross a branch cut) and SingularPoint within
    default_exclusion of the cell endpoints.
    """
    _require_ground_state(spec)
    xs = np.asarray(x, dtype=np.float64)
    k, q = spec.k, spec.q
    if spec.family in _LOG_DOMAINS:
        _require_inside(spec, xs)
    if spec.family is Family.COTANGENT_WELL:
        # csc - cot = tan(kx/2), positive on the cell
        phase = np.exp(-1j * (q / k) * np.log(np.tan(0.5 * k * xs)))
        out = np.sin(k * xs) * phase
    elif spec.family is Family.TANGENT_WELL:
        arg = (1.0 + np.sin(k * xs)) / np.cos(k * xs)  # sec + tan
        out = np.cos(k * xs) * np.exp(-1j * (q / k) * np.log(arg))
    elif spec.family is Family.PLANE_RIGHT:
        out = np.exp(1j * k * xs) * np.exp(-1j * (q / k) * np.exp(-1j * k * xs))
    else:
        out = np.exp(-1j * k * xs) * np.exp(1j * (q / k) * np.exp(1j * k * xs))
    return out.item() if np.ndim(x) == 0 else out


def _require_inside(spec: SuperpotentialSpec, xs: np.ndarray):
    lo, hi = fundamental_cell(spec)
    flat = np.atleast_1d(xs)
    near = np.minimum(np.abs(flat - lo), np.abs(flat - hi)) < default_exclusion(spec)
    if near.any():
        xb = float(flat[near][0])
        edge = lo if abs(xb - lo) < abs(xb - hi) else hi
        raise SingularPoint(xb, edge)
    outside = (flat <= lo) | (flat >= hi)
    if outside.any():
        raise DomainViolation(float(flat[outside][0]), _LOG_DOMAINS[spec.family])


def probability_density(spec: SuperpotentialSpec, x):
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


def schrodinger_residual(spec: SuperpotentialSpec, energy: complex, x, h: float = 1e-4):
    """Normalized defect of -psi'' + V1 psi = E psi at x, with V1 the
    spec's own partner.

    psi'' by the three-point central difference with step h; the defect is
    divided by max(|psi(x)|, 1e-30). Decays as O(h^2) where psi is smooth.
    Raises StepTooLarge when h exceeds 1/10 of the distance to a pole.
    """
    _require_ground_state(spec)
    xs = np.asarray(x, dtype=np.float64)
    _check_step(spec, xs, h)
    psi_m = np.asarray(eval_wavefunction(spec, xs - h))
    psi_0 = np.asarray(eval_wavefunction(spec, xs))
    psi_p = np.asarray(eval_wavefunction(spec, xs + h))
    lap = (psi_m - 2.0 * psi_0 + psi_p) / h**2
    defect = -lap + (np.asarray(eval_partner(spec, Partner.V1, xs)) - energy) * psi_0
    out = defect / np.maximum(np.abs(psi_0), 1e-30)
    return out.item() if np.ndim(x) == 0 else out
