"""Closed-form bound-state data of the V1 partners, and field utilities.

A ground state is psi = exp(-int W dx), the unbroken-SUSY zero mode of V1,
for the W of a SuperpotentialSpec at any step a = alpha > 0:

    cotangent well  psi = sin(ax)^(k/a) exp{-i (q/a) ln tan(ax/2)}
    tangent well    psi = cos(ax)^(k/a) exp{-i (q/a) ln[(1 + sin ax)/cos ax]}
    plane, right    psi = exp(+ikx) exp{-i (q/a) exp(-iax)}
    plane, left     psi = exp(-ikx) exp{+i (q/a) exp(+iax)}

Only the cotangent and right-plane states are written out (susy_core._twin):
sin(t + pi/2) = cos t and tan(t/2 + pi/4) = (1 + sin t)/cos t, so the tangent
state is the cotangent one at x + pi/(2a); the left plane's is the conjugate.

For real q the q-dependent factor of the well states is a pure phase, so
|psi|^2 is q-independent (powers of sin^2 / cos^2). Logarithms are taken on
the principal branch only; evaluation refuses to leave the spec's
fundamental_cell, where the log argument is positive.

Level n of V1 is E_n = (k + n alpha)^2 - k^2 (remainder_spectrum), the
ladder of a shape-invariant pair (Cooper, Khare & Sukhatme, Phys. Rep. 251
(1995) 267); psi is its level 0.
"""

from __future__ import annotations

import numpy as np

from .errors import SusywellError
from .susy_core import (
    Family,
    Partner,
    SuperpotentialSpec,
    _check_step,
    _on_twin,
    eval_partner,
    fundamental_cell,
)


def _ground_state(twin: SuperpotentialSpec, ys: np.ndarray):
    k, q, a = twin.k, twin.q, twin.alpha
    if twin.family is Family.PLANE_RIGHT:
        return np.exp(1j * k * ys) * np.exp(-1j * (q / a) * np.exp(-1j * a * ys))
    # csc - cot = tan(ay/2), positive on the cell
    return np.sin(a * ys) ** (k / a) * np.exp(-1j * (q / a) * np.log(np.tan(0.5 * a * ys)))


def eval_wavefunction(spec: SuperpotentialSpec, x):
    """psi(x), complex, unnormalized. Scalar in, scalar out; arrays pass
    through.

    Raises SusywellError outside the family's fundamental cell (where the
    principal log would cross a branch cut) and within default_exclusion
    of a pole, as eval_partner does.
    """
    cell = fundamental_cell(spec)

    def in_cell(twin, ys):
        # _on_twin calls this after its pole guard at x
        xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
        outside = xs[(xs <= cell[0]) | (xs >= cell[1])] if cell else ()
        if len(outside):
            raise SusywellError(f"x={float(outside[0])!r}: the log argument of the "
                                f"{spec.family.value} ground state is positive only on {cell}")
        return _ground_state(twin, ys)

    return _on_twin(spec, x, in_cell)


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
    Raises SusywellError when h exceeds 1/10 of the distance to a pole.
    """
    xs = np.asarray(x, dtype=np.float64)
    _check_step(spec, xs, h)
    psi_m = np.asarray(eval_wavefunction(spec, xs - h))
    psi_0 = np.asarray(eval_wavefunction(spec, xs))
    psi_p = np.asarray(eval_wavefunction(spec, xs + h))
    lap = (psi_m - 2.0 * psi_0 + psi_p) / h**2
    defect = -lap + (np.asarray(eval_partner(spec, Partner.V1, xs)) - energy) * psi_0
    out = defect / np.maximum(np.abs(psi_0), 1e-30)
    return out.item() if np.ndim(x) == 0 else out


def remainder_spectrum(n: int, k_base: float = 1.0, alpha: float | None = None) -> float:
    """Energy of level n of V1 by telescoping the constant remainders.

    Sum_{j=1..n} alpha (alpha + 2 k_j) with k_j = k_base + (j-1) alpha
    telescopes to (k_base + n alpha)^2 - k_base^2, evaluated as
    n alpha (2 k_base + n alpha). alpha defaults to k_base, where the
    levels are k_base^2 n (n + 2): exact integers for integer k_base.
    """
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n!r}")
    step = n * float(k_base if alpha is None else alpha)
    return step * (2.0 * k_base + step)
