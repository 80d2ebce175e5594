"""Transfer-matrix scattering across piecewise 1-D structures.

A structure is a list of breakpoints with one segment per interval and a
real constant value outside. The matrix maps plane-wave coefficients
(A, B) of A e^{+ik0 x} + B e^{-ik0 x} on the left of the structure to the
coefficients on the right (global phase convention, so an empty structure
is the identity and adjacent structures compose by matrix product).

Segments come in three kinds:
  ConstantSegment   exact propagator, entire in k^2 = E - V, so the E = V
                    resonance goes through the sinc limit with no branch;
  FieldSegment      arbitrary complex profile, integrated as a product of
                    thin constant slices at midpoint values; the slice
                    matrices are built as one batch and reduced by a
                    blocked pairwise product (SLICE_BLOCK slices per block);
  PlaneBasisSegment local basis = the two closed-form plane states (right
                    and left movers with psi' = -W psi). For q != 0 the
                    pair solves no single potential, so this kind realizes
                    the interior superposition ansatz only; it is exact at
                    q = 0 with E = k^2.

Complex segment values model absorption/gain; |r|^2 + |t|^2 - 1 is
reported per energy as flux_defect and vanishes only for real structures.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatch, EvanescentOverflow, SliceTooCoarse
from .serialize import csv_text
from .states import WaveFunctionSpec, eval_wavefunction
from .susy_core import (
    Family,
    PLANE_FAMILIES,
    Partner,
    SuperpotentialSpec,
    eval_superpotential,
    partner_field,
)

OVERFLOW_EXPONENT = 700.0
WRONSKIAN_TOL = 1e-12
SLICE_BLOCK = 4096  # slices per batch in a FieldSegment


@dataclass(frozen=True)
class ConstantSegment:
    value: complex


@dataclass(frozen=True)
class FieldSegment:
    field: object
    slices: int = 2000

    def __post_init__(self):
        if self.slices < 1:
            raise ValueError(f"slices must be >= 1, got {self.slices!r}")


@dataclass(frozen=True)
class PlaneBasisSegment:
    k: float
    q: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValueError(f"k must be finite and > 0, got {self.k!r}")


@dataclass(frozen=True)
class PiecewisePotential:
    """breakpoints (strictly ascending) and one segment per interval."""

    breakpoints: tuple[float, ...]
    segments: tuple
    asymptotic: float = 0.0

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "segments", tuple(self.segments))
        if len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly ascending")
        if len(self.segments) != len(bp) - 1:
            raise ValueError(
                f"{len(bp)} breakpoints require {len(bp) - 1} segments, "
                f"got {len(self.segments)}"
            )
        a = complex(self.asymptotic)
        if a.imag != 0.0:
            raise ValueError("asymptotic value must be real (free-wave regions)")
        object.__setattr__(self, "asymptotic", a.real)


def _slice_propagators(values, width: float, energy: float) -> np.ndarray:
    """Fundamental (psi, psi') matrices across constant slices, shape (m, 2, 2).

    [[cos(kw), w sinc(kw)], [-k^2 w sinc(kw), cos(kw)]], k^2 = E - V, one
    matrix per value. Entire in k^2: no branch choice, det = 1, and k -> 0
    degenerates to the linear-solution pair [[1, w], [0, 1]]; cos and sinc go
    to their series below |kw| = 1e-4 (covers the E = V resonance limit).
    """
    ksq = complex(energy) - np.asarray(values, dtype=np.complex128)
    z = np.sqrt(ksq) * width
    over = np.flatnonzero(np.abs(z.imag) > OVERFLOW_EXPONENT)
    if over.size:
        raise EvanescentOverflow(abs(z[over[0]].imag))
    z2 = z * z
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    cosz = np.where(small, 1.0 - z2 / 2.0 + z2 * z2 / 24.0, np.cos(z))
    sfac = width * np.where(small, 1.0 - z2 / 6.0 + z2 * z2 / 120.0, np.sin(safe) / safe)
    out = np.empty(z.shape + (2, 2), dtype=np.complex128)
    out[:, 0, 0] = out[:, 1, 1] = cosz
    out[:, 0, 1] = sfac
    out[:, 1, 0] = -ksq * sfac
    return out


def _constant_propagator(value: complex, width: float, energy: float) -> np.ndarray:
    return _slice_propagators([value], width, energy)[0]


def _ordered_product(stack: np.ndarray) -> np.ndarray:
    """stack[-1] @ ... @ stack[0], reduced by pairwise matmul in log2(m) steps."""
    while len(stack) > 1:
        even = len(stack) - len(stack) % 2
        pairs = stack[1:even:2] @ stack[0:even:2]
        stack = np.concatenate([pairs, stack[even:]]) if even < len(stack) else pairs
    return stack[0]


def _field_propagator(segment: FieldSegment, a: float, b: float, energy: float) -> np.ndarray:
    width = (b - a) / segment.slices
    mids = a + width * (np.arange(segment.slices) + 0.5)
    values = np.asarray(segment.field(mids), dtype=np.complex128)
    if values.shape != mids.shape:
        raise ValueError("segment field must return one value per slice midpoint")
    # blocks bound the (m, 2, 2) temporaries; later slices multiply on the left
    out = np.eye(2, dtype=np.complex128)
    for start in range(0, len(values), SLICE_BLOCK):
        block = _slice_propagators(values[start:start + SLICE_BLOCK], width, energy)
        out = _ordered_product(block) @ out
    return out


def _plane_basis_matrix(segment: PlaneBasisSegment, x: float) -> np.ndarray:
    right = WaveFunctionSpec(Family.PLANE_RIGHT, segment.k, segment.q)
    left = WaveFunctionSpec(Family.PLANE_LEFT, segment.k, segment.q)
    u1 = eval_wavefunction(right, x)
    u2 = eval_wavefunction(left, x)
    w1 = eval_superpotential(SuperpotentialSpec(Family.PLANE_RIGHT, segment.k, segment.q), x)
    w2 = eval_superpotential(SuperpotentialSpec(Family.PLANE_LEFT, segment.k, segment.q), x)
    return np.array([[u1, u2], [-w1 * u1, -w2 * u2]], dtype=np.complex128)


def _inv2(m: np.ndarray, where: float) -> np.ndarray:
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < WRONSKIAN_TOL:
        raise DegenerateMatch(det, where)
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=np.complex128) / det


def _plane_basis_propagator(segment: PlaneBasisSegment, a: float, b: float) -> np.ndarray:
    # check both edges so the degenerate point is reported where it occurs
    mb = _plane_basis_matrix(segment, b)
    det_b = mb[0, 0] * mb[1, 1] - mb[0, 1] * mb[1, 0]
    if abs(det_b) < WRONSKIAN_TOL:
        raise DegenerateMatch(det_b, b)
    return mb @ _inv2(_plane_basis_matrix(segment, a), a)


def transfer_matrix(potential: PiecewisePotential, energy: float) -> np.ndarray:
    """2x2 matrix taking left (A, B) coefficients to right (A, B).

    Requires real energy above the asymptotic value. det = 1 for constant
    and field segments; plane-basis segments are an ansatz and may break
    unimodularity (documented above).
    """
    energy = float(energy)
    if not math.isfinite(energy) or energy <= potential.asymptotic:
        raise ValueError(
            f"energy must be finite and above the asymptotic value "
            f"{potential.asymptotic!r}, got {energy!r}"
        )
    k0 = math.sqrt(energy - potential.asymptotic)
    if 2.0 * k0 < WRONSKIAN_TOL:
        raise DegenerateMatch(2.0 * k0, potential.breakpoints[0])
    wave = np.eye(2, dtype=np.complex128)
    bps = potential.breakpoints
    for seg, a, b in zip(potential.segments, bps, bps[1:]):
        if isinstance(seg, ConstantSegment):
            step = _constant_propagator(seg.value, b - a, energy)
        elif isinstance(seg, FieldSegment):
            step = _field_propagator(seg, a, b, energy)
        elif isinstance(seg, PlaneBasisSegment):
            step = _plane_basis_propagator(seg, a, b)
        else:
            raise TypeError(f"unknown segment kind {type(seg).__name__}")
        wave = step @ wave
    first, last = bps[0], bps[-1]
    e_first = cmath.exp(1j * k0 * first)
    e_last = cmath.exp(1j * k0 * last)
    to_psi = np.array(
        [[e_first, 1.0 / e_first], [1j * k0 * e_first, -1j * k0 / e_first]],
        dtype=np.complex128,
    )
    from_psi = np.array(
        [
            [0.5 / e_last, 1.0 / (2j * k0 * e_last)],
            [0.5 * e_last, -e_last / (2j * k0)],
        ],
        dtype=np.complex128,
    )
    return from_psi @ wave @ to_psi


@dataclass(frozen=True)
class ScatteringResult:
    energy: float
    r: complex
    t: complex
    flux_defect: float

    @property
    def reflection(self) -> float:
        return abs(self.r) ** 2

    @property
    def transmission(self) -> float:
        return abs(self.t) ** 2


def transmission_reflection(potential: PiecewisePotential, energy: float) -> ScatteringResult:
    """Left-incidence amplitudes: r = -M21/M22, t = det M / M22."""
    m = transfer_matrix(potential, energy)
    if abs(m[1, 1]) < 1e-300:
        raise DegenerateMatch(m[1, 1], potential.breakpoints[-1])
    r = -m[1, 0] / m[1, 1]
    t = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) / m[1, 1]
    defect = abs(r) ** 2 + abs(t) ** 2 - 1.0
    return ScatteringResult(energy, complex(r), complex(t), float(defect))


def square_barrier_transmission(v0: float, width: float, energy: float) -> float:
    """Textbook closed form for a rectangular barrier or well of height v0.

    T = [1 + v0^2 sinh^2(kappa a) / (4E(v0 - E))]^-1 below the top
    (kappa = sqrt(v0 - E)) and the sin^2 continuation above it. Independent
    oracle for the transfer-matrix path; not computed via matrices.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width!r}")
    if energy <= 0:
        raise ValueError(f"energy must be positive, got {energy!r}")
    u = energy - v0
    if abs(u) < 1e-9 * max(abs(v0), 1.0):
        # resonance limit: sinh^2(kappa a)/(v0 - E) -> a^2 as E -> v0
        return 1.0 / (1.0 + v0**2 * width**2 / (4.0 * energy))
    if u > 0:
        ratio = v0**2 * math.sin(math.sqrt(u) * width) ** 2 / (4.0 * energy * u)
        return 1.0 / (1.0 + ratio)
    kappa_a = math.sqrt(-u) * width
    if kappa_a > 300.0:
        # sinh^2 would overflow; dominant e^{2 kappa a}/4 term only
        return 16.0 * energy * (-u) / v0**2 * math.exp(-2.0 * kappa_a)
    ratio = v0**2 * math.sinh(kappa_a) ** 2 / (4.0 * energy * (-u))
    return 1.0 / (1.0 + ratio)


def plane_partner_sweep(
    spec: SuperpotentialSpec,
    which: Partner,
    window: tuple[float, float],
    energies,
    slices: int = 2000,
    stabilize_tol: float = 1e-6,
    max_doublings: int = 6,
) -> list[ScatteringResult]:
    """Scatter free waves across a windowed plane-family partner.

    The complex partner potential is embedded in [x_a, x_b] with V = 0
    outside and integrated as thin constant slices; the slice count doubles
    until T changes by <= stabilize_tol, else SliceTooCoarse. The closed
    -form plane states never serve as asymptotic states here.
    """
    if spec.family not in PLANE_FAMILIES:
        raise ValueError(f"sweep requires a plane family, got {spec.family}")
    x_a, x_b = float(window[0]), float(window[1])
    if not x_a < x_b:
        raise ValueError(f"empty window [{x_a!r}, {x_b!r}]")
    field = partner_field(spec, which)

    def result_at(m: int, energy: float) -> ScatteringResult:
        structure = PiecewisePotential(
            (x_a, x_b), (FieldSegment(field, m),), asymptotic=0.0
        )
        return transmission_reflection(structure, energy)

    out = []
    for energy in energies:
        m = int(slices)
        prev = result_at(m, float(energy))
        accepted = None
        change = math.inf
        for _ in range(max(0, max_doublings) + 1):
            nxt = result_at(2 * m, float(energy))
            change = abs(nxt.transmission - prev.transmission)
            if change <= stabilize_tol:
                accepted = nxt
                break
            m *= 2
            prev = nxt
        if accepted is None:
            raise SliceTooCoarse(float(energy), 2 * m, change)
        out.append(accepted)
    return out


SWEEP_HEADER = ["energy", "r_re", "r_im", "t_re", "t_im", "R", "T", "flux_defect"]


def sweep_rows(results) -> list[list[float]]:
    """The SWEEP_HEADER values of a sweep, one row per energy."""
    return [
        [
            res.energy,
            res.r.real,
            res.r.imag,
            res.t.real,
            res.t.imag,
            res.reflection,
            res.transmission,
            res.flux_defect,
        ]
        for res in results
    ]


def sweep_csv(results) -> str:
    """CSV serialization of a sweep: one row per energy, LF endings."""
    return csv_text(SWEEP_HEADER, sweep_rows(results))
