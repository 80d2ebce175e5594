"""Transfer-matrix scattering across piecewise 1-D structures.

A structure is a list of breakpoints with one segment per interval and
V = 0 outside. The matrix maps plane-wave coefficients
(A, B) of A e^{+ik0 x} + B e^{-ik0 x} on the left of the structure to the
coefficients on the right (global phase convention, so an empty structure
is the identity and adjacent structures compose by matrix product).

Segments come in two kinds:
  ConstantSegment   exact propagator, entire in k^2 = E - V, so the E = V
                    resonance goes through the sinc limit with no branch;
  FieldSegment      arbitrary complex profile, integrated as a product of
                    thin constant slices at midpoint values. A block of
                    SLICE_BLOCK slices is four complex arrays, the entries
                    (p, q, r, s) of [[p, q], [r, s]]; neighbours are
                    multiplied entry-wise, later slice on the left, in
                    log2(m) levels, and each block's product is folded
                    into a running 2x2, refused with EvanescentOverflow
                    once it leaves the double range.

Both kinds go through one slice kernel with two ranges of u = k^2 w^2:
|u| <= SERIES_MAX takes six-term series of cos and sinc in u, exact to
rounding (truncation ~ 9e-18) and free of sqrt; plane slices at moderate
q lie there. Thicker slices take np.cos and np.sin of z = sqrt(k^2) w,
each refused with EvanescentOverflow above |Im z| = 700.

plane_partner_sweep samples the partner once per slice count: the midpoints
depend only on the window and the count, so every energy of one sweep
reuses the same values.

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
from .susy_core import PLANE_FAMILIES, Partner, SuperpotentialSpec, partner_field

OVERFLOW_EXPONENT = 700.0
_OVERFLOW_GROWTH = math.exp(OVERFLOW_EXPONENT)
WRONSKIAN_TOL = 1e-12
SLICE_BLOCK = 4096  # slices per batch in a FieldSegment
# plane_partner_sweep doubles the slice count at most MAX_DOUBLINGS times,
# until T changes by at most STABILIZE_TOL
STABILIZE_TOL = 1e-6
MAX_DOUBLINGS = 6
# a slice with |k^2 w^2| <= SERIES_MAX takes the six-term series of cos and
# sinc, whose truncation SERIES_MAX^6 / 12! ~ 9e-18 is below rounding
SERIES_MAX = 0.04
# Horner coefficients of u^5 .. u^0: (-1)^n / (2n)! and (-1)^n / (2n + 1)!
_COS_TERMS = tuple((-1) ** n / math.factorial(2 * n) for n in range(5, -1, -1))
_SINC_TERMS = tuple((-1) ** n / math.factorial(2 * n + 1) for n in range(5, -1, -1))


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
class PiecewisePotential:
    """breakpoints (strictly ascending) and one segment per interval."""

    breakpoints: tuple[float, ...]
    segments: tuple

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


def _series(u):
    """cos z and sinc z of z^2 = u: six terms each, by Horner's rule in u."""
    out = []
    for terms in (_COS_TERMS, _SINC_TERMS):
        acc = u * terms[0]
        for term in terms[1:-1]:
            acc += term
            acc *= u
        acc += terms[-1]
        out.append(acc)
    return out


def _trig(ksq, width: float):
    """cos z and sinc z of z = sqrt(k^2) w, refusing |Im z| > OVERFLOW_EXPONENT."""
    z = np.sqrt(ksq) * width
    over = np.flatnonzero(np.abs(z.imag) > OVERFLOW_EXPONENT)
    if over.size:
        raise EvanescentOverflow(abs(z[over[0]].imag))
    return np.cos(z), np.sin(z) / z


def _slice_entries(values, width: float, energy: float):
    """Entries (p, q, r, s) of the constant-slice (psi, psi') matrices [[p, q], [r, s]].

    p = s = cos(kw), q = w sinc(kw), r = -k^2 w sinc(kw), k^2 = E - V, one
    slice per value. Entire in k^2: no branch choice, det = 1, and k -> 0
    degenerates to the linear-solution pair [[1, w], [0, 1]] exactly.

    Two ranges of u = k^2 w^2 = z^2, each evaluated at its own slices only:
      |u| <= SERIES_MAX   cos z and sinc z as six-term series in u, exact to
                          rounding (truncation <= SERIES_MAX^6 / 12! ~ 9e-18);
                          no sqrt and no branch. Plane slices at moderate q
                          and the E = V resonance of a barrier take it.
      |u| >  SERIES_MAX   np.cos and np.sin of z = sqrt(k^2) w (|z| > 0.2),
                          with the EvanescentOverflow guard on |Im z|.
    """
    ksq = complex(energy) - np.asarray(values, dtype=np.complex128)
    u = ksq * (width * width)
    thin = np.abs(u) <= SERIES_MAX
    if thin.all():
        cosz, sinc = _series(u)
    elif not thin.any():
        cosz, sinc = _trig(ksq, width)
    else:
        thick = ~thin
        cosz, sinc = np.empty_like(u), np.empty_like(u)
        cosz[thick], sinc[thick] = _trig(ksq[thick], width)
        cosz[thin], sinc[thin] = _series(u[thin])
    sfac = width * sinc
    return cosz, sfac, -ksq * sfac, cosz


def _constant_propagator(value: complex, width: float, energy: float) -> np.ndarray:
    p, q, r, s = _slice_entries([value], width, energy)
    return np.array([[p[0], q[0]], [r[0], s[0]]])


def _ordered_product(p, q, r, s) -> tuple[complex, complex, complex, complex]:
    """Entries of slice[-1] @ ... @ slice[0], reduced pairwise in log2(m) levels.

    Each level multiplies neighbours entry-wise, the later slice on the left;
    an odd last slice is carried to the next level unchanged.
    """
    while len(p) > 1:
        even = len(p) - len(p) % 2
        a, b = slice(1, even, 2), slice(0, even, 2)
        pair = (
            p[a] * p[b] + q[a] * r[b],
            p[a] * q[b] + q[a] * s[b],
            r[a] * p[b] + s[a] * r[b],
            r[a] * q[b] + s[a] * s[b],
        )
        if even < len(p):
            pair = tuple(np.append(new, old[even:]) for new, old in zip(pair, (p, q, r, s)))
        p, q, r, s = pair
    return complex(p[0]), complex(q[0]), complex(r[0]), complex(s[0])


def _field_propagator(segment: FieldSegment, a: float, b: float, energy: float) -> np.ndarray:
    width = (b - a) / segment.slices
    mids = a + width * (np.arange(segment.slices) + 0.5)
    values = np.asarray(segment.field(mids), dtype=np.complex128)
    if values.shape != mids.shape:
        raise ValueError("segment field must return one value per slice midpoint")
    # blocks bound the temporaries; later blocks multiply the running product on the left
    p, q, r, s = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for start in range(0, len(values), SLICE_BLOCK):
        stop = start + SLICE_BLOCK
        # slices that each pass the |Im z| guard can still overflow together;
        # the check below refuses such a product instead of warning
        with np.errstate(over="ignore", invalid="ignore"):
            bp, bq, br, bs = _ordered_product(*_slice_entries(values[start:stop], width, energy))
        p, q, r, s = bp * p + bq * r, bp * q + bq * s, br * p + bs * r, br * q + bs * s
        # |Re| + |Im| per entry, since abs() of a complex raises near the float
        # limit; `not <=` refuses inf and nan too
        if not sum(abs(v.real) + abs(v.imag) for v in (p, q, r, s)) <= _OVERFLOW_GROWTH:
            # the accumulated exponent: sum of the per-slice |Im z| so far
            z = np.sqrt(complex(energy) - values[:stop]) * width
            raise EvanescentOverflow(float(np.sum(np.abs(z.imag))))
    return np.array([[p, q], [r, s]])


def transfer_matrix(potential: PiecewisePotential, energy: float) -> np.ndarray:
    """2x2 matrix taking left (A, B) coefficients to right (A, B), det = 1.

    Requires a finite energy E > 0; the free waves outside have k0 = sqrt(E).
    """
    energy = float(energy)
    if not math.isfinite(energy) or energy <= 0.0:
        raise ValueError(f"energy must be finite and positive, got {energy!r}")
    k0 = math.sqrt(energy)
    bps = potential.breakpoints
    if 2.0 * k0 < WRONSKIAN_TOL:
        raise DegenerateMatch("Wronskian 2 k0", 2.0 * k0, WRONSKIAN_TOL, bps[0])
    wave = np.eye(2, dtype=np.complex128)
    for seg, a, b in zip(potential.segments, bps, bps[1:]):
        if isinstance(seg, ConstantSegment):
            step = _constant_propagator(seg.value, b - a, energy)
        elif isinstance(seg, FieldSegment):
            step = _field_propagator(seg, a, b, energy)
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
    """Left-incidence r and t at one energy, with the right-incidence
    reflection r_right (not a SWEEP_HEADER column)."""

    energy: float
    r: complex
    t: complex
    flux_defect: float
    r_right: complex

    @property
    def reflection(self) -> float:
        return abs(self.r) ** 2

    @property
    def transmission(self) -> float:
        return abs(self.t) ** 2


def transmission_reflection(potential: PiecewisePotential, energy: float) -> ScatteringResult:
    """Amplitudes r = -M21/M22 and t = det M / M22 = 1/M22 for incidence from
    the left, and r_right = M12/M22 for incidence from the right.

    det M = 1 holds by construction (every slice and the free-wave matching
    are unimodular), so t is not rebuilt from det M: its four entries grow
    like 1/k0, and as E -> 0 the determinant would come out of cancellation.
    """
    m = transfer_matrix(potential, energy)
    if abs(m[1, 1]) < 1e-300:
        raise DegenerateMatch("M22", m[1, 1], 1e-300, potential.breakpoints[-1])
    r = -m[1, 0] / m[1, 1]
    t = 1.0 / m[1, 1]
    defect = abs(r) ** 2 + abs(t) ** 2 - 1.0
    return ScatteringResult(energy, complex(r), complex(t), float(defect),
                            complex(m[0, 1] / m[1, 1]))


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
) -> list[ScatteringResult]:
    """Scatter free waves across a windowed plane-family partner.

    The complex partner potential is embedded in [x_a, x_b] with V = 0
    outside and integrated as thin constant slices; the slice count doubles
    until T changes by <= STABILIZE_TOL, else SliceTooCoarse. The closed
    -form plane states are never used as the free states outside.
    """
    if spec.family not in PLANE_FAMILIES:
        raise ValueError(f"sweep requires a plane family, got {spec.family}")
    x_a, x_b = float(window[0]), float(window[1])
    if not x_a < x_b:
        raise ValueError(f"empty window [{x_a!r}, {x_b!r}]")
    field = partner_field(spec, which)
    # the slice midpoints depend only on the window and the slice count, so
    # every energy of the sweep reuses one sample of the partner per count;
    # sampling in SLICE_BLOCK chunks keeps the partner's temporaries as small
    # as the kernel's while the earlier samples are held
    samples = {}

    def sampled(mids):
        if len(mids) not in samples:
            samples[len(mids)] = np.concatenate(
                [field(mids[i:i + SLICE_BLOCK]) for i in range(0, len(mids), SLICE_BLOCK)])
        return samples[len(mids)]

    def result_at(m: int, energy: float) -> ScatteringResult:
        structure = PiecewisePotential((x_a, x_b), (FieldSegment(sampled, m),))
        return transmission_reflection(structure, energy)

    out = []
    for energy in energies:
        m = int(slices)
        prev = result_at(m, float(energy))
        accepted = None
        change = math.inf
        for _ in range(MAX_DOUBLINGS + 1):
            nxt = result_at(2 * m, float(energy))
            change = abs(nxt.transmission - prev.transmission)
            if change <= STABILIZE_TOL:
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
