"""Transfer-matrix scattering across one slab of a 1-D complex field.

A Slab is a field V(x) on [a, b] with V = 0 outside, taken as a product of
fourth-order Magnus steps. The matrix maps plane-wave coefficients
(A, B) of A e^{+ik0 x} + B e^{-ik0 x} on the left of the slab to the
coefficients on the right (global phase convention, so a slab of V = 0 is
the identity and two slabs that meet compose by matrix product).

Each step of width w samples the field at the two Gauss nodes
x_c -+ w / (2 sqrt 3) of its slice, so a slab of m slices samples it at 2m
nodes, and propagates by exp(Omega) with
Omega = [[delta, w], [-(E - Vbar) w, -delta]], Vbar the mean of the two
values and delta = (sqrt(3) / 12) w^2 (V- - V+) (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470 (2009) 151). Omega is traceless, so every step is
unimodular. A constant field at one slice has delta = 0: its propagator is
entire in k^2 = E - V, so the E = V resonance of a square barrier goes
through the sinc limit with no branch.

The loop takes a list of energies and samples the slab once for all of
them. Its blocks hold at most SLICE_BLOCK slice-energy pairs:
min(m, SLICE_BLOCK) slices for max(1, (SLICE_BLOCK - 1) // m)
energies, fewer than SLICE_BLOCK pairs unless one row has that many, as one
complex array of shape (2, 2, energies, slices) that stacks the slice
matrices. So the memory of a call does not grow with its number of energies.
Each row multiplies neighbours, later slice on the left, one broadcast 2x2
product per level in log2(m) levels, and folds its product into the running
2x2 of its energy across the blocks. That is the order one energy alone
takes, so each result is bit for bit the same whatever energies share its
call. sweep and plane_partner_sweep are the public ways into it.

Every slice goes through one kernel with two ranges of u = z^2 = k^2 w^2 -
delta^2: |u| <= SERIES_MAX takes six-term series of cos and sinc in u, exact
to rounding (truncation ~ 9e-18) and free of sqrt; plane slices at moderate
q lie there. Thicker slices take np.cos and np.sin of z, each refused as an
evanescent overflow (a ConvergenceFailure) above |Im z| = 700. The loop
refuses the same way a running product, or its free-wave match, that leaves
the double range, with the exponent summed over the slices so far.

The loop fails fast: it validates every energy, then integrates, and raises
the first refusal it meets, whatever its energy. sweep and
plane_partner_sweep replay a batch that raises one energy at a time, in
input order (_in_order), so a sweep raises what the first energy that fails
alone raises; a passing sweep integrates each energy once.

plane_partner_sweep starts at START_SLICES and, at each slice count,
integrates every energy that has not yet settled in one call of the loop, so
the partner is sampled once per count; an energy leaves the doubling loop as
soon as its T settles.

Complex field values model absorption/gain; |r|^2 + |t|^2 - 1 is
reported per energy as flux_defect and vanishes only for real fields.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceFailure
from .serialize import csv_text
from .susy_core import PLANE_FAMILIES, Partner, SuperpotentialSpec, partner_field

OVERFLOW_EXPONENT = 700.0
_OVERFLOW_GROWTH = math.exp(OVERFLOW_EXPONENT)
WRONSKIAN_TOL = 1e-12
SLICE_BLOCK = 4096  # slice-energy pairs per block of the slice loop
# the slice count a plane sweep starts at
START_SLICES = 512
# plane_partner_sweep doubles the slice count at most MAX_DOUBLINGS times,
# until T changes by at most STABILIZE_TOL
STABILIZE_TOL = 1e-6
MAX_DOUBLINGS = 6
# a slice with |k^2 w^2| <= SERIES_MAX takes the six-term series of cos and
# sinc, whose truncation SERIES_MAX^6 / 12! ~ 9e-18 is below rounding
SERIES_MAX = 0.04
# Horner coefficients of u^5 .. u^0, one (cos, sinc) pair of Python complex
# numbers per power: (-1)^n / (2n)! of cos and (-1)^n / (2n + 1)! of sinc
_SERIES_TERMS = tuple(tuple(complex((-1) ** n / math.factorial(2 * n + j)) for j in (0, 1))
                      for n in range(5, -1, -1))
# the Gauss nodes of a slice sit _GAUSS_OFFSET slice widths from its centre;
# delta = _MAGNUS_COUPLING w^2 (V- - V+)
_GAUSS_OFFSET = 0.5 / math.sqrt(3.0)
_MAGNUS_COUPLING = math.sqrt(3.0) / 12.0


@dataclass(frozen=True)
class Slab:
    """A complex profile field(x) on [a, b], V = 0 outside, taken as `slices`
    fourth-order Magnus steps.

    field maps an array of points to one value per point; it is called on
    the 2 * slices Gauss nodes of the slab, the left node of every slice
    first, SLICE_BLOCK nodes at a time.
    """

    field: object
    a: float
    b: float
    slices: int = 1

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not self.a < self.b:
            raise ValueError(f"empty interval [{self.a!r}, {self.b!r}]")
        if self.slices < 1:
            raise ValueError(f"slices must be >= 1, got {self.slices!r}")


def _series(u):
    """cos z and sinc z of z^2 = u, stacked on a new first axis: six terms
    each, by Horner's rule in u. Each row adds its own Python complex
    coefficient, and both rows take one broadcast multiply by u per power,
    which keeps the rounding of a one-slice row that of a longer one."""
    out = np.empty((2,) + u.shape, dtype=np.complex128)
    for acc, term in zip(out, _SERIES_TERMS[0]):
        acc.fill(term)
    for terms in _SERIES_TERMS[1:]:
        out *= u
        for acc, term in zip(out, terms):
            acc += term
    return out


def _trig(rate, width: float):
    """cos z and sinc z of z = sqrt(rate) w, stacked on a new first axis,
    refusing |Im z| > OVERFLOW_EXPONENT."""
    z = np.sqrt(rate) * width
    over = np.flatnonzero(np.abs(z.imag) > OVERFLOW_EXPONENT)
    if over.size:
        raise _overflow(float(abs(z.flat[over[0]].imag)))
    return np.array([np.cos(z), np.sin(z) / z])


def _rates(values, width: float, energies, delta):
    """k^2 = E - V per energy and slice, and the rate z^2 / w^2 =
    k^2 - (delta / w)^2 of its step; at delta = 0 the rate is k^2 itself,
    bit for bit, and so it is at w = 0, where delta = O(w^2). One energy
    gives one row per slice, an array of energies a row per energy."""
    ksq = (np.asarray(energies, dtype=np.complex128)[..., None]
           - np.asarray(values, dtype=np.complex128))
    return ksq, ksq - (delta / width) ** 2 if width else ksq


def _slice_entries(values, width: float, energies, delta=0.0):
    """The slice (psi, psi') matrices [[p, q], [r, s]] as one array of shape
    (2, 2, slices), or (2, 2, energies, slices) when energies is an array.

    Each slice is exp(Omega), Omega = [[delta, w], [-k^2 w, -delta]] with
    k^2 = E - V, one slice per value: p = cos z + delta sinc z,
    q = w sinc z, r = -k^2 w sinc z, s = cos z - delta sinc z, with
    z^2 = k^2 w^2 - delta^2. A constant slice has delta = 0: p = cos z + 0.
    Entire in z^2: no branch choice, det = 1, and z -> 0 at delta = 0
    degenerates to the linear-solution pair [[1, w], [0, 1]] exactly.

    Two ranges of u = z^2, each evaluated at its own slices only:
      |u| <= SERIES_MAX   cos z and sinc z as six-term series in u, exact to
                          rounding (truncation <= SERIES_MAX^6 / 12! ~ 9e-18);
                          no sqrt and no branch. Plane slices at moderate q
                          and the E = V resonance of a barrier take it.
      |u| >  SERIES_MAX   np.cos and np.sin of z = sqrt(z^2 / w^2) w
                          (|z| > 0.2), with the overflow guard of _trig
                          on |Im z|.
    """
    ksq, rate = _rates(values, width, energies, delta)
    u = rate * (width * width)
    thin = np.abs(u) <= SERIES_MAX
    if thin.all():
        cosz, sinc = _series(u)
    elif not thin.any():
        cosz, sinc = _trig(rate, width)
    else:
        trig = np.empty((2,) + u.shape, dtype=u.dtype)
        trig[:, ~thin] = _trig(rate[~thin], width)
        trig[:, thin] = _series(u[thin])
        cosz, sinc = trig
    out = np.empty((2, 2) + u.shape, dtype=np.complex128)
    sfac = np.multiply(width, sinc, out=out[0, 1])
    # delta is given the shape of the block first: numpy multiplies a 1-D
    # delta into a (1, 1) block without the fused multiply-add it uses for
    # arrays of one shape, which would move the last bit of a one-slice row
    tilt = np.broadcast_to(delta, sinc.shape) * sinc
    np.add(cosz, tilt, out=out[0, 0])
    np.multiply(-ksq, sfac, out=out[1, 0])
    np.subtract(cosz, tilt, out=out[1, 1])
    return out


def _ordered_product(entries):
    """slice[-1] @ ... @ slice[0] of a stack of 2x2 matrices of shape
    (2, 2, ..., slices), reduced pairwise along the last axis in log2(m)
    levels; the product has shape (2, 2, ...).

    Each level multiplies neighbours, the later slice on the left; an odd
    last slice is carried to the next level unchanged.
    """
    while entries.shape[-1] > 1:
        even = entries.shape[-1] - entries.shape[-1] % 2
        a, b = entries[..., 1:even:2], entries[..., 0:even:2]
        pair = a[:, 0, None] * b[None, 0]
        pair += a[:, 1, None] * b[None, 1]
        if even < entries.shape[-1]:
            pair = np.concatenate((pair, entries[..., even:]), axis=-1)
        entries = pair
    return entries[..., 0]


def _slice_values(slab: Slab):
    """(values, width, delta) of the slices of a slab: the mean Vbar of the
    field at each slice's two Gauss nodes and
    delta = (sqrt(3) / 12) w^2 (V- - V+). The field is sampled SLICE_BLOCK
    nodes at a time, so its temporaries stay as small as the kernel's."""
    m = slab.slices
    width = (slab.b - slab.a) / m
    centres = slab.a + width * (np.arange(m) + 0.5)
    offset = _GAUSS_OFFSET * width
    nodes = np.concatenate([centres - offset, centres + offset])
    values = np.empty(2 * m, dtype=np.complex128)
    for start in range(0, 2 * m, SLICE_BLOCK):
        chunk = nodes[start:start + SLICE_BLOCK]
        sampled = np.asarray(slab.field(chunk), dtype=np.complex128)
        if sampled.shape != chunk.shape:
            raise ValueError("slab field must return one value per Gauss node")
        values[start:start + SLICE_BLOCK] = sampled
    lower, upper = values[:m], values[m:]
    return 0.5 * (lower + upper), width, _MAGNUS_COUPLING * (width * width) * (lower - upper)


def _exponent(values, width: float, energy: float, delta) -> float:
    """The evanescent exponent of a run of slices: the sum of their |Im z|,
    inf when a rate leaves the double range (its sum would read nan)."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, rate = _rates(values, width, energy, delta)
        total = float(np.sum(np.abs((np.sqrt(rate) * width).imag)))
    return math.inf if math.isnan(total) else total


def _overflow(exponent: float) -> ConvergenceFailure:
    """The refusal of a transfer matrix whose evanescent exponent is over
    the guard."""
    return ConvergenceFailure(f"evanescent exponent {exponent!r} exceeds the overflow guard: "
                              "the transfer matrix would leave the double range")


def _degenerate(what: str, value, bound: float, where: float) -> ConvergenceFailure:
    """The refusal of a free-wave match at x = where whose quantity `what`
    is below its bound."""
    return ConvergenceFailure(f"free-wave matching at x={where!r} is degenerate: "
                              f"{what} = {value!r} is below {bound:g}")


def _in_range(*entries) -> bool:
    """|Re| + |Im| summed over the entries is at most _OVERFLOW_GROWTH.
    Python complex entries: abs() of a complex raises near the float limit,
    numpy scalars warn, and `not <=` refuses inf and nan too."""
    return sum(abs(v.real) + abs(v.imag) for v in entries) <= _OVERFLOW_GROWTH


def _wavenumber(energy, left: float) -> tuple[float, float]:
    """(E, k0 = sqrt(E)) of the free waves, for a finite E > 0 whose
    Wronskian 2 k0 passes WRONSKIAN_TOL."""
    energy = float(energy)
    if not math.isfinite(energy) or energy <= 0.0:
        raise ValueError(f"energy must be finite and positive, got {energy!r}")
    k0 = math.sqrt(energy)
    if 2.0 * k0 < WRONSKIAN_TOL:
        raise _degenerate("Wronskian 2 k0", 2.0 * k0, WRONSKIAN_TOL, left)
    return energy, k0


def _transfer_matrices(slab: Slab, energies) -> list:
    """The matrix M taking left (A, B) coefficients to right (A, B), det M = 1,
    at each finite energy E > 0 (free waves of k0 = sqrt(E) outside), all
    through the one slice loop of the module docstring; the first refusal
    met raises, whatever its energy."""
    waves = [_wavenumber(energy, slab.a) for energy in energies]
    running = [(1.0 + 0j, 0j, 0j, 1.0 + 0j)] * len(waves)
    folded = []  # the blocks so far, so a refusal samples no field again

    def overflow(energy):
        return _overflow(sum(_exponent(values, width, energy, delta)
                             for values, width, delta in folded))

    values, width, delta = _slice_values(slab)
    # fewer than SLICE_BLOCK pairs per block unless one row has that
    # many: a block of exactly 4096 pairs makes each one-entry temporary a
    # 64 KiB chunk, whose free lets glibc hand the top of the heap back to
    # the OS, and the next block faults it in again
    rows = max(1, (SLICE_BLOCK - 1) // len(values))
    for start in range(0, len(values), SLICE_BLOCK):
        run = slice(start, start + SLICE_BLOCK)
        block = (values[run], width, delta[run])
        folded.append(block)
        for first in range(0, len(waves), rows):
            group = np.array([energy for energy, _ in waves[first:first + rows]])
            # slices that each pass the |Im z| guard can still overflow
            # together; the fold refuses such a product instead of warning
            with np.errstate(over="ignore", invalid="ignore"):
                product = _ordered_product(_slice_entries(block[0], width, group, block[2]))
            for i, matrix in enumerate(product.transpose(2, 0, 1).tolist(), first):
                (bp, bq), (br, bs) = matrix
                p, q, r, s = running[i]
                running[i] = p, q, r, s = (bp * p + bq * r, bp * q + bq * s,
                                           br * p + bs * r, br * q + bs * s)
                if not _in_range(p, q, r, s):
                    raise overflow(waves[i][0])
    out = []
    for (energy, k0), (p, q, r, s) in zip(waves, running):
        e_first = cmath.exp(1j * k0 * slab.a)
        e_last = cmath.exp(1j * k0 * slab.b)
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
        # from_psi grows like 1/k0, so an in-range product can still overflow here
        with np.errstate(over="ignore", invalid="ignore"):
            matched = from_psi @ np.array([[p, q], [r, s]]) @ to_psi
        if not _in_range(*matched.ravel().tolist()):
            raise overflow(energy)
        out.append(matched)
    return out


def _in_order(batch, energies) -> list:
    """batch(energies), where batch maps a list of energies to one result
    each. If it raises, each energy is run alone, in order, so the first
    energy that fails alone raises: a result is the same bit for bit in any
    batch, so that is what a loop over the energies would raise."""
    energies = list(energies)
    try:
        return batch(energies)
    except Exception:
        if len(energies) < 2:
            raise
    return [out for energy in energies for out in batch([energy])]


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


def _scattering(slab: Slab, energies) -> list:
    """r = -M21/M22, t = det M / M22 = 1/M22 and r_right = M12/M22 of the
    matrix M at each energy, raising the first refusal met. det M = 1 by
    construction, so t is not rebuilt from entries that grow like 1/k0 and
    cancel as E -> 0."""
    out = []
    for energy, m in zip(energies, _transfer_matrices(slab, energies)):
        if abs(m[1, 1]) < 1e-300:
            raise _degenerate("M22", complex(m[1, 1]), 1e-300, slab.b)
        r = -m[1, 0] / m[1, 1]
        t = 1.0 / m[1, 1]
        defect = abs(r) ** 2 + abs(t) ** 2 - 1.0
        out.append(ScatteringResult(float(energy), complex(r), complex(t), float(defect),
                                    complex(m[0, 1] / m[1, 1])))
    return out


def sweep(slab: Slab, energies) -> list[ScatteringResult]:
    """The ScatteringResult of every energy, in order, through one call of the
    slice loop; a failure raises what the first energy that fails alone
    raises (_in_order)."""
    return _in_order(lambda batch: _scattering(slab, batch), energies)


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
) -> list[ScatteringResult]:
    """Scatter free waves across a windowed plane-family partner.

    The complex partner potential is embedded in the window (a, b) with
    V = 0 outside and integrated as one Slab of fourth-order Magnus slices.
    The slice count starts at START_SLICES (read at each call) and doubles,
    at most MAX_DOUBLINGS times. At each count every energy that has not
    settled goes through one call of the slice loop, which samples the
    partner once and holds at most SLICE_BLOCK slice-energy pairs per block.
    An energy settles when its T changes by <= STABILIZE_TOL and leaves the
    loop then; one still moving after the last count raises
    ConvergenceFailure naming that count.
    Results come back in the order of energies, each the same bit for bit as
    a sweep of that energy alone. A batch that raises is replayed one energy
    at a time (_in_order), so a failure raises what the first energy that
    fails alone raises. The closed-form plane states are never used as the
    free states outside.
    """
    if spec.family not in PLANE_FAMILIES:
        raise ValueError(f"sweep requires a plane family, got {spec.family}")
    slab = Slab(partner_field(spec, which), *window)

    def settled(batch):
        results = [None] * len(batch)
        previous, change = {}, {}  # T at the last count and its last change, by index
        refining = range(len(batch))
        for doubling in range(MAX_DOUBLINGS + 2):
            m = START_SLICES * 2 ** doubling
            at_m = _scattering(replace(slab, slices=m), [batch[i] for i in refining])
            for i, res in zip(refining, at_m):
                if doubling:
                    change[i] = abs(res.transmission - previous[i])
                    if change[i] <= STABILIZE_TOL:
                        results[i] = res
                previous[i] = res.transmission
            refining = [i for i in refining if results[i] is None]
            if not refining:
                return results
        i = refining[0]
        raise ConvergenceFailure(f"transmission at E={float(batch[i])!r} still changes by "
                                 f"{change[i]!r} after refining to {m} slices")

    return _in_order(settled, energies)


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
