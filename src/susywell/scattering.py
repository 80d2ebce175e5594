"""Transfer-matrix scattering off a square barrier and a windowed plane partner.

Both scatterers have V = 0 outside a window [a, b]. Each path builds the
(psi, psi') propagator P across its window at every energy, and one
free-wave match turns P into the matrix M that maps the plane-wave
coefficients (A, B) of A e^{+ik0 x} + B e^{-ik0 x} on the left of the
window to the coefficients on the right (global phase convention, so V = 0
gives the identity); r, t and r_right are read off M.

The square barrier, V = v0 on [0, w], is one constant step,
P = [[cos z, w sinc z], [-k^2 w sinc z, cos z]] with k^2 = E - v0 and
z = k w. P is entire in z^2, so the E = v0 resonance goes through the
sinc limit with no branch: cos z and sinc z are np.cos and np.sin of z at
every energy, with sinc 0 = 1 exactly, and |Im z| above OVERFLOW_EXPONENT
is refused as an evanescent overflow.

A plane partner is V = -k^2 + v1 z + v2 z^2 with z = e^{i d alpha x}
(susy_core.plane_coefficients). Its solutions are the entire series
f_s = e^{i s kappa x} sum a_n z^n, s = +-1, kappa^2 = E + k^2, a_0 = 1 and
a_n d n alpha (2 s kappa + d n alpha) = -(v1 a_{n-1} + v2 a_{n-2})
(Gasymov, Funct. Anal. Appl. 14 (1980) 11), and P = F(b) F(a)^-1 with
F = [[f+, f-], [f+', f-']]. At a Bragg point, kappa = n alpha / 2, one
denominator vanishes; but P is entire in E, so it is taken at every energy
as its mean over 16 nodes of a circle about E, rotated half a step so
that no node is real. The sums carry about eps times the largest
coefficient, so a series whose coefficients grow past SERIES_GROWTH is
refused.

Either refusal is a ConvergenceFailure, and so is a transfer matrix, or
its free-wave match, that is not finite or leaves the double range once
its guard has passed; that refusal names the energy. Each energy is
judged on its own: a sweep raises the refusal of the first energy, in
input order, that fails, as a loop over the energies would.

Complex field values model absorption/gain; |r|^2 + |t|^2 - 1 is
reported per energy as flux_defect and vanishes only for real fields.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure
from .susy_core import PLANE_FAMILIES, Partner, SuperpotentialSpec, plane_coefficients

OVERFLOW_EXPONENT = 700.0
_OVERFLOW_GROWTH = math.exp(OVERFLOW_EXPONENT)
WRONSKIAN_TOL = 1e-12
# the largest plane series coefficient accepted; a sum carries about eps
# times it. At k = alpha = 1 on (0, 2 pi), V1 at q = 12 reaches at most
# 1.4e7 over the scatter default energies, V1 at q = 20 passes 4e8 at each
# of E = 0.5, 2, 50 and 60, and at q = 200 T would read 0 unguarded. The
# coefficients grow with |q| / alpha: on (0, 2 pi / k) at the default
# energies every sweep with |q| <= 5 alpha passes, for alpha from 0.02 k to
# 2 k, and |q| = 50 alpha is refused throughout
SERIES_GROWTH = 1e8
# plane series terms summed between two convergence checks
_CHECK_EVERY = 8
# energies whose series are summed together; each takes about 13 KB while
# they are, so a sweep's memory does not grow with its number of energies
_ENERGY_BLOCK = 8
# the 16 nodes of the unit circle that a plane propagator is averaged over,
# rotated half a step so that none is real
_CIRCLE = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)


def _constant_steps(ksq, width: float):
    """The (psi, psi') propagators [[cos z, w sinc z], [-k^2 w sinc z, cos z]]
    across a constant V of width w, one per entry k^2 = E - V of the 1-D
    array ksq, as one array of shape (2, 2, energies).

    Entire in z^2 = k^2 w^2: no branch choice and det = 1. cos z and sinc z
    are np.cos and np.sin(z) / z of z = sqrt(k^2) w, and sinc 0 = 1 is set,
    not divided, so z = 0 (E = V, or w = 0) is the linear-solution pair
    [[1, w], [0, 1]] exactly, with no warning.
    """
    z = np.sqrt(ksq) * width
    out = np.empty((2, 2) + z.shape, dtype=np.complex128)
    out[0, 0] = out[1, 1] = np.cos(z)
    sinc = np.divide(np.sin(z), z, out=np.ones_like(z), where=z != 0)
    sfac = np.multiply(width, sinc, out=out[0, 1])
    np.multiply(-ksq, sfac, out=out[1, 0])
    return out


def _barrier_steps(v0: float, width: float, energies):
    """(steps, exponents) of the barrier V = v0 of the given width: the
    constant step at each energy, shape (2, 2, energies), and its evanescent
    exponent |Im z| (inf where it is nan). A step whose exponent is over
    OVERFLOW_EXPONENT is not evaluated and reads 0."""
    ksq = energies.astype(np.complex128) - v0
    with np.errstate(over="ignore", invalid="ignore"):
        exponents = np.abs((np.sqrt(ksq) * width).imag)
    exponents[np.isnan(exponents)] = math.inf
    steps = np.zeros((2, 2) + ksq.shape, dtype=np.complex128)
    fits = exponents <= OVERFLOW_EXPONENT
    steps[..., fits] = _constant_steps(ksq[fits], width)
    return steps, exponents


def _plane_steps(spec: SuperpotentialSpec, which: Partner, window, energies):
    """(steps, growth) of a plane partner on window: P at each energy, shape
    (2, 2, energies), and the largest |a_n| of its series (inf once one is
    not finite).

    The series are summed in the window's own coordinate y = x - a, so
    z(a)^n is folded into v1 and v2, and z(b) / z(a) = e^{i d alpha L}, with
    L = b - a. Each energy E takes the 16 nodes E + rho e^{i theta} of
    its circle, rho = 0.05 kappa0 min(kappa0, 2 pi / L), kappa0^2 = E + k^2,
    so the phase kappa L moves by at most 0.16 around the circle and
    kappa^2 stays within 5% of kappa0^2; both signs of kappa share each
    node. After every _CHECK_EVERY terms, an energy stops once the last two
    |a_n| of each of its series are below eps times the largest |a| of that
    series, or once its growth fails the guard; its coefficients are then
    zero, so its sums do not depend on the energies beside it.
    """
    a, b = window
    length = b - a
    d, v1, v2 = plane_coefficients(spec, which)
    step = d * spec.alpha
    shift = cmath.exp(1j * step * a)
    v1, v2 = -v1 * shift, -v2 * shift * shift
    # z(b)^n / z(a)^n = e^{i n theta}; theta = head + tail, with n head exact
    # for n < 2^29, as a rounded n theta would move the phase by n ulp(theta)
    # and the large coefficients would carry that into the sums
    theta = step * length
    # a theta past the float32 range splits into a non-finite phase, and
    # so a transfer matrix that _sweep refuses
    with np.errstate(over="ignore"):
        head = float(np.float32(theta))
    tail = theta - head
    kappa0 = np.sqrt(energies + spec.k ** 2)
    radius = 0.05 * kappa0 * np.minimum(kappa0, 2.0 * math.pi / length)
    kappa = np.sqrt(energies[:, None] + radius[:, None] * _CIRCLE + spec.k ** 2)
    skappa = np.stack([kappa, -kappa], axis=1)  # s kappa: (energies, sign, node)
    eps = np.finfo(np.float64).eps
    with np.errstate(over="ignore", invalid="ignore"):
        coef, prev = np.ones_like(skappa), np.zeros_like(skappa)
        # sum a_n and sum n a_n at y = 0, then at y = L (weighted by z^n)
        sums = np.zeros((4,) + skappa.shape, dtype=np.complex128)
        sums[0] = sums[2] = 1.0
        peak = np.ones(skappa.shape)
        live, first = np.ones(len(energies), dtype=bool), 1
        while live.any():
            ns = step * np.arange(first, first + _CHECK_EVERY)[:, None, None, None]
            scales = 2.0 * skappa + ns
            scales *= ns
            for n, scale in enumerate(np.reciprocal(scales, out=scales), first):
                coef, prev = (v1 * coef + v2 * prev) * scale, coef
                wave = cmath.exp(1j * (n * head)) * cmath.exp(1j * (n * tail))
                sums += coef * np.array([1.0, n, wave, n * wave])[:, None, None, None]
                np.maximum(peak, np.abs(coef), out=peak)
            first += _CHECK_EVERY
            small = np.maximum(np.abs(coef), np.abs(prev)) <= eps * peak
            live = ~small.all(axis=(1, 2)) & (peak.max(axis=(1, 2)) <= SERIES_GROWTH)
            coef[~live] = prev[~live] = 0.0
        # f and f' = i sum (s kappa + n d alpha) a_n z^n at y = 0 and y = L
        f_a, n_a, f_b, n_b = sums
        phase = np.exp(1j * skappa * length)
        ga = 1j * (skappa * f_a + step * n_a)
        gb = 1j * phase * (skappa * f_b + step * n_b)
        fa, fb = f_a, phase * f_b
        # F(b) adj F(a) / det F(a), with f+ at [:, 0] and f- at [:, 1]
        steps = np.array([
            [fb[:, 0] * ga[:, 1] - fb[:, 1] * ga[:, 0], fb[:, 1] * fa[:, 0] - fb[:, 0] * fa[:, 1]],
            [gb[:, 0] * ga[:, 1] - gb[:, 1] * ga[:, 0], gb[:, 1] * fa[:, 0] - gb[:, 0] * fa[:, 1]],
        ]) / (fa[:, 0] * ga[:, 1] - fa[:, 1] * ga[:, 0])
    growth = peak.max(axis=(1, 2))
    growth[np.isnan(growth)] = math.inf
    return steps.mean(axis=-1), growth


def _overflow(exponent: float) -> ConvergenceFailure:
    """The refusal of a transfer matrix whose evanescent exponent is over
    the guard."""
    return ConvergenceFailure(f"evanescent exponent {exponent!r} exceeds the overflow guard: "
                              "the transfer matrix would leave the double range")


def _out_of_range(energy: float) -> ConvergenceFailure:
    """The refusal of a P or M at E that its guard reading did not catch."""
    return ConvergenceFailure(f"the transfer matrix at E={energy!r} is not finite or leaves "
                              "the double range")


def _unsummable(energy: float, growth: float) -> ConvergenceFailure:
    """The refusal of a plane series whose coefficients grow past the guard."""
    return ConvergenceFailure(f"plane series at E={energy!r} has a coefficient of {growth!r}, "
                              f"past the guard {SERIES_GROWTH:g}: its sums would lose their "
                              "digits to cancellation (the coefficients grow with |q| / alpha)")


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


def _free_wave(energy, left: float):
    """(E, k0 = sqrt(E)) of the free waves for a finite E > 0 whose
    Wronskian 2 k0 passes WRONSKIAN_TOL, else the refusal of E, returned
    and not raised."""
    energy = float(energy)
    if not math.isfinite(energy) or energy <= 0.0:
        return ValueError(f"energy must be finite and positive, got {energy!r}")
    k0 = math.sqrt(energy)
    if 2.0 * k0 < WRONSKIAN_TOL:
        return _degenerate("Wronskian 2 k0", 2.0 * k0, WRONSKIAN_TOL, left)
    return energy, k0


def _window(a, b) -> tuple[float, float]:
    """(a, b) as floats, refusing an empty interval."""
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"empty interval [{a!r}, {b!r}]")
    return a, b


@dataclass(frozen=True)
class ScatteringResult:
    """Left-incidence r and t at one energy, with the right-incidence
    reflection r_right (not a column of the sweep files)."""

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


def _matched(step, a: float, b: float, k0: float):
    """M = from_psi(b) P to_psi(a) of the propagator step = [[p, q], [r, s]]
    across [a, b]: the matrix taking left (A, B) coefficients of the free
    waves of k0 to right ones."""
    e_first = cmath.exp(1j * k0 * a)
    e_last = cmath.exp(1j * k0 * b)
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
    # from_psi grows like 1/k0, so an in-range P can still overflow here
    with np.errstate(over="ignore", invalid="ignore"):
        return from_psi @ np.array(step) @ to_psi


def _sweep(window, energies, propagate, limit: float, refusal) -> list[ScatteringResult]:
    """The ScatteringResult of every energy, in order, off a window whose
    propagators and guard readings propagate(energies) returns.

    An energy whose reading is over limit raises refusal(E, reading), and
    one whose P or M is not finite or leaves the double range raises
    _out_of_range(E). r = -M21/M22, t = 1/M22 and
    r_right = M12/M22, as det M = 1, so t is not rebuilt from entries that
    grow like 1/k0 and cancel as E -> 0. The energies are judged in input
    order, so the first that fails raises."""
    a, b = window
    waves = [_free_wave(energy, a) for energy in energies]
    steps, readings = propagate(np.array([w[0] for w in waves if not isinstance(w, Exception)]))
    rows = zip(steps.transpose(2, 0, 1).tolist(), readings.tolist())
    out = []
    for wave in waves:
        if isinstance(wave, Exception):
            raise wave
        (energy, k0), (step, reading) = wave, next(rows)
        if not reading <= limit:
            raise refusal(energy, reading)
        if not _in_range(*step[0], *step[1]):
            raise _out_of_range(energy)
        m = _matched(step, a, b, k0)
        if not _in_range(*m.ravel().tolist()):
            raise _out_of_range(energy)
        if abs(m[1, 1]) < 1e-300:
            raise _degenerate("M22", complex(m[1, 1]), 1e-300, b)
        r = -m[1, 0] / m[1, 1]
        t = 1.0 / m[1, 1]
        defect = abs(r) ** 2 + abs(t) ** 2 - 1.0
        out.append(ScatteringResult(energy, complex(r), complex(t), float(defect),
                                    complex(m[0, 1] / m[1, 1])))
    return out


def barrier_sweep(v0: float, width: float, energies) -> list[ScatteringResult]:
    """The ScatteringResult of every energy off the square barrier V = v0 on
    [0, width] (a well for v0 < 0), in order: one constant step each. An
    evanescent exponent over OVERFLOW_EXPONENT is refused naming the
    exponent, and a transfer matrix that would leave the double range
    naming the energy."""
    window = _window(0.0, width)
    return _sweep(window, energies, lambda batch: _barrier_steps(v0, window[1], batch),
                  OVERFLOW_EXPONENT, lambda energy, exponent: _overflow(exponent))


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
    V = 0 outside, and its propagator is summed from the exact series of
    the module docstring, _ENERGY_BLOCK energies at a time. Results come
    back in the
    order of energies, each the same whatever energies share its call. A
    series that grows past SERIES_GROWTH, or whose coefficients stop being
    finite, raises ConvergenceFailure; the first energy that fails, in
    input order, raises. The closed-form plane states are never used as the
    free states outside.
    """
    if spec.family not in PLANE_FAMILIES:
        raise ValueError(f"sweep requires a plane family, got {spec.family}")
    window = _window(*window)

    def propagate(batch):
        parts = [_plane_steps(spec, which, window, batch[i:i + _ENERGY_BLOCK])
                 for i in range(0, max(len(batch), 1), _ENERGY_BLOCK)]
        return (np.concatenate([steps for steps, _ in parts], axis=-1),
                np.concatenate([growth for _, growth in parts]))

    return _sweep(window, energies, propagate, SERIES_GROWTH, _unsummable)
