"""The physics gates, each written once.

A gate checks one claim and returns a Gate: its name, whether it passed,
the measured value of its headline condition, the bound that value is held
to, and a detail line with every number the gate looked at. `verify` and
tests/test_acceptance.py run the table CHECKS, which also gives the paper
claim that each check supports; `spectrum --q 0` and `scatter --family
barrier` judge their own output with spectrum_q0 and barrier. A bound
changed here changes it everywhere.

Where a gate has several conditions, `passed` needs all of them, and
`measured` and `bound` report the headline one, whose measured value must
stay below its bound. A control that a blind checker fails, one that must
read above its own minimum, is a further condition of its gate.

Layer functions are called through their modules (spectral.eigenvalues,
not a name imported from spectral), so a wrapper installed on the module
attribute, as perfbench/tracing.py installs one, sees every call.
"""

from __future__ import annotations

import io
import itertools
import math
from typing import NamedTuple

import numpy as np

from . import scattering, serialize, spectral, states, susy_core
from .susy_core import PLANE_FAMILIES, WELL_FAMILIES, Family, Partner, SuperpotentialSpec

# remainder V2(k) - V1(k + alpha): deviation from its mean (absolute), and
# the error of the mean relative to max(1, |alpha (alpha + 2k)|)
SHAPE_TOL = 1e-10
# the unshifted pair V2(k) - V1(k) = 2W' of the q = 2 cotangent well must
# deviate from its mean by more than this
CONTROL_MIN = 1.0
# |-psi'' + V1 psi| / |psi| at E = 0, the Richardson combination
# (4 R(h/2) - R(h)) / 3 of the central-difference residuals R at h = 2e-3
RESIDUAL_TOL = 1e-6
RESIDUAL_STEP = 2e-3
# the residual at h = 1e-3 over h = 1e-4; second order gives about 100
DECAY_MIN = 10.0
DENSITY_TOL = 1e-12
ASYMMETRY_TOL = 1e-12
# the PT asymmetry about each offset centre of pt_symmetry must exceed this
PT_CONTROL_MIN = 1.0
# q = 0 box levels, each times max(1, k^2): raw finest grid, extrapolated,
# and V2 level j against V1 level j + 1
RAW_TOL = 1e-3
EXTRAPOLATED_TOL = 1e-6
LADDER_TOL = 1e-4
FLUX_TOL = 1e-10
ORACLE_TOL = 1e-8
INTERTWINING_TOL = 1e-6
# V1 of the cotangent well at the cell midpoint against -q^2 - k^2
MIDPOINT_TOL = 1e-12
# figure tables: tangent columns against cotangent ones, over max(1, |cot|)
TRANSLATION_TOL = 1e-11

# the defaults that the gates pin and `cli` reads: the finest q = 0 grid,
# the level count, the exploratory grids, the barrier's height and width,
# the `figures` coupling and edge truncation, and the barrier energies in
# units of |v0|
GRID = 4000
COUNT = 4
EXPLORATORY_GRIDS = (200, 400, 800)
BARRIER_V0 = 4.0
BARRIER_WIDTH = 1.0
FIGURE_Q = 2.0
EPSILON = 1e-3
BARRIER_MULTIPLES = (0.1, 0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0)
Q0_SPEC = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0)
Q2_SPEC = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)

# ground_state_residual samples 9 points of each family at alpha = k and 2k
# and q = 1.5 and 2, and at alpha = k, q = 2 one interior point where it
# also measures the decay in h. There the h = 1e-4 residual is still
# truncation error; where |psi| is small it sits at the roundoff floor
# (about eps/h^2 = 2e-8), and its ratio to the h = 1e-3 residual says
# nothing about the order. The gated residual cancels the h^2 term instead,
# from steps large enough (2e-3 and 1e-3) to keep the roundoff of the
# second difference near 1e-9. No step below k is sampled: at alpha = k/2
# the points 0.4 inside the wider cell sit where |psi| is about 0.04, and
# the residual, divided by |psi|, reads 1.9e-8.
_DECAY_POINTS = {
    Family.COTANGENT_WELL: 1.0,
    Family.TANGENT_WELL: 0.6,
    Family.PLANE_RIGHT: 0.5,
    Family.PLANE_LEFT: 0.5,
}


class Gate(NamedTuple):
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name} ({self.detail})"


def _worst(readings):
    """The largest reading as a float, nan if any reading is nan: Python's
    max and min drop a nan that is not their first argument, np.max keeps
    it, and a nan then fails every `worst < bound`."""
    return float(np.max(readings))


def _shape_samples(spec):
    """1000 points of the cell padded by 1/50 of its width and 1000 padded
    by 0.05/k; on the line, 1000 points of [-3, 3] and of [-3/k, 3/k]."""
    cell = susy_core.fundamental_cell(spec)
    if cell is None:
        line = np.linspace(-3.0, 3.0, 1000)
        return np.union1d(line, line / spec.k)
    lo, hi = cell
    pad, edge = (hi - lo) / 50, 0.05 / spec.k
    return np.union1d(np.linspace(lo + pad, hi - pad, 1000),
                      np.linspace(lo + edge, hi - edge, 1000))


def _spread(values):
    """(mean, largest |value - mean|) of the values."""
    mean = complex(np.mean(values))
    return mean, float(np.max(np.abs(values - mean)))


def shape_invariance():
    """V2(k; x) - V1(k + alpha; x) is the constant alpha (alpha + 2k) for
    every family, q in {0, 1, 2, 5} and k in {1, 2, 3}; and, as a control
    that a blind checker fails, the unshifted pair V2(k) - V1(k) = 2W' of
    the q = 2 cotangent well is far from constant."""
    deviations, mean_errs = [], []
    for fam, q, k in itertools.product(Family, (0.0, 1.0, 2.0, 5.0), (1.0, 2.0, 3.0)):
        spec = SuperpotentialSpec(fam, k, q)
        xs = _shape_samples(spec)
        mean, deviation = _spread(susy_core.eval_partner(spec, Partner.V2, xs)
                                  - susy_core.eval_partner(spec.shifted(), Partner.V1, xs))
        target = spec.alpha * (spec.alpha + 2 * k)
        deviations.append(deviation)
        mean_errs.append(abs(mean - target) / max(1.0, abs(target)))
    xs = _shape_samples(Q2_SPEC)
    _, control = _spread(susy_core.eval_partner(Q2_SPEC, Partner.V2, xs)
                         - susy_core.eval_partner(Q2_SPEC, Partner.V1, xs))
    worst, mean_err = _worst(deviations), _worst(mean_errs)
    passed = bool(worst < SHAPE_TOL and mean_err < SHAPE_TOL and control > CONTROL_MIN)
    return Gate("shape_invariance", passed, worst, SHAPE_TOL,
                f"48 cases: max deviation {worst:.3e}, mean error {mean_err:.3e}, "
                f"unshifted control {control:.3e} (needs > {CONTROL_MIN:g})")


def _residual(spec, xs, h):
    return states.schrodinger_residual(spec, 0.0, xs, h=h)


def ground_state_residual():
    """The closed-form ground state solves its own V1 at E = 0 for every
    family at k = 1, with alpha = k and alpha = 2k, at q = 1.5 and 2 on 9
    points 0.4 inside the cell (or across [-2, 2]), measured by the
    Richardson combination of two steps; and at alpha = k, q = 2 on the
    decay point the plain residual is of second order."""
    residuals, steps = [], []
    for fam in Family:
        for alpha in (1.0, 2.0):
            cell = susy_core.fundamental_cell(SuperpotentialSpec(fam, 1.0, alpha=alpha))
            xs = np.linspace(*((cell[0] + 0.4, cell[1] - 0.4) if cell else (-2.0, 2.0)), 9)
            for q in (1.5, 2.0):
                spec = SuperpotentialSpec(fam, 1.0, q, alpha)
                rich = (4 * _residual(spec, xs, RESIDUAL_STEP / 2)
                        - _residual(spec, xs, RESIDUAL_STEP)) / 3
                residuals.append(np.abs(rich))
        spec, x0 = SuperpotentialSpec(fam, 1.0, 2.0), _DECAY_POINTS[fam]
        steps.append([abs(_residual(spec, x0, h)) for h in (1e-3, 1e-4)])
    worst = _worst(residuals)
    coarse, fine = np.array(steps).T
    # the least ratio; two zero residuals give 0/0 = nan, which fails
    with np.errstate(divide="ignore", invalid="ignore"):
        decay = -_worst(-coarse / fine)
    return Gate("ground_state_residual", bool(worst < RESIDUAL_TOL and decay > DECAY_MIN),
                worst, RESIDUAL_TOL,
                f"max residual {worst:.3e} by Richardson from h={RESIDUAL_STEP:g} and "
                f"{RESIDUAL_STEP / 2:g}, decay ratio {decay:.0f} from h=1e-3 to 1e-4 "
                f"(needs > {DECAY_MIN:g})")


def density_equality():
    """|psi|^2 of both well ground states at q in {0, 1, 2, 5} is its closed
    form |sin alpha x|^(2k/alpha) (cotangent well) or |cos alpha x|^(2k/alpha)
    (tangent well), and so does not depend on q, on the cell padded by 1/100
    and by 1/1000 of its width."""
    gaps = []
    for fam in WELL_FAMILIES:
        base = SuperpotentialSpec(fam, 1.0)
        lo, hi = susy_core.fundamental_cell(base)
        span = hi - lo
        xs = np.union1d(np.linspace(lo + span / 100, hi - span / 100, 2000),
                        np.linspace(lo + span / 1000, hi - span / 1000, 2000))
        modulus = np.sin if fam is Family.COTANGENT_WELL else np.cos
        exact = np.abs(modulus(base.alpha * xs)) ** (2 * base.k / base.alpha)
        for q in (0.0, 1.0, 2.0, 5.0):
            rho = states.probability_density(SuperpotentialSpec(fam, 1.0, q), xs)
            gaps.append(np.max(np.abs(rho - exact)))
    worst = _worst(gaps)
    return Gate("density_equality", bool(worst < DENSITY_TOL), worst, DENSITY_TOL,
                f"max gap {worst:.3e}")


def pt_symmetry():
    """V1 and V2 of both wells and both planes at q in {1, 2} are
    PT-symmetric about their centre, and, as a control that a blind checker
    fails, far from PT-symmetric about an offset centre. A well at k = 1 is
    centred at its cell midpoint, sampled on the middle 80% of the cell and
    offset by 1/100 of the cell; a plane at (k, alpha) in {(1, 1), (1.3, 0.7)}
    is centred at pi/(2 alpha), sampled on one period about it and offset by
    pi/(4 alpha)."""
    cases = []
    for fam in WELL_FAMILIES:
        lo, hi = susy_core.fundamental_cell(SuperpotentialSpec(fam, 1.0))
        span, mid = hi - lo, 0.5 * (lo + hi)
        cases.append((fam, 1.0, 1.0, mid, np.linspace(lo + span / 10, hi - span / 10, 500),
                      mid + span / 100))
    for fam, (k, alpha) in itertools.product(PLANE_FAMILIES, ((1.0, 1.0), (1.3, 0.7))):
        centre, half = math.pi / (2 * alpha), math.pi / alpha
        cases.append((fam, k, alpha, centre, np.linspace(centre - half, centre + half, 500),
                      centre + half / 4))
    asymmetries, controls = [], []
    for fam, k, alpha, centre, window, offset in cases:
        for q in (1.0, 2.0):
            spec = SuperpotentialSpec(fam, k, q, alpha)
            for which in Partner:
                field = susy_core.partner_field(spec, which)
                asymmetries.append(states.pt_asymmetry(field, centre, window))
                controls.append(states.pt_asymmetry(field, offset, window))
    worst = _worst(asymmetries)
    # the least control reading; a nan fails
    control = -_worst(np.negative(controls))
    passed = bool(worst < ASYMMETRY_TOL and control > PT_CONTROL_MIN)
    return Gate("pt_symmetry", passed, worst, ASYMMETRY_TOL,
                f"{len(asymmetries)} partners: max asymmetry {worst:.3e}, off-centre control "
                f"{control:.3e} (needs > {PT_CONTROL_MIN:g})")


def box_spectra(spec=Q0_SPEC, cell=None, counts=(COUNT + 1, COUNT),
                grids=(GRID // 4, GRID // 2, GRID)):
    """Richardson spectra of V1 and V2, counts[0] and counts[1] levels, on
    the grids of the natural cell, or of `cell`.

    On the natural cell the coarsest grid is handed the ladder that
    spectrum_q0 gates, V1 level m at (k + m alpha)^2 - k^2 and V2 level m at
    V1 level m + 1, as its guess; any other cell, such as the cell truncated
    by epsilon that `spectrum` records at q != 0, is bisected."""
    natural = susy_core.fundamental_cell(spec)
    lo, hi = cell or natural
    return tuple(
        spectral.richardson_spectrum(
            susy_core.partner_field(spec, which), lo, hi, n, grids,
            guess=[states.remainder_spectrum(m + which.value - 1, spec.k, spec.alpha)
                   for m in range(n)] if (lo, hi) == natural else None)
        for which, n in zip(Partner, counts))


def spectrum_q0(v1, v2, k=1.0, alpha=None):
    """The q = 0 V1 levels on the natural cell are (k + n alpha)^2 - k^2,
    raw on the finest grid and extrapolated, and V2 level j is V1 level
    j + 1 (the partners are isospectral but for the ground state). Reports
    too short to pair one level fail, with an infinite ladder error."""
    scale = max(1.0, k * k)
    exact = [states.remainder_spectrum(m, k, alpha) for m in range(len(v1.eigenvalues))]
    raw = _worst([abs(ev.real - e) for ev, e in zip(v1.eigenvalues, exact)])
    rich = _worst([abs(est - e) for est, e in zip(v1.richardson_estimates, exact)])
    pairs = [abs(e2 - e1) for e2, e1 in zip(v2.eigenvalues, v1.eigenvalues[1:])]
    ladder = _worst(pairs) if pairs else math.inf
    bound = EXTRAPOLATED_TOL * scale
    passed = bool(raw < RAW_TOL * scale and rich < bound and ladder <= LADDER_TOL * scale)
    return Gate("spectrum_q0", passed, rich, bound,
                f"raw {raw:.3e}, extrapolated {rich:.3e}, ladder {ladder:.3e} "
                f"over {len(pairs)} levels")


def barrier(v0=BARRIER_V0, width=BARRIER_WIDTH, energies=()):
    """Sweep a square barrier (a well for v0 < 0) and gate the sweep: R + T = 1
    (flux_conservation) and T matches the closed form (barrier_oracle).
    Returns the scattering results and the two gates."""
    energies = energies or tuple(m * abs(v0) for m in BARRIER_MULTIPLES)
    results = scattering.barrier_sweep(v0, width, energies)
    refs = [scattering.square_barrier_transmission(v0, width, energy) for energy in energies]
    defect = _worst([abs(res.flux_defect) for res in results])
    gap = _worst([abs(res.transmission - ref) / max(abs(ref), 1e-300)
                  for res, ref in zip(results, refs)])
    return results, (
        Gate("flux_conservation", bool(defect < FLUX_TOL), defect, FLUX_TOL,
             f"max defect {defect:.3e}"),
        Gate("barrier_oracle", bool(gap < ORACLE_TOL), gap, ORACLE_TOL,
             f"max relative gap {gap:.3e}"),
    )


def _carried(spec, x, k0):
    """Lam = [[W, 1], [W^2 - k0^2, W]] at x in the basis of e^{-+i k0 x}."""
    w, wave = susy_core.eval_superpotential(spec, x), np.exp(1j * k0 * x)
    waves = np.array([[wave, 1 / wave], [1j * k0 * wave, -1j * k0 / wave]])
    return np.linalg.solve(waves, np.array([[w, 1], [w * w - k0 * k0, w]]) @ waves)


def partner_intertwining():
    """A = d/dx + W takes V1 solutions to V2 ones, so the (psi, psi')
    propagators across a window (a, b) obey P2 = Lam(b) P1 Lam(a)^-1, and a V1
    sweep (r, t, r_right, det M = 1) predicts V2's r and t, each to within
    INTERTWINING_TOL max(1, |r|, |t|): both plane families, k = 1, q in
    {0.5, 1, 2}, windows (0, 2 pi) and pi/2 -+ pi, E/k^2 in {0.25, 0.5, 1,
    1.5, 2, 5}. Not 3: there kappa = sqrt(E + k^2) = 2 is the Bragg point
    4 alpha/2, where a sweep with q flipped meets the identity to 8e-12."""
    gaps = []
    windows = ((0.0, 2 * math.pi), (-math.pi / 2, 3 * math.pi / 2))
    for fam, q, window in itertools.product(PLANE_FAMILIES, (0.5, 1.0, 2.0), windows):
        spec = SuperpotentialSpec(fam, 1.0, q)
        for one, two in zip(*(scattering.plane_partner_sweep(
                spec, which, window, (0.25, 0.5, 1.0, 1.5, 2.0, 5.0)) for which in Partner)):
            m22, k0 = 1 / one.t, math.sqrt(one.energy)
            m12, m21 = one.r_right * m22, -one.r * m22
            m2 = (_carried(spec, window[1], k0) @ [[(1 + m12 * m21) / m22, m12], [m21, m22]]
                  @ np.linalg.inv(_carried(spec, window[0], k0)))
            gap = _worst([abs(-m2[1, 0] / m2[1, 1] - two.r), abs(1 / m2[1, 1] - two.t)])
            gaps.append(gap / max(1.0, abs(two.r), abs(two.t)))
    worst = _worst(gaps)
    return Gate("partner_intertwining", bool(worst < INTERTWINING_TOL), worst, INTERTWINING_TOL,
                f"{len(gaps)} plane points, E = 3k^2 (Bragg) left out: max gap {worst:.3e}")


def figure_tables(k, q, epsilon, alpha=None):
    """fig1.csv and fig2.csv, as `figures` writes them: V1 (fig1) and V2
    (fig2) of both wells beside the q = 0 baselines (fig1 the cotangent one,
    fig2 both) on 1000 points x of (epsilon, pi/max(k, alpha) - epsilon), each
    well at x plus the lower end of its own cell. So the tangent columns repeat
    the cotangent ones to roundoff: the translation check of figure_determinism."""
    xs = np.linspace(epsilon, math.pi / max(k, alpha or k) - epsilon, 1000)
    wells = [SuperpotentialSpec(fam, k, q, alpha) for fam in WELL_FAMILIES]
    bases = [SuperpotentialSpec(fam, k, 0.0, alpha) for fam in WELL_FAMILIES]
    points = [xs + susy_core.fundamental_cell(spec)[0] for spec in wells]
    tables = {}
    for which, base_names in ((Partner.V1, ["V1_q0"]), (Partner.V2, ["V2_c_q0", "V2_t_q0"])):
        # Python floats: iterating the arrays would build a numpy scalar per number
        header, columns = ["x"], [xs.tolist()]
        for spec, at, tag in zip(wells, points, ("c", "t")):
            values = susy_core.eval_partner(spec, which, at)
            header += [f"{which.name}_{tag}_re", f"{which.name}_{tag}_im"]
            columns += [values.real.tolist(), values.imag.tolist()]
        for spec, at, name in zip(bases, points, base_names):
            header.append(name)
            columns.append(susy_core.eval_partner(spec, which, at).real.tolist())
        tables[f"fig{which.value}.csv"] = serialize.csv_text(header, zip(*columns))
    return tables


def figure_determinism():
    """The figure tables of the `figures` defaults render byte-identically
    twice, their cotangent V1 is -q^2 - k^2 at the cell midpoint, their
    q = 0 V1 column is exactly -k^2, and every tangent column is finite and
    within TRANSLATION_TOL of its cotangent column."""
    k, q, epsilon = 1.0, FIGURE_Q, EPSILON
    first, second = figure_tables(k, q, epsilon), figure_tables(k, q, epsilon)
    same = first == second
    spec = SuperpotentialSpec(Family.COTANGENT_WELL, k, q)
    mid = abs(susy_core.eval_partner(spec, Partner.V1, math.pi / (2 * k)) + q * q + k * k)
    flat = all(float(line.split(",")[5]) == -k * k
               for line in first["fig1.csv"].splitlines()[1:])
    gaps = []
    for table in first.values():
        names = table.partition("\n")[0].split(",")
        columns = np.loadtxt(io.StringIO(table), delimiter=",", skiprows=1).T
        for values, name in zip(columns, names):
            if "_t_" in name:
                cot = columns[names.index(name.replace("_t_", "_c_"))]
                gaps.append(np.abs(values - cot) / np.maximum(1.0, np.abs(cot)))
    shift = _worst(gaps)
    passed = bool(same and mid < MIDPOINT_TOL and flat and shift <= TRANSLATION_TOL)
    return Gate("figure_determinism", passed, mid, MIDPOINT_TOL,
                f"reruns identical: {same}; midpoint V1 error {mid:.1e}; "
                f"q=0 column pinned at {-k * k:g}: {flat}; "
                f"tangent columns off the cotangent ones by {shift:.1e}")


# the paper's claims, and "method" for the solvers and outputs themselves
CLAIMS = {"a": "the partners are complex",
          "b": "the partners are isospectral, with real energies",
          "c": "PT symmetry is unbroken only for the bound states",
          "method": "the solvers and outputs themselves are right"}

# verify's checks in report order: its claim, and a callable giving its Gate(s)
CHECKS = (("b", shape_invariance), ("b", ground_state_residual),
          ("a", density_equality), ("a", pt_symmetry),
          ("b", lambda: spectrum_q0(*box_spectra())),
          ("method", lambda: barrier()[1]), ("method", figure_determinism),
          ("b", partner_intertwining))


def verify_gates(checks=CHECKS):
    """(claim, gate) for every gate of checks, in order. A Gate is a tuple
    too, so a callable's one Gate is told from its Gates by type."""
    return [(claim, gate) for claim, run in checks for out in [run()]
            for gate in ([out] if isinstance(out, Gate) else out)]
