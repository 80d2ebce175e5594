"""The physics gates, each written once.

A gate checks one claim and returns a Gate: its name, whether it passed,
the measured value of its headline condition, the bound that value is held
to, and a detail line with every number the gate looked at. `verify` runs
all nine and writes them to verify.json, `spectrum --q 0` and `scatter
--family barrier` judge their own output with spectrum_q0 and barrier, and
tests/test_acceptance.py runs the same functions. A bound changed here
changes it everywhere.

Where a gate has several conditions, `passed` needs all of them, and
`measured` and `bound` report the headline one. The measured deviation of
negative_control_fails must exceed its bound; every other measured value
must stay below its bound.

Layer functions are called through their modules (spectral.eigenvalues,
not a name imported from spectral), so a wrapper installed on the module
attribute, as perfbench/tracing.py installs one, sees every call.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import scattering, serialize, spectral, states, susy_core
from .susy_core import WELL_FAMILIES, Family, Partner, SuperpotentialSpec

# remainder V2(k) - V1(k + alpha): deviation from its mean (absolute), and
# the error of the mean relative to max(1, |alpha (alpha + 2k)|)
SHAPE_TOL = 1e-10
# the detuned remainder must deviate by more than this
CONTROL_MIN = 1.0
# |-psi'' + V1 psi| / |psi| at E = 0, central difference with h = 1e-4
RESIDUAL_TOL = 1e-6
# that residual at h = 1e-3 over h = 1e-4; second order gives about 100
DECAY_MIN = 10.0
DENSITY_TOL = 1e-12
ASYMMETRY_TOL = 1e-12
# q = 0 box levels, each times max(1, k^2): raw finest grid, extrapolated,
# and V2 level j against V1 level j + 1
RAW_TOL = 1e-3
EXTRAPOLATED_TOL = 1e-6
LADDER_TOL = 1e-4
FLUX_TOL = 1e-10
ORACLE_TOL = 1e-8
# V1 of the cotangent well at the cell midpoint against -q^2 - k^2
MIDPOINT_TOL = 1e-12

EPS_SWEEP = (1e-2, 1e-3, 1e-4)
BARRIER_MULTIPLES = (0.1, 0.5, 2.0, 5.0, 10.0)
Q0_SPEC = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0)
Q2_SPEC = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
# Re g below this, with V1 ~ g/d^2 near a wall, predicts fall to centre
FALL_TO_CENTRE = -0.25

# ground_state_residual samples 9 points of each family at q = 1.5 and, at
# q = 2, one interior point where it also measures the decay in h. There
# the h = 1e-4 residual is still truncation error; where |psi| is small it
# sits at the roundoff floor (about eps/h^2 = 2e-8), and its ratio to the
# h = 1e-3 residual says nothing about the order.
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


def shape_invariance(constraint_frequency=1.0):
    """V2(k; x) - V1(k + alpha; x) is the constant alpha (alpha + 2k) for
    every family, q in {0, 1, 2, 5} and k in {1, 2, 3}. A constraint
    frequency other than 1 detunes the remainder, and the gate must fail."""
    worst = mean_err = 0.0
    holds = True
    for fam in Family:
        for q in (0.0, 1.0, 2.0, 5.0):
            for k in (1.0, 2.0, 3.0):
                spec = SuperpotentialSpec(fam, k, q)
                res = susy_core.check_shape_invariance(
                    spec, _shape_samples(spec), constraint_frequency=constraint_frequency)
                target = spec.alpha * (spec.alpha + 2 * k)
                holds = holds and res.holds
                worst = max(worst, res.max_abs_deviation)
                mean_err = max(mean_err, abs(res.mean - target) / max(1.0, abs(target)))
    passed = holds and worst < SHAPE_TOL and mean_err < SHAPE_TOL
    return Gate("shape_invariance", passed, worst, SHAPE_TOL,
                f"48 cases: max deviation {worst:.3e}, mean error {mean_err:.3e}")


def negative_control_fails():
    """The remainder of the q = 2 cotangent well, detuned to frequency 2,
    is far from constant."""
    spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
    res = susy_core.check_shape_invariance(spec, _shape_samples(spec), constraint_frequency=2.0)
    dev = res.max_abs_deviation
    return Gate("negative_control_fails", not res.holds and dev > CONTROL_MIN, dev, CONTROL_MIN,
                f"detuned deviation {dev:.3e} must exceed {CONTROL_MIN:g}")


def _residual(fam, q, xs, h):
    return np.abs(states.schrodinger_residual(SuperpotentialSpec(fam, 1.0, q), 0.0, xs, h=h))


def ground_state_residual():
    """The closed-form ground state solves its own V1 at E = 0 for every
    family: at q = 1.5 on 9 points 0.4 inside the cell (or across [-2, 2]),
    and at q = 2 on the decay point, where its error is of second order."""
    worst, decay = 0.0, math.inf
    for fam in Family:
        cell = susy_core.fundamental_cell(SuperpotentialSpec(fam, 1.0))
        lo, hi = (cell[0] + 0.4, cell[1] - 0.4) if cell else (-2.0, 2.0)
        x0 = _DECAY_POINTS[fam]
        fine = float(_residual(fam, 2.0, x0, 1e-4))
        worst = max(worst, fine, float(np.max(_residual(fam, 1.5, np.linspace(lo, hi, 9), 1e-4))))
        decay = min(decay, float(_residual(fam, 2.0, x0, 1e-3)) / fine)
    return Gate("ground_state_residual", worst < RESIDUAL_TOL and decay > DECAY_MIN,
                worst, RESIDUAL_TOL,
                f"max residual {worst:.3e} at h=1e-4, decay ratio {decay:.0f} from h=1e-3 "
                f"(needs > {DECAY_MIN:g})")


def density_equality():
    """|psi|^2 of both well ground states does not depend on q in {1, 2, 5},
    on the cell padded by 1/100 and by 1/1000 of its width."""
    worst = 0.0
    for fam in WELL_FAMILIES:
        base = SuperpotentialSpec(fam, 1.0)
        lo, hi = susy_core.fundamental_cell(base)
        span = hi - lo
        xs = np.union1d(np.linspace(lo + span / 100, hi - span / 100, 2000),
                        np.linspace(lo + span / 1000, hi - span / 1000, 2000))
        rho0 = states.probability_density(base, xs)
        for q in (1.0, 2.0, 5.0):
            rho = states.probability_density(SuperpotentialSpec(fam, 1.0, q), xs)
            worst = max(worst, float(np.max(np.abs(rho - rho0))))
    return Gate("density_equality", worst < DENSITY_TOL, worst, DENSITY_TOL,
                f"max gap {worst:.3e}")


def pt_symmetry_wells():
    """V1 and V2 of both wells at q in {1, 2} are PT-symmetric about the
    cell midpoint, sampled on the middle 80% of the cell."""
    worst = 0.0
    for fam in WELL_FAMILIES:
        lo, hi = susy_core.fundamental_cell(SuperpotentialSpec(fam, 1.0))
        span = hi - lo
        window = np.linspace(lo + span / 10, hi - span / 10, 500)
        for q in (1.0, 2.0):
            spec = SuperpotentialSpec(fam, 1.0, q)
            for which in Partner:
                field = susy_core.partner_field(spec, which)
                worst = max(worst, states.pt_asymmetry(field, 0.5 * (lo + hi), window))
    return Gate("pt_symmetry_wells", worst < ASYMMETRY_TOL, worst, ASYMMETRY_TOL,
                f"max asymmetry {worst:.3e}")


def q0_spectra(spec=Q0_SPEC, cell=None, counts=(5, 4), grid=4000):
    """Richardson spectra of V1 and V2, counts[0] and counts[1] levels, on
    the grids grid/4, grid/2 and grid of the natural cell, or of `cell`."""
    lo, hi = cell or susy_core.fundamental_cell(spec)
    grids = (grid // 4, grid // 2, grid)
    return tuple(
        spectral.richardson_spectrum(susy_core.partner_field(spec, which), lo, hi, n, grids)
        for which, n in zip(Partner, counts))


def spectrum_q0(v1, v2, k=1.0, alpha=None):
    """The q = 0 V1 levels on the natural cell are (k + n alpha)^2 - k^2,
    raw on the finest grid and extrapolated, and V2 level j is V1 level
    j + 1 (the partners are isospectral but for the ground state)."""
    scale = max(1.0, k * k)
    exact = [spectral.remainder_spectrum(m, k, alpha) for m in range(len(v1.eigenvalues))]
    raw = max(abs(ev.real - e) for ev, e in zip(v1.eigenvalues, exact))
    rich = max(abs(est - e) for est, e in zip(v1.richardson_estimates, exact))
    iso = spectral.isospectral_check(v1, v2, shift=1)
    bound = EXTRAPOLATED_TOL * scale
    passed = raw < RAW_TOL * scale and rich < bound and iso.max_error <= LADDER_TOL * scale
    return Gate("spectrum_q0", passed, rich, bound,
                f"raw {raw:.3e}, extrapolated {rich:.3e}, ladder {iso.max_error:.3e} "
                f"over {iso.matched} levels")


def barrier(v0=4.0, width=1.0, energies=()):
    """Sweep a square barrier (a well for v0 < 0) and gate the sweep: R + T = 1
    (flux_conservation) and T matches the closed form (barrier_oracle).
    Returns the scattering results and the two gates."""
    energies = energies or tuple(m * abs(v0) for m in BARRIER_MULTIPLES)
    pot = scattering.PiecewisePotential((0.0, width), (scattering.ConstantSegment(v0),))
    results = [scattering.transmission_reflection(pot, energy) for energy in energies]
    defect = max(abs(res.flux_defect) for res in results)
    refs = [scattering.square_barrier_transmission(v0, width, energy) for energy in energies]
    gap = max(abs(res.transmission - ref) / max(abs(ref), 1e-300)
              for res, ref in zip(results, refs))
    return results, (
        Gate("flux_conservation", defect < FLUX_TOL, defect, FLUX_TOL,
             f"max defect {defect:.3e}"),
        Gate("barrier_oracle", gap < ORACLE_TOL, gap, ORACLE_TOL,
             f"max relative gap {gap:.3e}"),
    )


def figure_tables(k, q, epsilon, alpha=None):
    """fig1.csv and fig2.csv as text: V1 (fig1) and V2 (fig2) of both wells
    on 1000 points of the cell truncated by epsilon, beside the q = 0
    baselines (fig1 the cotangent one, fig2 both). `figures` writes these
    tables and figure_determinism renders them, so both see the same."""
    xs = np.linspace(epsilon, math.pi / k - epsilon, 1000)
    wells = [SuperpotentialSpec(fam, k, q, alpha) for fam in WELL_FAMILIES]
    bases = [SuperpotentialSpec(fam, k, 0.0, alpha) for fam in WELL_FAMILIES]
    tables = {}
    for which, base_names in ((Partner.V1, ["V1_q0"]), (Partner.V2, ["V2_c_q0", "V2_t_q0"])):
        # Python floats: iterating the arrays would build a numpy scalar per number
        header, columns = ["x"], [xs.tolist()]
        for spec, tag in zip(wells, ("c", "t")):
            values = susy_core.eval_partner(spec, which, xs)
            header += [f"{which.name}_{tag}_re", f"{which.name}_{tag}_im"]
            columns += [values.real.tolist(), values.imag.tolist()]
        for spec, name in zip(bases, base_names):
            header.append(name)
            columns.append(susy_core.eval_partner(spec, which, xs).real.tolist())
        tables[f"fig{which.value}.csv"] = serialize.csv_text(header, zip(*columns))
    return tables


def figure_determinism():
    """The figure tables of the `figures` defaults render byte-identically
    twice, their cotangent V1 is -q^2 - k^2 at the cell midpoint, and their
    q = 0 V1 column is exactly -k^2."""
    k, q, epsilon = 1.0, 2.0, 1e-3
    first, second = figure_tables(k, q, epsilon), figure_tables(k, q, epsilon)
    same = first == second
    spec = SuperpotentialSpec(Family.COTANGENT_WELL, k, q)
    mid = abs(susy_core.eval_partner(spec, Partner.V1, math.pi / (2 * k)) + q * q + k * k)
    flat = all(float(line.split(",")[5]) == -k * k
               for line in first["fig1.csv"].splitlines()[1:])
    return Gate("figure_determinism", same and mid < MIDPOINT_TOL and flat, mid, MIDPOINT_TOL,
                f"reruns identical: {same}; midpoint V1 error {mid:.1e}; "
                f"q=0 column pinned at {-k * k:g}: {flat}")


def verify_gates(negative_control=False, v0=4.0, width=1.0):
    """All nine gates, in report order. negative_control detunes
    shape_invariance, which must then fail."""
    return [
        shape_invariance(2.0 if negative_control else 1.0),
        negative_control_fails(),
        ground_state_residual(),
        density_equality(),
        pt_symmetry_wells(),
        spectrum_q0(*q0_spectra()),
        *barrier(v0, width)[1],
        figure_determinism(),
    ]


def truncation_survey(spec=Q2_SPEC, cell=None, count=4, grids=(200, 400, 800),
                      eps_values=EPS_SWEEP):
    """Not a gate: Richardson spectra of V1 and V2 on the cell (the natural
    one by default) truncated by each of eps_values, recorded because at
    q != 0 they do not converge as the truncation shrinks (see
    exploratory_record). Yields (eps, {"v1": block, "v2": block}) per
    truncation as it is solved, each block a survey_payload."""
    lo, hi = cell or susy_core.fundamental_cell(spec)
    for eps in eps_values:
        yield eps, {
            which.name.lower(): spectral.richardson_spectrum(
                susy_core.partner_field(spec, which), lo + eps, hi - eps, count, grids,
            ).survey_payload()
            for which in Partner
        }


def exploratory_record():
    """Not a gate: the pole coupling g of V1 of the q = 2 cotangent well,
    which says whether its truncated-box spectra can converge, and the PT
    asymmetry of V1 of a plane partner about pi/(2 alpha), where both plane
    families are PT-symmetric. `spectrum` records those spectra; a note
    names the command."""
    spec = Q2_SPEC
    g = susy_core.pole_coupling(spec)
    falls = g.real < FALL_TO_CENTRE
    coupling = {"family": spec.family.value, "k": spec.k, "q": spec.q, "alpha": spec.alpha,
                "lower_wall": [g.real, g.imag], "upper_wall": [g.real, -g.imag],
                "re_g": g.real, "fall_to_centre": falls}
    plane_spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0)
    centre = math.pi / (2 * plane_spec.alpha)
    plane = susy_core.partner_field(plane_spec, Partner.V1)
    plane_asym = states.pt_asymmetry(plane, centre, centre + np.linspace(-2.0, 2.0, 500))
    notes = [
        f"V1 ~ g/d^2 at distance d from the walls: g = {g.real:g}{g.imag:+g}i at the lower "
        f"wall, its conjugate at the upper; Re g {'<' if falls else '>='} {FALL_TO_CENTRE:g}, "
        f"so fall to centre is {'predicted' if falls else 'not predicted'}",
        f"truncated-box spectra: susywell spectrum --family {spec.family.value} --q {spec.q:g}",
        f"plane family PT asymmetry about pi/(2 alpha) = {centre:.6f}: {plane_asym:.3e} "
        f"(recorded, not gated)",
    ]
    return {"pole_coupling": coupling, "plane_asymmetry": plane_asym, "notes": notes}
