"""Tests for the shared gates: each one fails when its claim is broken."""

import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from susywell import gates, scattering, states, susy_core
from susywell.cli import main, survey_payload
from susywell.spectral import richardson_spectrum
from susywell.susy_core import (
    PLANE_FAMILIES,
    Family,
    Partner,
    SuperpotentialSpec,
    partner_field,
)


def test_detuned_remainder_fails_shape_invariance(monkeypatch):
    # every step up the ladder goes k -> k + 2 alpha
    monkeypatch.setattr(SuperpotentialSpec, "shifted",
                        lambda spec: replace(spec, k=spec.k + 2 * spec.alpha))
    gate = gates.shape_invariance()
    assert not gate.passed
    assert gate.measured > gate.bound


def test_ground_state_residual_measures_the_claim_not_the_step():
    # the plain h = 1e-4 residual reads up to 9.9e-7 at q = 2 against the
    # 1e-6 bound; the Richardson pair cancels its h^2 term
    gate = gates.ground_state_residual()
    assert gate.passed, gate.detail
    assert gate.measured < 1e-2 * gate.bound


def test_ground_state_residual_fails_a_state_of_the_other_q(monkeypatch):
    # psi of -q does not solve the V1 of q
    ground = states._ground_state
    monkeypatch.setattr(states, "_ground_state",
                        lambda twin, ys: ground(replace(twin, q=-twin.q), ys))
    gate = gates.ground_state_residual()
    assert gate.passed is False
    assert gate.measured > gate.bound


def test_density_equality_fails_a_q_dependent_modulus(monkeypatch):
    wavefunction = states.eval_wavefunction
    monkeypatch.setattr(states, "eval_wavefunction", lambda spec, x: (
        wavefunction(spec, x) * np.exp(0.01 * spec.q * np.asarray(x))))
    gate = gates.density_equality()
    assert gate.passed is False
    assert gate.measured > 0.1


def test_pt_symmetry_fails_a_field_off_its_centre(monkeypatch):
    # each partner sampled 1e-3 to the right: its PT centre moves off the
    # cell midpoint
    field = susy_core.partner_field
    monkeypatch.setattr(susy_core, "partner_field", lambda spec, which: (
        lambda x: field(spec, which)(np.asarray(x) + 1e-3)))
    gate = gates.pt_symmetry()
    assert gate.passed is False
    assert gate.measured > 0.1


def test_spectrum_q0_fails_a_misaligned_ladder():
    v1, v2 = gates.box_spectra(counts=(4, 3), grids=(250, 500, 1000))
    gate = gates.spectrum_q0(v1, v2)
    assert gate.passed, gate.detail
    assert gate.detail.endswith("over 3 levels")
    # V1 against itself is one level off everywhere: 3, 5, 7 apart
    gate = gates.spectrum_q0(v1, v1)
    assert not gate.passed
    assert "ladder 7.000e+00" in gate.detail
    # V2 offset by 1: the V1 levels alone still pass, only the pairing fails
    gate = gates.spectrum_q0(v1, replace(v2, eigenvalues=v2.eigenvalues + 1.0))
    assert not gate.passed
    assert gate.measured < gate.bound
    assert "ladder 1.000e+00 over 3 levels" in gate.detail


def test_spectrum_q0_fails_a_one_level_v1_without_raising():
    v1, v2 = gates.box_spectra(counts=(1, 1), grids=(250, 500, 1000))
    gate = gates.spectrum_q0(v1, v2)
    assert not gate.passed
    assert gate.detail.endswith("ladder inf over 0 levels")


def test_spectrum_q0_scales_with_k():
    spec = SuperpotentialSpec(Family.COTANGENT_WELL, 2.0, 0.0)
    v1, v2 = gates.box_spectra(spec, counts=(4, 4), grids=(1000, 2000, 4000))
    gate = gates.spectrum_q0(v1, v2, k=2.0)
    assert gate.passed, gate.detail
    assert gate.bound == pytest.approx(4.0 * gates.EXTRAPOLATED_TOL)


def test_barrier_gates_judge_the_given_energies():
    results, (flux, oracle) = gates.barrier(4.0, 1.0, (0.5, 4.0, 9.0))
    assert [res.energy for res in results] == [0.5, 4.0, 9.0]
    assert flux.passed and oracle.passed
    assert (flux.bound, oracle.bound) == (gates.FLUX_TOL, gates.ORACLE_TOL)


@pytest.mark.parametrize("field, value, index", [("flux_defect", math.nan, 0),
                                                  ("t", complex(math.nan, 0.0), 1)],
                         ids=["flux_conservation", "barrier_oracle"])
def test_a_nan_at_a_later_energy_fails_the_barrier_gates(monkeypatch, field, value, index):
    # Python's max drops a nan that is not its first argument; np.max keeps it
    sweep = scattering.barrier_sweep

    def with_nan(v0, width, energies):
        results = sweep(v0, width, energies)
        results[1] = replace(results[1], **{field: value})
        return results

    monkeypatch.setattr(scattering, "barrier_sweep", with_nan)
    _, checks = gates.barrier(4.0, 1.0, (0.5, 4.0, 9.0))
    assert checks[index].passed is False
    assert math.isnan(checks[index].measured)
    assert checks[1 - index].passed is True


def nan_at(array, index):
    out = np.array(array, dtype=np.result_type(array, float))
    out[index] = math.nan
    return out


def nan_on_call(monkeypatch, module, name, call, spoil):
    """Replace module.name by a wrapper that hands its result of the given
    call (counted from 1) through spoil; the other calls pass untouched."""
    original, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(None)
        out = original(*args, **kwargs)
        return spoil(out) if len(calls) == call else out

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("call, spoil, reading", [
    (5, lambda spread: (spread[0], math.nan), "max deviation nan"),
    (5, lambda spread: (math.nan, spread[1]), "mean error nan"),
    # the 49th spread is the unshifted control's
    (49, lambda spread: (spread[0], math.nan), "unshifted control nan"),
], ids=["deviation", "mean", "control"])
def test_a_nan_in_a_later_case_fails_shape_invariance(monkeypatch, call, spoil, reading):
    # Python's max drops a nan that is not its first argument; np.max keeps it
    nan_on_call(monkeypatch, gates, "_spread", call, spoil)
    gate = gates.shape_invariance()
    assert gate.passed is False
    assert reading in gate.detail


def test_a_nan_residual_in_a_later_case_fails_ground_state_residual(monkeypatch):
    residual = states.schrodinger_residual

    def with_nan(spec, energy, x, h=1e-4):
        out = residual(spec, energy, x, h=h)
        late = spec.family is Family.PLANE_LEFT and np.ndim(x) and h == gates.RESIDUAL_STEP / 2
        return nan_at(out, 4) if late else out

    monkeypatch.setattr(states, "schrodinger_residual", with_nan)
    gate = gates.ground_state_residual()
    assert gate.passed is False
    assert math.isnan(gate.measured)


def test_a_zero_over_zero_decay_fails_ground_state_residual(monkeypatch):
    # both decay residuals of the last family vanish: their ratio 0/0 is no
    # evidence of second order, so it must not pass as one
    residual = states.schrodinger_residual

    def vanishing(spec, energy, x, h=1e-4):
        if spec.family is Family.PLANE_LEFT and np.ndim(x) == 0:
            return 0j
        return residual(spec, energy, x, h=h)

    monkeypatch.setattr(states, "schrodinger_residual", vanishing)
    gate = gates.ground_state_residual()
    assert gate.passed is False
    assert gate.measured < gate.bound
    assert "decay ratio nan" in gate.detail


def test_a_nan_density_in_a_later_case_fails_density_equality(monkeypatch):
    nan_on_call(monkeypatch, states, "probability_density", 6, lambda rho: nan_at(rho, 10))
    gate = gates.density_equality()
    assert gate.passed is False
    assert math.isnan(gate.measured)


@pytest.mark.parametrize("call", [3, 47])
def test_a_nan_asymmetry_in_a_later_case_fails_pt_symmetry(monkeypatch, call):
    # call 3 is the asymmetry of a well partner, call 47 that of the last
    # plane partner
    nan_on_call(monkeypatch, states, "pt_asymmetry", call, lambda asym: math.nan)
    gate = gates.pt_symmetry()
    assert gate.passed is False
    assert math.isnan(gate.measured)


@pytest.mark.parametrize("call", [4, 48])
def test_a_nan_control_in_a_later_case_fails_pt_symmetry(monkeypatch, call):
    # call 4 is the off-centre control of the second well partner, call 48
    # that of the last plane partner
    nan_on_call(monkeypatch, states, "pt_asymmetry", call, lambda asym: math.nan)
    gate = gates.pt_symmetry()
    assert gate.passed is False
    assert gate.measured < gate.bound
    assert "off-centre control nan" in gate.detail


def exact_q0_reports():
    """Reports of V1 (4 levels) and V2 (3 levels) that hold the exact q = 0
    ladder of k = alpha = 1, as spectrum_q0 reads them."""
    exact = np.array([states.remainder_spectrum(m, 1.0) for m in range(4)])
    return (SimpleNamespace(eigenvalues=exact.astype(complex), richardson_estimates=exact),
            SimpleNamespace(eigenvalues=exact[1:].astype(complex)))


@pytest.mark.parametrize("report, field, reading", [
    (0, "eigenvalues", "raw nan"),
    (0, "richardson_estimates", "extrapolated nan"),
    (1, "eigenvalues", "ladder nan"),
], ids=["raw", "extrapolated", "ladder"])
def test_a_nan_at_a_later_level_fails_spectrum_q0(report, field, reading):
    reports = exact_q0_reports()
    gate = gates.spectrum_q0(*reports)
    assert gate.passed is True, gate.detail
    setattr(reports[report], field, nan_at(getattr(reports[report], field), 2))
    gate = gates.spectrum_q0(*reports)
    assert gate.passed is False
    assert reading in gate.detail


def test_a_nan_t_at_a_later_energy_fails_partner_intertwining(monkeypatch):
    # a nan V2 t beside a finite r: the per-point max of the two must keep it
    sweep = scattering.plane_partner_sweep

    def with_nan(spec, which, window, energies):
        results = sweep(spec, which, window, energies)
        if which is Partner.V2 and spec.family is Family.PLANE_LEFT and spec.q == 2.0:
            results[3] = replace(results[3], t=complex(math.nan, 0.0))
        return results

    monkeypatch.setattr(scattering, "plane_partner_sweep", with_nan)
    gate = gates.partner_intertwining()
    assert gate.passed is False
    assert math.isnan(gate.measured)


def test_partner_intertwining_passes_at_the_defaults():
    gate = gates.partner_intertwining()
    assert gate.passed is True, gate.detail
    assert type(gate.measured) is float and gate.measured < 1e-11
    assert gate.bound == gates.INTERTWINING_TOL
    assert gate.detail.startswith("72 plane points")


def test_partner_intertwining_fails_a_sweep_with_q_flipped(monkeypatch):
    # V flipped inside the sweep, W left alone: V2 no longer intertwines with V1
    coefficients = susy_core.plane_coefficients
    monkeypatch.setattr(scattering, "plane_coefficients",
                        lambda spec, which: coefficients(replace(spec, q=-spec.q), which))
    gate = gates.partner_intertwining()
    assert gate.passed is False
    assert gate.measured > 1.0


def test_figure_tables_are_what_figures_writes(tmp_path):
    res = CliRunner().invoke(main, ["figures", "--k", "1.5", "--q", "0.7",
                                    "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    for name, text in gates.figure_tables(1.5, 0.7, 1e-3).items():
        assert (tmp_path / name).read_text() == text


@pytest.mark.parametrize("alpha", [None, 2.0])
def test_figure_tables_stay_inside_the_cell_of_each_well(alpha):
    # at alpha = 2k the cotangent cell is (0, pi/2): the table ends epsilon
    # before its wall instead of running through the pole at pi/2, where the
    # cotangent V1 read -5.1e5; the tangent well is taken at the same point
    # of its own cell, where on the cotangent grid it read -1.6e6 beside its
    # pole at pi/(2 alpha)
    tables = gates.figure_tables(1.0, 2.0, 1e-3, alpha)
    rows = np.array([line.split(",") for line in tables["fig1.csv"].splitlines()[1:]],
                    dtype=float)
    assert rows[-1, 0] == math.pi / (alpha or 1.0) - 1e-3
    inside = (rows[:, 0] > rows[0, 0] + 0.1) & (rows[:, 0] < rows[-1, 0] - 0.1)
    for re, im in ((1, 2), (3, 4)):
        assert np.max(np.abs(rows[inside, re] + 1j * rows[inside, im])) < 1e3


def test_figure_determinism_fails_tangent_columns_off_their_cell(monkeypatch):
    # every well tabulated on (epsilon, pi - epsilon), as before the tables
    # took each well on its own cell: the tangent columns cross their pole
    cell = susy_core.fundamental_cell
    monkeypatch.setattr(susy_core, "fundamental_cell", lambda spec: (0.0, cell(spec)[1]))
    gate = gates.figure_determinism()
    assert not gate.passed
    assert gate.measured < gate.bound
    assert "tangent columns off the cotangent ones by" in gate.detail


@pytest.mark.parametrize("k, alpha", [(1.0, None), (1.3, 0.5)])
def test_figure_tables_at_zero_coupling_print_no_negative_zero(k, alpha):
    for text in gates.figure_tables(k, 0.0, 1e-3, alpha).values():
        fields = [f for line in text.splitlines()[1:] for f in line.split(",")]
        assert "-0" not in fields


def test_richardson_spectrum_keeps_grids_ascending():
    field = partner_field(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0), Partner.V1)
    rep = richardson_spectrum(field, 0.01, math.pi - 0.01, 3, (64, 32, 48))
    assert rep.grid_sizes_used == (32, 48, 64)
    assert [r.grid_sizes_used for r in rep.per_grid] == [(32,), (48,), (64,)]
    assert (rep.eigenvalues == rep.per_grid[-1].eigenvalues).all()
    payload = survey_payload(rep)
    assert payload["max_imag_overall"] == max(r.max_imag for r in rep.per_grid)
    assert payload["richardson_real"] == list(rep.richardson_estimates)


def test_pt_symmetry_measures_a_plane_about_its_pt_centre():
    # both plane families are PT-symmetric about pi/(2 alpha), where
    # pt_symmetry reads them; about x = 0 V1 of plane_right at k = q = 1
    # reads 2.0
    for family, (k, alpha), q, which in itertools.product(
            PLANE_FAMILIES, ((1.0, 1.0), (1.3, 0.7)), (1.0, 2.0), Partner):
        centre = math.pi / (2 * alpha)
        window = centre + np.linspace(-math.pi / alpha, math.pi / alpha, 500)
        field = partner_field(SuperpotentialSpec(family, k, q, alpha), which)
        assert states.pt_asymmetry(field, centre, window) < 1e-13
    field = partner_field(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0), Partner.V1)
    window = math.pi / 2 + np.linspace(-math.pi, math.pi, 500)
    assert states.pt_asymmetry(field, 0.0, window) == pytest.approx(2.0, rel=1e-12)
    assert gates.pt_symmetry().detail.startswith("24 partners")
