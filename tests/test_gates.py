"""Tests for the shared gates: each one fails when its claim is broken."""

import math

import pytest
from click.testing import CliRunner

from susywell import gates
from susywell.cli import main
from susywell.spectral import richardson_spectrum
from susywell.susy_core import Family, Partner, SuperpotentialSpec, partner_field


def test_detuned_remainder_fails_shape_invariance():
    gate = gates.shape_invariance(constraint_frequency=2.0)
    assert not gate.passed
    assert gate.measured > gate.bound


def test_spectrum_q0_fails_a_misaligned_ladder():
    v1, v2 = gates.q0_spectra(counts=(4, 3), grid=1000)
    assert gates.spectrum_q0(v1, v2).passed
    # V1 against itself is one level off everywhere: 3, 5, 7 apart
    gate = gates.spectrum_q0(v1, v1)
    assert not gate.passed
    assert "ladder 7.000e+00" in gate.detail


def test_spectrum_q0_scales_with_k():
    spec = SuperpotentialSpec(Family.COTANGENT_WELL, 2.0, 0.0)
    v1, v2 = gates.q0_spectra(spec, counts=(4, 4), grid=4000)
    gate = gates.spectrum_q0(v1, v2, k=2.0)
    assert gate.passed, gate.detail
    assert gate.bound == pytest.approx(4.0 * gates.EXTRAPOLATED_TOL)


def test_barrier_gates_judge_the_given_energies():
    results, (flux, oracle) = gates.barrier(4.0, 1.0, (0.5, 4.0, 9.0))
    assert [res.energy for res in results] == [0.5, 4.0, 9.0]
    assert flux.passed and oracle.passed
    assert (flux.bound, oracle.bound) == (gates.FLUX_TOL, gates.ORACLE_TOL)


def test_figure_tables_are_what_figures_writes(tmp_path):
    res = CliRunner().invoke(main, ["figures", "--k", "1.5", "--q", "0.7",
                                    "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    for name, text in gates.figure_tables(1.5, 0.7, 1e-3).items():
        assert (tmp_path / name).read_text() == text


def test_richardson_spectrum_keeps_grids_ascending():
    field = partner_field(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0), Partner.V1)
    rep = richardson_spectrum(field, 0.01, math.pi - 0.01, 3, (64, 32, 48), method="dense")
    assert rep.grid_sizes_used == (32, 48, 64)
    assert [r.grid_sizes_used for r in rep.per_grid] == [(32,), (48,), (64,)]
    assert (rep.eigenvalues == rep.per_grid[-1].eigenvalues).all()
    payload = rep.survey_payload()
    assert payload["max_imag_overall"] == max(r.max_imag for r in rep.per_grid)
    assert payload["richardson_real"] == list(rep.richardson_estimates)
