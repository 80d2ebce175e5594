"""Acceptance gate: nine criteria, one printed verdict line each.

Each criterion runs the gates of `susywell.gates` that `verify` runs,
prints "ACCEPTANCE n: PASS" or "ACCEPTANCE n: FAIL" with their details,
then asserts. The bounds live in the gates; the only one here is criterion
1's run time. Criterion 9 is the truncation survey that `spectrum --q 2`
records, and passes whenever the record is complete and finite.
"""

import math
import time

from susywell import gates


def verdict(capsys, number, checks):
    ok = all(gate.passed for gate in checks)
    detail = "; ".join(f"{gate.name}: {gate.detail}" for gate in checks)
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_box_spectrum(capsys):
    t0 = time.perf_counter()
    gate = gates.spectrum_q0(*gates.q0_spectra())
    elapsed = time.perf_counter() - t0
    timing = gates.Gate("run_time", elapsed < 10.0, elapsed, 10.0, f"{elapsed:.1f}s < 10s")
    verdict(capsys, 1, [gate, timing])


def test_criterion_2_partner_isospectrality(capsys):
    verdict(capsys, 2, [gates.spectrum_q0(*gates.q0_spectra())])


def test_criterion_3_shape_invariance(capsys):
    verdict(capsys, 3, [gates.shape_invariance(), gates.negative_control_fails()])


def test_criterion_4_ground_state_annihilation(capsys):
    verdict(capsys, 4, [gates.ground_state_residual()])


def test_criterion_5_density_equality(capsys):
    verdict(capsys, 5, [gates.density_equality()])


def test_criterion_6_pt_symmetry(capsys):
    verdict(capsys, 6, [gates.pt_symmetry_wells()])


def test_criterion_7_scattering_flux(capsys):
    verdict(capsys, 7, list(gates.barrier()[1]))


def test_criterion_8_figure_data(capsys):
    verdict(capsys, 8, [gates.figure_determinism()])


def test_criterion_9_truncation_survey(capsys):
    # recorded, not gated: the complex-well spectrum does not converge to a
    # real limit as the edge truncation shrinks (Re g < -1/4 at its walls,
    # fall to centre), and the record shows it
    v1 = {eps: blocks["v1"] for eps, blocks in gates.truncation_survey()}
    records = [grid["max_imag"] for block in v1.values() for grid in block["per_grid"]]
    with capsys.disabled():
        for eps, block in v1.items():
            finest = ["%.6f" % ev[0] for ev in block["per_grid"][-1]["eigenvalues"]]
            print(f"  eps={eps:g}: max |Im E| {block['max_imag_overall']:.3e}, "
                  f"finest Re {finest}")
    ok = len(records) == 9 and all(math.isfinite(v) for v in records)
    gate = gates.Gate("truncation_survey", ok, max(records), math.inf,
                      "non-gating survey recorded; imaginary parts grow as the "
                      f"truncation shrinks (max {max(records):.2e})")
    verdict(capsys, 9, [gate])
