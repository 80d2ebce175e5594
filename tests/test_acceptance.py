"""Acceptance gate: one printed verdict line per entry of gates.CHECKS.

Each entry runs the gates that `verify` runs for it, prints "ACCEPTANCE n:
PASS" or "ACCEPTANCE n: FAIL" with its claim and details, then asserts. The
bounds live in the gates; the only one here is the 10 s run time of each
entry. The truncated-box spectra that `spectrum --q 2` records, one
truncation per run, are not a gate: the survey passes whenever the record
is complete and finite.
"""

import math
import time

import pytest

from susywell import gates, susy_core


@pytest.mark.parametrize("number", range(1, len(gates.CHECKS) + 1))
def test_check(capsys, number):
    t0 = time.perf_counter()
    checks = [gate for _, gate in gates.verify_gates([gates.CHECKS[number - 1]])]
    elapsed = time.perf_counter() - t0
    ok = all(gate.passed for gate in checks) and elapsed < 10.0
    detail = "; ".join(f"{gate.name}: {gate.detail}" for gate in checks)
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} (claim "
              f"{gates.CHECKS[number - 1][0]}, {elapsed:.1f}s < 10s; {detail})")
    assert ok, detail


def test_truncation_survey_is_recorded():
    # the Dirichlet boxes of the complex well converge only about O(eps) as
    # the edge truncation eps shrinks (ROADMAP item 3), so they are recorded
    lo, hi = susy_core.fundamental_cell(gates.Q2_SPEC)
    records = [grid.max_imag for eps in (1e-2, 1e-3, 1e-4)
               for grid in gates.box_spectra(gates.Q2_SPEC, (lo + eps, hi - eps),
                                             (gates.COUNT, gates.COUNT),
                                             gates.EXPLORATORY_GRIDS)[0].per_grid]
    assert len(records) == 9 and all(map(math.isfinite, records)), records
