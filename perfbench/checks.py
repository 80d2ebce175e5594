"""Output checks and independent references for the benchmark ops.

The references are written here from the textbook formulas, not imported
from susywell, so a change that breaks the program cannot also move its
yardstick: the square-barrier transmission, the q=0 box levels
(k + n alpha)^2 - k^2, the alpha = k closed form of the cotangent V1, and
a thin-slice transfer matrix for the plane partners.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

SCATTER_COLUMNS = ["energy", "r_re", "r_im", "t_re", "t_im", "R", "T", "flux_defect"]

# A plane sweep accepts T once doubling the slices moves it by <= 1e-6, so
# its own error is about a third of that; 5e-6 leaves room without letting a
# wrong integrator through.
PLANE_T_TOL = 5e-6
BARRIER_T_TOL = 1e-8
LEVEL_TOL = 1e-6
FIGURE_TOL = 1e-9
# slices of the plane reference: far above the 4000-32000 a sweep accepts
PLANE_REF_SLICES = 1 << 16
_CHUNK = 1 << 14


def _finite(values) -> bool:
    arr = np.asarray(values, dtype=np.float64)
    return bool(arr.size) and bool(np.all(np.isfinite(arr)))


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield float(obj)


def _all_finite(data) -> bool:
    """Every number anywhere in a parsed JSON document is finite."""
    return _finite(list(_numbers(data)))


# ---------------------------------------------------------------------------
# references


def barrier_transmission(v0: float, width: float, energy: float) -> float:
    """|t|^2 of a rectangular barrier (v0 > 0) or well (v0 < 0)."""
    u = energy - v0
    if abs(u) < 1e-12 * max(1.0, abs(v0)):
        return 1.0 / (1.0 + v0 * v0 * width * width / (4.0 * energy))
    if u > 0:
        s = math.sin(math.sqrt(u) * width)
        return 1.0 / (1.0 + v0 * v0 * s * s / (4.0 * energy * u))
    s = math.sinh(math.sqrt(-u) * width)
    return 1.0 / (1.0 + v0 * v0 * s * s / (4.0 * energy * -u))


def plane_potential(family: str, partner: str, k: float, q: float, x: np.ndarray) -> np.ndarray:
    """Plane partners at alpha = k: -k^2 + f^2 -/+ 2ikf -/+ f', f = q e^{-/+ikx}.

    Upper signs: plane_right, V1; lower signs: plane_left, V2.
    """
    sign = -1.0 if family == "plane_right" else 1.0
    f = q * np.exp(1j * sign * k * x)
    fp = 1j * sign * k * f
    cross = 2j * k * f if family == "plane_left" else -2j * k * f
    return -(k * k) + f * f + cross + (-fp if partner == "v1" else fp)


def _slice_product(values: np.ndarray, width: float, energy: float) -> np.ndarray:
    """Ordered product P_m ... P_1 of constant-slice (psi, psi') propagators."""
    kk = np.sqrt(energy - values + 0j)
    z = kk * width
    small = np.abs(z) < 1e-8
    sinc = np.where(small, 1.0, np.sin(z) / np.where(small, 1.0, z))
    # the four entries as arrays, multiplied pairwise: later slices on the left
    a, b, c, d = np.cos(z), width * sinc, -(kk * kk) * width * sinc, np.cos(z)
    while a.size > 1:
        if a.size % 2:
            one, zero = np.ones(1), np.zeros(1)
            a, b, c, d = (np.concatenate([x, e]) for x, e in ((a, one), (b, zero), (c, zero),
                                                               (d, one)))
        a0, b0, c0, d0 = a[0::2], b[0::2], c[0::2], d[0::2]
        a1, b1, c1, d1 = a[1::2], b[1::2], c[1::2], d[1::2]
        a, b, c, d = (a1 * a0 + b1 * c0, a1 * b0 + b1 * d0,
                      c1 * a0 + d1 * c0, c1 * b0 + d1 * d0)
    return np.array([[a[0], b[0]], [c[0], d[0]]])


def _plane_t(family, partner, k, q, window, energy, slices) -> complex:
    a, b = window
    width = (b - a) / slices
    total = np.eye(2, dtype=np.complex128)
    for start in range(0, slices, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, slices))
        mids = a + width * (idx + 0.5)
        total = _slice_product(plane_potential(family, partner, k, q, mids), width, energy) @ total
    # left incidence: psi = e^{ik0x} + r e^{-ik0x} at a, t e^{ik0x} at b
    k0 = math.sqrt(energy)
    ea, eb = np.exp(1j * k0 * a), np.exp(1j * k0 * b)
    inc = total @ np.array([ea, 1j * k0 * ea])
    refl = total @ np.array([1.0 / ea, -1j * k0 / ea])
    out = np.array([eb, 1j * k0 * eb])
    # t out = inc + r refl, solved as a 2x2 system in (t, r)
    t, _ = np.linalg.solve(np.column_stack([out, -refl]), inc)
    return complex(t)


def plane_reference(params) -> list[float]:
    """T per energy: midpoint slices at 2^15 and 2^16, Richardson in h^2."""
    ref = []
    for energy in params["energies"]:
        args = (params["family"], params["partner"], params["k"], params["q"],
                params["window"], energy)
        coarse = abs(_plane_t(*args, PLANE_REF_SLICES // 2)) ** 2
        fine = abs(_plane_t(*args, PLANE_REF_SLICES)) ** 2
        ref.append((4.0 * fine - coarse) / 3.0)
    return ref


# ---------------------------------------------------------------------------
# checks: each returns (ok, detail)


def _read_sweep(out, fmt):
    if fmt == "json":
        rows = _load_json(out / "scatter.json")["rows"]
        return [[row[c] for c in SCATTER_COLUMNS] for row in rows]
    with open(out / "scatter.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != SCATTER_COLUMNS:
            raise ValueError("unexpected scatter.csv header")
        return [[float(v) for v in row] for row in reader]


def _check_sweep(rows, energies, expected_t, tol):
    if len(rows) != len(energies) or not _finite(rows):
        return False, f"{len(rows)} rows for {len(energies)} energies or non-finite"
    worst = 0.0
    for row, energy, t_ref in zip(rows, energies, expected_t):
        if abs(row[0] - energy) > 1e-12 * energy:
            return False, f"energy {row[0]!r} != {energy!r}"
        worst = max(worst, abs(row[6] - t_ref) / max(1.0, abs(t_ref)))
    return worst <= tol, f"max T gap {worst:.2e}"


def check_scatter_plane(op, reference):
    rows = _read_sweep(op.out, op.params["format"])
    return _check_sweep(rows, op.params["energies"], reference, PLANE_T_TOL)


def check_scatter_barrier(op, _reference):
    p = op.params
    rows = _read_sweep(op.out, p["format"])
    expected = [barrier_transmission(p["v0"], p["width"], e) for e in p["energies"]]
    ok, detail = _check_sweep(rows, p["energies"], expected, BARRIER_T_TOL)
    flux = max((abs(r[7]) for r in rows), default=math.inf)
    return ok and flux < 1e-10, f"{detail}, max flux defect {flux:.1e}"


def check_spectrum_q0(op, _reference):
    p = op.params
    k, alpha, count = p["k"], p["alpha"], p["count"]
    worst = 0.0
    for name, offset in (("v1", 0), ("v2", 1)):
        data = _load_json(op.out / f"{name}_spectrum.json")
        est = data["richardson_estimates"]
        if len(est) != count or len(data["eigenvalues"]) != count or not _all_finite(data):
            return False, f"{name}: wrong length or non-finite"
        for m, value in enumerate(est):
            exact = (k + (m + offset) * alpha) ** 2 - k * k
            worst = max(worst, abs(value - exact) / max(1.0, k * k))
    return worst <= LEVEL_TOL, f"max extrapolated level error {worst:.2e}"


def check_spectrum_complex(op, _reference):
    files = sorted(op.out.glob("spectrum_eps_*.json"))
    if len(files) != 1:
        return False, f"{len(files)} spectrum files"
    data = _load_json(files[0])
    count = op.params["count"]
    for name in ("v1", "v2"):
        block = data[name]
        if len(block["per_grid"]) != len(data["grids"]) or any(
                len(g["eigenvalues"]) != count for g in block["per_grid"]):
            return False, f"{name}: wrong block shape"
    return _all_finite(data), "finite"


def check_verify(op, _reference):
    data = _load_json(op.out / "verify.json")
    failed = [c["name"] for c in data["checks"] if not c["passed"]]
    ok = data["passed"] is True and not failed and _all_finite(data)
    return ok, f"passed={data['passed']} failed checks {failed}"


def check_figures(op, _reference):
    p = op.params
    k, q = p["k"], p["q"]
    with open(op.out / "fig1.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(op.out / "fig2.csv", encoding="utf-8", newline="") as fh:
        rows2 = list(csv.reader(fh))
    if len(rows) != 1001 or len(rows2) != 1001:
        return False, "expected 1000 rows per figure"
    data = np.array(rows[1:], dtype=np.float64)
    if not _finite(data) or not _finite(np.array(rows2[1:], dtype=np.float64)):
        return False, "non-finite figure data"
    x = data[:, 0]
    s, c = np.sin(k * x), np.cos(k * x)
    # alpha = k: V1 = -q^2 csc^2 - k^2 - i q k cot csc, and -k^2 at q = 0
    v1 = -q * q / s**2 - k * k - 1j * q * k * c / s**2
    gap = max(np.max(np.abs(data[:, 1] - v1.real) / np.maximum(1.0, np.abs(v1.real))),
              np.max(np.abs(data[:, 2] - v1.imag) / np.maximum(1.0, np.abs(v1.imag))),
              np.max(np.abs(data[:, 5] + k * k)) / max(1.0, k * k))
    return gap <= FIGURE_TOL, f"max V1 gap {gap:.1e}"


CHECKS = {
    "scatter_plane": check_scatter_plane,
    "scatter_barrier": check_scatter_barrier,
    "spectrum_q0": check_spectrum_q0,
    "spectrum_complex": check_spectrum_complex,
    "verify": check_verify,
    "figures": check_figures,
}
