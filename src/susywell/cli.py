"""Command line front end.

Four subcommands share one small flag set.  Everything more exotic (barrier
geometry, energy lists, sweep windows, exploratory grid sizes) comes in
through a flat key=value config file so the flag surface stays stable.

Exit codes: 0 success, 1 a physics gate failed, 2 a solver did not converge,
3 the configuration was invalid.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field

import click
import numpy as np

from .errors import (
    ConfigError,
    ConvergenceFailure,
    DegenerateMatch,
    DomainViolation,
    EvanescentOverflow,
    InsufficientEigenvalues,
    SingularPoint,
    SliceTooCoarse,
    StepTooLarge,
)
from .scattering import (
    SWEEP_HEADER,
    ConstantSegment,
    PiecewisePotential,
    plane_partner_sweep,
    square_barrier_transmission,
    sweep_csv,
    transmission_reflection,
)
from .serialize import csv_text, json_text, write_text
from .spectral import (
    Grid1D,
    discretize,
    eigenvalues,
    isospectral_check,
    remainder_spectrum,
    richardson_extrapolate,
    richardson_spectrum,
    well_spectrum_analytic,
)
from .states import pt_asymmetry
from .susy_core import (
    Family,
    Partner,
    SuperpotentialSpec,
    WELL_FAMILIES,
    check_shape_invariance,
    eval_partner,
    fundamental_cell,
    partner_field,
)
from .states import probability_density, schrodinger_residual, WaveFunctionSpec

FAMILY_TOKENS = {
    "cotangent_well": Family.COTANGENT_WELL,
    "tangent_well": Family.TANGENT_WELL,
    "plane_right": Family.PLANE_RIGHT,
    "plane_left": Family.PLANE_LEFT,
}

PARTNER_TOKENS = {"v1": Partner.V1, "v2": Partner.V2}

# keys accepted in a config file; flags override these
_FLAG_KEYS = ("family", "k", "q", "alpha", "epsilon", "grid", "count", "out", "format")
_EXTRA_KEYS = (
    "x_min",
    "x_max",
    "window_min",
    "window_max",
    "energies",
    "slices",
    "barrier_v0",
    "barrier_width",
    "exploratory_grids",
    "negative_control",
    "partner",
)
_ALL_KEYS = frozenset(_FLAG_KEYS) | frozenset(_EXTRA_KEYS)

_EPS_SWEEP = (1e-2, 1e-3, 1e-4)

# Upper bound on the dense eigensolver's memory for the largest exploratory
# grid. Its complex fallback holds the n x n complex128 matrix plus the copy
# LAPACK works on: 2 * 16 n^2 bytes, so 1 GiB admits n up to 5792.
DENSE_MEMORY_LIMIT = 1 << 30


@dataclass
class RunConfig:
    command: str
    family: str = "cotangent_well"
    k: float = 1.0
    q: float = 0.0
    alpha: float | None = None
    epsilon: float = 1e-3
    grid: int = 4000
    count: int = 4
    out: str = "."
    fmt: str = "csv"
    x_min: float | None = None
    x_max: float | None = None
    window_min: float | None = None
    window_max: float | None = None
    energies: tuple[float, ...] = ()
    slices: int = 2000
    barrier_v0: float = 4.0
    barrier_width: float = 1.0
    exploratory_grids: tuple[int, ...] = (200, 400, 800)
    negative_control: bool = False
    partner: str = "v1"
    explicit: frozenset = field(default_factory=frozenset)


def _parse_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(key, "must be finite")
    return value


def _parse_int(key, raw):
    try:
        return int(str(raw).strip())
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {raw!r}") from None


def _parse_bool(key, raw):
    text = str(raw).strip().lower()
    if text in ("true", "yes", "1", "on"):
        return True
    if text in ("false", "no", "0", "off"):
        return False
    raise ConfigError(key, f"expected true or false, got {raw!r}")


def _parse_float_list(key, raw):
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    if not parts:
        raise ConfigError(key, "expected a comma separated list of numbers")
    return tuple(_parse_float(key, p) for p in parts)


def _parse_int_list(key, raw):
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    if not parts:
        raise ConfigError(key, "expected a comma separated list of integers")
    return tuple(_parse_int(key, p) for p in parts)


def load_config_file(path):
    """Read a flat key=value file.  Blank lines and # comments are skipped."""
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError("config", f"line {lineno}: expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(key, f"unknown config key (line {lineno})")
        entries[key] = value.strip()
    return entries


_COMMAND_DEFAULTS = {
    "figures": {"q": 2.0, "epsilon": 1e-3},
    "spectrum": {"q": 0.0, "count": 4, "fmt": "json"},
    "verify": {"fmt": "json"},
    "scatter": {"q": 1.0, "family": "plane_right"},
}


def build_config(command, flags):
    """Merge defaults, the config file, then explicit flags, and validate."""
    cfg = RunConfig(command=command)
    for key, value in _COMMAND_DEFAULTS.get(command, {}).items():
        setattr(cfg, key, value)

    file_entries = {}
    if flags.get("config"):
        file_entries = load_config_file(flags["config"])

    explicit = set()

    def apply(key, raw):
        explicit.add(key)
        if key in ("k", "q", "epsilon", "x_min", "x_max", "window_min", "window_max",
                   "barrier_v0", "barrier_width"):
            setattr(cfg, key, _parse_float(key, raw))
        elif key == "alpha":
            cfg.alpha = _parse_float(key, raw)
        elif key in ("grid", "count", "slices"):
            setattr(cfg, key, _parse_int(key, raw))
        elif key == "energies":
            cfg.energies = _parse_float_list(key, raw)
        elif key == "exploratory_grids":
            cfg.exploratory_grids = _parse_int_list(key, raw)
        elif key == "negative_control":
            cfg.negative_control = _parse_bool(key, raw)
        elif key == "format":
            cfg.fmt = str(raw).strip().lower()
        elif key in ("family", "partner", "out"):
            setattr(cfg, key, str(raw).strip())
        else:  # pragma: no cover - _ALL_KEYS guards this
            raise ConfigError(key, "unknown config key")

    for key, raw in file_entries.items():
        apply(key, raw)
    for key in _FLAG_KEYS:
        value = flags.get("fmt" if key == "format" else key)
        if value is not None:
            apply(key, value)

    cfg.explicit = frozenset(explicit)
    _validate(cfg)
    return cfg


def _validate(cfg):
    if cfg.family != "barrier" and cfg.family not in FAMILY_TOKENS:
        raise ConfigError("family", f"unknown family {cfg.family!r}")
    if cfg.command in ("figures", "spectrum"):
        fam = FAMILY_TOKENS.get(cfg.family)
        if fam not in WELL_FAMILIES:
            raise ConfigError("family", f"{cfg.command} needs a well family")
    if cfg.command == "scatter" and cfg.family not in ("barrier", "plane_right", "plane_left"):
        raise ConfigError("family", "scatter needs barrier, plane_right or plane_left")
    if cfg.k <= 0:
        raise ConfigError("k", "must be positive")
    if cfg.alpha is not None and cfg.alpha <= 0:
        raise ConfigError("alpha", "must be positive")
    if cfg.epsilon <= 0 or cfg.epsilon >= math.pi / cfg.k / 4:
        raise ConfigError("epsilon", "must lie in (0, cell/4)")
    if cfg.grid < 64:
        raise ConfigError("grid", "need at least 64 interior points")
    if cfg.count < 1:
        raise ConfigError("count", "must be at least 1")
    if cfg.count > cfg.grid // 4:
        raise ConfigError("count", "coarsest grid cannot resolve that many levels")
    if cfg.slices < 1:
        raise ConfigError("slices", "must be at least 1")
    if cfg.barrier_width <= 0:
        raise ConfigError("barrier_width", "must be positive")
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError("format", "must be csv or json")
    if any(g < 16 for g in cfg.exploratory_grids):
        raise ConfigError("exploratory_grids", "each grid needs at least 16 points")
    largest = max(cfg.exploratory_grids)
    dense_bytes = 32 * largest ** 2
    if dense_bytes > DENSE_MEMORY_LIMIT:
        raise ConfigError("exploratory_grids",
                          f"grid {largest} needs {dense_bytes / 2**30:.1f} GiB for the dense "
                          f"eigensolver, over the {DENSE_MEMORY_LIMIT / 2**30:g} GiB limit")
    if (cfg.window_min is None) != (cfg.window_max is None):
        raise ConfigError("window_min", "window_min and window_max go together")
    if cfg.window_min is not None and cfg.window_min >= cfg.window_max:
        raise ConfigError("window_min", "window must have positive width")
    if (cfg.x_min is None) != (cfg.x_max is None):
        raise ConfigError("x_min", "x_min and x_max go together")
    if cfg.x_min is not None and cfg.x_min >= cfg.x_max:
        raise ConfigError("x_min", "domain must have positive width")
    if cfg.partner not in PARTNER_TOKENS:
        raise ConfigError("partner", "must be v1 or v2")
    for e in cfg.energies:
        if e <= 0:
            raise ConfigError("energies", "scattering energies must be positive")


def _out_path(cfg, name):
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


# ---------------------------------------------------------------------------
# figures


def run_figures(cfg):
    """Write fig1.csv / fig2.csv: both well potentials plus real baselines."""
    k = cfg.k
    cell = math.pi / k
    xs = np.linspace(cfg.epsilon, cell - cfg.epsilon, 1000)
    cot = SuperpotentialSpec(Family.COTANGENT_WELL, k, cfg.q, cfg.alpha)
    tan = SuperpotentialSpec(Family.TANGENT_WELL, k, cfg.q, cfg.alpha)
    cot0 = SuperpotentialSpec(Family.COTANGENT_WELL, k, 0.0, cfg.alpha)
    tan0 = SuperpotentialSpec(Family.TANGENT_WELL, k, 0.0, cfg.alpha)

    v1c = eval_partner(cot, Partner.V1, xs)
    v1t = eval_partner(tan, Partner.V1, xs)
    v1_base = eval_partner(cot0, Partner.V1, xs).real
    rows1 = [
        [x, a.real, a.imag, b.real, b.imag, c]
        for x, a, b, c in zip(xs, v1c, v1t, v1_base)
    ]
    write_text(_out_path(cfg, "fig1.csv"),
               csv_text(["x", "V1_c_re", "V1_c_im", "V1_t_re", "V1_t_im", "V1_q0"], rows1))

    v2c = eval_partner(cot, Partner.V2, xs)
    v2t = eval_partner(tan, Partner.V2, xs)
    v2c_base = eval_partner(cot0, Partner.V2, xs).real
    v2t_base = eval_partner(tan0, Partner.V2, xs).real
    rows2 = [
        [x, a.real, a.imag, b.real, b.imag, c, d]
        for x, a, b, c, d in zip(xs, v2c, v2t, v2c_base, v2t_base)
    ]
    write_text(_out_path(cfg, "fig2.csv"),
               csv_text(["x", "V2_c_re", "V2_c_im", "V2_t_re", "V2_t_im", "V2_c_q0", "V2_t_q0"],
                        rows2))
    click.echo(f"wrote {_out_path(cfg, 'fig1.csv')}")
    click.echo(f"wrote {_out_path(cfg, 'fig2.csv')}")
    return True


# ---------------------------------------------------------------------------
# spectrum


def _natural_cell(cfg):
    spec = SuperpotentialSpec(FAMILY_TOKENS[cfg.family], cfg.k, cfg.q, cfg.alpha)
    if cfg.x_min is not None:
        return spec, cfg.x_min, cfg.x_max
    cell = fundamental_cell(spec)
    if cell is None:
        raise ConfigError("x_min", "this family has no finite cell, set x_min and x_max")
    return spec, cell[0], cell[1]


def run_spectrum(cfg):
    if cfg.fmt != "json":
        raise ConfigError("format", "spectrum reports are always json")
    spec, lo, hi = _natural_cell(cfg)
    if cfg.q == 0.0:
        return _spectrum_gated(cfg, spec, lo, hi)
    _spectrum_exploratory(cfg, spec, lo, hi)
    return True


def _spectrum_gated(cfg, spec, lo, hi):
    """Real q=0 path: Richardson ladder against the exact box levels
    (k + n alpha)^2 - k^2."""
    grids = (cfg.grid // 4, cfg.grid // 2, cfg.grid)
    scale = max(1.0, cfg.k ** 2)
    reports = {}
    for which, name in ((Partner.V1, "v1"), (Partner.V2, "v2")):
        rep = richardson_spectrum(partner_field(spec, which), lo, hi, cfg.count,
                                  grids, method="auto")
        reports[name] = rep
        write_text(_out_path(cfg, f"{name}_spectrum.json"), rep.to_json())
        click.echo(f"wrote {_out_path(cfg, f'{name}_spectrum.json')}")

    ok = True
    click.echo("level   raw            extrapolated   exact")
    worst_raw = worst_rich = 0.0
    for m in range(cfg.count):
        exact = remainder_spectrum(m, cfg.k, cfg.alpha)
        raw = reports["v1"].eigenvalues[m].real
        rich = reports["v1"].richardson_estimates[m]
        worst_raw = max(worst_raw, abs(raw - exact))
        worst_rich = max(worst_rich, abs(rich - exact))
        click.echo(f"{m:5d}   {raw:.10f}   {rich:.10f}   {exact:.10f}")
    raw_ok = worst_raw < 1e-3 * scale
    rich_ok = worst_rich < 1e-6 * scale
    click.echo(f"{'PASS' if raw_ok else 'FAIL'} raw error {worst_raw:.3e}")
    click.echo(f"{'PASS' if rich_ok else 'FAIL'} extrapolated error {worst_rich:.3e}")
    iso = isospectral_check(reports["v1"], reports["v2"], shift=1, tol=1e-4 * scale)
    click.echo(f"{'PASS' if iso.passed else 'FAIL'} partner ladder, "
               f"{iso.matched} matched, max error {iso.max_error:.3e}")
    ok = raw_ok and rich_ok and iso.passed
    return ok


def _sweep_block(field_fn, lo, hi, count, grids):
    """Dense spectra on a ladder of grids plus a Richardson pass on Re(E)."""
    per_grid = []
    spacings = []
    levels = []
    for n in grids:
        grid = Grid1D(lo, hi, n)
        rep = eigenvalues(discretize(field_fn, grid), count, method="dense")
        per_grid.append(rep.to_payload())
        spacings.append(grid.spacing)
        levels.append(rep.eigenvalues)
    finest = levels[-1]
    estimates = []
    for j in range(count):
        vals = [lv[j].real for lv in levels]
        estimates.append(richardson_extrapolate(spacings, vals))
    max_imag = max(float(np.max(np.abs(lv.imag))) for lv in levels)
    return {
        "per_grid": per_grid,
        "richardson_real": estimates,
        "max_imag_overall": max_imag,
    }, finest


def _spectrum_exploratory(cfg, spec, lo, hi):
    """Complex q != 0 path: record spectra on shrinking edge truncations."""
    eps_values = (cfg.epsilon,) if "epsilon" in cfg.explicit else _EPS_SWEEP
    for eps in eps_values:
        if eps >= (hi - lo) / 4:
            raise ConfigError("epsilon", "truncation exceeds a quarter cell")
        payload = {
            "family": cfg.family,
            "k": cfg.k,
            "q": cfg.q,
            "epsilon": eps,
            "count": cfg.count,
            "grids": list(cfg.exploratory_grids),
        }
        for which, name in ((Partner.V1, "v1"), (Partner.V2, "v2")):
            block, _ = _sweep_block(partner_field(spec, which), lo + eps, hi - eps,
                                    cfg.count, cfg.exploratory_grids)
            payload[name] = block
            click.echo(f"eps={eps:g} {name}: max |Im E| = {block['max_imag_overall']:.3e}")
        path = _out_path(cfg, f"spectrum_eps_{eps:.0e}.json")
        write_text(path, json_text(payload) + "\n")
        click.echo(f"wrote {path}")


# ---------------------------------------------------------------------------
# verify


def _check(results, name, passed, detail):
    results.append({"name": name, "passed": bool(passed), "detail": detail})
    click.echo(f"{'PASS' if passed else 'FAIL'} {name} ({detail})")


def run_verify(cfg):
    """Run the gating suite end to end and write a machine readable report."""
    results = []
    freq = 2.0 if cfg.negative_control else 1.0

    worst = 0.0
    mean_err = 0.0
    all_hold = True
    for fam in Family:
        for q in (0.0, 1.0, 2.0, 5.0):
            for k in (1.0, 2.0, 3.0):
                spec = SuperpotentialSpec(fam, k, q)
                pts = _invariance_points(spec)
                res = check_shape_invariance(spec, pts, constraint_frequency=freq)
                all_hold = all_hold and res.holds
                worst = max(worst, res.max_abs_deviation)
                target = spec.alpha * (spec.alpha + 2 * k)
                mean_err = max(mean_err, abs(res.mean - target) / max(1.0, abs(target)))
    _check(results, "shape_invariance", all_hold and mean_err < 1e-10,
           f"max deviation {worst:.3e}, mean error {mean_err:.3e}")

    ctrl = check_shape_invariance(
        SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0),
        _invariance_points(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)),
        constraint_frequency=2.0)
    _check(results, "negative_control_fails", not ctrl.holds,
           f"perturbed deviation {ctrl.max_abs_deviation:.3e}")

    worst = 0.0
    for fam in Family:
        spec = SuperpotentialSpec(fam, 1.0, 1.5)
        wf = WaveFunctionSpec(fam, 1.0, 1.5)
        pts = _residual_points(fam)
        r = np.abs(schrodinger_residual(partner_field(spec, Partner.V1), wf, 0.0, pts))
        worst = max(worst, float(np.max(r)))
    _check(results, "ground_state_residual", worst < 1e-6, f"max residual {worst:.3e}")

    worst = 0.0
    for fam in WELL_FAMILIES:
        base = WaveFunctionSpec(fam, 1.0, 0.0)
        lo, hi = fundamental_cell(SuperpotentialSpec(fam, 1.0, 0.0))
        pad = (hi - lo) / 100
        xs = np.linspace(lo + pad, hi - pad, 2000)
        rho0 = probability_density(base, xs)
        for q in (1.0, 2.0, 5.0):
            rho = probability_density(WaveFunctionSpec(fam, 1.0, q), xs)
            worst = max(worst, float(np.max(np.abs(rho - rho0))))
    _check(results, "density_equality", worst < 1e-12, f"max gap {worst:.3e}")

    worst = 0.0
    for fam in WELL_FAMILIES:
        lo, hi = fundamental_cell(SuperpotentialSpec(fam, 1.0, 1.0))
        span = hi - lo
        window = np.linspace(lo + span / 10, hi - span / 10, 500)
        centre = 0.5 * (lo + hi)
        for q in (1.0, 2.0):
            spec = SuperpotentialSpec(fam, 1.0, q)
            for which in Partner:
                asym = pt_asymmetry(partner_field(spec, which), centre, window)
                worst = max(worst, asym)
    _check(results, "pt_symmetry_wells", worst < 1e-12, f"max asymmetry {worst:.3e}")

    spec0 = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0)
    rep1 = richardson_spectrum(partner_field(spec0, Partner.V1), 0.0, math.pi, 4,
                               (1000, 2000, 4000))
    rep2 = richardson_spectrum(partner_field(spec0, Partner.V2), 0.0, math.pi, 3,
                               (1000, 2000, 4000))
    raw_err = max(abs(rep1.eigenvalues[m].real - well_spectrum_analytic(m)) for m in range(4))
    rich_err = max(abs(rep1.richardson_estimates[m] - well_spectrum_analytic(m))
                   for m in range(4))
    iso = isospectral_check(rep1, rep2, shift=1, tol=1e-4)
    _check(results, "spectrum_q0",
           raw_err < 1e-3 and rich_err < 1e-6 and iso.passed,
           f"raw {raw_err:.3e}, extrapolated {rich_err:.3e}, ladder {iso.max_error:.3e}")

    v0, width = cfg.barrier_v0, cfg.barrier_width
    barrier = PiecewisePotential((0.0, width), (ConstantSegment(v0),))
    flux_worst = 0.0
    oracle_worst = 0.0
    for mult in (0.1, 0.5, 2.0, 5.0, 10.0):
        energy = mult * abs(v0)
        res = transmission_reflection(barrier, energy)
        flux_worst = max(flux_worst, abs(res.flux_defect))
        ref = square_barrier_transmission(v0, width, energy)
        oracle_worst = max(oracle_worst, abs(res.transmission - ref) / abs(ref))
    _check(results, "flux_conservation", flux_worst < 1e-10, f"max defect {flux_worst:.3e}")
    _check(results, "barrier_oracle", oracle_worst < 1e-8,
           f"max relative gap {oracle_worst:.3e}")

    text_a = _figure_probe(cfg)
    text_b = _figure_probe(cfg)
    _check(results, "figure_determinism", text_a == text_b,
           f"{len(text_a)} bytes reproduced" if text_a == text_b else "reruns differ")

    exploratory = _verify_exploratory(cfg)
    for line in exploratory["notes"]:
        click.echo(f"INFO {line}")

    passed = all(c["passed"] for c in results)
    report = {"passed": passed, "checks": results, "exploratory": exploratory}
    path = _out_path(cfg, "verify.json")
    write_text(path, json_text(report) + "\n")
    click.echo(f"wrote {path}")
    click.echo("verify: PASS" if passed else "verify: FAIL")
    return passed


def _invariance_points(spec):
    cell = fundamental_cell(spec)
    if cell is None:
        return np.linspace(-3.0, 3.0, 1000)
    pad = (cell[1] - cell[0]) / 50
    return np.linspace(cell[0] + pad, cell[1] - pad, 1000)


def _residual_points(fam):
    if fam is Family.COTANGENT_WELL:
        return np.linspace(0.4, math.pi - 0.4, 9)
    if fam is Family.TANGENT_WELL:
        return np.linspace(-math.pi / 2 + 0.4, math.pi / 2 - 0.4, 9)
    return np.linspace(-2.0, 2.0, 9)


def _figure_probe(cfg):
    xs = np.linspace(1e-3, math.pi - 1e-3, 200)
    spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
    vals = eval_partner(spec, Partner.V1, xs)
    rows = [[x, v.real, v.imag] for x, v in zip(xs, vals)]
    return csv_text(["x", "re", "im"], rows)


def _verify_exploratory(cfg):
    """Non gating records: complex spectra under truncation, line asymmetry."""
    spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
    truncation = []
    notes = []
    for eps in _EPS_SWEEP:
        block, finest = _sweep_block(partner_field(spec, Partner.V1), eps,
                                     math.pi - eps, 4, cfg.exploratory_grids)
        truncation.append({"epsilon": eps, "v1": block})
        notes.append(f"eps={eps:g}: max |Im E| {block['max_imag_overall']:.3e}, "
                     f"finest Re {['%.6f' % lv.real for lv in finest]}")
    plane = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0)
    xs = np.linspace(-2.0, 2.0, 500)
    plane_asym = pt_asymmetry(partner_field(plane, Partner.V1), 0.0, xs)
    notes.append(f"plane family asymmetry about 0: {plane_asym:.6f} (recorded, not gated)")
    return {"truncation": truncation, "plane_asymmetry": plane_asym, "notes": notes}


# ---------------------------------------------------------------------------
# scatter


def run_scatter(cfg):
    if cfg.family == "barrier":
        return _scatter_barrier(cfg)
    return _scatter_plane(cfg)


def _scatter_barrier(cfg):
    v0, width = cfg.barrier_v0, cfg.barrier_width
    energies = cfg.energies or tuple(
        m * abs(v0) for m in (0.1, 0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0))
    barrier = PiecewisePotential((0.0, width), (ConstantSegment(v0),))
    rows = []
    worst = 0.0
    ok = True
    for energy in energies:
        res = transmission_reflection(barrier, energy)
        ref = square_barrier_transmission(v0, width, energy)
        gap = abs(res.transmission - ref) / max(abs(ref), 1e-300)
        worst = max(worst, gap)
        ok = ok and gap < 1e-8 and abs(res.flux_defect) < 1e-10
        rows.append(res)
    _write_sweep(cfg, rows)
    click.echo(f"{'PASS' if ok else 'FAIL'} barrier sweep, max oracle gap {worst:.3e}")
    return ok


def _scatter_plane(cfg):
    spec = SuperpotentialSpec(FAMILY_TOKENS[cfg.family], cfg.k, cfg.q, cfg.alpha)
    if cfg.window_min is not None:
        window = (cfg.window_min, cfg.window_max)
    else:
        window = (0.0, 2 * math.pi / cfg.k)
    energies = cfg.energies or tuple(
        m * cfg.k ** 2 for m in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0))
    results = plane_partner_sweep(spec, PARTNER_TOKENS[cfg.partner], window,
                                  energies, slices=cfg.slices)
    _write_sweep(cfg, results)
    for res in results:
        click.echo(f"E={res.energy:g}: T={res.transmission:.6f} R={res.reflection:.6f} "
                   f"defect={res.flux_defect:.3e}")
    return True


def _write_sweep(cfg, results):
    if cfg.fmt == "json":
        payload = [dict(zip(SWEEP_HEADER,
                            [r.energy, r.r.real, r.r.imag, r.t.real, r.t.imag,
                             r.reflection, r.transmission, r.flux_defect]))
                   for r in results]
        path = _out_path(cfg, "scatter.json")
        write_text(path, json_text({"rows": payload}) + "\n")
    else:
        path = _out_path(cfg, "scatter.csv")
        write_text(path, sweep_csv(results))
    click.echo(f"wrote {path}")


# ---------------------------------------------------------------------------
# click wiring

_CONVERGENCE_ERRORS = (ConvergenceFailure, SliceTooCoarse, EvanescentOverflow,
                       DegenerateMatch, InsufficientEigenvalues)
_REQUEST_ERRORS = (SingularPoint, DomainViolation, StepTooLarge)


def _execute(command, impl, flags):
    try:
        cfg = build_config(command, flags)
        ok = impl(cfg)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(3)
    except _CONVERGENCE_ERRORS as exc:
        click.echo(f"convergence failure: {exc}", err=True)
        sys.exit(2)
    except _REQUEST_ERRORS as exc:
        click.echo(f"invalid request: {exc}", err=True)
        sys.exit(3)
    sys.exit(0 if ok else 1)


def shared_options(fn):
    opts = [
        click.option("--family", default=None, help="Potential family name."),
        click.option("--k", type=float, default=None, help="Well depth scale."),
        click.option("--q", type=float, default=None, help="Imaginary coupling."),
        click.option("--alpha", type=float, default=None, help="Ladder step, defaults to k."),
        click.option("--epsilon", type=float, default=None, help="Edge truncation."),
        click.option("--grid", type=int, default=None, help="Finest interior grid size."),
        click.option("--count", type=int, default=None, help="Number of levels."),
        click.option("--out", default=None, help="Output directory."),
        click.option("--format", "fmt", default=None, help="csv or json."),
        click.option("--config", type=click.Path(), default=None,
                     help="Flat key=value file, flags win over it."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Complex supersymmetric well toolkit."""


@main.command()
@shared_options
def figures(**flags):
    """Tabulate both well potentials next to their real baselines."""
    _execute("figures", run_figures, flags)


@main.command()
@shared_options
def spectrum(**flags):
    """Solve the box spectrum, gated for q=0, recorded for complex q."""
    _execute("spectrum", run_spectrum, flags)


@main.command()
@shared_options
def verify(**flags):
    """Run every physics gate and write verify.json."""
    _execute("verify", run_verify, flags)


@main.command()
@shared_options
def scatter(**flags):
    """Sweep transmission through a barrier or a travelling wave potential."""
    _execute("scatter", run_scatter, flags)


if __name__ == "__main__":
    main()
