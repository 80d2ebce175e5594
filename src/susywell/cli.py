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
from types import SimpleNamespace

import click

from . import gates
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
from .scattering import SWEEP_HEADER, plane_partner_sweep, sweep_csv, sweep_rows
from .serialize import json_text, write_text
from .spectral import remainder_spectrum, richardson_spectrum
from .susy_core import (
    Family,
    Partner,
    SuperpotentialSpec,
    WELL_FAMILIES,
    fundamental_cell,
    partner_field,
)

FAMILY_TOKENS = {fam.value: fam for fam in Family}

PARTNER_TOKENS = {"v1": Partner.V1, "v2": Partner.V2}

# Upper bound on the dense eigensolver's memory for the largest exploratory
# grid. Its complex fallback holds the n x n complex128 matrix plus the copy
# LAPACK works on: 2 * 16 n^2 bytes, so 1 GiB admits n up to 5792.
DENSE_MEMORY_LIMIT = 1 << 30


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


def _list_of(parse, what):
    def parse_list(key, raw):
        parts = [p.strip() for p in str(raw).split(",") if p.strip()]
        if not parts:
            raise ConfigError(key, f"expected a comma separated list of {what}")
        return tuple(parse(key, p) for p in parts)
    return parse_list


def _parse_text(key, raw):
    return str(raw).strip()


def _parse_lower(key, raw):
    return str(raw).strip().lower()


# key: (parser, default, help of its flag). Keys without a help text are
# read from a config file only. Flags override the file, the file overrides
# the per-command defaults below, and those override the defaults here.
CONFIG_KEYS = {
    "family": (_parse_text, "cotangent_well", "Potential family name."),
    "k": (_parse_float, 1.0, "Well depth scale."),
    "q": (_parse_float, 0.0, "Imaginary coupling."),
    "alpha": (_parse_float, None, "Ladder step, defaults to k."),
    "epsilon": (_parse_float, 1e-3, "Edge truncation."),
    "grid": (_parse_int, 4000, "Finest interior grid size."),
    "count": (_parse_int, 4, "Number of levels."),
    "out": (_parse_text, ".", "Output directory."),
    "format": (_parse_lower, "csv", "csv or json."),
    "x_min": (_parse_float, None, None),
    "x_max": (_parse_float, None, None),
    "window_min": (_parse_float, None, None),
    "window_max": (_parse_float, None, None),
    "energies": (_list_of(_parse_float, "numbers"), (), None),
    "slices": (_parse_int, 2000, None),
    "barrier_v0": (_parse_float, 4.0, None),
    "barrier_width": (_parse_float, 1.0, None),
    "exploratory_grids": (_list_of(_parse_int, "integers"), (200, 400, 800), None),
    "negative_control": (_parse_bool, False, None),
    "partner": (_parse_text, "v1", None),
}

_COMMAND_DEFAULTS = {
    "figures": {"q": 2.0, "epsilon": 1e-3},
    "spectrum": {"q": 0.0, "count": 4, "format": "json"},
    "verify": {"format": "json"},
    "scatter": {"q": 1.0, "family": "plane_right"},
}


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
        if key not in CONFIG_KEYS:
            raise ConfigError(key, f"unknown config key (line {lineno})")
        entries[key] = value.strip()
    return entries


def build_config(command, flags):
    """Merge defaults, the config file, then explicit flags, and validate.

    The result has one attribute per CONFIG_KEYS key, plus `command` and
    `explicit`, the keys that the file or a flag set."""
    cfg = SimpleNamespace(command=command, **{key: spec[1] for key, spec in CONFIG_KEYS.items()})
    vars(cfg).update(_COMMAND_DEFAULTS.get(command, {}))
    from_file = load_config_file(flags["config"]) if flags.get("config") else {}
    from_flags = {key: value for key, value in flags.items()
                  if key in CONFIG_KEYS and value is not None}
    for key, raw in [*from_file.items(), *from_flags.items()]:
        setattr(cfg, key, CONFIG_KEYS[key][0](key, raw))
    cfg.explicit = frozenset(from_file) | frozenset(from_flags)
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
    if cfg.format not in ("csv", "json"):
        raise ConfigError("format", "must be csv or json")
    grids = cfg.exploratory_grids
    if any(g < 16 for g in grids):
        raise ConfigError("exploratory_grids", "each grid needs at least 16 points")
    if len(grids) < 2 or len(set(grids)) < len(grids):
        raise ConfigError("exploratory_grids", "need at least two grid sizes, all different")
    if cfg.command == "spectrum" and cfg.q != 0.0 and cfg.count > min(grids):
        raise ConfigError("count", f"the smallest exploratory grid, {min(grids)}, "
                                   f"cannot resolve {cfg.count} levels")
    largest = max(grids)
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
    for name, text in gates.figure_tables(cfg.k, cfg.q, cfg.epsilon, cfg.alpha).items():
        write_text(_out_path(cfg, name), text)
        click.echo(f"wrote {_out_path(cfg, name)}")
    return True


# ---------------------------------------------------------------------------
# spectrum


def _natural_cell(cfg):
    spec = SuperpotentialSpec(FAMILY_TOKENS[cfg.family], cfg.k, cfg.q, cfg.alpha)
    if cfg.x_min is not None:
        return spec, cfg.x_min, cfg.x_max
    lo, hi = fundamental_cell(spec)  # a well family, see _validate
    return spec, lo, hi


def run_spectrum(cfg):
    if cfg.format != "json":
        raise ConfigError("format", "spectrum reports are always json")
    spec, lo, hi = _natural_cell(cfg)
    if cfg.q == 0.0:
        return _spectrum_q0(cfg, spec, lo, hi)
    _spectrum_exploratory(cfg, spec, lo, hi)
    return True


def _spectrum_q0(cfg, spec, lo, hi):
    """Real q=0 path: Richardson ladders of both partners, gated against the
    exact box levels (k + n alpha)^2 - k^2, which hold on the natural cell
    only; a custom x_min/x_max domain is recorded without a gate."""
    v1, v2 = gates.q0_spectra(spec, (lo, hi), (cfg.count, cfg.count), cfg.grid)
    for name, rep in (("v1", v1), ("v2", v2)):
        write_text(_out_path(cfg, f"{name}_spectrum.json"), rep.to_json())
        click.echo(f"wrote {_out_path(cfg, f'{name}_spectrum.json')}")
    if cfg.x_min is not None:
        click.echo(f"custom domain [{lo:g}, {hi:g}]: spectra recorded, not gated")
        return True
    click.echo("level   raw            extrapolated   exact")
    for m in range(cfg.count):
        click.echo(f"{m:5d}   {v1.eigenvalues[m].real:.10f}   "
                   f"{v1.richardson_estimates[m]:.10f}   "
                   f"{remainder_spectrum(m, cfg.k, cfg.alpha):.10f}")
    gate = gates.spectrum_q0(v1, v2, cfg.k, cfg.alpha)
    click.echo(gate.line())
    return gate.passed


def _spectrum_exploratory(cfg, spec, lo, hi):
    """Complex q != 0 path: record spectra on shrinking edge truncations."""
    eps_values = (cfg.epsilon,) if "epsilon" in cfg.explicit else gates.EPS_SWEEP
    grids = sorted(cfg.exploratory_grids)
    for eps in eps_values:
        if eps >= (hi - lo) / 4:
            raise ConfigError("epsilon", "truncation exceeds a quarter cell")
        payload = {
            "family": cfg.family,
            "k": cfg.k,
            "q": cfg.q,
            "epsilon": eps,
            "count": cfg.count,
            "grids": grids,
        }
        for which, name in ((Partner.V1, "v1"), (Partner.V2, "v2")):
            rep = richardson_spectrum(partner_field(spec, which), lo + eps, hi - eps,
                                      cfg.count, grids, method="dense")
            payload[name] = rep.survey_payload()
            click.echo(f"eps={eps:g} {name}: max |Im E| = "
                       f"{payload[name]['max_imag_overall']:.3e}")
        path = _out_path(cfg, f"spectrum_eps_{eps:.0e}.json")
        write_text(path, json_text(payload) + "\n")
        click.echo(f"wrote {path}")


# ---------------------------------------------------------------------------
# verify


def run_verify(cfg):
    """Run every gate and the non-gating survey; write verify.json."""
    checks = gates.verify_gates(cfg.negative_control, cfg.barrier_v0, cfg.barrier_width)
    for gate in checks:
        click.echo(gate.line())
    exploratory = gates.truncation_survey(cfg.exploratory_grids)
    for line in exploratory["notes"]:
        click.echo(f"INFO {line}")

    passed = all(gate.passed for gate in checks)
    report = {"passed": passed, "checks": [gate._asdict() for gate in checks],
              "exploratory": exploratory}
    path = _out_path(cfg, "verify.json")
    write_text(path, json_text(report) + "\n")
    click.echo(f"wrote {path}")
    click.echo("verify: PASS" if passed else "verify: FAIL")
    return passed


# ---------------------------------------------------------------------------
# scatter


def run_scatter(cfg):
    if cfg.family == "barrier":
        return _scatter_barrier(cfg)
    return _scatter_plane(cfg)


def _scatter_barrier(cfg):
    v0 = cfg.barrier_v0
    energies = cfg.energies or tuple(
        m * abs(v0) for m in (0.1, 0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0))
    results, checks = gates.barrier(v0, cfg.barrier_width, energies)
    _write_sweep(cfg, results)
    for gate in checks:
        click.echo(gate.line())
    return all(gate.passed for gate in checks)


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
    if cfg.format == "json":
        payload = [dict(zip(SWEEP_HEADER, row)) for row in sweep_rows(results)]
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
    fn = click.option("--config", type=click.Path(), default=None,
                      help="Flat key=value file, flags win over it.")(fn)
    for key, (parser, _, help_text) in reversed(CONFIG_KEYS.items()):
        if help_text is not None:
            kind = {_parse_float: float, _parse_int: int}.get(parser)
            fn = click.option(f"--{key}", type=kind, default=None, help=help_text)(fn)
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
