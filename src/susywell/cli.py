"""Command line front end.

Four subcommands share one small flag set.  Everything more exotic (barrier
geometry, energy lists, sweep windows, exploratory grid sizes) comes in
through a flat key=value config file so the flag surface stays stable.

Exit codes: 0 success, 1 a physics gate failed, 2 a solver did not converge
(a ConvergenceFailure), 3 the request was refused (any other SusywellError).
"""

from __future__ import annotations

import functools
import math
import os
import sys
from types import SimpleNamespace

import click

from . import gates, scattering, states
from .errors import ConfigError, ConvergenceFailure, SusywellError
from .scattering import WRONSKIAN_TOL
from .serialize import csv_text, json_text, write_text
from .susy_core import (
    Family,
    Partner,
    SuperpotentialSpec,
    WELL_FAMILIES,
    fundamental_cell,
)

FAMILY_TOKENS = {fam.value: fam for fam in Family}

PARTNER_TOKENS = {"v1": Partner.V1, "v2": Partner.V2}

# Upper bound on the dense eigensolver's memory for the largest exploratory
# grid. LAPACK works in place on one n x n matrix: 8 n^2 bytes for the real
# PT form, 16 n^2 for the complex fallback. The rule charges 32 n^2, twice
# the complex footprint, a margin kept so that the set of admitted grids
# stays fixed: 1 GiB admits n up to 5792.
DENSE_MEMORY_LIMIT = 1 << 30

# the default plane `scatter` energies, in units of k^2 (a barrier's are
# gates.BARRIER_MULTIPLES, in units of |barrier_v0|)
PLANE_ENERGIES = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)

# the columns of a `scatter` sweep, one row per energy in csv and json alike
SWEEP_HEADER = ("energy", "r_re", "r_im", "t_re", "t_im", "R", "T", "flux_defect")


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
# the defaults of the command (COMMANDS), and those override the defaults here.
CONFIG_KEYS = {
    "family": (_parse_text, "cotangent_well", "Potential family name."),
    "k": (_parse_float, 1.0, "Well depth scale."),
    "q": (_parse_float, 0.0, "Imaginary coupling."),
    "alpha": (_parse_float, None, "Ladder step, defaults to k."),
    "epsilon": (_parse_float, gates.EPSILON, "Edge truncation."),
    "grid": (_parse_int, gates.GRID, "Finest interior grid size."),
    "count": (_parse_int, gates.COUNT, "Number of levels."),
    "out": (_parse_text, ".", "Output directory."),
    "format": (_parse_lower, "csv", "csv or json."),
    "x_min": (_parse_float, None, None),
    "x_max": (_parse_float, None, None),
    "window_min": (_parse_float, None, None),
    "window_max": (_parse_float, None, None),
    "energies": (_list_of(_parse_float, "numbers"), (), None),
    "barrier_v0": (_parse_float, gates.BARRIER_V0, None),
    "barrier_width": (_parse_float, gates.BARRIER_WIDTH, None),
    "exploratory_grids": (_list_of(_parse_int, "integers"), gates.EXPLORATORY_GRIDS, None),
    "partner": (_parse_text, "v1", None),
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
    """Merge defaults, the config file, then the flags set, and validate.

    The result has one attribute per CONFIG_KEYS key (default `scatter`
    energies filled in), `command` and `spec` (None for the barrier); a
    `spectrum` gets its `cell`, untruncated, and its `grids`, coarsest
    first, and a plane `scatter` its `window`."""
    cfg = SimpleNamespace(command=command, **{key: spec[1] for key, spec in CONFIG_KEYS.items()})
    vars(cfg).update(COMMANDS[command][1])
    from_file = load_config_file(flags["config"]) if flags.get("config") else {}
    from_flags = {key: value for key, value in flags.items()
                  if key in CONFIG_KEYS and value is not None}
    for key, raw in [*from_file.items(), *from_flags.items()]:
        setattr(cfg, key, CONFIG_KEYS[key][0](key, raw))
    _validate(cfg)
    return cfg


def _validate(cfg):
    # the closed forms square k, q and alpha, the barrier oracle barrier_v0
    # and barrier_width, and the barrier step its width (a plane window is
    # held to the same below): each square must be finite; x * x is inf
    # where a float ** would raise
    for key in ("k", "q", "alpha", "barrier_v0", "barrier_width"):
        value = getattr(cfg, key) or 0.0
        if not math.isfinite(value * value):
            raise ConfigError(key, "its square leaves the double range")
    fam = FAMILY_TOKENS.get(cfg.family)
    if fam is None and cfg.family != "barrier":
        raise ConfigError("family", f"unknown family {cfg.family!r}")
    if cfg.command in ("figures", "spectrum") and fam not in WELL_FAMILIES:
        raise ConfigError("family", f"{cfg.command} needs a well family")
    if cfg.command == "scatter" and cfg.family not in ("barrier", "plane_right", "plane_left"):
        raise ConfigError("family", "scatter needs barrier, plane_right or plane_left")
    if cfg.k <= 0:
        raise ConfigError("k", "must be positive")
    if cfg.alpha is not None and cfg.alpha <= 0:
        raise ConfigError("alpha", "must be positive")
    if cfg.epsilon <= 0:
        raise ConfigError("epsilon", "must be positive")
    # figures tabulates (epsilon, pi/max(k, alpha) - epsilon); spectrum at
    # q != 0 checks its own cell, and no other command reads epsilon
    if cfg.command == "figures" and cfg.epsilon >= math.pi / max(cfg.k, cfg.alpha or cfg.k) / 4:
        raise ConfigError("epsilon", "must lie in (0, cell/4)")
    if cfg.grid < 64:
        raise ConfigError("grid", "need at least 64 interior points")
    if cfg.count < 1:
        raise ConfigError("count", "must be at least 1")
    if cfg.command == "spectrum" and cfg.q == 0.0 and cfg.x_min is None and cfg.count < 2:
        raise ConfigError("count", "the q=0 ladder gate pairs V2 level j with V1 level j+1, "
                                   "so it needs at least 2 levels")
    if cfg.barrier_width <= 0:
        raise ConfigError("barrier_width", "must be positive")
    if cfg.format not in ("csv", "json"):
        raise ConfigError("format", "must be csv or json")
    if cfg.command == "spectrum" and cfg.format != "json":
        raise ConfigError("format", "spectrum reports are always json")
    if cfg.command == "spectrum":
        # at q != 0 the exploratory grids, which nothing else reads, each
        # solved by the dense eigensolver
        cfg.grids = ((cfg.grid // 4, cfg.grid // 2, cfg.grid) if cfg.q == 0.0
                     else tuple(sorted(cfg.exploratory_grids)))
    if cfg.command == "spectrum" and cfg.q != 0.0:
        if cfg.grids[0] < 16:
            raise ConfigError("exploratory_grids", "each grid needs at least 16 points")
        if len(cfg.grids) < 2 or len(set(cfg.grids)) < len(cfg.grids):
            raise ConfigError("exploratory_grids", "need at least two grid sizes, all different")
        dense_bytes = 32 * cfg.grids[-1] ** 2
        if dense_bytes > DENSE_MEMORY_LIMIT:
            raise ConfigError("exploratory_grids",
                              f"grid {cfg.grids[-1]} is charged {dense_bytes / 2**30:.1f} GiB "
                              f"(32 n^2 bytes) for the dense eigensolver, over the "
                              f"{DENSE_MEMORY_LIMIT / 2**30:g} GiB limit")
    if cfg.command == "spectrum" and cfg.count > cfg.grids[0]:
        raise ConfigError("count", f"the coarsest grid, {cfg.grids[0]}, "
                                   f"cannot resolve {cfg.count} levels")
    if (cfg.window_min is None) != (cfg.window_max is None):
        raise ConfigError("window_min", "window_min and window_max go together")
    if cfg.window_min is not None and cfg.window_min >= cfg.window_max:
        raise ConfigError("window_min", "window must have positive width")
    width = cfg.window_max - cfg.window_min if cfg.window_min is not None else 0.0
    if not math.isfinite(width * width):
        raise ConfigError("window_min", "the square of the window width leaves the double range")
    if (cfg.x_min is None) != (cfg.x_max is None):
        raise ConfigError("x_min", "x_min and x_max go together")
    if cfg.x_min is not None and cfg.x_min >= cfg.x_max:
        raise ConfigError("x_min", "domain must have positive width")
    if cfg.partner not in PARTNER_TOKENS:
        raise ConfigError("partner", "must be v1 or v2")
    cfg.spec = None if fam is None else SuperpotentialSpec(fam, cfg.k, cfg.q, cfg.alpha)
    if cfg.command == "spectrum":
        custom = cfg.x_min is not None
        cfg.cell = (cfg.x_min, cfg.x_max) if custom else fundamental_cell(cfg.spec)
        lo, hi = cfg.cell
        # the finest grid of the cell puts 2/h^2 on the diagonal, and at q = 0
        # Sturm bisection (LAPACK stebz) multiplies neighbouring diagonal
        # entries: past (2/h^2)^2 it splits H into 1 x 1 blocks. Each grid
        # also squares its own h, and on a wide cell the coarsest grid's h^2
        # leaves the double range
        h = (hi - lo) / (cfg.grids[-1] + 1)
        coarse = (hi - lo) / (cfg.grids[0] + 1)
        least, what = (((4.0 / sys.float_info.max) ** 0.25, "(2/h^2)^2") if cfg.q == 0.0
                       else (math.sqrt(2.0 / sys.float_info.max), "2/h^2"))
        if h < least or not math.isfinite(coarse * coarse):
            n, what = (cfg.grids[-1], what) if h < least else (cfg.grids[0], "h^2")
            raise ConfigError("x_min" if custom else "alpha",
                              f"{n} points on ({lo!r}, {hi!r}) leave {what} out of range")
        # a level is certified when its gap passes eps max(1, ||H||_inf), and
        # 2/h^2 <= ||H||_inf, so no level of a ladder whose first spacing
        # alpha (alpha + 2k) is at most twice eps max(1, 2/h^2) can be
        if cfg.q == 0.0 and not custom:
            alpha = cfg.alpha or cfg.k
            spacing = alpha * (alpha + 2.0 * cfg.k)
            floor = 2.0 * sys.float_info.epsilon * max(1.0, 2.0 / (h * h))
            if spacing <= floor:
                raise ConfigError("k", f"the first ladder spacing {spacing!r} is at most "
                                       f"2 eps max(1, 2/h^2) = {floor!r}: no level can be "
                                       "certified")
        if cfg.q != 0.0 and cfg.epsilon >= (hi - lo) / 4:
            raise ConfigError("epsilon", "truncation exceeds a quarter cell")
    if cfg.command == "scatter" and fam is not None:
        cfg.window = ((cfg.window_min, cfg.window_max) if cfg.window_min is not None
                      else (0.0, 2 * math.pi / cfg.k))
    if cfg.command == "scatter" and not cfg.energies:
        scale, multiples = ((abs(cfg.barrier_v0), gates.BARRIER_MULTIPLES)
                            if cfg.family == "barrier" else (cfg.k ** 2, PLANE_ENERGIES))
        cfg.energies = tuple(m * scale for m in multiples)
    for e in cfg.energies:
        if e <= 0:
            raise ConfigError("energies", "scattering energies must be positive")
        if 2.0 * math.sqrt(e) < WRONSKIAN_TOL:
            raise ConfigError("energies", f"energy {e!r} is too small to match free waves: "
                                          f"2 sqrt(E) is below {WRONSKIAN_TOL:g}")


def _echo(text, err=False):
    # the stream current at call time, passed in: click.echo with no file
    # caches a wrapper per sys.stdout object it meets, and for a text
    # stream the wrapper is the stream itself, so the cache keeps every
    # stream that an in-process caller swaps in alive with its text
    click.echo(text, file=sys.stderr if err else sys.stdout)


def _write(cfg, name, text):
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, name)
    write_text(path, text)
    _echo(f"wrote {path}")


# ---------------------------------------------------------------------------
# figures


def run_figures(cfg):
    """Write fig1.csv / fig2.csv: both well potentials plus real baselines."""
    for name, text in gates.figure_tables(cfg.k, cfg.q, cfg.epsilon, cfg.alpha).items():
        _write(cfg, name, text)
    return True


# ---------------------------------------------------------------------------
# spectrum


def run_spectrum(cfg):
    return _spectrum_q0(cfg) if cfg.q == 0.0 else _spectrum_exploratory(cfg)


def _spectrum_q0(cfg):
    """Real q=0 path: Richardson ladders of both partners, gated against the
    exact box levels (k + n alpha)^2 - k^2, which hold on the natural cell
    only; a custom x_min/x_max domain is recorded without a gate."""
    v1, v2 = gates.box_spectra(cfg.spec, cfg.cell, (cfg.count, cfg.count), cfg.grids)
    for name, rep in (("v1", v1), ("v2", v2)):
        _write(cfg, f"{name}_spectrum.json", json_text(spectrum_payload(rep)) + "\n")
    if cfg.x_min is not None:
        _echo(f"custom domain [{cfg.x_min:g}, {cfg.x_max:g}]: spectra recorded, not gated")
        return True
    _echo("level   raw            extrapolated   exact")
    for m in range(cfg.count):
        _echo(f"{m:5d}   {v1.eigenvalues[m].real:.10f}   "
              f"{v1.richardson_estimates[m]:.10f}   "
              f"{states.remainder_spectrum(m, cfg.k, cfg.alpha):.10f}")
    gate = gates.spectrum_q0(v1, v2, cfg.k, cfg.alpha)
    _echo(gate.line())
    return gate.passed


def _spectrum_exploratory(cfg):
    """Complex q != 0 path: record, ungated, the spectra of the cell cut
    short by epsilon at each wall; a survey over epsilon is one run each."""
    eps, (lo, hi) = cfg.epsilon, cfg.cell
    reports = gates.box_spectra(cfg.spec, (lo + eps, hi - eps), (cfg.count, cfg.count),
                                cfg.grids)
    blocks = {which.name.lower(): survey_payload(rep) for which, rep in zip(Partner, reports)}
    for name, block in blocks.items():
        _echo(f"eps={eps:g} {name}: max |Im E| = {block['max_imag_overall']:.3e}")
    payload = {"family": cfg.family, "k": cfg.k, "q": cfg.q, "epsilon": eps,
               "count": cfg.count, "grids": cfg.grids, **blocks}
    _write(cfg, f"spectrum_eps_{eps:.0e}.json", json_text(payload) + "\n")
    return True


def spectrum_payload(rep):
    """The json object of one SpectrumReport, its levels as [re, im] pairs."""
    return {
        "eigenvalues": [[ev.real, ev.imag] for ev in rep.eigenvalues],
        "max_imag": rep.max_imag,
        "grid_sizes_used": list(rep.grid_sizes_used),
        "richardson_estimates": list(rep.richardson_estimates),
    }


def survey_payload(rep):
    """The json object of one partner's q != 0 survey: every grid's
    spectrum_payload, and the largest |Im E| over all grids."""
    return {
        "per_grid": [spectrum_payload(grid) for grid in rep.per_grid],
        "richardson_real": list(rep.richardson_estimates),
        "max_imag_overall": max(grid.max_imag for grid in rep.per_grid),
    }


# ---------------------------------------------------------------------------
# verify


def run_verify(cfg):
    """Run every gate of gates.CHECKS, record the claims they cover, and
    write verify.json."""
    claimed = gates.verify_gates()
    for _, gate in claimed:
        _echo(gate.line())

    passed = all(gate.passed for _, gate in claimed)
    claims = {key: {"statement": text, "checks": [g.name for c, g in claimed if c == key]}
              for key, text in gates.CLAIMS.items()}
    report = {"passed": passed, "checks": [gate._asdict() for _, gate in claimed],
              "claims": claims}
    _write(cfg, "verify.json", json_text(report) + "\n")
    _echo("verify: PASS" if passed else "verify: FAIL")
    return passed


# ---------------------------------------------------------------------------
# scatter


def run_scatter(cfg):
    """Sweep the barrier, gated against its closed form, or a plane partner,
    recorded; write the sweep, then print each gate or each energy."""
    checks = ()
    if cfg.family == "barrier":
        results, checks = gates.barrier(cfg.barrier_v0, cfg.barrier_width, cfg.energies)
        lines = [gate.line() for gate in checks]
    else:
        results = scattering.plane_partner_sweep(cfg.spec, PARTNER_TOKENS[cfg.partner],
                                                 cfg.window, cfg.energies)
        lines = [f"E={res.energy:g}: T={res.transmission:.6f} R={res.reflection:.6f} "
                 f"defect={res.flux_defect:.3e}" for res in results]
    if cfg.format == "json":
        payload = [dict(zip(SWEEP_HEADER, row)) for row in sweep_rows(results)]
        _write(cfg, "scatter.json", json_text({"rows": payload}) + "\n")
    else:
        _write(cfg, "scatter.csv", csv_text(SWEEP_HEADER, sweep_rows(results)))
    for line in lines:
        _echo(line)
    return all(gate.passed for gate in checks)


def sweep_rows(results):
    """The SWEEP_HEADER values of a sweep, one row per energy."""
    return [[res.energy, res.r.real, res.r.imag, res.t.real, res.t.imag,
             res.reflection, res.transmission, res.flux_defect] for res in results]


# ---------------------------------------------------------------------------
# click wiring

# name: (run, the defaults it sets over those of CONFIG_KEYS, help)
COMMANDS = {
    "figures": (run_figures, {"q": gates.FIGURE_Q},
                "Tabulate both well potentials next to their real baselines."),
    "spectrum": (run_spectrum, {"format": "json"},
                 "Solve the box spectrum, gated for q=0, recorded for complex q."),
    "verify": (run_verify, {}, "Run every physics gate and write verify.json."),
    "scatter": (run_scatter, {"q": 1.0, "family": "plane_right"},
                "Sweep transmission through a barrier or a travelling wave potential."),
}


def _execute(command, **flags):
    try:
        ok = COMMANDS[command][0](build_config(command, flags))
    except ConfigError as exc:
        _echo(f"config error: {exc}", err=True)
        sys.exit(3)
    except ConvergenceFailure as exc:
        _echo(f"convergence failure: {exc}", err=True)
        sys.exit(2)
    except SusywellError as exc:
        _echo(f"invalid request: {exc}", err=True)
        sys.exit(3)
    sys.exit(0 if ok else 1)


def shared_options(fn):
    fn = click.option("--config", default=None,
                      help="Flat key=value file, flags win over it.")(fn)
    # each value reaches its CONFIG_KEYS parser as text, so a malformed
    # flag is refused as the same value in a config file is
    for key, (_, _, help_text) in reversed(CONFIG_KEYS.items()):
        if help_text is not None:
            fn = click.option(f"--{key}", default=None, help=help_text)(fn)
    return fn


class _RefusingGroup(click.Group):
    # a usage error (an unknown flag or subcommand, a flag without its value,
    # no subcommand) is a refused request: exit 3, not click's 2
    def parse_args(self, ctx, args):
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            exc.exit_code = 3
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = 3
            raise


@click.group(cls=_RefusingGroup)
def main():
    """Complex supersymmetric well toolkit."""


for _name, (_, _, _help) in COMMANDS.items():
    main.command(_name, help=_help)(shared_options(functools.partial(_execute, _name)))


if __name__ == "__main__":
    main()
