"""Seeded op lists for the three benchmark workloads.

An op is one `susywell` command line plus what the benchmark expects of it:
the exit codes the input allows and the output check to run afterwards.
Every workload is a fixed design (the same number of ops of each kind and
the same grid sizes in every seed) whose physical parameters the seed draws
or jitters. That keeps the work per pass nearly seed independent, so the
spread across seeds measures the program and not the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("complex_survey", "plane_scatter", "real_gated")

# Exit codes: 0 success, 1 a physics gate failed.  Inputs that hit the known
# false FAILs of the q=0 gate (alpha != k, or a finest grid below 4000, where
# the gate compares raw levels against a k-only reference) may exit 0 or 1;
# their outputs are still checked against the true levels.
OK = frozenset({0})
KNOWN_FALSE_FAIL = frozenset({0, 1})


@dataclass
class Op:
    label: str
    argv: list[str]
    out: Path
    expect: frozenset = OK
    check: str = "none"
    params: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


def _num(x: float) -> str:
    return repr(round(float(x), 6))


def _jitter(rng: random.Random, centre: float, rel: float) -> float:
    return centre * (1.0 + rel * (2.0 * rng.random() - 1.0))


def _write_config(path: Path, entries: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k}={v}\n" for k, v in entries.items()), encoding="utf-8")
    return str(path)


def build(name: str, seed: int, workdir: Path) -> tuple[list[Op], list[Op]]:
    """(warm-up ops, timed op list) for one workload and seed."""
    rng = random.Random(f"{name}:{seed}")
    make_ops = {"complex_survey": _complex_survey, "plane_scatter": _plane_scatter,
                "real_gated": _real_gated}[name]
    warm = make_ops(random.Random(f"warm:{name}"), workdir / "warm", warm=True)
    return warm, make_ops(rng, workdir / "ops")


def _op(ops, workdir, label, argv, **kw):
    out = workdir / f"{len(ops):02d}_{label}"
    ops.append(Op(label, argv + ["--out", str(out)], out, **kw))


def _complex_survey(rng, workdir, warm=False):
    """Dense complex eig at the default exploratory grids (200, 400, 800)."""
    ops = []
    extra = []
    if warm:
        # same code paths at tiny grids, so the warm-up costs well under a second
        extra = ["--config", _write_config(workdir / "warm.cfg",
                                           {"exploratory_grids": "32,48,64"})]
    for family in ("cotangent_well", "tangent_well"):
        k = rng.choice((1.0, 2.0)) * _jitter(rng, 1.0, 0.05)
        q = rng.uniform(0.5, 3.0)
        eps = rng.choice((1e-2, 1e-3, 1e-4))
        count = rng.randint(2, 8)
        _op(ops, workdir, f"spectrum_{family}",
            ["spectrum", "--family", family, "--k", _num(k), "--q", _num(q),
             "--epsilon", repr(eps), "--count", str(count)] + extra,
            check="spectrum_complex", params={"count": count})
    _op(ops, workdir, "verify", ["verify"] + extra, check="verify")
    return ops


# (family, partner, q, energies in units of k^2) per sweep.  The design spans
# 0 to 3 slice doublings per energy; each point keeps its doubling count under
# the seed's jitter (1% in q, 0.5% in E), which the count does not at many
# other points.  So the seed moves every input but not the work per pass.
_PLANE_DESIGN = (
    ("plane_right", "v1", 1.0, (0.3, 1.0, 1.2, 2.5, 5.0)),
    ("plane_right", "v1", 1.5, (0.45, 0.6, 1.0, 1.2, 2.0)),
    ("plane_right", "v2", 0.5, (0.3, 0.6, 1.0, 2.0, 4.0)),
    ("plane_right", "v2", 1.5, (0.45, 1.0, 3.2, 4.0, 5.0)),
    ("plane_left", "v1", 1.0, (0.3, 1.0, 1.6, 2.5, 4.0)),
    ("plane_left", "v1", 1.5, (0.3, 0.45, 1.6, 2.0, 3.2)),
    ("plane_left", "v2", 0.5, (0.8, 1.0, 1.6, 2.5, 5.0)),
    ("plane_left", "v2", 1.5, (0.6, 2.0, 2.5, 3.2, 4.0)),
)


def _plane_scatter(rng, workdir, warm=False):
    """Thin-slice sweeps of the complex plane partners, no eigen work."""
    ops = []
    design = [(f, p, q, e[:1]) for f, p, q, e in _PLANE_DESIGN[::2]] if warm else _PLANE_DESIGN
    for i, (family, partner, q_centre, energies_c) in enumerate(design):
        q = _jitter(rng, q_centre, 0.01)
        energies = [round(_jitter(rng, e, 0.005), 6) for e in energies_c]
        fmt = "json" if i % 2 else "csv"
        cfg = _write_config(workdir / f"plane{i}.cfg",
                            {"partner": partner, "energies": ",".join(map(repr, energies))})
        _op(ops, workdir, f"scatter_{family}_{partner}",
            ["scatter", "--family", family, "--q", _num(q), "--format", fmt, "--config", cfg],
            check="scatter_plane",
            params={"family": family, "partner": partner, "k": 1.0, "q": round(q, 6),
                    "energies": energies, "format": fmt, "window": (0.0, 2.0 * math.pi)})
    return ops


def _real_gated(rng, workdir, warm=False):
    """Many short q=0 spectra, barrier sweeps and figures: per-call cost."""
    ops = []
    blocks = 1 if warm else 4
    families = ("cotangent_well", "tangent_well")
    # The tridiagonal solve costs about grid x count, so each grid slot gets
    # a fixed set of counts in seeded order: the work per pass stays the same.
    counts = {slot: rng.sample(values, len(values)) for slot, values in
              (("4000", [2, 4, 6, 8]), ("6000", [3, 5, 7, 8]), ("8000", [2, 4, 6, 8]),
               ("alpha", [2, 4, 6, 8]), ("coarse", [8, 8, 8, 8]))}

    def spectrum(block, slot, grid, alpha_ratio, give_alpha, expect):
        family = families[len(ops) % 2]
        count = counts[slot][block]
        # k >= 1 on the coarse grids, where the ladder check then fails on every draw
        k = rng.uniform(1.0 if slot == "coarse" else 0.5, 3.0)
        alpha = k * alpha_ratio
        argv = ["spectrum", "--q", "0", "--family", family, "--k", _num(k),
                "--count", str(count), "--grid", str(grid)]
        if give_alpha:
            argv += ["--alpha", _num(alpha)]
        _op(ops, workdir, "spectrum_q0", argv, expect=expect, check="spectrum_q0",
            params={"k": round(k, 6), "alpha": round(alpha, 6) if give_alpha else round(k, 6),
                    "count": count})

    for block in range(blocks):
        # three clean gated runs: alpha = k (implicit and explicit), grid >= 4000
        for grid, give_alpha in ((4000, False), (6000, True), (8000, False)):
            spectrum(block, str(grid), grid, 1.0, give_alpha, OK)
        # one known false FAIL of each kind.  k/alpha is an integer so the
        # levels are smooth in h^2 and the extrapolation can be checked
        # tightly; 8 levels on a 1000 or 2000 grid always fail the raw ladder
        spectrum(block, "alpha", 4000, rng.choice((1 / 2, 1 / 3, 1 / 4)), True, KNOWN_FALSE_FAIL)
        spectrum(block, "coarse", (1000, 2000)[block % 2], 1.0, False, KNOWN_FALSE_FAIL)
        for sign in (1.0, -1.0):
            v0 = sign * rng.uniform(1.0, 8.0)
            width = rng.uniform(0.3, 2.0)
            energies = [round(_jitter(rng, m, 0.05) * abs(v0), 6)
                        for m in (0.2, 0.5, 0.9, 1.3, 2.0, 5.0)]
            fmt = "json" if sign > 0 else "csv"
            cfg = _write_config(workdir / f"barrier{len(ops)}.cfg",
                                {"barrier_v0": repr(round(v0, 6)),
                                 "barrier_width": repr(round(width, 6)),
                                 "energies": ",".join(map(repr, energies))})
            _op(ops, workdir, "scatter_barrier",
                ["scatter", "--family", "barrier", "--format", fmt, "--config", cfg],
                check="scatter_barrier",
                params={"v0": round(v0, 6), "width": round(width, 6), "energies": energies,
                        "format": fmt})
    k = rng.uniform(0.5, 2.0)
    q = rng.uniform(0.5, 3.0)
    _op(ops, workdir, "figures", ["figures", "--k", _num(k), "--q", _num(q)],
        check="figures", params={"k": round(k, 6), "q": round(q, 6), "epsilon": 1e-3})
    return ops
