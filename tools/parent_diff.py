"""Compare what the CLI writes at a base commit and in this checkout.

    python tools/parent_diff.py BASE [--allow PATH ...]

BASE is any git revision of this repository. Its tree is exported with
`git archive` into a temporary directory, which leaves the repository as it
was. Every command of COMMANDS then runs in the exported tree and in this
checkout as `python -m susywell.cli ...`, with PYTHONPATH=<tree>/src,
PYTHONWARNINGS=error::RuntimeWarning and one BLAS thread (the bytes of a
complex spectrum depend on the thread count), each into its own directory
under one output root, where its stdout and stderr are saved as
`stdout.txt` and `stderr.txt` beside its outputs and compared like them.
Both trees write to the same paths, so an output that records a path reads
the same in both.

Every file that differs or exists in one tree only is reported by its path
under the output root (for example `verify/verify.json`), and every command
whose exit code differs, or is not the code it expects in this checkout, by
its name. A .csv or .json file that differs also reports the largest
relative difference between the numbers at the same position of its two
versions, or that its structure differs (the text between the numbers, or
their count). With BASE = HEAD it is a rerun of the commands in fresh
processes, which must exit as expected and write the same bytes twice. The
exit status is 1 if any reported difference is not allowed, else 0.
`--allow PATH` allows the difference named PATH and every one under PATH/,
so `--allow verify` allows the exit code and every file of the verify
command.

ALLOW_LIST (tools/parent_diff_allow.txt) allows the same way, one
`<full base sha> <path>` per line; blank lines and lines starting with #
are skipped. An entry applies only when BASE resolves to its sha, so a
change that means to alter an output lists it against its own base commit,
and the entry allows nothing once a later commit is the base.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CUSTOM_DOMAIN = "custom_domain.cfg"
PT_WINDOW = "pt_window.cfg"
WIDE_WINDOW = "wide_window.cfg"
OFFCENTRE = "offcentre.cfg"
UNSETTLED = "unsettled.cfg"
OVERFLOWING = "overflowing.cfg"
THIN_BARRIER = "thin_barrier.cfg"
OPAQUE_BARRIER = "opaque_barrier.cfg"
STDOUT = "stdout.txt"
STDERR = "stderr.txt"
ALLOW_LIST = ROOT / "tools" / "parent_diff_allow.txt"

# the README commands, the q=0 spectra that CI reruns (the natural cell
# takes the closed-form guess, a custom domain bisects), figures at
# alpha != k, a plane sweep in json, a plane sweep on the PT-centred window
# pi/2 -+ pi, a q=0 tangent-well spectrum, a plane sweep on (0, 40 pi), 20
# periods long, and a q=1 spectrum on the off-centre domain (0.3, 2.8),
# whose diagonals are not PT-symmetric and so take the complex dense solve,
# and a thin barrier in json (width 0.05, a thin constant step and, at
# E = 4 = V, its sinc limit z = 0). Then three sweeps that are refused
# (exit 2). Two are plane sweeps whose series grow past their guard, each
# with several failing energies whose messages differ, so the stderr shows
# which is reported first: at q = 20 all of E = 0.5, 50, 2 and 60, at
# q = 200 all of E = 0.3, 0.25 and 0.5. The third is a barrier of
# kappa w = 690 at E = 1e-20, which passes the step guard and overflows in
# the free-wave match. Then a q=1 spectrum on the cell of alpha = 1e-300,
# whose h^2 leaves the double range, refused (exit 3). Last, the help of
# each subcommand, so that a change to any help text shows as a stdout
# difference (bare `--help` exits 3 with the appended --out, so it is left
# out).
# (name, arguments, expected exit code) each.
COMMANDS = (
    ("figures", ["figures"], 0),
    ("spectrum_q0", ["spectrum", "--q", "0", "--count", "4"], 0),
    ("spectrum_q2", ["spectrum", "--q", "2"], 0),
    ("verify", ["verify"], 0),
    ("scatter_barrier", ["scatter", "--family", "barrier"], 0),
    ("scatter_plane", ["scatter", "--family", "plane_right"], 0),
    ("q0_guessed", ["spectrum", "--q", "0", "--k", "2", "--alpha", "0.5", "--count", "6"], 0),
    ("q0_bisected", ["spectrum", "--q", "0", "--config", CUSTOM_DOMAIN], 0),
    ("figures_alpha", ["figures", "--q", "0", "--k", "1.3", "--alpha", "0.5"], 0),
    ("scatter_plane_left", ["scatter", "--family", "plane_left", "--format", "json"], 0),
    ("scatter_pt_window", ["scatter", "--family", "plane_right", "--config", PT_WINDOW], 0),
    ("spectrum_tangent", ["spectrum", "--family", "tangent_well", "--q", "0", "--count", "4"],
     0),
    ("scatter_wide_window", ["scatter", "--family", "plane_right", "--q", "2",
                             "--config", WIDE_WINDOW], 0),
    ("spectrum_offcentre", ["spectrum", "--q", "1", "--config", OFFCENTRE], 0),
    ("scatter_thin_barrier", ["scatter", "--family", "barrier", "--format", "json",
                              "--config", THIN_BARRIER], 0),
    ("scatter_unsettled", ["scatter", "--family", "plane_right", "--q", "20",
                           "--config", UNSETTLED], 2),
    ("scatter_overflowing", ["scatter", "--family", "plane_right", "--q", "200",
                             "--config", OVERFLOWING], 2),
    ("scatter_opaque_barrier", ["scatter", "--family", "barrier", "--config", OPAQUE_BARRIER],
     2),
    ("spectrum_wide_cell", ["spectrum", "--q", "1", "--alpha", "1e-300"], 3),
    ("figures_help", ["figures", "--help"], 0),
    ("spectrum_help", ["spectrum", "--help"], 0),
    ("verify_help", ["verify", "--help"], 0),
    ("scatter_help", ["scatter", "--help"], 0),
)


def export(rev: str, dest: Path):
    """Write the tree of rev into dest."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def run_commands(src: Path, work: Path) -> dict[str, int]:
    """Run COMMANDS against the package in src, writing under work/out.
    Returns the exit code of each command by name; each command's stdout
    and stderr are saved as STDOUT and STDERR in its output directory."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="error::RuntimeWarning",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # an installed susywell must not stand in for the tree under test
    found = subprocess.run([sys.executable, "-c", "import susywell; print(susywell.__file__)"],
                           env=env, cwd=work, capture_output=True, text=True, check=True)
    if not Path(found.stdout.strip()).is_relative_to(src):
        raise SystemExit(f"susywell imports from {found.stdout.strip()}, not from {src}")
    codes = {}
    for name, args, _ in COMMANDS:
        out = work / "out" / name
        proc = subprocess.run([sys.executable, "-m", "susywell.cli", *args, "--out", str(out)],
                              env=env, cwd=work, capture_output=True)
        codes[name] = proc.returncode
        out.mkdir(parents=True, exist_ok=True)
        (out / STDOUT).write_bytes(proc.stdout)
        (out / STDERR).write_bytes(proc.stderr)
    return codes


def differences(base: Path, head: Path, base_codes, head_codes) -> list[tuple[str, str]]:
    """(path, what differs) for every exit code that differs or is not the
    expected one at head, and every file that differs between the output
    roots base and head."""
    found = [(name, f"exit code {base_codes[name]} at base, {head_codes[name]} here")
             for name, _, expected in COMMANDS
             if base_codes[name] != head_codes[name] or head_codes[name] != expected]
    files = {path.relative_to(root).as_posix()
             for root in (base, head) for path in root.rglob("*") if path.is_file()}
    for rel in sorted(files):
        old, new = base / rel, head / rel
        if not new.is_file():
            found.append((rel, "only at base"))
        elif not old.is_file():
            found.append((rel, "only here"))
        elif old.read_bytes() != new.read_bytes():
            found.append((rel, f"differs, {numeric_gap(old.read_text(), new.read_text())}"
                               if old.suffix in (".csv", ".json") else "differs"))
    return found


# a decimal number, signed, with an optional exponent
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def numeric_gap(old: str, new: str) -> str:
    """How far apart two texts that differ only in their numbers are: the
    largest |a - b| / max(|a|, |b|) over the numbers at the same position,
    or "structure differs" when the text around the numbers differs."""
    old_text, new_text = NUMBER.split(old), NUMBER.split(new)
    if old_text != new_text:
        return "structure differs"
    gap = max((abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
               for a, b in zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new)))),
              default=0.0)
    return f"largest relative difference {gap:.1e}"


def resolve(rev: str) -> str:
    """The full sha of the commit that rev names."""
    found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                            f"{rev}^{{commit}}"], capture_output=True, text=True)
    if found.returncode:
        raise SystemExit(f"{rev} names no commit")
    return found.stdout.strip()


def allow_listed(text: str, sha: str) -> list[str]:
    """The paths that the allow-list text allows when BASE resolves to sha."""
    paths = []
    for number, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2 or not re.fullmatch(r"[0-9a-f]{40}", fields[0]):
            raise SystemExit(f"{ALLOW_LIST.name}:{number}: expected '<full base sha> <path>', "
                             f"got {line!r}")
        if fields[0] == sha:
            paths.append(fields[1])
    return paths


def allowed(path: str, allow) -> bool:
    return any(f"{path}/".startswith(f"{entry.rstrip('/')}/") for entry in allow)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("--allow", action="append", default=[], metavar="PATH",
                        help="a difference that is expected (repeatable)")
    args = parser.parse_args(argv)
    listed = allow_listed(ALLOW_LIST.read_text(), resolve(args.base))
    for path in listed:
        print(f"{ALLOW_LIST.name} allows {path} against {args.base}")
    allow = args.allow + listed
    with tempfile.TemporaryDirectory(prefix="parent_diff_") as tmp:
        tmp = Path(tmp).resolve()
        (tmp / CUSTOM_DOMAIN).write_text("x_min=0.3\nx_max=2.8\n")
        (tmp / PT_WINDOW).write_text(f"window_min={-math.pi / 2!r}\n"
                                     f"window_max={3 * math.pi / 2!r}\n")
        (tmp / WIDE_WINDOW).write_text(f"window_min=0.0\nwindow_max={40 * math.pi!r}\n"
                                       "energies=0.5,2.0,5.0\n")
        (tmp / OFFCENTRE).write_text("x_min=0.3\nx_max=2.8\nexploratory_grids=64,96,128\n")
        (tmp / UNSETTLED).write_text("energies=0.5,50,2,60\n")
        (tmp / OVERFLOWING).write_text("energies=0.3,0.25,0.5\n")
        (tmp / THIN_BARRIER).write_text("barrier_v0=4\nbarrier_width=0.05\n"
                                        "energies=0.4,2,4,8,40\n")
        (tmp / OPAQUE_BARRIER).write_text("barrier_v0=476100\nbarrier_width=1\n"
                                          "energies=1e-20\n")
        (tmp / "tree").mkdir()
        export(args.base, tmp / "tree")
        codes = {}
        for side, src in (("base", tmp / "tree" / "src"), ("head", ROOT / "src")):
            codes[side] = run_commands(src, tmp)
            shutil.move(tmp / "out", tmp / side)
        found = differences(tmp / "base", tmp / "head", codes["base"], codes["head"])
        for name, _, _ in COMMANDS:
            written = sum(path.is_file() and path.name not in (STDOUT, STDERR)
                          for path in (tmp / "head" / name).rglob("*"))
            print(f"{name}: exit {codes['head'][name]}, {written} files")
    for path, what in found:
        print(f"{'allowed' if allowed(path, allow) else 'DIFF'}: {path}: {what}")
    unexpected = sum(not allowed(path, allow) for path, _ in found)
    print(f"{len(COMMANDS)} commands against {args.base}: {len(found)} differences, "
          f"{unexpected} not allowed")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
