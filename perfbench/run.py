"""susywell benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload complex_survey --seed 1 --seconds 25 --trace 0

Builds the workload's op list from the seed, imports `susywell.cli` from
`src/` of this checkout, warms up, then runs passes over the op list through
the click entry point (one op at a time, no threads) until --seconds have
passed.  Every op's exit code and output files are checked.  --trace 0
reports the end-to-end metrics; --trace 1 alternates untraced and traced
passes and reports per-layer metrics from spans around each module's public
functions.  The last stdout line is the JSON result; a fuller record with an
environment block goes to perfbench/out/results/.
"""

import os

# One BLAS thread in this process and in every child it starts (the closed
# loop has one client and no extra threads).  Must precede the numpy import.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import click  # noqa: E402
from checks import CHECKS, plane_reference  # noqa: E402
from tracing import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 7
IMPORT_PROBES = 3

END_TO_END = (
    ("setup_s", "s", "fresh interpreter: start, import susywell.cli, ready for the first op"),
    ("wall_s", "s", "one warm pass over the op list"),
    ("peak_rss_mb", "MiB", "high-water resident memory of the benchmark process"),
    ("pass_frac", "ratio", "ops that exit 0 with checked outputs / ops attempted"),
)

# (name, unit, computed): computed values are derived from argument sizes,
# not measured (Sigma n^3, 16 n^2 bytes, slice and node counts, bytes written).
PER_LAYER = (
    ("cli.self_s", "s", False),
    ("cli.fail_frac", "ratio", False),
    ("cli.import.total_s", "s", False),
    ("cli.import.scipy_integrate_s", "s", False),
    ("cli.import.scipy_linalg_s", "s", False),
    ("cli.import.click_s", "s", False),
    ("susy_core.self_s", "s", False),
    ("susy_core.eval_partner.s", "s", False),
    ("susy_core.eval_partner.points", "count", True),
    ("susy_core.check_shape_invariance.s", "s", False),
    ("states.self_s", "s", False),
    ("states.s", "s", False),
    ("states.calls", "count", False),
    ("spectral.self_s", "s", False),
    ("spectral.eigenvalues.dense.s", "s", False),
    ("spectral.eigenvalues.dense.calls", "count", False),
    ("spectral.eigenvalues.dense.n3", "count", True),
    ("spectral.eigenvalues.dense.matrix_mb_max", "MB", True),
    ("spectral.eigenvalues.dense.share", "ratio", False),
    ("spectral.eigenvalues.symmetric.s", "s", False),
    ("spectral.eigenvalues.symmetric.calls", "count", False),
    ("spectral.eigenvalues.symmetric.nodes", "count", True),
    ("spectral.discretize.s", "s", False),
    ("spectral.discretize.nodes", "count", True),
    ("spectral.richardson_spectrum.s", "s", False),
    ("spectral.residual_gate_ratio", "ratio", False),
    ("spectral.errors", "count", False),
    ("scattering.self_s", "s", False),
    ("scattering.transmission_reflection.s", "s", False),
    ("scattering.transmission_reflection.calls", "count", False),
    ("scattering.transmission_reflection.share", "ratio", False),
    ("scattering.slices_integrated", "count", True),
    ("scattering.slices_accepted", "count", True),
    ("scattering.slice_yield", "ratio", True),
    ("scattering.doublings", "count", False),
    ("scattering.us_per_slice", "us", False),
    ("scattering.plane_partner_sweep.s", "s", False),
    ("scattering.errors", "count", False),
    ("serialize.self_s", "s", False),
    ("serialize.s", "s", False),
    ("serialize.bytes_out", "bytes", True),
    ("trace.op_s", "s", False),
    ("trace.overhead_s", "s", False),
)

IMPORT_KEYS = {"scipy.integrate": "cli.import.scipy_integrate_s",
               "scipy.linalg": "cli.import.scipy_linalg_s",
               "click": "cli.import.click_s"}


def _child_env():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    # children cache bytecode like an installed package, whatever the caller set
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to `import susywell.cli` done.

    One unrecorded probe first, so byte-compiling the sources is not timed.
    """
    times = []
    for i in range(probes + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", "import susywell.cli; print('ready')"],
                              stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("a fresh interpreter could not import susywell.cli")
        if i:
            times.append(elapsed)
    return times


def measure_imports(probes: int) -> dict[str, float]:
    """Median import costs from `python -X importtime -c 'import susywell.cli'`."""
    samples = {key: [] for key in ["cli.import.total_s", *IMPORT_KEYS.values()]}
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import susywell.cli"],
                              capture_output=True, text=True, env=_child_env(), cwd=ROOT,
                              timeout=120, check=True)
        found = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                cumulative = int(parts[1]) * 1e-6
            except ValueError:
                continue  # the header line
            raw = parts[2].rstrip()
            name = raw.strip()
            top_level = len(raw) - len(raw.lstrip()) <= 1
            if top_level and name.split(".")[0] == "susywell":
                found["cli.import.total_s"] += cumulative
            key = IMPORT_KEYS.get(name)
            if key and not found[key]:
                found[key] = cumulative
        for key, value in found.items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module, symbol):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        libs = glob.glob(str(Path(module.__file__).parent.parent / f"{module.__name__}.libs"
                             / "libscipy_openblas*"))
        try:
            threads = int(getattr(ctypes.CDLL(libs[0]), symbol)())
        except (IndexError, OSError, AttributeError):
            threads = None
        return {"name": info.get("name"), "version": info.get("version"), "threads": threads}

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "susywell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": BLAS_THREADS,
        "blas_numpy": blas(numpy, "scipy_openblas_get_num_threads64_"),
        "blas_scipy": blas(scipy, "scipy_openblas_get_num_threads"),
        "platform": platform.platform(),
    }


def run_op(main, op, tracer=None):
    """Invoke the click entry point with op.argv; return (exit code, seconds, text)."""
    if op.out.exists():
        shutil.rmtree(op.out)
    sink = io.StringIO()
    if tracer is not None:
        tracer.begin_op(op.command)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            main.main(args=op.argv, prog_name="susywell", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception:  # a crash is an op failure, recorded with its traceback
            code = -1
            traceback.print_exc(file=sink)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op(code != 0)
    return code, elapsed, sink.getvalue()


def check_op(op, code, reference):
    """(ok, detail): the exit code is one the input allows and the outputs hold."""
    if code not in op.expect:
        return False, f"exit {code}, expected {sorted(op.expect)}"
    try:
        ok, detail = CHECKS[op.check](op, reference)
        return bool(ok), detail
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return False, f"{type(exc).__name__}: {exc}"


def main_entry(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not (SRC / "susywell" / "cli.py").is_file():
        print(f"no susywell sources under {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        imports = measure_imports(IMPORT_PROBES)
    else:
        setup_samples = measure_setup(SETUP_PROBES)

    sys.path.insert(0, str(SRC))
    import susywell.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "susywell":
        print(f"imported susywell from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / stem
    if workdir.exists():
        shutil.rmtree(workdir)
    warm, ops = build(args.workload, args.seed, workdir)
    references = [plane_reference(op.params) if op.check == "scatter_plane" else None
                  for op in ops]
    for op in warm:
        run_op(cli.main, op)

    tracer = Tracer() if args.trace else None
    pass_times = {False: [], True: []}
    op_records = [[] for _ in ops]
    attempted = failed = op_failures = 0
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(pass_times[False]) > len(pass_times[True])
        if traced:
            tracer.install()
        total = 0.0
        try:
            for i, op in enumerate(ops):
                code, elapsed, text = run_op(cli.main, op, tracer if traced else None)
                total += elapsed
                ok, detail = check_op(op, code, references[i])
                attempted += 1
                failed += not ok
                op_failures += code != 0 or not ok
                op_records[i].append({"exit": code, "s": elapsed, "ok": ok, "detail": detail,
                                      **({"output": text[-2000:]} if not ok else {})})
        finally:
            if traced:
                tracer.uninstall()
        pass_times[traced].append(total)
        # at least two passes: a median of two, or one untraced and one traced
        passes = len(pass_times[False]) + len(pass_times[True])
        if passes >= 2 and time.perf_counter() - t_start >= args.seconds:
            break

    untraced = statistics.median(pass_times[False])
    fail_frac = op_failures / attempted
    samples = {"wall_s": len(pass_times[False]), "ops_per_pass": len(ops)}
    if args.trace:
        values = layer_metrics(tracer.spans, len(pass_times[True]))
        values.update(imports)
        values["trace.overhead_s"] = statistics.median(pass_times[True]) - untraced
        values["cli.fail_frac"] = fail_frac
        metrics = {name: (values[name], unit, computed) for name, unit, computed in PER_LAYER}
        samples.update(traced_passes=len(pass_times[True]), importtime_probes=IMPORT_PROBES)
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": untraced,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - fail_frac,
        }
        metrics = {name: (values[name], unit, False) for name, unit, _ in END_TO_END}
        samples["setup_s"] = SETUP_PROBES
        samples["setup_samples_s"] = setup_samples

    notes = {name: note for name, _, note in END_TO_END}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{sum(map(len, pass_times.values()))} passes x {len(ops)} ops in "
          f"{time.perf_counter() - t_start:.1f} s")
    for name, (value, unit, computed) in metrics.items():
        tag = " [computed]" if computed else ""
        print(f"  {name:42s} {value:14.6g} {unit:6s}{tag} {notes.get(name, '')}")
    if args.trace:
        accounted = sum(values[f"{layer}.self_s"] for layer in ("cli", *LAYERS))
        print(f"  self times of cli and the layers sum to {accounted:.6g} s of "
              f"trace.op_s {values['trace.op_s']:.6g} s")
    print(f"  samples: {json.dumps(samples)}")
    print(f"  fail_frac {fail_frac:.4f} = {op_failures}/{attempted} ops exited non-zero or "
          f"failed a check; {failed} failed the benchmark's own exit-code and output checks")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "metrics": {name: {"value": v, "unit": u, "computed": c}
                    for name, (v, u, c) in metrics.items()},
        "samples": samples, "fail_frac": fail_frac, "attempted": attempted, "failed": failed,
        "pass_times_s": {"untraced": pass_times[False], "traced": pass_times[True]},
        "ops": [{"label": op.label, "argv": op.argv, "expect": sorted(op.expect),
                 "runs": recs} for op, recs in zip(ops, op_records)],
    }
    if tracer is not None:
        spans_path = results / f"{stem}.spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.record(t_start)) + "\n")
        record["spans"] = str(spans_path.relative_to(ROOT))
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(workdir)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main_entry())
