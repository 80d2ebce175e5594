"""Spans around susywell's public functions, recorded from outside.

While installed, every public function of each layer module is replaced by
a timing wrapper in every susywell namespace that binds it (the package,
`cli`, and the layer modules that import each other's names), so a call is
seen whether it arrives through `susywell.cli.eigenvalues` or through the
`susywell.spectral.eigenvalues` global that `richardson_spectrum` looks up.
Spans stay in memory and are written out by the caller at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time

import numpy as np

LAYERS = ("susy_core", "states", "spectral", "scattering", "serialize")
NAMESPACES = ("susywell", "susywell.cli") + tuple(f"susywell.{name}" for name in LAYERS)
STATES_GATES = ("states.schrodinger_residual", "states.probability_density", "states.pt_asymmetry")


class Span:
    __slots__ = ("id", "name", "layer", "parent", "op", "start", "end", "child", "error", "info")

    def __init__(self, sid, name, layer, parent, op, start):
        self.id, self.name, self.layer, self.parent, self.op = sid, name, layer, parent, op
        self.start, self.end, self.child, self.error, self.info = start, start, 0.0, False, None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    def record(self, t0: float) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "op": self.op,
                "start": self.start - t0, "end": self.end - t0, "error": self.error,
                "info": self.info}


# Counters read from arguments and results after a span closes, so their cost
# is outside the span.  All of them are computed from array sizes.
def _points(args, kwargs, result):
    return {"points": int(np.size(args[2] if len(args) > 2 else kwargs["x"]))}


def _eigen(args, kwargs, result):
    ham = args[0]
    method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
    if method == "auto":
        method = "symmetric" if ham.is_real else "dense"
    worst = float(max(result.scaled_residuals, default=0.0))
    return {"method": method, "n": ham.grid.n_interior, "worst_scaled_residual": worst}


def _nodes(args, kwargs, result):
    return {"nodes": args[1].n_interior}


def _slices(args, kwargs, result):
    return {"energy": float(args[1]),
            "slices": sum(getattr(seg, "slices", 0) for seg in args[0].segments)}


def _bytes(args, kwargs, result):
    return {"bytes": len(args[1].encode("utf-8"))}


HOOKS = {
    "susy_core.eval_partner": _points,
    "spectral.eigenvalues": _eigen,
    "spectral.discretize": _nodes,
    "scattering.transmission_reflection": _slices,
    "serialize.write_text": _bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = 0
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- op root spans (the cli layer) ---------------------------------------
    def begin_op(self, command: str):
        self.op += 1
        span = Span(next(self._ids), f"cli.{command}", "cli", None, self.op,
                    time.perf_counter())
        self.stack.append(span)

    def end_op(self, failed: bool):
        span = self.stack.pop()
        span.end = time.perf_counter()
        span.error = failed
        self.spans.append(span)

    # -- patching --------------------------------------------------------------
    def install(self):
        modules = {name: importlib.import_module(name) for name in NAMESPACES}
        wrapped = {}
        for layer in LAYERS:
            module = modules[f"susywell.{layer}"]
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{name}", layer, fn))
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrapped[id(value)][1])

    def uninstall(self):
        for module, name, value in self._patches:
            setattr(module, name, value)
        self._patches.clear()

    def _wrap(self, qualname, layer, fn):
        hook = HOOKS.get(qualname)
        stack = self.stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or stack[-1].name == qualname:
                # outside an op, or direct recursion (json_text): one span only
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = Span(next(ids), qualname, layer, parent.id, parent.op, 0.0)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                parent.child += span.end - span.start
                spans.append(span)
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result

        return wrapper


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans of `passes` traced passes."""
    by_id = {s.id: s for s in spans}
    per = 1.0 / passes
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value * per

    roots = [s for s in spans if s.parent is None]
    add("trace.op_s", sum(s.duration for s in roots))
    for layer in ("cli",) + LAYERS:
        add(f"{layer}.self_s", sum(s.self_time for s in spans if s.layer == layer))

    def named(name):
        return [s for s in spans if s.name == name]

    for name in ("susy_core.eval_partner", "susy_core.check_shape_invariance",
                 "spectral.discretize", "spectral.richardson_spectrum",
                 "scattering.transmission_reflection", "scattering.plane_partner_sweep"):
        add(f"{name}.s", sum(s.duration for s in named(name)))
    for name, key in (("susy_core.eval_partner", "points"), ("spectral.discretize", "nodes")):
        add(f"{name}.{key}", sum(s.info[key] for s in named(name) if s.info))
    gates = [s for s in spans if s.name in STATES_GATES]
    add("states.s", sum(s.duration for s in gates))
    add("states.calls", len(gates))

    eig = [s for s in named("spectral.eigenvalues") if s.info]
    dense = [s for s in eig if s.info["method"] == "dense"]
    sym = [s for s in eig if s.info["method"] == "symmetric"]
    add("spectral.eigenvalues.dense.s", sum(s.duration for s in dense))
    add("spectral.eigenvalues.dense.calls", len(dense))
    add("spectral.eigenvalues.dense.n3", sum(s.info["n"] ** 3 for s in dense))
    m["spectral.eigenvalues.dense.matrix_mb_max"] = max(
        (16.0 * s.info["n"] ** 2 / 1e6 for s in dense), default=0.0)
    add("spectral.eigenvalues.symmetric.s", sum(s.duration for s in sym))
    add("spectral.eigenvalues.symmetric.calls", len(sym))
    add("spectral.eigenvalues.symmetric.nodes", sum(s.info["n"] for s in sym))
    tol = importlib.import_module("susywell.spectral").RESIDUAL_TOL
    m["spectral.residual_gate_ratio"] = max(
        (s.info["worst_scaled_residual"] for s in eig), default=0.0) / tol

    tr = named("scattering.transmission_reflection")
    add("scattering.transmission_reflection.calls", len(tr))
    integrated = accepted = doublings = 0
    sliced_time = 0.0
    for s in tr:
        if s.info and s.info["slices"]:
            integrated += s.info["slices"]
            sliced_time += s.duration
    for sweep in named("scattering.plane_partner_sweep"):
        calls = [s for s in tr if s.parent == sweep.id and s.info]
        groups: list[list[Span]] = []
        for s in calls:
            if groups and groups[-1][-1].info["energy"] == s.info["energy"]:
                groups[-1].append(s)
            else:
                groups.append([s])
        # a sweep integrates m and 2m slices, then doubles until T settles
        accepted += sum(g[-1].info["slices"] for g in groups)
        doublings += sum(len(g) - 2 for g in groups)
    add("scattering.slices_integrated", integrated)
    add("scattering.slices_accepted", accepted)
    add("scattering.doublings", doublings)
    m["scattering.slice_yield"] = accepted / integrated if integrated else 0.0
    m["scattering.us_per_slice"] = 1e6 * sliced_time / integrated if integrated else 0.0

    serial = [s for s in spans if s.layer == "serialize"
              and (s.parent is None or by_id[s.parent].layer != "serialize")]
    add("serialize.s", sum(s.duration for s in serial))
    add("serialize.bytes_out", sum(s.info["bytes"] for s in named("serialize.write_text")
                                   if s.info))
    for layer in ("spectral", "scattering"):
        add(f"{layer}.errors", sum(1 for s in spans if s.layer == layer and s.error
                                   and by_id[s.parent].layer != layer))
    op_s = m["trace.op_s"]
    m["spectral.eigenvalues.dense.share"] = m["spectral.eigenvalues.dense.s"] / op_s
    m["scattering.transmission_reflection.share"] = (
        m["scattering.transmission_reflection.s"] / op_s)
    return m
