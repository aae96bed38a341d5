"""Span recording around the package's layer boundaries, from outside the package.

Hooks replace a function where its caller looks it up: callers bind names at
import time (``from .linalg import cg_jacobi``), so ``stepper.cg_jacobi`` is
patched, not ``linalg.cg_jacobi``. Spans are kept in memory as
[name, start, end, parent index] and aggregated when the sample ends.

Two kinds of wrapper:

* probes (always installed, a few calls per sample) mark when the first time
  step starts and when stepping ends, which the end-to-end metrics need;
* span hooks (traced samples only) time every call of a layer and count its
  work. A hook whose target is gone is reported as absent, not as an error.
"""

from __future__ import annotations

import json
import math
import os
import time

# (owner inside the package, attribute, span name). Listed where the caller
# looks the name up.
SPAN_HOOKS = (
    ("harness", "run_solve", "harness.run_solve"),
    ("harness", "make_case", "manufactured.make_case"),
    ("harness", "uniform_interval_mesh", "mesh.build_space"),
    ("harness", "uniform_square_mesh", "mesh.build_space"),
    ("harness", "build_lagrange_space", "mesh.build_space"),
    ("harness", "run", "stepper.run"),
    ("harness", "l2_error", "assembly.l2_error"),
    ("stepper", "assemble_mass", "assembly.mass"),
    ("stepper", "assemble_stiffness", "assembly.stiffness"),
    ("stepper", "StepWorkspace.__init__", "stepper.workspace_build"),
    ("assembly", "SparseSymMatrix.restrict", "assembly.restrict"),
    ("stepper", "LoadAssembler", "assembly.load_build"),
    ("assembly", "LoadAssembler.__call__", "assembly.load_eval"),
    ("stepper", "StepWorkspace.solve_verified", "stepper.solve_verified"),
    ("stepper", "solve_banded_spd", "linalg.banded"),
    ("stepper", "cg_jacobi", "linalg.cg"),
    ("stepper", "evaluate_from_norm_sq", "coefficient.eval"),
    ("stepper", "check_guards", "coefficient.guard"),
    ("cli", "main", "cli.main"),
    ("cli", "run_solve", "harness.run_solve"),
    ("cli", "emit_outputs", "harness.emit"),
)

SOLVER_SPANS = ("linalg.banded", "linalg.cg")


def cg_work_per_iteration(A, n: int) -> tuple[int, int]:
    """Computed, not measured: flops and bytes of one cg_jacobi iteration.

    One CSR matvec: 2 flops per stored entry; reads values, column indices,
    row pointers and x once, writes y. Seven vector operations on float64
    arrays of length n, counted as NumPy runs them (a scaled vector is a
    temporary): p.Ap and r.z (2n flops, 16n bytes each), ||r|| (2n, 8n),
    x += alpha p, r -= alpha Ap and p = z + beta p (2n, 40n each), and
    z = r / diag (n, 24n). Per-call setup outside the loop is not counted.
    """
    nnz = A.nnz
    value, index = A.data.itemsize, A.indices.itemsize
    flops = 2 * nnz + 13 * n
    matvec_bytes = (value + index) * nnz + index * (n + 1) + 2 * value * n
    vector_bytes = (16 + 16 + 8 + 40 + 40 + 40 + 24) * n
    return flops, matvec_bytes + vector_bytes


def _resolve(modules, owner, attr):
    """(object holding the attribute, attribute name) or None if gone."""
    obj = modules.get(owner)
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part, None)
    if obj is None or not callable(getattr(obj, name, None)):
        return None
    return obj, name


class Tracer:
    """Probes and (optionally) span hooks installed on the package for one sample."""

    def __init__(self, modules: dict, traced: bool):
        self.modules = modules
        self.traced = traced
        self.spans: list = []
        self.stack = [-1]
        self.marks: dict = {}
        self.counters: dict = {}
        self.absent: dict = {}      # metric input -> why it is missing
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, make_wrapper):
        target = _resolve(self.modules, owner, attr)
        if target is None:
            return False
        obj, name = target
        original = getattr(obj, name)
        setattr(obj, name, make_wrapper(original))
        self._undo.append((obj, name, original))
        return True

    def install(self):
        if self.traced:
            handled = {   # span -> (result handler, counters it fills)
                "linalg.cg": (self._count_cg, ("cg_iters", "cg_flops", "cg_bytes")),
                "harness.emit": (self._count_emit, ("emit_bytes",)),
                "harness.run_solve": (self._read_report, ("guard_nonok_steps", "a_max")),
            }
            for _, keys in handled.values():
                self.counters.update(dict.fromkeys(keys, 0))
            for owner, attr, span in SPAN_HOOKS:
                handler = handled.get(span, (None,))[0]
                if not self._patch(owner, attr, lambda fn, s=span, h=handler:
                                   self._span_wrapper(fn, s, h)):
                    self.absent[span] = f"hook {owner}.{attr} not found"
        # probes wrap outermost so their marks bracket the span hooks
        if not self._patch("harness", "run", self._run_probe):
            raise LookupError("probe harness.run not found")
        if not self._patch("stepper", "init", self._init_probe):
            raise LookupError("probe stepper.init not found")

    def uninstall(self):
        for obj, name, original in reversed(self._undo):
            setattr(obj, name, original)
        self._undo.clear()

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name, on_result):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                self._handle(name, on_result, args, result)
            return result
        return wrapper

    def _handle(self, name, on_result, args, result):
        try:
            on_result(args, result)
        except Exception as exc:  # a refactored return value: report, keep running
            self.absent[name + ".result"] = f"{type(exc).__name__}: {exc}"

    def _run_probe(self, fn):
        marks, counters, clock = self.marks, self.counters, time.perf_counter

        def run(space, *args, **kwargs):
            traj = fn(space, *args, **kwargs)
            marks["run_end"] = clock()
            grid = kwargs.get("grid", args[3] if len(args) > 3 else None)
            counters["steps"] = grid.n_steps
            marks["space"] = space
            return traj
        return run

    def _init_probe(self, fn):
        marks, clock = self.marks, time.perf_counter

        def init(*args, **kwargs):
            state = fn(*args, **kwargs)
            marks.setdefault("first_step", clock())
            return state
        return init

    # -- result handlers (traced only) --------------------------------------

    def _count_cg(self, args, result):
        A, b = args[0], args[1]
        iterations = result[1]
        flops, nbytes = cg_work_per_iteration(A, len(b))
        self.counters["cg_iters"] += iterations
        self.counters["cg_flops"] += iterations * flops
        self.counters["cg_bytes"] += iterations * nbytes

    def _count_emit(self, args, result):
        self.counters["emit_bytes"] += sum(os.path.getsize(p) for p in result)

    def _read_report(self, args, report):
        history = report.coefficient_history
        self.counters["guard_nonok_steps"] = sum(s.value != "ok" for _, _, s in history)
        self.counters["a_max"] = max((a for _, a, _ in history if a != math.inf),
                                     default=0.0)

    # -- the sample's own span ----------------------------------------------

    def open_root(self, start):
        self.spans.append(["sample", start, 0.0, -1])
        self.stack.append(0)

    def close_root(self, end):
        self.spans[0][2] = end
        self.stack.pop()

    def aggregate(self) -> dict:
        """Per span name: [total s, self s, calls]; plus derived counts.

        Self time is a span's duration minus the durations of the spans it
        directly caused.
        """
        child_time = [0.0] * len(self.spans)
        solver_in_verify = 0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name in SOLVER_SPANS and self.spans[parent][0] == "stepper.solve_verified":
                    solver_in_verify += 1
        layers: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = layers.setdefault(name, [0.0, 0.0, 0])
            entry[0] += end - start
            entry[1] += end - start - child_time[i]
            entry[2] += 1
        verified = layers.get("stepper.solve_verified", [0, 0, 0])[2]
        self.counters["refine"] = solver_in_verify - verified
        if any(s in self.absent for s in SOLVER_SPANS + ("stepper.solve_verified",)):
            self.absent["refine"] = "a solver or solve_verified hook is missing"
        return layers

    def dump_spans(self, path, t0):
        with open(path, "w") as fh:
            json.dump([[name, start - t0, end - t0, parent]
                       for name, start, end, parent in self.spans], fh)


# -- per-layer metrics ------------------------------------------------------
#
# name: (unit, inputs the value needs, value(layers, counters, describe)).
# A metric whose input is absent is left out of the result, not faked.


def _tot(span):
    return lambda L, C, D: L.get(span, (0.0, 0.0, 0))[0]


def _self(span):
    return lambda L, C, D: L.get(span, (0.0, 0.0, 0))[1]


def _calls(span):
    return lambda L, C, D: L.get(span, (0.0, 0.0, 0))[2]


def _count(key):
    return lambda L, C, D: C[key]


LAYER_METRICS = {
    "linalg.cg_s": ("s", ("linalg.cg",), _tot("linalg.cg")),
    "linalg.cg_calls": ("count", ("linalg.cg",), _calls("linalg.cg")),
    "linalg.cg_iters": ("count", ("linalg.cg", "linalg.cg.result"), _count("cg_iters")),
    "linalg.cg_iters_per_solve": (
        "count", ("linalg.cg", "linalg.cg.result"),
        lambda L, C, D: C["cg_iters"] / max(_calls("linalg.cg")(L, C, D), 1)),
    "linalg.cg_flops_computed": ("flop", ("linalg.cg", "linalg.cg.result"),
                                 _count("cg_flops")),
    "linalg.cg_bytes_computed": ("B", ("linalg.cg", "linalg.cg.result"),
                                 _count("cg_bytes")),
    "linalg.banded_s": ("s", ("linalg.banded",), _tot("linalg.banded")),
    "linalg.banded_calls": ("count", ("linalg.banded",), _calls("linalg.banded")),
    "linalg.refine_count": ("count", ("refine",), _count("refine")),
    "stepper.run_s": ("s", ("stepper.run",), _tot("stepper.run")),
    "stepper.self_s": ("s", ("stepper.run",), _self("stepper.run")),
    "stepper.solve_verified_s": ("s", ("stepper.solve_verified",),
                                 _tot("stepper.solve_verified")),
    "stepper.verify_self_s": ("s", ("stepper.solve_verified",),
                              _self("stepper.solve_verified")),
    "stepper.workspace_build_s": ("s", ("stepper.workspace_build",),
                                  _tot("stepper.workspace_build")),
    "stepper.steps": ("count", (), lambda L, C, D: C["steps"]),
    "assembly.load_eval_s": ("s", ("assembly.load_eval",), _tot("assembly.load_eval")),
    "assembly.load_eval_calls": ("count", ("assembly.load_eval",),
                                 _calls("assembly.load_eval")),
    "assembly.load_build_s": ("s", ("assembly.load_build",), _tot("assembly.load_build")),
    "mesh.build_space_s": ("s", ("mesh.build_space",), _tot("mesh.build_space")),
    "assembly.mass_s": ("s", ("assembly.mass",), _tot("assembly.mass")),
    "assembly.stiffness_s": ("s", ("assembly.stiffness",), _tot("assembly.stiffness")),
    "assembly.restrict_s": ("s", ("assembly.restrict",), _tot("assembly.restrict")),
    "assembly.nnz": ("count", ("describe",), lambda L, C, D: D["nnz"]),
    "mesh.n_free": ("count", ("describe",), lambda L, C, D: D["unknowns"]),
    "manufactured.make_case_s": ("s", ("manufactured.make_case",),
                                 _tot("manufactured.make_case")),
    "coefficient.eval_s": ("s", ("coefficient.eval",), _tot("coefficient.eval")),
    "coefficient.guard_s": ("s", ("coefficient.guard",), _tot("coefficient.guard")),
    "coefficient.guard_nonok_steps": ("count", ("harness.run_solve.result",),
                                      _count("guard_nonok_steps")),
    "coefficient.a_max": ("1", ("harness.run_solve.result",), _count("a_max")),
    "assembly.l2_error_s": ("s", ("assembly.l2_error",), _tot("assembly.l2_error")),
    "harness.emit_s": ("s", ("harness.emit",), _tot("harness.emit")),
    "harness.emit_bytes": ("B", ("harness.emit", "harness.emit.result"),
                           _count("emit_bytes")),
    "cli.main_s": ("s", ("cli.main",), _tot("cli.main")),
}

# Metrics of the traced run itself, computed by run.py from both kinds of sample.
TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.attributed_share": "1",
    "trace.samples": "count",
}


def layer_values(layers: dict, counters: dict, describe: dict | None,
                 absent: dict) -> dict:
    """Per-layer metric values of one traced sample, absent inputs left out."""
    missing = set(absent) | ({"describe"} if describe is None else set())
    values = {}
    for name, (_, needs, value) in LAYER_METRICS.items():
        if not missing.intersection(needs):
            values[name] = value(layers, counters, describe)
    return values
