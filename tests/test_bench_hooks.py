"""The benchmark in perfbench/ hooks package functions by name, from outside
the package. A refactor that drops or renames a hooked name would make every
benchmark sample fail or silently lose per-layer metrics; these tests make
it fail here instead."""

import importlib.util
import math
from pathlib import Path

import numpy as np

from nonlocfem import assembly, cli, harness, stepper
from nonlocfem.mesh import build_lagrange_space, uniform_interval_mesh

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_run(config):
    """Run config under the benchmark's tracer; returns (tracer, layers, report)."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer({"assembly": assembly, "cli": cli, "harness": harness,
                           "stepper": stepper}, traced=True)
    # install raises LookupError for a missing probe (harness.run, stepper.init)
    # and lists every SPAN_HOOKS entry it cannot find in tracer.absent
    tracer.install()
    try:
        report = harness.run_solve(config)
    finally:
        tracer.uninstall()
    return tracer, tracer.aggregate(), report


def test_span_hooks_and_probes_resolve_on_a_traced_run():
    # a small 2D run exercises the CG, coefficient and report handlers
    tracer, layers, report = _traced_run(harness.RunConfig(
        case="example3", k=1, n=4, delta=0.05, t_end=0.1))
    assert tracer.absent == {}
    assert {"first_step", "run_end", "space"} <= set(tracer.marks)
    assert tracer.counters["steps"] == 2
    assert tracer.counters["cg_iters"] > 0
    assert layers["stepper.solve_verified"][2] == 3   # plus the step-1 predictor
    # CG's stops pass the verify as they are: no refinement pass runs
    assert tracer.counters["refine"] == 0
    assert np.isfinite(report.final_error)


def test_banded_and_load_spans_are_called_on_a_traced_1d_run():
    # resolving is not enough: a banded solve that bypasses the hooked
    # stepper.solve_banded_spd would leave linalg.banded_* at zero
    tracer, layers, report = _traced_run(harness.RunConfig(
        case="example1", k=2, n=8, delta=0.005, t_end=0.01))
    steps = tracer.counters["steps"]
    assert tracer.absent == {}
    assert steps == 2
    assert layers["linalg.banded"][2] == steps + 1   # plus the step-1 predictor
    # the loads come a block of steps per call, as many as the assembler of
    # the run's free rows takes
    space = build_lagrange_space(uniform_interval_mesh(8), 2)
    block = assembly.LoadAssembler(space, space.free_node_indices).block
    assert layers["assembly.load_eval"][2] == math.ceil(steps / block)
    assert tracer.counters["refine"] == 0
    assert np.isfinite(report.final_error)
