"""The benchmark in perfbench/ hooks package functions by name, from outside
the package. A refactor that drops or renames a hooked name would make every
benchmark sample fail or silently lose per-layer metrics; this test makes it
fail here instead."""

import importlib.util
from pathlib import Path

import numpy as np

from nonlocfem import assembly, cli, harness, stepper

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_span_hooks_and_probes_resolve_on_a_traced_run():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer({"assembly": assembly, "cli": cli, "harness": harness,
                           "stepper": stepper}, traced=True)
    # install raises LookupError for a missing probe (harness.run, stepper.init)
    # and lists every SPAN_HOOKS entry it cannot find in tracer.absent
    tracer.install()
    try:
        # a small 2D run exercises the CG, coefficient and report handlers
        report = harness.run_solve(harness.RunConfig(
            case="example3", k=1, n=4, delta=0.05, t_end=0.1))
    finally:
        tracer.uninstall()
    layers = tracer.aggregate()
    assert tracer.absent == {}
    assert {"first_step", "run_end", "space"} <= set(tracer.marks)
    assert tracer.counters["steps"] == 2
    assert tracer.counters["cg_iters"] > 0
    assert layers["stepper.solve_verified"][2] == 2
    assert np.isfinite(report.final_error)
