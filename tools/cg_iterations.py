"""Print the CG iterations of one run: the number of solves, the total and
the largest iteration count, and the share of the first 20 solves in the
total.

Every call of the stepper's CG kernel is counted, the step-1 predictor and
any refinement pass included, by wrapping stepper.cg_jacobi where the
stepper looks it up, as the benchmark's per-layer counters do. A 1D run
solves by banded Cholesky and makes no CG solve. The run is configured by
the flags of `nonlocfem solve` and writes no file.

usage: python tools/cg_iterations.py [SOLVE FLAGS]
   e.g. PYTHONPATH=src python tools/cg_iterations.py --case example3 --n 48
"""

import sys

from nonlocfem import stepper
from nonlocfem.cli import _build_parser, _config_from_args
from nonlocfem.harness import run_solve

FIRST_SOLVES = 20


def iteration_counts(config) -> list[int]:
    """The CG iteration count of every solve of run_solve(config), in the
    order of the solves."""
    counts = []
    kernel = stepper.cg_jacobi

    def counting(*args, **kwargs):
        x, iterations = kernel(*args, **kwargs)
        counts.append(iterations)
        return x, iterations
    stepper.cg_jacobi = counting
    try:
        run_solve(config)
    finally:
        stepper.cg_jacobi = kernel
    return counts


def report(counts) -> str:
    total, first = sum(counts), sum(counts[:FIRST_SOLVES])
    share = first / total if total else 0.0
    return (f"solves: {len(counts)}\n"
            f"total iterations: {total}\n"
            f"max iterations: {max(counts, default=0)}\n"
            f"first {FIRST_SOLVES} solves: {first} iterations "
            f"({share:.1%} of the total)\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(
        ["solve", *(sys.argv[1:] if argv is None else argv)])
    print(report(iteration_counts(_config_from_args(args))), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
