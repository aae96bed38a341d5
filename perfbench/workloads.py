"""Workloads of the solver benchmark and their committed correctness references.

The physics of every workload is fixed. The seed only picks the snapshot
times, which change what is copied and emitted but not the trajectory, so
error_l2 and every count repeat exactly from seed to seed. Why each
workload exists is written down in README.md next to this file and in
BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

RUN_SOLVE = "run_solve"
CLI = "cli"

# A correct change to the solver moves a discretization-dominated error by
# far less than this share; a wrong answer moves it by much more.
REFERENCE_RTOL = 1e-3


def _band(reference: float) -> tuple[float, float]:
    return reference * (1.0 - REFERENCE_RTOL), reference * (1.0 + REFERENCE_RTOL)


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str            # RUN_SOLVE: harness.run_solve; CLI: cli.main(["solve", ...])
    settings: dict        # RunConfig fields; the CLI workload passes none (case defaults)
    delta: float          # effective time step, used to put snapshots on the grid
    t_end: float
    error_band: tuple     # accepted final L2 error, inclusive

    def snapshot_times(self, rng: random.Random, count: int = 2) -> list[float]:
        """Seeded snapshot times strictly inside (0, t_end), on the time grid."""
        n_steps = round(self.t_end / self.delta)
        return [round(i * self.delta, 9)
                for i in sorted(rng.sample(range(1, n_steps), count))]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ex1_banded_1d", entry=RUN_SOLVE,
        settings=dict(case="example1", k=2, n=100, delta=1e-3, t_end=10.0),
        delta=1e-3, t_end=10.0,
        error_band=_band(2.4002532785880627e-09)),
    Workload(
        name="ex3_cg_2d", entry=RUN_SOLVE,
        settings=dict(case="example3", k=3, n=48, delta=1e-2, t_end=1.0),
        delta=1e-2, t_end=1.0,
        error_band=_band(1.1065563048865936e-05)),
    Workload(
        name="ex2_extinct_cli", entry=CLI,
        settings=dict(case="example2"),
        delta=1e-3, t_end=2.0,
        # After extinction at t = 1 the exact field is zero and the computed
        # one is roundoff (seed: 5.911562e-08 at t = 2), so only an upper
        # bound is meaningful; a solver that fails to go extinct is ~1e-1 off.
        error_band=(0.0, 1e-6)),
)}
