"""Finite element solver and experiment harness for the nonlocal degenerate
parabolic equation u_t - (integral of u^2)^gamma * Lap(u) = f with
homogeneous Dirichlet boundary conditions."""

from .assembly import (FieldVector, SparseSymMatrix, assemble_mass,
                       assemble_stiffness, interpolate, l2_error)
from .coefficient import GuardStatus, NonlocalCoefficient, check_guards
from .harness import (RunConfig, SweepResult, emit_outputs, energy_study,
                      run_solve, sweep)
from .manufactured import (CASE_IDS, ManufacturedCase, fixed_point_map,
                           l_of_t, make_case, solve_alpha, verify_case)
from .mesh import (LagrangeSpace, SimplicialMesh, build_lagrange_space,
                   uniform_interval_mesh, uniform_square_mesh)
from .quadrature import QuadratureRule, reference_rule
from .stepper import TimeGrid, TrajectorySummary, init, run

__all__ = [
    "CASE_IDS", "FieldVector", "GuardStatus",
    "LagrangeSpace", "ManufacturedCase", "NonlocalCoefficient",
    "QuadratureRule", "RunConfig", "SimplicialMesh",
    "SparseSymMatrix", "SweepResult", "TimeGrid",
    "TrajectorySummary", "assemble_mass",
    "assemble_stiffness", "build_lagrange_space", "check_guards",
    "emit_outputs", "energy_study",
    "fixed_point_map", "init", "interpolate", "l2_error",
    "l_of_t", "make_case", "reference_rule",
    "run", "run_solve", "solve_alpha",
    "sweep", "uniform_interval_mesh", "uniform_square_mesh",
    "verify_case",
]

__version__ = "0.1.0"
