"""Finite element solver and experiment harness for the nonlocal degenerate
parabolic equation u_t - (integral of u^2)^gamma * Lap(u) = f with
homogeneous Dirichlet boundary conditions."""

from .assembly import (FieldVector, SparseSymMatrix, assemble_load,
                       assemble_mass, assemble_stiffness, interpolate,
                       l2_error, l2_norm_sq, ritz_project)
from .coefficient import (GuardStatus, NonlocalCoefficient, check_guards,
                          evaluate, lipschitz_witness)
from .harness import (RunConfig, SweepResult, emit_outputs, energy_study,
                      run_solve, sweep_delta, sweep_h)
from .manufactured import (CASE_IDS, AlphaSolveConfig, ManufacturedCase,
                           fixed_point_map, l_of_t, make_case, solve_alpha,
                           verify_case, w_profile_1d, w_profile_2d)
from .mesh import (LagrangeSpace, MeshSize, SimplicialMesh,
                   build_lagrange_space, uniform_interval_mesh,
                   uniform_square_mesh)
from .quadrature import QuadratureRule, reference_rule
from .stepper import TimeGrid, TrajectorySummary, init, run

__all__ = [
    "AlphaSolveConfig", "CASE_IDS", "FieldVector", "GuardStatus",
    "LagrangeSpace", "ManufacturedCase", "MeshSize", "NonlocalCoefficient",
    "QuadratureRule", "RunConfig", "SimplicialMesh",
    "SparseSymMatrix", "SweepResult", "TimeGrid",
    "TrajectorySummary", "assemble_load", "assemble_mass",
    "assemble_stiffness", "build_lagrange_space", "check_guards",
    "emit_outputs", "energy_study", "evaluate",
    "fixed_point_map", "init", "interpolate", "l2_error", "l2_norm_sq",
    "l_of_t", "lipschitz_witness", "make_case", "reference_rule",
    "ritz_project", "run", "run_solve", "solve_alpha",
    "sweep_delta", "sweep_h", "uniform_interval_mesh", "uniform_square_mesh",
    "verify_case", "w_profile_1d", "w_profile_2d",
]

__version__ = "0.1.0"
