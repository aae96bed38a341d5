import numpy as np
import pytest
import scipy.sparse as sp

from nonlocfem.assembly import SparseSymMatrix, assemble_mass, assemble_stiffness
from nonlocfem.linalg import (CG, DIRECT_BANDED, NotSPDError, SolverConfig,
                              SolverConvergenceError, cg_jacobi,
                              to_banded_upper)
from nonlocfem.mesh import build_lagrange_space, uniform_interval_mesh
from nonlocfem.stepper import StepWorkspace, TimeGrid


def _space(n=8, k=1):
    return build_lagrange_space(uniform_interval_mesh(0.0, 1.0, n), k)


def _heat_step_matrix(space, delta=1e-2, a=1.0):
    M = assemble_mass(space).matrix
    K = assemble_stiffness(space).matrix
    return SparseSymMatrix((M.multiply(1.0 / delta)
                            + K.multiply(0.5 * a)).tocsr())


def _solve(space, b, delta=1e-2, a=1.0, **config):
    """x with (M/delta + (a/2) K) x = b on the free nodes, by the stepper's
    verified solve."""
    work = StepWorkspace(space, assemble_mass(space), assemble_stiffness(space),
                         TimeGrid(t_end=delta, n_steps=1),
                         solver_config=SolverConfig(**config))
    x, _, _ = work.solve_verified(a, b)
    return x


def _interior_rhs(space, rng):
    v = rng.standard_normal(space.n_nodes)
    return v[space.free_node_indices]


def test_identity_solve_returns_rhs():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(9)
    x, _ = cg_jacobi(sp.identity(9, format="csr"), b, 1e-12)
    np.testing.assert_allclose(x, b, atol=1e-14)


def test_zero_rhs_zero_iterations():
    A = sp.identity(5, format="csr")
    x, iterations = cg_jacobi(A, np.zeros(5), 1e-12)
    assert iterations == 0
    assert np.all(x == 0.0)


def test_heat_step_matches_dense_oracle():
    space = _space(n=8, k=1)
    A = _heat_step_matrix(space)
    rng = np.random.default_rng(1)
    b = _interior_rhs(space, rng)
    x = _solve(space, b, method=CG)
    dense = A.restrict(space.free_node_indices).toarray()
    expect = np.linalg.solve(dense, b)
    assert np.max(np.abs(x - expect)) <= 1e-10


def test_cg_and_banded_agree():
    rng = np.random.default_rng(2)
    tol = 1e-12
    for n, k, delta, a in [(8, 1, 1e-2, 1.0), (16, 2, 1e-3, 0.3),
                           (12, 3, 1e-1, 2.0)]:
        space = _space(n, k)
        b = _interior_rhs(space, rng)
        x_cg = _solve(space, b, delta, a, tolerance=tol, method=CG)
        x_db = _solve(space, b, delta, a, tolerance=tol, method=DIRECT_BANDED)
        scale = max(np.max(np.abs(x_cg)), 1.0)
        assert np.max(np.abs(x_cg - x_db)) <= 10 * tol * scale


def test_verified_residual_meets_tolerance():
    space = _space(n=32, k=2)
    A = _heat_step_matrix(space, delta=1e-3)
    rng = np.random.default_rng(3)
    b = _interior_rhs(space, rng)
    for method in (CG, DIRECT_BANDED):
        x = _solve(space, b, delta=1e-3, tolerance=1e-12, method=method)
        res = np.linalg.norm(b - A.restrict(space.free_node_indices) @ x)
        assert res <= 1e-12 * np.linalg.norm(b)


def test_not_spd_raises():
    # M/delta + (a/2) K with delta = 1 and a = -2 is M - K, indefinite
    space = _space(n=8, k=1)
    rng = np.random.default_rng(4)
    b = _interior_rhs(space, rng)
    with pytest.raises(NotSPDError):
        _solve(space, b, delta=1.0, a=-2.0, method=CG)


def test_iteration_budget_exhaustion():
    space = _space(n=32, k=1)
    rng = np.random.default_rng(5)
    b = _interior_rhs(space, rng)
    with pytest.raises(SolverConvergenceError):  # stiffness-dominated
        _solve(space, b, delta=1e3, tolerance=1e-14, max_iterations=2,
               method=CG)


def test_banded_rejected_in_2d():
    from nonlocfem.mesh import uniform_square_mesh
    space = build_lagrange_space(uniform_square_mesh(2), 1)
    with pytest.raises(ValueError):
        _solve(space, np.zeros(len(space.free_node_indices)),
               method=DIRECT_BANDED)


def test_banded_conversion_roundtrip():
    space = _space(n=6, k=3)
    A_ff = _heat_step_matrix(space).restrict(space.free_node_indices)
    ab = to_banded_upper(A_ff)
    n = A_ff.shape[0]
    bw = ab.shape[0] - 1
    dense = np.zeros((n, n))
    for j in range(n):
        for d in range(bw + 1):
            i = j - (bw - d)
            if 0 <= i <= j:
                dense[i, j] = ab[d, j]
    dense = dense + np.triu(dense, 1).T
    np.testing.assert_allclose(dense, A_ff.toarray(), atol=1e-14)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(method="gauss-seidel")
