import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from oracles import cg, matvecs, solve_verified

import nonlocfem
from nonlocfem import stepper
from nonlocfem.assembly import SparseSymMatrix, assemble_mass, assemble_stiffness
from nonlocfem.linalg import (BlockJacobi, NotSPDError,
                              SolverConvergenceError, band_matvec,
                              solve_banded_spd, to_banded_lower)
from nonlocfem.mesh import (build_lagrange_space, uniform_interval_mesh,
                            uniform_square_mesh)
from nonlocfem.stepper import StepWorkspace, TimeGrid


def _space(n=8, k=1):
    return build_lagrange_space(uniform_interval_mesh(n), k)


def _space_2d(n=4, k=1):
    return build_lagrange_space(uniform_square_mesh(n), k)


def _spaces_1d_2d(n=8, k=1):
    """A 1D space (banded backend) and a small 2D one (CG backend)."""
    return [_space(n, k), _space_2d(4, k)]


def _heat_step_matrix(space, delta=1e-2, a=1.0):
    M = assemble_mass(space).matrix
    K = assemble_stiffness(space).matrix
    return SparseSymMatrix((M.multiply(1.0 / delta)
                            + K.multiply(0.5 * a)).tocsr())


def _workspace(space, delta=1e-2, **options):
    return StepWorkspace(space, assemble_mass(space), assemble_stiffness(space),
                         TimeGrid(t_end=delta, n_steps=1), **options)


def _solve(space, b, delta=1e-2, a=1.0, **options):
    """x with (M/delta + (a/2) K) x = b on the free nodes, by the stepper's
    verified solve of (M + theta K) x = delta b, theta = a delta/2, with the
    backend of the space's dimension."""
    x, _, _ = solve_verified(_workspace(space, delta, **options),
                             0.5 * a * delta, delta * b)
    return x


def _dense_solve(space, b, delta, a):
    A_ff = _heat_step_matrix(space, delta, a).restrict(space.free_node_indices)
    return np.linalg.solve(A_ff.toarray(), b)


def _rel_err(x, expect):
    return np.linalg.norm(x - expect) / np.linalg.norm(expect)


def _interior_rhs(space, rng):
    v = rng.standard_normal(space.n_nodes)
    return v[space.free_node_indices]


def test_identity_solve_returns_rhs():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(9)
    x, _ = cg(sp.identity(9, format="csr"), b, 1e-12)
    np.testing.assert_allclose(x, b, atol=1e-14)


def test_zero_rhs_zero_iterations():
    A = sp.identity(5, format="csr")
    x, iterations = cg(A, np.zeros(5), 1e-12)
    assert iterations == 0
    assert np.all(x == 0.0)


def _heat_step_system(n=16, k=2):
    """Reduced 1D heat step matrix, a right-hand side and its dense solution."""
    space = _space(n, k)
    A_ff = _heat_step_matrix(space).restrict(space.free_node_indices)
    b = _interior_rhs(space, np.random.default_rng(6))
    return A_ff, b, np.linalg.solve(A_ff.toarray(), b)


def test_cg_exact_start_takes_no_iterations():
    A_ff, b, exact = _heat_step_system()
    x, iterations = cg(A_ff, b, 1e-12, x0=exact)
    assert iterations == 0
    np.testing.assert_array_equal(x, exact)


def test_cg_zero_rhs_with_start_returns_zeros():
    A_ff, b, _ = _heat_step_system()
    x, iterations = cg(A_ff, np.zeros(len(b)), 1e-12, x0=np.ones(len(b)))
    assert iterations == 0
    assert np.all(x == 0.0)


def test_cg_leaves_start_unmodified():
    A_ff, b, _ = _heat_step_system()
    x0 = np.random.default_rng(8).standard_normal(len(b))
    kept = x0.copy()
    cg(A_ff, b, 1e-12, x0=x0)
    np.testing.assert_array_equal(x0, kept)


def test_heat_step_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for space in _spaces_1d_2d(n=8, k=1):
        A = _heat_step_matrix(space)
        b = _interior_rhs(space, rng)
        x = _solve(space, b)
        dense = A.restrict(space.free_node_indices).toarray()
        expect = np.linalg.solve(dense, b)
        assert np.max(np.abs(x - expect)) <= 1e-10


def test_cg_and_banded_agree():
    # CG on the 1D system is the reference the banded backend must match
    rng = np.random.default_rng(2)
    tol = 1e-12
    for n, k, delta, a in [(8, 1, 1e-2, 1.0), (16, 2, 1e-3, 0.3),
                           (12, 3, 1e-1, 2.0)]:
        space = _space(n, k)
        b = _interior_rhs(space, rng)
        A_ff = _heat_step_matrix(space, delta, a).restrict(
            space.free_node_indices)
        x_cg, _ = cg(A_ff, b, tol)
        x_db = _solve(space, b, delta, a, solver_tol=tol)
        scale = max(np.max(np.abs(x_cg)), 1.0)
        assert np.max(np.abs(x_cg - x_db)) <= 10 * tol * scale


def test_verified_residual_meets_tolerance():
    rng = np.random.default_rng(3)
    for space in _spaces_1d_2d(n=32, k=2):
        A = _heat_step_matrix(space, delta=1e-3)
        b = _interior_rhs(space, rng)
        x = _solve(space, b, delta=1e-3, solver_tol=1e-12)
        res = np.linalg.norm(b - A.restrict(space.free_node_indices) @ x)
        assert res <= 1e-12 * np.linalg.norm(b)


def test_not_spd_raises():
    # M/delta + (a/2) K with delta = 1 and a = -2 is M - K, indefinite
    rng = np.random.default_rng(4)
    for space in _spaces_1d_2d(n=8, k=1):
        b = _interior_rhs(space, rng)
        with pytest.raises(NotSPDError):
            _solve(space, b, delta=1.0, a=-2.0)


@pytest.mark.parametrize("where, error, cause", [
    ("rhs", ValueError, "right-hand side norm is nan"),
    ("diagonal", NotSPDError, "NaN diagonal"),
    ("off-diagonal", NotSPDError, "curvature nan on iteration 1"),
])
def test_cg_stops_at_the_first_nan(where, error, cause):
    # a NaN fails every "<= 0" test, so without these checks CG would run
    # its whole 10 n budget and report a convergence failure
    A_ff, b, _ = _heat_step_system()
    A_ff = A_ff.tolil()
    if where == "rhs":
        b = b.copy()
        b[3] = np.nan
    elif where == "diagonal":
        A_ff[3, 3] = np.nan
    else:
        A_ff[3, 4] = A_ff[4, 3] = np.nan
    with pytest.raises(error, match=cause):
        cg(A_ff.tocsr(), b, 1e-12)


def _pair_system(diagonal, off):
    """M and K of order 3 on the pattern of a pair (0, 2) and a single
    unknown 1, every entry stored even where it is zero, such that
    M + theta K at theta = 1/2 is A = [[d1, 0, off], [0, d0, 0],
    [off, 0, d2]] for diagonal = (d0, d1, d2), given in the block order
    (the single unknown first): M = A / 2 and K = A."""
    d0, d1, d2 = diagonal
    A = sp.csr_matrix((np.array([d1, off, d0, off, d2]),
                       np.array([0, 2, 1, 0, 2]), np.array([0, 2, 3, 5])),
                      shape=(3, 3))
    return A * 0.5, A


def test_block_jacobi_inverts_each_block():
    # unknowns 0 and 2 form a pair and 1 stands alone: A = [[2, 0, 1],
    # [0, 4, 0], [1, 0, 3]], whose pair block has determinant 5
    M, K = _pair_system([4.0, 2.0, 3.0], 1.0)
    P = BlockJacobi(M, K, np.array([0]), np.array([2]))
    np.testing.assert_allclose(P.refill(0.5).toarray(),
                               [[0.6, 0.0, -0.2],
                                [0.0, 0.25, 0.0],
                                [-0.2, 0.0, 0.4]], rtol=1e-15)


@pytest.mark.parametrize("diagonal, off, cause", [
    ([4.0, 1.0, 1.0], 1.0, "nonpositive or NaN determinant"),   # det 0
    ([4.0, 1.0, 1.0], -2.0, "nonpositive or NaN determinant"),  # det -3
    ([4.0, 1.0, 1.0], np.nan, "nonpositive or NaN determinant"),
    ([4.0, 0.0, 1.0], 0.0, "nonpositive or NaN diagonal"),
    ([-4.0, 1.0, 1.0], 0.5, "nonpositive or NaN diagonal"),
    ([np.nan, 1.0, 1.0], 0.5, "nonpositive or NaN diagonal"),
])
def test_block_jacobi_refuses_a_block_that_is_not_positive_definite(
        diagonal, off, cause):
    P = BlockJacobi(*_pair_system(diagonal, off), np.array([0]), np.array([2]))
    with pytest.raises(NotSPDError, match=cause):
        P.refill(0.5)


def test_block_jacobi_at_theta_zero_is_exactly_the_inverse_diagonal_of_m():
    M, K = _pair_system([4.0, 2.0, 3.0], 1.0)
    none = np.zeros(0, dtype=np.int64)
    P = BlockJacobi(M, K, none, none).refill(0.0)
    assert P.data.tobytes() == (1.0 / M.diagonal()).tobytes()


def test_block_jacobi_refuses_an_entry_missing_from_the_pattern():
    # the pair (0, 1) has no entry: unknowns 0 and 1 do not couple
    M, K = _pair_system([4.0, 2.0, 3.0], 1.0)
    with pytest.raises(ValueError, match="missing from M's pattern"):
        BlockJacobi(M, K, np.array([0]), np.array([1]))
    # nor has a diagonal that is not stored
    M = sp.csr_matrix(np.array([[1.0, 0.5], [0.5, 0.0]]))
    none = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="missing from M's pattern"):
        BlockJacobi(M, M, none, none)


def test_block_jacobi_refuses_a_k_on_another_pattern():
    M, _ = _pair_system([4.0, 2.0, 3.0], 1.0)
    K = sp.identity(3, format="csr")
    with pytest.raises(ValueError, match="K is not on M's sparsity pattern"):
        BlockJacobi(M, K, np.array([0]), np.array([2]))


_THREAD_PROBE = """
import hashlib
import numpy as np
from nonlocfem.assembly import assemble_mass, assemble_stiffness
from nonlocfem.linalg import BlockJacobi, cg_jacobi
from nonlocfem.mesh import build_lagrange_space, uniform_square_mesh
from nonlocfem.stepper import galerkin_start

space = build_lagrange_space(uniform_square_mesh(110), 1)
free = space.free_node_indices
M = assemble_mass(space).restrict(free)
K = assemble_stiffness(space).restrict(free)
delta, a = 1e-2, 0.7
A = (M / delta + (0.5 * a) * K).tocsr()
u1, u2 = np.random.default_rng(12).standard_normal((2, len(free)))
b = M @ u1 / delta - (0.5 * a) * (K @ u1)
us = np.array([u1, u2])
x0, r0 = galerkin_start(us, np.array([M @ u for u in us]),
                        np.array([K @ u for u in us]), delta * b,
                        0.5 * a * delta, 1e-12)
none = np.zeros(0, dtype=np.int64)
jacobi = BlockJacobi(A, A, none, none).refill(0.0)
x, iterations = cg_jacobi(A, b, 1e-12, x0, b - A @ x0, jacobi)
print(len(free), iterations, hashlib.sha256(x0.tobytes()).hexdigest(),
      hashlib.sha256(r0.tobytes()).hexdigest(),
      hashlib.sha256(x.tobytes()).hexdigest())
"""


_RUN_THREAD_PROBE = """
import hashlib
import numpy as np
from nonlocfem.harness import RunConfig, run_solve

report = run_solve(RunConfig(case="example3", k=1, n=110, delta=1e-2,
                             t_end=0.03))
print(len(report.energy), hashlib.sha256(report.energy.tobytes()).hexdigest(),
      hashlib.sha256(report.coefficient.tobytes()).hexdigest(),
      repr(report.final_error))
"""


# the run of _RUN_THREAD_PROBE at k = 3 on 14 161 free nodes, where CG's
# preconditioner has 2x2 edge-pair blocks
_K3_RUN_THREAD_PROBE = """
import hashlib
from nonlocfem.harness import RunConfig, run_solve

report = run_solve(RunConfig(case="example3", k=3, n=40, delta=1e-2,
                             t_end=0.03))
print(len(report.energy), hashlib.sha256(report.energy.tobytes()).hexdigest(),
      hashlib.sha256(report.final.coefficients.tobytes()).hexdigest(),
      repr(report.final_error))
"""


def _outputs_under_blas_threads(probe):
    """Stdout words of the probe script run under one and two BLAS threads."""
    src = str(Path(nonlocfem.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    return outputs


def test_cg_results_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot product across threads above 10 000 entries,
    # and each split rounds differently; the CG reductions must not use it
    outputs = _outputs_under_blas_threads(_THREAD_PROBE)
    assert int(outputs[0][0]) > 10_000
    assert outputs[0] == outputs[1]


def test_trajectory_does_not_depend_on_the_blas_thread_count():
    # the energy and coefficient norms of stepper.run on 11 881 free nodes
    # must not use a threaded dot product either
    outputs = _outputs_under_blas_threads(_RUN_THREAD_PROBE)
    assert int(outputs[0][0]) == 4
    assert outputs[0] == outputs[1]


def test_k3_trajectory_does_not_depend_on_the_blas_thread_count():
    outputs = _outputs_under_blas_threads(_K3_RUN_THREAD_PROBE)
    assert int(outputs[0][0]) == 4
    assert outputs[0] == outputs[1]


def test_iteration_budget_exhaustion():
    space = _space(n=32, k=1)
    rng = np.random.default_rng(5)
    b = _interior_rhs(space, rng)
    A_ff = _heat_step_matrix(space, delta=1e3).restrict(space.free_node_indices)
    # no recurrence residual reaches 1e-300 ||b||, so CG runs its whole
    # budget of 10 n iterations (310 here)
    with pytest.raises(SolverConvergenceError):  # stiffness-dominated
        cg(A_ff, b, 1e-300)


def test_banded_conversion_roundtrip():
    space = _space(n=6, k=3)
    A_ff = _heat_step_matrix(space).restrict(space.free_node_indices)
    ab = to_banded_lower(A_ff)
    assert ab.flags.f_contiguous   # LAPACK factors it in place only then
    n = A_ff.shape[0]
    bw = ab.shape[0] - 1
    dense = np.zeros((n, n))
    for j in range(n):
        for d in range(bw + 1):
            i = j + d
            if i < n:
                dense[i, j] = ab[d, j]
    dense = dense + np.tril(dense, -1).T
    np.testing.assert_allclose(dense, A_ff.toarray(), atol=1e-14)
    # the stepper adds the banded M and K entry by entry
    for k in (1, 2, 3):
        space = _space(n=6, k=k)
        free = space.free_node_indices
        Mb = to_banded_lower(assemble_mass(space).restrict(free))
        Kb = to_banded_lower(assemble_stiffness(space).restrict(free))
        assert Mb.shape == Kb.shape == (k + 1, len(free))
        assert Mb.flags.f_contiguous and Kb.flags.f_contiguous


@settings(deadline=None)
@given(k=st.sampled_from([1, 2, 3]), n=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_band_matvec_matches_csr(k, n, seed):
    rng = np.random.default_rng(seed)
    lower = sp.random(n, n, density=0.7, random_state=rng,
                      data_rvs=rng.standard_normal)
    A = sp.tril(sp.triu(lower, -k), -1)
    A = (A + A.T + sp.diags(rng.standard_normal(n))).tocsr()
    x = rng.standard_normal(n)
    ab = to_banded_lower(A)
    assert ab.shape[0] - 1 <= k
    # the rounding of two (2k+1)-term row sums, with a factor 2 to spare
    tol = 2.0 * (2 * k + 1) * np.finfo(float).eps * (abs(A) @ np.abs(x))
    assert np.all(np.abs(band_matvec(ab, x) - A @ x) <= tol)


def test_band_matvec_of_an_empty_vector():
    assert band_matvec(np.zeros((1, 0), order="F"), np.zeros(0)).shape == (0,)


def test_banded_solve_refuses_an_indefinite_band():
    # tridiagonal [1 -2; -2 1]: determinant -3, so pbsv fails on column 2
    ab = np.asfortranarray([[1.0, 1.0, 1.0], [-2.0, -2.0, 0.0]])
    with pytest.raises(NotSPDError, match="info 2"):
        solve_banded_spd(ab, np.ones(3))


def test_workspace_refuses_a_band_that_differs_from_its_matrix(monkeypatch):
    # the 1D verify multiplies on the bands, so a wrong band must not pass
    convert = stepper.to_banded_lower

    def corrupted(A):
        ab = convert(A)
        ab[1, 2] *= 1.0 + 1e-9
        return ab
    monkeypatch.setattr(stepper, "to_banded_lower", corrupted)
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="lower band of M"):
            _workspace(_space(n=6, k=k))


def test_workspace_matvecs_match_csr():
    rng = np.random.default_rng(11)
    for k in (1, 2, 3):
        for space in _spaces_1d_2d(n=6, k=k):
            work = _workspace(space)
            x = _interior_rhs(space, rng)
            mu, ku = matvecs(work, x)
            np.testing.assert_allclose(mu, work.M_ff @ x, rtol=0, atol=1e-14)
            np.testing.assert_allclose(ku, work.K_ff @ x, rtol=0,
                                       atol=1e-14 * abs(work.K_ff).max())


def test_banded_workspace_refills_the_band_for_every_solve():
    # the factorization overwrites the band; a factor left in it would make
    # the second solve (another a) wrong
    rng = np.random.default_rng(9)
    delta = 1e-2
    for k in (1, 2, 3):
        space = _space(n=8, k=k)
        work = _workspace(space, delta)
        b = _interior_rhs(space, rng)
        for a in (1.0, 0.25):
            x, _, _ = solve_verified(work, 0.5 * a * delta, delta * b)
            assert _rel_err(x, _dense_solve(space, b, delta, a)) <= 1e-10


def _perturbed_kernel(monkeypatch, backend, offset, persistent):
    """Make the stepper's kernel of a backend (solve_banded_spd, or cg_jacobi
    for "cg") add offset to its first x (or to every x); returns the list of
    kernel calls."""
    name = "cg_jacobi" if backend == "cg" else "solve_banded_spd"
    kernel = getattr(stepper, name)
    calls = []

    def perturbed(*args, **kwargs):
        calls.append(len(calls))
        result = kernel(*args, **kwargs)
        if persistent or len(calls) == 1:
            (result[0] if backend == "cg" else result)[:] += offset
        return result
    monkeypatch.setattr(stepper, name, perturbed)
    return calls


_BACKEND_SPACES = {"banded": lambda: _space(n=16, k=2),
                   "cg": lambda: _space_2d(n=6, k=2)}


@pytest.mark.parametrize("backend", sorted(_BACKEND_SPACES))
def test_refinement_recovers_a_perturbed_solve(monkeypatch, backend):
    space = _BACKEND_SPACES[backend]()
    delta, a = 1e-2, 1.0
    b = _interior_rhs(space, np.random.default_rng(10))
    expect = _dense_solve(space, b, delta, a)
    calls = _perturbed_kernel(monkeypatch, backend, 1e-6 * expect, False)
    x, _, _ = solve_verified(_workspace(space, delta), 0.5 * a * delta,
                             delta * b)
    assert len(calls) == 2   # the solve and one refinement pass
    assert _rel_err(x, expect) <= 1e-10


@pytest.mark.parametrize("backend", sorted(_BACKEND_SPACES))
def test_persistent_error_fails_verification(monkeypatch, backend):
    space = _BACKEND_SPACES[backend]()
    delta, a = 1e-2, 1.0
    b = _interior_rhs(space, np.random.default_rng(10))
    expect = _dense_solve(space, b, delta, a)
    calls = _perturbed_kernel(monkeypatch, backend, 1e-6 * expect, True)
    with pytest.raises(SolverConvergenceError):
        solve_verified(_workspace(space, delta), 0.5 * a * delta, delta * b)
    assert len(calls) == 2   # refinement runs once, then the solve is refused


def test_banded_solve_within_the_roundoff_floor_is_accepted(monkeypatch):
    # solver_tol = 1e-30 is out of reach in double precision: the residual
    # lies above tol ||rhs|| but within the floor 64 eps ||A||_max ||x||,
    # with ||A||_max bounded by ||M||_max + theta ||K||_max, and the first
    # solve is accepted without a refinement pass
    space = _space(n=16, k=2)
    delta, a = 1e-2, 1.0
    theta = 0.5 * a * delta
    b = _interior_rhs(space, np.random.default_rng(11))
    rhs = delta * b
    calls = _perturbed_kernel(monkeypatch, "banded", 0.0, False)  # counts only
    x, mx, kx = solve_verified(_workspace(space, delta, solver_tol=1e-30),
                               theta, rhs)
    assert len(calls) == 1
    free = space.free_node_indices
    scale = (abs(assemble_mass(space).restrict(free).data).max()
             + theta * abs(assemble_stiffness(space).restrict(free).data).max())
    res = np.linalg.norm(rhs - (mx + theta * kx))
    assert 1e-30 * np.linalg.norm(rhs) < res
    assert res <= 64 * np.finfo(float).eps * scale * np.linalg.norm(x)
    assert _rel_err(x, _dense_solve(space, b, delta, a)) <= 1e-10


@settings(deadline=None)
@given(k=st.sampled_from([1, 2, 3]), n=st.integers(2, 12),
       delta=st.floats(1e-4, 1.0), a=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_banded_workspace_agrees_with_dense_and_cg(k, n, delta, a, seed):
    space = _space(n, k)
    b = _interior_rhs(space, np.random.default_rng(seed))
    x = _solve(space, b, delta, a)
    A_ff = _heat_step_matrix(space, delta, a).restrict(space.free_node_indices)
    x_cg, _ = cg(A_ff, b, 1e-12)
    expect = _dense_solve(space, b, delta, a)
    assert _rel_err(x, expect) <= 1e-10
    assert _rel_err(x, x_cg) <= 1e-10


@settings(deadline=None)
@given(k=st.sampled_from([1, 2, 3]), n=st.integers(2, 6),
       delta=st.floats(1e-4, 1.0), a=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cg_workspace_agrees_with_dense(k, n, delta, a, seed):
    # the workspace solves M + (a delta/2) K, delta times the step matrix,
    # against delta times the right-hand side, from two earlier levels
    space = _space_2d(n, k)
    rng = np.random.default_rng(seed)
    work = _workspace(space, delta)
    b = _interior_rhs(space, rng)
    us = np.array([_interior_rhs(space, rng), _interior_rhs(space, rng)])
    mus, kus = (np.array(products)
                for products in zip(*(matvecs(work, u) for u in us)))
    x, _, _ = solve_verified(work, 0.5 * a * delta, delta * b,
                             (us, mus, kus))
    assert _rel_err(x, _dense_solve(space, b, delta, a)) <= 1e-10


def test_restricted_mass_and_stiffness_share_pattern():
    # the 2D stepper fills M + (a delta/2) K in place on this shared pattern
    for k in (1, 2, 3):
        for space in _spaces_1d_2d(n=6, k=k):
            free = space.free_node_indices
            M_ff = assemble_mass(space).restrict(free)
            K_ff = assemble_stiffness(space).restrict(free)
            np.testing.assert_array_equal(M_ff.indptr, K_ff.indptr)
            np.testing.assert_array_equal(M_ff.indices, K_ff.indices)


def test_workspace_rejects_stiffness_with_another_pattern():
    for space in _spaces_1d_2d(n=6, k=1):
        K = assemble_stiffness(space).matrix.toarray()
        i, j = space.free_node_indices[[0, -1]]
        K[i, j] = K[j, i] = 1e-3   # couples two nodes of no common element
        with pytest.raises(ValueError, match="sparsity pattern"):
            StepWorkspace(space, assemble_mass(space),
                          SparseSymMatrix(sp.csr_matrix(K)),
                          TimeGrid(t_end=1e-2, n_steps=1))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        _solve(_space(), np.zeros(7), solver_tol=0.0)
