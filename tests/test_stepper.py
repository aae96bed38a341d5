import itertools
import logging
import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from scipy.linalg import solve_triangular

from oracles import (boundary_nodes, cg, edge_interior_pairs, froze,
                     full_load, jacobi_cg, l2_norm_sq, node_lattice,
                     per_step_load, solve_verified)

from nonlocfem import linalg, stepper
from nonlocfem.assembly import (LoadAssembler, SparseSymMatrix, assemble_mass,
                                assemble_stiffness)
from nonlocfem.coefficient import GuardStatus, NonlocalCoefficient
from nonlocfem.harness import RunConfig, run_solve
from nonlocfem.linalg import cg_jacobi
from nonlocfem.manufactured import make_case
from nonlocfem.mesh import (build_lagrange_space, uniform_interval_mesh,
                            uniform_square_mesh)
from nonlocfem.stepper import (GuardTripError, StepWorkspace, SteppingError,
                               TimeGrid, galerkin_start, init, run)


def _space_1d(n, k):
    return build_lagrange_space(uniform_interval_mesh(n), k)


def _sin_pi(x):
    return np.sin(np.pi * x)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(t_end=0.0, n_steps=5)
    with pytest.raises(ValueError):
        TimeGrid(t_end=1.0, n_steps=0)
    grid = TimeGrid(t_end=2.0, n_steps=8)
    assert grid.delta == 0.25
    assert grid.time(3) == pytest.approx(0.75)
    assert grid.nearest_index(0.76) == 3
    assert grid.nearest_index(99.0) == 8


def test_init_zero_field():
    space = _space_1d(8, 1)
    U0 = init(space, lambda x: np.zeros_like(x))
    assert np.all(U0.coefficients == 0.0)
    assert U0.space is space


def test_init_sin_nodal_coefficients():
    space = _space_1d(4, 1)
    U0 = init(space, _sin_pi)
    interior = U0.coefficients[space.free_node_indices]
    np.testing.assert_allclose(
        interior, [np.sqrt(2) / 2, 1.0, np.sqrt(2) / 2], rtol=1e-15)


def test_init_example1_positive_mass_and_energy():
    case = make_case("example1")
    space = _space_1d(50, 2)
    U0 = init(space, case.u0)
    M = assemble_mass(space)
    assert l2_norm_sq(U0, M) > 0.0
    ones = full_load(space)(lambda x, t: np.ones_like(x), [0.0])[0]
    assert float(ones @ U0.coefficients) > 0.0


# A one-step run is exactly the predictor-corrector first step.

def test_first_step_zero_data_stays_zero():
    space = _space_1d(8, 1)
    grid = TimeGrid(t_end=0.01, n_steps=1)
    traj = run(space, lambda x: np.zeros_like(x), None,
               NonlocalCoefficient(gamma=0.0), grid)
    assert np.all(traj.final.coefficients == 0.0)
    assert len(traj.coefficient_history) == 1


def test_first_step_heat_decay_factor():
    # gamma = 0, f = 0: one step of classical CN on the lowest mode
    space = _space_1d(64, 2)
    M = assemble_mass(space)
    delta = 1e-3
    grid = TimeGrid(t_end=delta, n_steps=1)
    norm0 = math.sqrt(l2_norm_sq(init(space, _sin_pi), M))
    traj = run(space, _sin_pi, None, NonlocalCoefficient(gamma=0.0), grid)
    norm1 = math.sqrt(l2_norm_sq(traj.final, M))
    assert norm1 / norm0 == pytest.approx(math.exp(-math.pi ** 2 * delta),
                                          abs=1e-7)


def test_corrector_equals_predictor_when_coefficient_constant():
    # at gamma = 0 the corrector re-solves the identical system
    space = _space_1d(16, 1)
    M, K = assemble_mass(space), assemble_stiffness(space)
    delta = 1e-2
    grid = TimeGrid(t_end=delta, n_steps=1)
    traj = run(space, _sin_pi, None, NonlocalCoefficient(gamma=0.0), grid)
    free = space.free_node_indices
    M_ff = M.restrict(free)
    K_ff = K.restrict(free)
    A = (M_ff.multiply(1.0 / delta) + K_ff.multiply(0.5)).toarray()
    rhs = (M_ff.multiply(1.0 / delta) - K_ff.multiply(0.5)) \
        @ init(space, _sin_pi).coefficients[free]
    expect = np.linalg.solve(A, rhs)
    assert np.max(np.abs(traj.final.coefficients[free] - expect)) <= 1e-11


def test_first_step_accuracy_example1():
    # reference-resolution first step: error at t = delta stays at the
    # combined O(delta^2 + h^(k+1)) scale
    from nonlocfem.assembly import l2_error
    case = make_case("example1")
    space = _space_1d(100, 2)
    grid = TimeGrid(t_end=1e-3, n_steps=1)
    traj = run(space, case.u0, case.f, NonlocalCoefficient(gamma=case.gamma),
               grid)
    assert l2_error(traj.final, case.u, 1e-3) <= 1e-6


def test_reduction_to_classical_cn_trajectory():
    # gamma = 0: the full scheme coincides step by step with plain CN
    space = _space_1d(20, 2)
    M, K = assemble_mass(space), assemble_stiffness(space)
    n_steps, t_end = 50, 0.05
    grid = TimeGrid(t_end=t_end, n_steps=n_steps)
    tol = 1e-12
    traj = run(space, _sin_pi, None, NonlocalCoefficient(gamma=0.0), grid,
               solver_tol=tol)

    free = space.free_node_indices
    delta = grid.delta
    A = (M.restrict(free).multiply(1.0 / delta)
         + K.restrict(free).multiply(0.5)).toarray()
    B = (M.restrict(free).multiply(1.0 / delta)
         - K.restrict(free).multiply(0.5)).toarray()
    u = init(space, _sin_pi).coefficients[free]
    for _ in range(n_steps):
        u = np.linalg.solve(A, B @ u)
    drift = np.max(np.abs(traj.final.coefficients[free] - u))
    assert drift <= 10 * tol * max(1.0, np.max(np.abs(u)))


def test_single_step_run_is_one_predictor_corrector():
    space = _space_1d(8, 1)
    grid = TimeGrid(t_end=0.01, n_steps=1)
    traj = run(space, _sin_pi, None, NonlocalCoefficient(gamma=0.5), grid)
    assert traj.grid.time(len(traj.energy) - 1) == grid.delta
    assert len(traj.coefficient_history) == 1
    assert len(traj.energy) == 2  # t = 0 and t = delta


def test_step_one_predictor_is_verified(monkeypatch):
    # an error of 1e-6 in the predictor's banded solve must be caught by its
    # residual check and refined away, not carried into a(U) of step 1
    config = RunConfig(case="example1", k=2, n=16, delta=1e-2, t_end=0.05)
    expect = run_solve(config).coefficient
    kernel = stepper.solve_banded_spd
    calls = []

    def perturbed_once(ab, b):
        calls.append(len(calls))
        x = kernel(ab, b)
        return x * (1.0 + 1e-6) if len(calls) == 1 else x
    monkeypatch.setattr(stepper, "solve_banded_spd", perturbed_once)
    report = run_solve(config)
    got = report.coefficient
    # the predictor, its refinement pass, then one solve per step
    assert len(calls) == len(got) + 2
    assert np.max(np.abs(got - expect) / np.abs(expect)) <= 1e-12


def test_energy_decay_unforced_runs():
    # ||U_n||_M nonincreasing whenever f = 0, for several exponents
    for gamma in (0.0, 0.5, 2.0):
        space = _space_1d(24, 2)
        grid = TimeGrid(t_end=0.2, n_steps=100)
        traj = run(space, _sin_pi, None, NonlocalCoefficient(gamma=gamma), grid)
        norms = [math.sqrt(e) for e in traj.energy]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-10


def test_linearity_in_forcing_at_gamma_zero():
    space = _space_1d(16, 1)
    grid = TimeGrid(t_end=0.1, n_steps=20)
    coeff = NonlocalCoefficient(gamma=0.0)

    def f1(x, t):
        return np.sin(np.pi * x) * (1.0 + t)

    def f2(x, t):
        return x * (1 - x) * np.cos(t)

    def f12(x, t):
        return f1(x, t) + f2(x, t)

    zero = lambda x: np.zeros_like(x)
    u_a = run(space, zero, f1, coeff, grid).final.coefficients
    u_b = run(space, zero, f2, coeff, grid).final.coefficients
    u_ab = run(space, zero, f12, coeff, grid).final.coefficients
    assert np.max(np.abs(u_ab - (u_a + u_b))) <= 1e-10


def test_midpoint_symmetry_preserved_1d():
    space = _space_1d(32, 2)
    grid = TimeGrid(t_end=0.05, n_steps=25)
    traj = run(space, _sin_pi, None, NonlocalCoefficient(gamma=0.5), grid)
    coords = space.nodes[:, 0]
    order = np.argsort(coords)
    vals = traj.final.coefficients[order]
    assert np.max(np.abs(vals - vals[::-1])) <= 1e-10


def test_point_symmetry_preserved_2d():
    # example3 data are symmetric under half-turn rotation about the center,
    # and so is the uniform diagonally split mesh
    case = make_case("example3")
    space = build_lagrange_space(uniform_square_mesh(4), 2)
    grid = TimeGrid(t_end=0.1, n_steps=10)
    traj = run(space, case.u0, case.f, NonlocalCoefficient(gamma=case.gamma),
               grid)
    U = traj.final.coefficients
    assert np.max(np.abs(U - U[_mirror_index(space)])) <= 1e-10


@settings(deadline=None)
@given(k=st.sampled_from([1, 2, 3]), n=st.integers(2, 8),
       gamma=st.floats(-0.5, 1.0), mode=st.integers(1, 3),
       amplitude=st.floats(0.1, 2.0), forcing=st.floats(-2.0, 2.0),
       n_steps=st.integers(1, 6), t_end=st.floats(0.01, 0.5))
def test_sign_symmetry(k, n, gamma, mode, amplitude, forcing, n_steps, t_end):
    # the scheme is odd in (u0, f): negation is exact in floating point and
    # every operation of a step is odd or even in it, so -u0 and -f give
    # exactly -U, with the same energies and coefficients
    space = _space_1d(n, k)
    grid = TimeGrid(t_end=t_end, n_steps=n_steps)
    coeff = NonlocalCoefficient(gamma=gamma)

    def u0(x):
        return amplitude * np.sin(mode * np.pi * x)

    def f(x, t):
        return forcing * x * (1.0 - x) * np.cos(3.0 * t)

    plus = run(space, u0, f, coeff, grid)
    minus = run(space, lambda x: -u0(x), lambda x, t: -f(x, t), coeff, grid)
    np.testing.assert_array_equal(minus.final.coefficients,
                                  -plus.final.coefficients)
    np.testing.assert_array_equal(minus.energy, plus.energy)
    assert minus.coefficient_history == plus.coefficient_history


def _mirror_index(space):
    """The node at the image of each node under x -> 1 - x in every
    coordinate: the midpoint mirror in 1D, the half-turn about the center in
    2D. Both uniform meshes (the diagonally split square included) map onto
    themselves."""
    lattice = node_lattice(space).tolist()
    nk = space.mesh.divisions * space.degree
    index_of = {tuple(p): i for i, p in enumerate(lattice)}
    return np.array([index_of[tuple(nk - c for c in p)] for p in lattice])


def _assert_mirror_symmetric(space, u0, f, gamma, grid):
    # the mirrored u0 and f give the mirrored field, up to the roundoff of
    # summing in another order
    dim = space.mesh.dim

    def mirrored(g):
        return lambda *args: g(*(1.0 - x for x in args[:dim]), *args[dim:])

    coeff = NonlocalCoefficient(gamma=gamma)
    plain = run(space, u0, f, coeff, grid).final.coefficients
    image = run(space, mirrored(u0), None if f is None else mirrored(f),
                coeff, grid).final.coefficients
    assert (np.max(np.abs(image - plain[_mirror_index(space)]))
            <= 1e-10 * np.max(np.abs(plain)))


@settings(deadline=None)
@given(k=st.sampled_from([1, 2, 3]), n=st.integers(2, 8),
       gamma=st.floats(-0.5, 1.0), amplitude=st.floats(0.1, 2.0),
       skew=st.floats(0.1, 1.0), forcing=st.none() | st.floats(-2.0, 2.0),
       n_steps=st.integers(1, 6), t_end=st.floats(0.01, 0.5))
def test_mirror_symmetry_1d(k, n, gamma, amplitude, skew, forcing, n_steps,
                            t_end):
    def u0(x):
        return amplitude * np.sin(np.pi * x) + skew * np.sin(2 * np.pi * x)

    def f(x, t):
        return forcing * x ** 2 * (1.0 - x) * np.cos(3.0 * t)

    _assert_mirror_symmetric(_space_1d(n, k), u0,
                             None if forcing is None else f, gamma,
                             TimeGrid(t_end=t_end, n_steps=n_steps))


@settings(deadline=None, max_examples=40)
@given(k=st.sampled_from([1, 2, 3]), n=st.integers(2, 4),
       gamma=st.floats(-0.5, 1.0), amplitude=st.floats(0.1, 2.0),
       skew=st.floats(0.1, 1.0), forcing=st.none() | st.floats(-2.0, 2.0),
       n_steps=st.integers(1, 4), t_end=st.floats(0.01, 0.2))
def test_half_turn_symmetry_2d(k, n, gamma, amplitude, skew, forcing,
                               n_steps, t_end):
    # the CG backend: a start, its residual and every CG iterate are
    # permuted with the field, so the verified solves are too
    def u0(x, y):
        return (amplitude * np.sin(np.pi * x)
                + skew * np.sin(2 * np.pi * x)) * np.sin(np.pi * y)

    def f(x, y, t):
        return forcing * x ** 2 * y * (1.0 - x) * (1.0 - y) * np.cos(3.0 * t)

    _assert_mirror_symmetric(build_lagrange_space(uniform_square_mesh(n), k),
                             u0, None if forcing is None else f, gamma,
                             TimeGrid(t_end=t_end, n_steps=n_steps))


def test_snapshots_match_nearest_grid_times():
    space = _space_1d(8, 1)
    grid = TimeGrid(t_end=1.0, n_steps=10)
    traj = run(space, _sin_pi, None, NonlocalCoefficient(gamma=0.0), grid,
               snapshot_times=(0.0, 0.44, 1.0))
    assert set(traj.snapshots) == {0.0, 0.44, 1.0}
    assert traj.snapshots[0.44][0] == pytest.approx(0.4)
    assert traj.snapshots[1.0][0] == pytest.approx(1.0)
    # fields are embedded from the free nodes: boundary entries are exactly 0
    boundary = boundary_nodes(space)
    for _, field_vec in traj.snapshots.values():
        assert np.all(field_vec.coefficients[boundary] == 0.0)
    assert np.all(traj.final.coefficients[boundary] == 0.0)


def test_guard_abort_policy():
    case = make_case("example2")
    space = _space_1d(50, 2)
    grid = TimeGrid(t_end=2.0, n_steps=400)
    coeff = NonlocalCoefficient(gamma=case.gamma, ceil_M=10.0)
    with pytest.raises(GuardTripError) as info:
        run(space, case.u0, case.f, coeff, grid, guard_policy="abort")
    assert info.value.t > 0.0
    assert info.value.status in (GuardStatus.ABOVE_CEILING,
                                 GuardStatus.DEGENERATE)


def test_unknown_guard_policy_is_refused_before_assembly(monkeypatch):
    assembled = _count_calls(monkeypatch, stepper, "assemble_mass")
    with pytest.raises(ValueError, match="guard policy 'ignore'"):
        run(_space_1d(8, 1), _sin_pi, None, NonlocalCoefficient(gamma=0.0),
            TimeGrid(t_end=0.01, n_steps=1), guard_policy="ignore")
    assert assembled == []


def test_extinction_freeze_with_negative_exponent():
    # zero initial data and gamma < 0: coefficient undefined from the start,
    # the run continues with the field frozen at zero
    space = _space_1d(8, 1)
    grid = TimeGrid(t_end=0.1, n_steps=5)
    traj = run(space, lambda x: np.zeros_like(x), None,
               NonlocalCoefficient(gamma=-0.5), grid)
    assert froze(traj)
    assert all(status == GuardStatus.DEGENERATE
               for status in traj.guard_status)
    assert all(e == 0.0 for e in traj.energy)


def test_histories_are_complete_and_time_ordered():
    space = _space_1d(10, 1)
    grid = TimeGrid(t_end=0.5, n_steps=20)
    traj = run(space, _sin_pi, None, NonlocalCoefficient(gamma=1.0), grid)
    times = [t for t, _, _ in traj.coefficient_history]
    assert len(times) == grid.n_steps
    np.testing.assert_allclose(times, grid.delta * np.arange(1, 21), rtol=1e-12)
    energy_times = [traj.grid.time(n) for n in range(len(traj.energy))]
    assert energy_times == sorted(energy_times)
    assert len(energy_times) == grid.n_steps + 1


def test_errors_carry_step_context():
    # forcing turns non-finite after t = 0.05: the failure names the step
    # that computed the block of loads, and the first bad time in it
    space = _space_1d(8, 1)
    grid = TimeGrid(t_end=0.1, n_steps=10)

    def bad_forcing(x, t):
        return np.where(t > 0.05, np.nan, 0.0) * x

    with pytest.raises(SteppingError,
                       match=r"step \d+ at t=.*non-finite value at t=0\.05"):
        run(space, _sin_pi, bad_forcing, NonlocalCoefficient(gamma=0.0), grid)


# --- CG start vector ---

@st.composite
def _step_system(draw):
    """Random SPD M and K, a > 0, delta, two levels and a right-hand side."""
    n = draw(st.integers(2, 6))
    entries = hnp.arrays(float, (n, n), elements=st.floats(-1.0, 1.0))
    vectors = hnp.arrays(float, n, elements=st.floats(-10.0, 10.0))
    BM, BK = draw(entries), draw(entries)
    M = BM @ BM.T + 0.1 * np.eye(n)
    K = BK @ BK.T + 0.1 * np.eye(n)
    a = draw(st.floats(1e-3, 1e3))
    delta = draw(st.floats(1e-4, 1.0))
    return M, K, a, delta, draw(vectors), draw(vectors), draw(vectors)


def _levels(M, K, *us):
    """The levels us as rows, and their products with M and K as rows."""
    u = np.array(us)
    return u, np.array([M @ v for v in u]), np.array([K @ v for v in u])


@settings(deadline=None)
@given(_step_system())
# here u1 is kept but orthogonal to b, and the share rule drops u2, so the
# start is 0: further from the solution than 1.5 u1 - 0.5 u2, but still the
# projection onto a subset of the levels
@example((0.1 * np.eye(2), np.array([[2.1, 2.0], [2.0, 2.1]]), 1.0, 1.0,
          np.array([2.5, 0.0]), np.array([7.0, 0.25]), np.array([0.0, -1.0])))
def test_galerkin_start_is_the_projection_onto_some_levels(system):
    # the start is the energy-norm projection of the solution onto the span
    # of the levels that the drop rule keeps, and the rule may keep any of
    # them, so the start matches the dense projection onto some subset
    M, K, a, delta, u1, u2, b = system
    A = M / delta + 0.5 * a * K
    exact = np.linalg.solve(A, b)
    L = np.linalg.cholesky(A)

    def a_norm(v):
        return float(np.sqrt(max(v @ A @ v, 0.0)))

    def projection(levels):
        # levels scaled to unit energy norm, so that the least-squares rank
        # cut-off sees how dependent they are, not how small
        U = np.array([v / a_norm(v) for v in levels if a_norm(v) > 0])
        if not len(U):
            return np.zeros_like(b)
        return U.T @ np.linalg.lstsq(L.T @ U.T, L.T @ exact, rcond=None)[0]

    start, _ = galerkin_start(*_levels(M, K, u1, u2), delta * b,
                              0.5 * a * delta, stepper.DEFAULT_SOLVER_TOL)
    # roundoff of the 2x2 solve and of dropping a nearly dependent level
    slack = 1e-6 * (a_norm(exact) + a_norm(u1) + a_norm(u2))
    assert min(a_norm(start - projection(levels))
               for r in range(3)
               for levels in itertools.combinations((u1, u2), r)) <= slack


@settings(deadline=None)
@given(_step_system(), st.sampled_from(["zero older", "zero newer",
                                        "repeated", "both zero"]))
def test_galerkin_start_is_finite_for_degenerate_levels(system, kind):
    M, K, a, delta, u1, u2, b = system
    if kind == "zero older":
        u2 = np.zeros_like(u1)
    elif kind == "zero newer":
        u1 = np.zeros_like(u2)
    elif kind == "repeated":
        u2 = u1.copy()
    else:
        u1 = u2 = np.zeros_like(b)
    start, residual = galerkin_start(*_levels(M, K, u1, u2), delta * b,
                                     0.5 * a * delta,
                                     stepper.DEFAULT_SOLVER_TOL)
    assert np.all(np.isfinite(start))
    if kind == "both zero":
        # zero levels give exactly the zero start and its residual rhs
        assert np.all(start == 0.0)
        np.testing.assert_array_equal(residual, delta * b)


@st.composite
def _start_system(draw):
    """Random SPD M and K, a > 0, delta, one to four levels, a right-hand
    side and a solver tolerance. A level after the first is either drawn on
    its own or the first one scaled and moved by a relative 10^-e, so that
    nearly parallel levels, as a run carries them, are drawn too."""
    M, K, a, delta, u1, v, b = draw(_step_system())
    vectors = hnp.arrays(float, len(b), elements=st.floats(-10.0, 10.0))
    us = [u1]
    for _ in range(draw(st.integers(0, 3))):
        gap = draw(st.sampled_from([None, 1e-2, 1e-7, 1e-12, 1e-15]))
        us.append(v if gap is None
                  else draw(st.floats(0.5, 2.0)) * u1 + gap * v)
        v = draw(vectors)
    tol = draw(st.sampled_from([stepper.DEFAULT_SOLVER_TOL, 1e-16, 1e-6]))
    return M, K, a, delta, np.array(us), b, tol


def _sets_the_start_may_keep(u, A):
    """Every set of levels (indices of rows of u) that galerkin_start may
    keep: each level in it has a squared energy norm above half the least
    normal float, and an energy norm orthogonal to the levels of the set
    before it above half of the start's drop share of its own (Householder
    QR in energy coordinates), so no more levels than unknowns. The other
    drop rule only removes levels, so it adds no set."""
    L_T = np.linalg.cholesky(A).T
    sets = []
    for mask in itertools.product((False, True), repeat=len(u)):
        kept = [j for j, keep in enumerate(mask) if keep]
        if all(i < len(A) and u[j] @ A @ u[j] > 0.5 * stepper._START_LEAST
               and abs(np.linalg.qr(L_T @ u[kept[:i + 1]].T, mode="r")[i, i])
               > 0.5 * stepper._START_DROP * math.sqrt(u[j] @ A @ u[j])
               for i, j in enumerate(kept)):
            sets.append(kept)
    return sets


@settings(deadline=None)
@given(_start_system())
def test_galerkin_start_residual_is_the_residual_of_the_start(system):
    M, K, a, delta, u, b, tol = system
    theta, rhs = 0.5 * a * delta, delta * b
    x0, r0 = galerkin_start(*_levels(M, K, *u), rhs, theta, tol)
    A = M + theta * K
    dense = rhs - A @ x0
    # The kept levels u_K = Q R are made energy-orthonormal (Q^T A Q = I, R
    # upper triangular, R^T R = G the Gram matrix u_K A u_K^T), and x0 and
    # r0 are built from them term by term: q_j from u_j and the q before it
    # with the coefficients of R^{-1}, x0 = Q c and r0 = rhs - (A Q) c with
    # c = R^{-T} p, p_i = u_i.rhs. The A-products follow the same steps from
    # M u_i + theta K u_i. Each product, scaling and sum rounds, so in every
    # entry r0 and the dense residual of x0 differ by at most
    # 2 (n + 4 L) eps (|rhs| + sum_i beta_i W |u_i| + W |x0|) for L levels,
    # with W = |M| + theta |K| and beta = <R>^{-1} |c| the terms' absolute
    # sum per level (<R> is |R| with its off-diagonal entries negated, whose
    # inverse bounds |R^{-1}| entry by entry; the second pass adds only
    # roundoff). Each level adds at most four roundings per entry (its
    # A-product, its two passes and its term), so two levels give the
    # 2 (n + 8) of the start that took at most two.
    # With gradual underflow each operation may also add an absolute error
    # of up to eta, the least subnormal, which a later product scales by at
    # most ||beta||_1 (1 + theta), ||M|| |u|, ||K|| |u| or ||W|| (max row
    # sums). Which levels are kept is decided as galerkin_start does, with
    # half its drop share, so the bound is the largest over every set of
    # levels the start may keep; beta comes from a Householder QR of the set
    # in energy coordinates, since G itself is singular to roundoff when the
    # levels are nearly parallel. For two kept levels
    # ||beta||_1 <= sqrt(2) ||p||_1 / lam_low, lam_low the least eigenvalue
    # of G, so the bound is no looser than that one.
    W = np.abs(M) + theta * np.abs(K)
    eps, eta = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    norm_m, norm_k = (np.abs(X).sum(axis=1).max() for X in (M, K))
    L_T = np.linalg.cholesky(A).T
    bound = np.zeros(len(b))
    for kept in _sets_the_start_may_keep(u, A):
        level_term, beta_sum = np.zeros(len(b)), 0.0
        if kept:
            R = np.linalg.qr(L_T @ u[kept].T, mode="r")
            c = solve_triangular(R.T, u[kept] @ rhs, lower=True)
            comparison = -np.abs(R)
            np.fill_diagonal(comparison, np.abs(np.diag(R)))
            beta = solve_triangular(comparison, np.abs(c))
            level_term = W @ (np.abs(u[kept]).T @ beta)
            beta_sum = beta.sum()
        scale = np.abs(rhs) + level_term + W @ np.abs(x0)
        underflow = eta * (1.0 + beta_sum * (1.0 + theta) + norm_m
                           + theta * norm_k
                           + (norm_m + norm_k) * np.abs(u).max())
        bound = np.maximum(bound, eps * scale + underflow)
    assert np.all(np.abs(r0 - dense) <= 2 * (len(b) + 4 * len(u)) * bound)


def test_galerkin_start_resolves_nearly_parallel_levels():
    # levels 1e-7 apart in the energy norm, as the levels of example3 are,
    # and a solution in their span (the linear extrapolation 2 u2 - u1): a
    # Gram matrix of the levels is singular to roundoff, and a start that
    # drops its small eigenvalue is 3e-8 off in the relative energy norm
    space = build_lagrange_space(uniform_square_mesh(8), 2)
    free = space.free_node_indices
    M = assemble_mass(space).restrict(free)
    K = assemble_stiffness(space).restrict(free)
    theta = 5e-3
    A = M + theta * K

    def energy(v):
        return math.sqrt(v @ (A @ v))

    u1 = init(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    v = init(space, lambda x, y: x * y * (1 - x) * (1 - y) * np.exp(x))
    u1, v = u1.coefficients[free], v.coefficients[free]
    u2 = u1 + 1e-7 * (energy(u1) / energy(v)) * v
    exact = 2.0 * u2 - u1
    x0, r0 = galerkin_start(*_levels(M, K, u1, u2), A @ exact, theta,
                            stepper.DEFAULT_SOLVER_TOL)
    assert energy(x0 - exact) <= 1e-8 * energy(exact)
    assert np.linalg.norm(r0 - A @ (exact - x0)) <= 1e-12 * np.linalg.norm(
        A @ exact)


def test_cg_starts_warm_and_saves_iterations(monkeypatch):
    calls = []

    def recording_cg(A, b, tol, x0, *start):
        x, iterations = cg_jacobi(A, b, tol, x0, *start)
        calls.append((A.copy(), b.copy(), tol, x0, iterations))
        return x, iterations

    monkeypatch.setattr(stepper, "cg_jacobi", recording_cg)
    run_solve(RunConfig(case="example3", k=2, n=8, t_end=0.2))
    assert len(calls) == 21    # the step-1 predictor, then one per step
    assert all(x0 is not None for _, _, _, x0, _ in calls[1:])
    warm = sum(iterations for *_, iterations in calls)
    cold = sum(cg(A, b, tol)[1] for A, b, tol, _, _ in calls)
    assert warm < cold


def test_example3_fine_mesh_cg_iterations(monkeypatch):
    # the levels of example3 at n = 48 agree to 6e-9 to 3e-7 in the energy
    # norm: its first 11 solves took 475 iterations from a start that kept
    # one direction of the two levels, and take 368 from one that keeps both
    iterations = []

    def recording_cg(*args, **kwargs):
        x, its = cg_jacobi(*args, **kwargs)
        iterations.append(its)
        return x, its
    monkeypatch.setattr(stepper, "cg_jacobi", recording_cg)
    run_solve(RunConfig(case="example3", k=3, n=48, delta=1e-2, t_end=0.1))
    assert len(iterations) == 11
    assert sum(iterations) <= 400


def test_example3_start_residual_is_within_its_share_of_the_bound(
        monkeypatch):
    # example3 at n = 48 starts CG from up to four levels. On every solve the
    # start's residual is within _START_SHARE of the verify bound of the
    # dense rhs - A x0 (at most 5.9e-15 ||rhs||, against 1e-14), and no
    # refinement runs. The corrector overwrites the predictor, so the run
    # never carries two levels that repeat each other; the step-2 start is
    # therefore also formed with the predictor as a level, whose energy
    # norm orthogonal to the corrector is 1.1e-10 of its own: kept because
    # that is above _START_DROP, its term moves the residual by
    # 3.4e-13 ||rhs||, 34 times the share
    case = make_case("example3")
    space = build_lagrange_space(uniform_square_mesh(48), 3)
    free = space.free_node_indices
    M = assemble_mass(space).restrict(free)
    K = assemble_stiffness(space).restrict(free)
    share = stepper._START_SHARE * stepper.DEFAULT_SOLVER_TOL
    gaps, predictor = [], []

    def gap(x0, r0, rhs, theta):
        dense = rhs - (M + theta * K) @ x0
        return np.linalg.norm(r0 - dense) / np.linalg.norm(rhs)

    def checked_start(u, mu, ku, rhs, theta, tol):
        if len(gaps) == 1:
            # the corrector's start, whose newest level is the predictor P_1
            predictor.extend(rows[0].copy() for rows in (u, mu, ku))
        if len(gaps) == 2:
            # step 2's levels U_1 and U_0, with P_1 between them
            levels = [np.array([rows[0], p, rows[1]])
                      for rows, p in zip((u, mu, ku), predictor)]
            gaps.append(gap(*original(*levels, rhs, theta, tol), rhs, theta))
        x0, r0 = original(u, mu, ku, rhs, theta, tol)
        gaps.append(gap(x0, r0, rhs, theta))
        return x0, r0
    original = stepper.galerkin_start
    monkeypatch.setattr(stepper, "galerkin_start", checked_start)
    cg_calls = _count_calls(monkeypatch, stepper, "cg_jacobi")
    verified = _count_calls(monkeypatch, StepWorkspace, "solve_verified")
    run(space, case.u0, case.f, NonlocalCoefficient(case.gamma),
        TimeGrid(t_end=0.05, n_steps=5))
    assert len(gaps) == 7     # six solves and the start with the predictor
    assert max(gaps) <= share
    assert len(cg_calls) == len(verified) == 6


def test_example3_defaults_cg_iterations(monkeypatch):
    # example3 at its defaults (k = 3, n = 16, 101 solves) took 710 CG
    # iterations from the last two levels and 495 from the last four, and
    # takes 392 with the edge-pair blocks of the preconditioner
    iterations = []

    def recording_cg(*args, **kwargs):
        x, its = cg_jacobi(*args, **kwargs)
        iterations.append(its)
        return x, its
    monkeypatch.setattr(stepper, "cg_jacobi", recording_cg)
    verified = _count_calls(monkeypatch, StepWorkspace, "solve_verified")
    run_solve(RunConfig(case="example3"))
    assert len(iterations) == len(verified) == 101    # no refinement pass
    assert sum(iterations) <= 420


# --- the block Jacobi preconditioner of the 2D solves ---

def _preconditioner_of_a_solve(monkeypatch, space, theta):
    """The preconditioner that the workspace hands CG in one verified solve
    at theta, and the workspace."""
    work = StepWorkspace(space, assemble_mass(space), assemble_stiffness(space),
                         TimeGrid(t_end=1.0, n_steps=1))
    seen = []

    def recording(A, b, tol, x0, r0, preconditioner):
        seen.append(preconditioner.copy())
        return cg_jacobi(A, b, tol, x0, r0, preconditioner)
    monkeypatch.setattr(stepper, "cg_jacobi", recording)
    solve_verified(work, theta, np.sin(1.0 + np.arange(work.M_ff.shape[0])))
    return seen[0], work


def test_block_jacobi_applies_the_inverse_of_the_edge_pair_blocks(
        monkeypatch):
    # example3's mesh at k = 3, n = 4: a 2x2 block of M + theta K on the
    # two free nodes inside each of the 40 interior edges, found here from
    # the vertices' lattice points, and a 1x1 block on every other unknown
    space = build_lagrange_space(uniform_square_mesh(4), 3)
    theta = 5e-3
    P, work = _preconditioner_of_a_solve(monkeypatch, space, theta)
    A = (work.M_ff + theta * work.K_ff).toarray()
    row_of = {node: row for row, node in enumerate(space.free_node_indices)}
    pairs = [[row_of[i] for i in pair] for pair in edge_interior_pairs(space)
             if pair <= row_of.keys()]
    assert len(pairs) == 40
    blocks = np.diag(np.diag(A))
    for i, j in pairs:
        blocks[i, j] = blocks[j, i] = A[i, j]
    dense = P.toarray()
    assert np.array_equal(dense != 0.0, blocks != 0.0)
    np.testing.assert_allclose(dense, np.linalg.inv(blocks), rtol=1e-13,
                               atol=1e-13 * np.abs(dense).max())
    r = np.random.default_rng(21).standard_normal(len(A))
    np.testing.assert_allclose(P @ r, np.linalg.solve(blocks, r), rtol=1e-12)
    # symmetric and positive definite, so CG can use it
    assert np.array_equal(dense, dense.T)
    assert np.linalg.eigvalsh(dense).min() > 0.0


@pytest.mark.parametrize("k", [1, 2])
def test_block_jacobi_below_k3_is_exactly_the_inverse_diagonal(monkeypatch,
                                                               k):
    # no edge holds two nodes, so every block is 1x1 and CG's apply is bit
    # for bit the Jacobi r / diag it replaced
    theta = 5e-3
    P, work = _preconditioner_of_a_solve(
        monkeypatch, build_lagrange_space(uniform_square_mesh(4), k), theta)
    n = work.M_ff.shape[0]
    assert np.array_equal(P.indptr, np.arange(n + 1))
    assert np.array_equal(P.indices, np.arange(n))
    inverse = 1.0 / (theta * work.K_ff.diagonal() + work.M_ff.diagonal())
    assert P.data.tobytes() == inverse.tobytes()
    r = np.random.default_rng(22).standard_normal(n)
    assert (P @ r).tobytes() == (inverse * r).tobytes()


def test_block_jacobi_saves_iterations_over_jacobi(monkeypatch):
    # example3 at its defaults (k = 3, n = 16, 101 solves): CG with the
    # edge-pair blocks takes 392 iterations, and the Jacobi CG it replaced,
    # kept as an oracle, 495; both runs end at the same error
    totals, errors = {}, {}
    for name, kernel in (("block", cg_jacobi), ("jacobi", jacobi_cg)):
        counts = []

        def recording(*args, kernel=kernel, counts=counts):
            x, its = kernel(*args)
            counts.append(its)
            return x, its
        monkeypatch.setattr(stepper, "cg_jacobi", recording)
        errors[name] = run_solve(RunConfig(case="example3")).final_error
        assert len(counts) == 101
        totals[name] = sum(counts)
    assert totals["block"] <= 0.85 * totals["jacobi"]
    assert errors["block"] == pytest.approx(errors["jacobi"], rel=1e-6)


# --- extinction at the defaults ---

def _degenerate_times(traj):
    return [traj.grid.time(n) for n, status in enumerate(traj.guard_status, 1)
            if status == GuardStatus.DEGENERATE]


def test_example2_freezes_at_extinction_by_default():
    # no tuned guard: from t = 1 the Crank-Nicolson factor of every mode is
    # negative and the field rings; the rule freezes it
    report = run_solve(RunConfig(case="example2"))
    frozen = _degenerate_times(report)
    assert frozen and 0.99 <= frozen[0] <= 1.05
    assert frozen == [t for t, _, _ in report.coefficient_history
                      if t >= frozen[0]]
    assert all(e == 0.0 for n, e in enumerate(report.energy)
               if report.grid.time(n) >= frozen[0])
    # the ringing field left 5.91e-8 at t = 2 before the rule
    assert report.final_error < 5.9e-8


@pytest.mark.parametrize("config", [
    RunConfig(case="example1"), RunConfig(case="example3"),
    RunConfig(case="example2", t_end=0.99)], ids=["ex1", "ex3", "ex2-0.99"])
def test_runs_before_extinction_never_freeze(config):
    report = run_solve(config)
    assert _degenerate_times(report) == []
    assert min(report.energy) > 0.0


def test_negative_exponent_run_kept_alive_never_freezes():
    # example2's datum with the forcing not cut off at t = 1: gamma < 0, but
    # the norm never vanishes, so no step may freeze
    case = make_case("example2")
    space = _space_1d(case.default_n, case.default_k)
    grid = TimeGrid(t_end=2.0, n_steps=2000)
    traj = run(space, case.u0, lambda x, t: np.exp(x) + 0.0 * t,
               NonlocalCoefficient(gamma=case.gamma), grid)
    assert not froze(traj)
    assert _degenerate_times(traj) == []
    assert min(traj.energy) > 0.0


def _steady_energy(space, f, gamma):
    """s* = c_h^(1/(1 + 2 gamma)), c_h = (K^-1 F).M (K^-1 F), the energy of
    the steady state u* = K^-1 F / a* that the scheme keeps exactly."""
    free = space.free_node_indices
    M = assemble_mass(space).restrict(free).toarray()
    K = assemble_stiffness(space).restrict(free).toarray()
    z = np.linalg.solve(K, per_step_load(space, f, 0.0, free))
    return (z @ M @ z) ** (1.0 / (1.0 + 2.0 * gamma))


def test_forced_negative_exponent_run_reaches_its_steady_state():
    # gamma = -1/3 with a forcing that stays on: the scheme keeps the steady
    # state u* = K^-1 F / a*, a* = (s*)^gamma, whose energy is
    # s* = c_h^(1/(1 + 2 gamma)), c_h = (K^-1 F).M (K^-1 F). At delta = 0.01
    # the field rings on the way there (theta dim pi^2 > 1, negative level
    # cosines), which on a forced step is no extinction
    space = _space_1d(32, 2)
    gamma = -1.0 / 3.0

    def f(x, t):
        return 50.0 * np.sin(8.0 * np.pi * x) + 0.0 * t
    traj = run(space, _sin_pi, f, NonlocalCoefficient(gamma=gamma),
               TimeGrid(t_end=3.0, n_steps=300))
    s_star = _steady_energy(space, f, gamma)
    assert not froze(traj)
    assert _degenerate_times(traj) == []
    assert abs(traj.energy[-1] / s_star - 1.0) <= 1e-3


def test_one_guard_message_after_the_policy_check(caplog):
    # abort raises at extinction without claiming a freeze; warn logs one
    # message at the freezing step: the error's text and the freeze's reason
    with caplog.at_level(logging.WARNING, logger="nonlocfem.stepper"):
        with pytest.raises(GuardTripError) as info:
            run_solve(RunConfig(case="example2", guard_policy="abort"))
    assert info.value.step_index == 1001
    assert not any("frozen" in record.getMessage()
                   for record in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="nonlocfem.stepper"):
        run_solve(RunConfig(case="example2"))
    [record] = [record for record in caplog.records
                if record.name == "nonlocfem.stepper"]
    message = record.getMessage()
    assert record.levelno == logging.WARNING
    assert message.startswith(f"{info.value}; ")
    assert "at step 1001 (t=1.001)" in message
    assert "theta*dim*pi^2 = 1.44 > 1" in message
    assert "M-cosine of the last two levels of -0.9999 < 0" in message
    assert message.endswith("the field is frozen at zero")


def _zero_field_run():
    return run(_space_1d(8, 1), lambda x: np.zeros_like(x), None,
               NonlocalCoefficient(gamma=-0.5), TimeGrid(t_end=0.1, n_steps=5),
               snapshot_times=(0.0, 0.06))


@pytest.mark.parametrize("make_run, freeze_step", [
    (_zero_field_run, 1),
    (lambda: run_solve(RunConfig(case="example2", n=8, delta=0.01,
                                 snapshots=(0.5, 1.0, 1.01, 1.5))), 101),
    (lambda: run_solve(RunConfig(case="example1", k=1, n=8, delta=0.02,
                                 t_end=0.2, snapshots=(0.0, 0.1, 0.2))), None),
], ids=["zero-field", "example2-n8", "example1"])
def test_run_record_contract(make_run, freeze_step):
    traj = make_run()
    grid = traj.grid
    n_steps = grid.n_steps
    assert len(traj.energy) == n_steps + 1
    assert len(traj.coefficient) == len(traj.guard_status) == n_steps
    times = [grid.time(n) for n in range(1, n_steps + 1)]
    assert traj.coefficient_history == list(zip(
        times, traj.coefficient.tolist(), traj.guard_status))
    assert [t for t, _, _ in traj.coefficient_history] == times
    # the first guard trip, read from the status column, is the first row
    # of the history that is not ok
    assert traj.first_guard_trip == next(
        ((n, t, status) for n, (t, _, status)
         in enumerate(traj.coefficient_history, 1)
         if status != GuardStatus.OK), None)
    # degenerate is absorbing: from the freezing step on a = inf and the
    # energy is 0, and before it every step is live
    stop = n_steps + 1 if freeze_step is None else freeze_step
    assert all(status != GuardStatus.DEGENERATE
               for status in traj.guard_status[:stop - 1])
    assert all(status == GuardStatus.DEGENERATE
               for status in traj.guard_status[stop - 1:])
    assert np.all(np.isfinite(traj.coefficient[:stop - 1]))
    assert np.all(traj.coefficient[stop - 1:] == math.inf)
    assert np.all(traj.energy[stop:] == 0.0)
    assert froze(traj) == (freeze_step is not None)
    # a snapshot at a level the stepping started from is that live level;
    # one at or past the freezing step is the zero final field
    M = assemble_mass(traj.final.space)
    assert traj.snapshots
    for t_req, (t, field_vec) in traj.snapshots.items():
        index = grid.nearest_index(t_req)
        assert t == grid.time(index)
        if index >= stop:
            assert np.all(field_vec.coefficients == 0.0)
            assert np.all(traj.final.coefficients == 0.0)
        else:
            assert l2_norm_sq(field_vec, M) == pytest.approx(
                traj.energy[index], rel=1e-12, abs=0.0)
    if freeze_step is not None:
        assert any(grid.nearest_index(t_req) < stop
                   for t_req in traj.snapshots)
        assert any(grid.nearest_index(t_req) >= stop
                   for t_req in traj.snapshots)


def test_coarse_example2_does_not_freeze_while_forced():
    # k = 1, n = 4 rings before t = 1 while the forcing is on; the first
    # unforced step (t = 1.001) freezes
    report = run_solve(RunConfig(case="example2", k=1, n=4, delta=1e-3))
    frozen = _degenerate_times(report)
    assert frozen and frozen[0] > 1.0


def test_forced_sine_run_is_not_frozen_on_its_way_to_steady_state():
    # gamma = -1/3, delta = 0.05 and f = u0 = sin(pi x): the step rings while
    # forced, and the field ends at s* (1.352e-7 against 1.352e-7)
    space = _space_1d(32, 2)
    gamma = -1.0 / 3.0

    def f(x, t):
        return np.sin(np.pi * x) + 0.0 * t
    traj = run(space, _sin_pi, f, NonlocalCoefficient(gamma=gamma),
               TimeGrid(t_end=3.0, n_steps=60))
    assert not froze(traj)
    assert _degenerate_times(traj) == []
    s_star = _steady_energy(space, f, gamma)
    assert abs(traj.energy[-1] / s_star - 1.0) <= 1e-3


def _assert_steady_state_is_kept(space, gamma, s_star, delta):
    """Run 3 steps from u* = K^-1 F / a*, a* = s_star^gamma, with the
    forcing f = c sin(pi x) (times sin(pi y) in 2D) scaled so that the
    energy of u* is s_star: c^2 c_1 = s_star^(1 + 2 gamma), where
    c_1 = z.M z and z = K^-1 F for c = 1. Crank-Nicolson keeps u* exactly
    (2 theta K u* = delta F), so every step's energy is s_star and its
    coefficient a*, inside the guard window.

    Exactly, but not stably: with rho = 2 theta lam / (1 + theta lam), lam
    the Rayleigh quotient of u*, a relative perturbation eta of u* obeys
    eta' = (1 - rho - 3 rho gamma) eta + rho gamma eta'' (eta'' that of the
    level before), which is stable only for rho (1 + 4 gamma) < 2 and
    rho |gamma| < 1. At gamma = 2 and a large theta lam the rounding of a
    step (about 1e-13 of E) grows 13.3-fold per step (measured and
    predicted), so three steps stay within the 1e-10 bound for every theta
    and a fourth may not."""
    free = space.free_node_indices
    M = assemble_mass(space).restrict(free).toarray()
    K = assemble_stiffness(space).restrict(free).toarray()

    def unit(*xt):
        return np.prod([np.sin(np.pi * x) for x in xt[:-1]], axis=0) \
            + 0.0 * xt[-1]
    z = np.linalg.solve(K, per_step_load(space, unit, 0.0, free))
    c = math.sqrt(s_star ** (1.0 + 2.0 * gamma) / (z @ M @ z))
    u_star = np.zeros(space.n_nodes)
    u_star[free] = c * z / s_star ** gamma
    traj = run(space, lambda *x: u_star, lambda *xt: c * unit(*xt),
               NonlocalCoefficient(gamma=gamma), TimeGrid(3 * delta, 3))
    assert not froze(traj)
    assert all(status == GuardStatus.OK for status in traj.guard_status)
    for energy in traj.energy:
        assert abs(energy / s_star - 1.0) <= 1e-10


_STEADY_GAMMA = st.floats(-0.5, 2.0, exclude_min=True)
# s* from 1e-4 to 1e4, so that a* = (s*)^gamma lies within 1e-8 and 1e8,
# inside the default guard window [1e-12, 1e12]
_STEADY_ENERGY = st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e)
_STEADY_DELTA = st.floats(1e-5, 10.0)


@settings(deadline=None, max_examples=40)
@given(gamma=_STEADY_GAMMA, k=st.sampled_from([1, 2, 3]),
       n=st.integers(2, 12), s_star=_STEADY_ENERGY, delta=_STEADY_DELTA)
def test_steady_state_is_a_fixed_point_of_the_run_1d(gamma, k, n, s_star,
                                                      delta):
    _assert_steady_state_is_kept(_space_1d(n, k), gamma, s_star, delta)


@settings(deadline=None, max_examples=8)
@given(gamma=_STEADY_GAMMA, k=st.sampled_from([1, 2, 3]),
       n=st.integers(2, 4), s_star=_STEADY_ENERGY, delta=_STEADY_DELTA)
def test_steady_state_is_a_fixed_point_of_the_run_2d(gamma, k, n, s_star,
                                                      delta):
    _assert_steady_state_is_kept(
        build_lagrange_space(uniform_square_mesh(n), k), gamma, s_star, delta)


def test_forced_2d_run_is_not_frozen_and_starts_from_four_levels(
        monkeypatch):
    # the 2D run of the same kind: gamma = -1/3, delta = 0.05, n = 6, k = 2,
    # f = 10 sin(pi x) sin(2 pi y). It stays alive (its energy ends at
    # 1.285e-6, 1.21 s*, and never falls below 0.3 s*), and its CG solves,
    # started from up to four levels, take 1 899 iterations (2 484 from two)
    # with no refinement pass
    space = build_lagrange_space(uniform_square_mesh(6), 2)
    gamma = -1.0 / 3.0

    def f(x, y, t):
        return 10.0 * np.sin(np.pi * x) * np.sin(2.0 * np.pi * y) + 0.0 * t
    iterations = []

    def recording_cg(*args, **kwargs):
        x, its = cg_jacobi(*args, **kwargs)
        iterations.append(its)
        return x, its
    monkeypatch.setattr(stepper, "cg_jacobi", recording_cg)
    verified = _count_calls(monkeypatch, StepWorkspace, "solve_verified")
    traj = run(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), f,
               NonlocalCoefficient(gamma=gamma),
               TimeGrid(t_end=3.0, n_steps=60))
    assert not froze(traj)
    assert _degenerate_times(traj) == []
    s_star = _steady_energy(space, f, gamma)
    assert min(traj.energy) > 0.25 * s_star
    assert len(iterations) == len(verified) == 61
    assert sum(iterations) <= 2000


def test_first_discrete_eigenvalue_bounds_dim_pi_squared():
    # the min-max principle behind the freeze rule: on a conforming space
    # with exactly integrated M and K, the smallest eigenvalue of K v =
    # lambda M v is at least the first Laplace eigenvalue dim pi^2
    from scipy.linalg import eigh
    spaces = [_space_1d(n, k) for n in (2, 3, 5, 8) for k in (1, 2, 3)]
    spaces += [build_lagrange_space(uniform_square_mesh(n), k)
               for n in (2, 3, 4) for k in (1, 2, 3)]
    for space in spaces:
        free = space.free_node_indices
        M = assemble_mass(space).restrict(free).toarray()
        K = assemble_stiffness(space).restrict(free).toarray()
        lam1 = eigh(K, M, eigvals_only=True, subset_by_index=[0, 0])[0]
        dim = space.mesh.dim
        assert lam1 >= dim * np.pi ** 2 * (1.0 - 1e-12), (dim, space.degree)


# --- the loads of a block of steps ---

@pytest.mark.parametrize("case_id", ["example1", "example2"])
def test_block_loads_equal_the_per_step_load(case_id, monkeypatch):
    # 300 steps on the default mesh: blocks of 163 steps (2^16 forcing values
    # over 400 quadrature points), the last one short; every step is checked
    case = make_case(case_id)
    space = _space_1d(100, 2)
    grid = TimeGrid(t_end=0.3, n_steps=300)
    work = StepWorkspace(space, assemble_mass(space),
                         assemble_stiffness(space), grid, forcing=case.f)
    blocks = _record_load_blocks(monkeypatch)
    free = space.free_node_indices
    for n in range(1, grid.n_steps + 1):
        t_mid = 0.5 * grid.delta if n == 1 else grid.time(n) - 0.5 * grid.delta
        expect = grid.delta * per_step_load(space, case.f, t_mid, free)
        np.testing.assert_array_equal(work.scaled_load(n), expect)
    assert blocks == [163, 137]


def _record_load_blocks(monkeypatch):
    """The number of times in every LoadAssembler call."""
    blocks = []
    original = LoadAssembler.__call__

    def recording(self, f, times):
        blocks.append(len(times))
        return original(self, f, times)
    monkeypatch.setattr(LoadAssembler, "__call__", recording)
    return blocks


def test_loads_are_computed_once_per_block(monkeypatch):
    # a block is 2^16 forcing values over the points: 2730 steps on 8
    # elements of 3 points, so the whole run is one call, and 163 steps on
    # the default mesh's 400 points
    blocks = _record_load_blocks(monkeypatch)
    case = make_case("example1")
    run(_space_1d(8, 1), case.u0, case.f, NonlocalCoefficient(case.gamma),
        TimeGrid(t_end=0.6, n_steps=600))
    assert blocks == [600]
    blocks.clear()
    run(_space_1d(100, 2), case.u0, case.f, NonlocalCoefficient(case.gamma),
        TimeGrid(t_end=0.6, n_steps=600))
    assert blocks == [163, 163, 163, 111]


# --- work removed from every step ---

def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name, None)

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting, raising=False)
    return calls


def test_1d_step_makes_one_reduction_and_no_dot(monkeypatch):
    case = make_case("example1")
    space = _space_1d(16, 2)
    counts = []
    for n_steps in (4, 40):
        with monkeypatch.context() as patch:
            dots = _count_calls(patch, stepper, "dot")
            dots_linalg = _count_calls(patch, linalg, "dot")
            einsums = _count_calls(patch, np, "einsum")
            run(space, case.u0, case.f, NonlocalCoefficient(case.gamma),
                TimeGrid(t_end=0.01 * n_steps, n_steps=n_steps))
        counts.append((len(dots) + len(dots_linalg), len(einsums)))
    (dots_4, einsums_4), (dots_40, einsums_40) = counts
    assert dots_4 == dots_40 == 0
    assert einsums_40 - einsums_4 == 36


def test_galerkin_start_is_called_once_per_2d_solve_only(monkeypatch):
    # every CG solve, the step-1 predictor included, forms its own start;
    # the banded solve takes the same start argument and ignores it
    n_steps = 5
    for space, case_id, per_solve in (
            (build_lagrange_space(uniform_square_mesh(4), 2), "example3", 1),
            (_space_1d(16, 2), "example1", 0)):
        case = make_case(case_id)
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, stepper, "galerkin_start")
            run(space, case.u0, case.f, NonlocalCoefficient(case.gamma),
                TimeGrid(t_end=0.01 * n_steps, n_steps=n_steps))
        assert len(calls) == per_solve * (n_steps + 1)


def test_2d_step_reads_no_matrix_diagonal(monkeypatch):
    case = make_case("example3")
    space = build_lagrange_space(uniform_square_mesh(4), 2)
    counts = []
    for n_steps in (2, 6):
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, sp.csr_matrix, "diagonal")
            run(space, case.u0, case.f, NonlocalCoefficient(case.gamma),
                TimeGrid(t_end=0.01 * n_steps, n_steps=n_steps))
        counts.append(len(calls))
    # BlockJacobi reads its diagonal entries out of M's and K's data by
    # their positions in the pattern, once per run
    assert counts == [0, 0]


class _CountingCSR(sp.csr_matrix):
    """A CSR matrix that counts its matrix-vector products."""

    matvecs = 0

    def _matmul_vector(self, other):
        _CountingCSR.matvecs += 1
        return super()._matmul_vector(other)


def test_2d_solve_costs_cg_iterations_plus_two_matvecs(monkeypatch):
    # the verify's M x and K x only: the start residual comes from the
    # carried products, and CG stops on its recurrence residual
    restrict = SparseSymMatrix.restrict
    monkeypatch.setattr(
        SparseSymMatrix, "restrict", lambda self, idx, *others: tuple(
            map(_CountingCSR, restrict(self, idx, *others))))
    iterations = []

    def recording_cg(*args, **kwargs):
        x, its = cg_jacobi(*args, **kwargs)
        iterations.append(its)
        return x, its
    monkeypatch.setattr(stepper, "cg_jacobi", recording_cg)
    monkeypatch.setattr(_CountingCSR, "matvecs", 0)
    case = make_case("example3")
    run(build_lagrange_space(uniform_square_mesh(6), 2), case.u0, case.f,
        NonlocalCoefficient(case.gamma), TimeGrid(t_end=0.1, n_steps=10))
    assert len(iterations) == 11     # the step-1 predictor, then one per step
    assert all(its > 0 for its in iterations)
    # M u_0 and K u_0 once, then every solve
    assert _CountingCSR.matvecs == 2 + sum(iterations) + 2 * len(iterations)


def test_2d_setup_makes_no_sparse_arithmetic_copies(monkeypatch):
    # assembly, the symmetry check, the restriction and the workspace build
    # work on the CSR arrays: no sparse difference, sparse abs or fancy
    # indexing, each of which copies a whole matrix
    calls = {"__sub__": 0, "__abs__": 0, "__getitem__": 0}

    def fancy(key):
        keys = key if isinstance(key, tuple) else (key,)
        return any(isinstance(k, (np.ndarray, list)) for k in keys)

    def counting(name, method):
        def wrapper(self, *args):
            if name != "__getitem__" or fancy(args[0]):
                calls[name] += 1
            return method(self, *args)
        return wrapper
    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        for name in calls:
            if hasattr(cls, name):
                monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    case = make_case("example3")
    space = build_lagrange_space(uniform_square_mesh(4), 3)
    M, K = assemble_mass(space), assemble_stiffness(space)
    StepWorkspace(space, M, K, TimeGrid(t_end=0.1, n_steps=2), forcing=case.f)
    assert calls == {"__sub__": 0, "__abs__": 0, "__getitem__": 0}
    # the counters see each kind of call
    M.matrix[[0, 1]] - abs(M.matrix[[0, 1]])
    assert calls == {"__sub__": 1, "__abs__": 1, "__getitem__": 2}


def test_the_2d_workspace_holds_one_copy_of_the_pattern():
    # K and the CG backend's system matrix are built on M's index arrays
    # after the pattern check, the refill writes the system matrix's own
    # data, and the products on the shared arrays are unchanged
    space = build_lagrange_space(uniform_square_mesh(4), 3)
    M, K = assemble_mass(space), assemble_stiffness(space)
    work = StepWorkspace(space, M, K, TimeGrid(t_end=0.1, n_steps=2))
    A = work.backend.A
    for matrix in (work.K_ff, A):
        assert np.shares_memory(matrix.indices, work.M_ff.indices)
        assert np.shares_memory(matrix.indptr, work.M_ff.indptr)
    assert A.data is work.backend.a
    x = np.sin(1.0 + np.arange(work.M_ff.shape[0]))
    theta = 5e-3
    solve_verified(work, theta, x)
    assert A.data is work.backend.a
    assert A.data.tobytes() == (work.K_ff.data * theta
                                + work.M_ff.data).tobytes()
    free = space.free_node_indices
    assert np.array_equal(work.K_ff @ x, K.restrict(free) @ x)


@pytest.mark.parametrize("theta", [5e-3, 5.0, 5e3])
def test_2d_solve_from_a_far_start_meets_the_bound(monkeypatch, theta):
    # CG stops on its recurrence residual, which can drift from the true one
    # after a start far from the solution; the verify recomputes the
    # residual, and one refinement pass must bring it within the bound
    space = build_lagrange_space(uniform_square_mesh(6), 2)
    work = StepWorkspace(space, assemble_mass(space), assemble_stiffness(space),
                         TimeGrid(t_end=1.0, n_steps=1))
    A = work.M_ff + theta * work.K_ff
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(A.shape[0])

    def far_start(u, mu, ku, rhs, theta, tol):
        if len(u) == 0:   # the refinement pass, which starts from no levels
            return original(u, mu, ku, rhs, theta, tol)
        x0 = 1e3 * rng.standard_normal(len(rhs))
        return x0, rhs - A @ x0
    original = stepper.galerkin_start
    monkeypatch.setattr(stepper, "galerkin_start", far_start)
    calls = _count_calls(monkeypatch, stepper, "cg_jacobi")
    levels = np.zeros((2, len(rhs)))
    x, _, _ = solve_verified(work, theta, rhs, (levels, levels, levels))
    assert 1 <= len(calls) <= 2    # the solve, and at most one refinement
    assert (np.linalg.norm(rhs - A @ x)
            <= work.solver_tol * np.linalg.norm(rhs))
