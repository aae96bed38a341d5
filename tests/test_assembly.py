import math
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from oracles import (SingularSystemError, boundary_nodes, element_mass_matrix,
                     element_stiffness_matrix, full_load, l2_norm_sq,
                     per_step_load, quad_points_physical, restrict_reference,
                     ritz_project, scatter_reference,
                     symmetry_defect_reference)
from scipy.integrate import quad

from nonlocfem import assembly
from nonlocfem.assembly import (SYMMETRY_RTOL, FieldVector, LoadAssembler,
                                NonFiniteFieldError, SparseSymMatrix,
                                assemble_mass, assemble_stiffness, interpolate,
                                l2_error)
from nonlocfem.basis import reference_basis
from nonlocfem.manufactured import make_case
from nonlocfem.mesh import (LagrangeSpace, SimplicialMesh, build_lagrange_space,
                            reference_node_multi_indices, uniform_interval_mesh,
                            uniform_square_mesh)
from nonlocfem.quadrature import reference_rule


def _space_1d(n, k):
    return build_lagrange_space(uniform_interval_mesh(n), k)


# --- element-matrix oracles (symbolic integration of hat functions) ---

def test_element_mass_1d_k1():
    h = 0.73
    Me = element_mass_matrix(np.array([[0.0], [h]]), 1)
    expect = np.array([[h / 3, h / 6], [h / 6, h / 3]])
    assert np.max(np.abs(Me - expect)) <= 1e-14


def test_element_stiffness_1d_k1():
    h = 0.73
    Ke = element_stiffness_matrix(np.array([[0.0], [h]]), 1)
    expect = np.array([[1 / h, -1 / h], [-1 / h, 1 / h]])
    assert np.max(np.abs(Ke - expect)) <= 1e-14 / h


def test_element_mass_2d_p1():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    Me = element_mass_matrix(tri, 1)
    area = 0.5
    expect = (area / 12.0) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.max(np.abs(Me - expect)) <= 1e-14
    # a sheared triangle scales by its area only (affine invariance)
    tri2 = np.array([[0.2, 0.1], [0.7, 0.3], [0.4, 0.9]])
    e1, e2 = tri2[1] - tri2[0], tri2[2] - tri2[0]
    area2 = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
    Me2 = element_mass_matrix(tri2, 1)
    expect2 = (area2 / 12.0) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.max(np.abs(Me2 - expect2)) <= 1e-14


# --- global mass matrix ---

def test_mass_total_is_domain_measure():
    for space, measure in [(_space_1d(7, 2), 1.0),
                           (build_lagrange_space(uniform_square_mesh(3), 2), 1.0)]:
        M = assemble_mass(space)
        assert abs(M.matrix.sum() - measure) <= 1e-12


def test_mass_row_sums_are_basis_integrals():
    space = _space_1d(5, 2)
    M = assemble_mass(space)
    ones = np.ones(space.n_nodes)
    row_sums = M.matrix @ ones
    integrals = full_load(space)(lambda x, t: np.ones_like(x), [0.0])[0]
    np.testing.assert_allclose(row_sums, integrals, atol=1e-14)


def test_mass_spd_on_free_nodes():
    rng = np.random.default_rng(7)
    for space in (_space_1d(6, 3),
                  build_lagrange_space(uniform_square_mesh(3), 2)):
        M_ff = assemble_mass(space).restrict(space.free_node_indices)
        for _ in range(100):
            v = rng.standard_normal(len(space.free_node_indices))
            if np.linalg.norm(v) == 0:
                continue
            assert v @ (M_ff @ v) > 0.0


def test_matrices_symmetric():
    space = build_lagrange_space(uniform_square_mesh(4), 3)
    for A in (assemble_mass(space), assemble_stiffness(space)):
        scale = abs(A.matrix).max()
        assert abs(A.matrix - A.matrix.T).max() <= 1e-14 * scale


def test_symmetry_violation_rejected():
    import scipy.sparse as sp
    bad = sp.csr_matrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        SparseSymMatrix(bad)


def test_symmetry_violation_of_the_pattern_rejected():
    # (0, 1) is stored and (1, 0) is not, so the transpose has another
    # pattern; an explicit zero in the same place is no defect
    def two_by_two(upper):
        return sp.csr_matrix((np.array([1.0, upper, 1.0]), np.array([0, 1, 1]),
                              np.array([0, 2, 3])), shape=(2, 2))
    with pytest.raises(ValueError, match="not symmetric"):
        SparseSymMatrix(two_by_two(2.0))
    # a cyclic shift: every row and column holds one entry, so the
    # transpose has the same indptr and other indices
    with pytest.raises(ValueError, match="not symmetric"):
        SparseSymMatrix(sp.csr_matrix(np.roll(np.eye(3), 1, axis=1)))
    zero = two_by_two(0.0)
    assert SparseSymMatrix(zero).matrix is zero


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.floats(1e-16, 1e-12),
       drop=st.booleans())
def test_symmetry_check_agrees_with_the_sparse_reference(seed, size, drop):
    # random symmetric values on an assembled pattern, one entry moved by
    # about the tolerance and, with drop, one entry taken out of the pattern
    rng = np.random.default_rng(seed)
    A = assemble_mass(build_lagrange_space(uniform_square_mesh(2), 2)).matrix
    A = sp.csr_matrix((rng.standard_normal(A.nnz), A.indices, A.indptr),
                      shape=A.shape)
    A = (A + A.T).tocsr()
    A.data[rng.integers(A.nnz)] += size * abs(A.data).max()
    if drop:
        A.data[rng.integers(A.nnz)] = 0.0
        A.eliminate_zeros()
    defect, scale = symmetry_defect_reference(A)
    if defect > SYMMETRY_RTOL * max(scale, 1e-300):
        with pytest.raises(ValueError, match="not symmetric"):
            SparseSymMatrix(A)
    else:
        SparseSymMatrix(A)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_assembly_and_restriction_match_the_sparse_references(monkeypatch,
                                                              dim, k):
    # M, K and their restrictions to the free nodes have the CSR arrays of
    # the SciPy expressions in tests/oracles.py, bit for bit
    scattered = []
    scatter = assembly._scatter_symmetric

    def recording(space, element_matrices):
        scattered.append(element_matrices)
        return scatter(space, element_matrices)
    monkeypatch.setattr(assembly, "_scatter_symmetric", recording)
    for n in (1, 2, 3, 5):
        space = (_space_1d(n, k) if dim == 1
                 else build_lagrange_space(uniform_square_mesh(n), k))
        free = space.free_node_indices
        for assemble in (assemble_mass, assemble_stiffness):
            A = assemble(space)
            reference = scatter_reference(space, scattered.pop())
            pairs = ((A.matrix, reference),
                     (A.restrict(free), restrict_reference(reference, free)))
            for got, want in pairs:
                for part in ("indptr", "indices", "data"):
                    assert _same_bits(getattr(got, part), getattr(want, part)), \
                        (assemble.__name__, n, part)


def test_matrices_of_one_pattern_are_restricted_together():
    # one pass gives each submatrix bit for bit as alone, all on one pair
    # of index arrays; a matrix of another pattern is refused
    for space in (_space_1d(5, 3),
                  build_lagrange_space(uniform_square_mesh(3), 2)):
        free = space.free_node_indices
        M, K = assemble_mass(space), assemble_stiffness(space)
        M_ff, K_ff = M.restrict(free, K)
        for got, alone in ((M_ff, M.restrict(free)), (K_ff, K.restrict(free))):
            for part in ("indptr", "indices", "data"):
                assert _same_bits(getattr(got, part), getattr(alone, part))
        assert np.shares_memory(K_ff.indices, M_ff.indices)
        assert np.shares_memory(K_ff.indptr, M_ff.indptr)
        other = SparseSymMatrix(sp.identity(space.n_nodes, format="csr"))
        with pytest.raises(ValueError, match="one sparsity pattern"):
            M.restrict(free, K, other)


@pytest.mark.parametrize("indices", [[3, 1], [1, 1, 2], [0, 2, 2], [-1, 2],
                                     [0, 9], [0.0, 1.0], [[0, 1]]],
                         ids=["unsorted", "repeated", "repeated-last",
                              "negative", "out-of-range", "float", "2d"])
def test_restrict_rejects_indices_that_are_not_sorted_and_unique(indices):
    M = assemble_mass(build_lagrange_space(uniform_square_mesh(2), 1))
    with pytest.raises(ValueError, match="sorted, unique"):
        M.restrict(np.array(indices))


def test_sparsity_pattern_matches_node_adjacency():
    space = build_lagrange_space(uniform_square_mesh(2), 2)
    M = assemble_mass(space)
    adjacent = set()
    for dofs in space.element_dofs:
        for i in dofs:
            for j in dofs:
                adjacent.add((int(i), int(j)))
    coo = M.matrix.tocoo()
    assert all((int(i), int(j)) in adjacent
               for i, j in zip(coo.row, coo.col))


def test_field_vector_length_contract():
    space = _space_1d(4, 1)
    with pytest.raises(ValueError):
        FieldVector(np.zeros(space.n_nodes + 1), space)


# --- stiffness matrix ---

def test_stiffness_annihilates_constants():
    for space in (_space_1d(6, 3),
                  build_lagrange_space(uniform_square_mesh(3), 2)):
        K = assemble_stiffness(space)
        resid = np.abs(K.matrix @ np.ones(space.n_nodes)).max()
        assert resid <= 1e-12 * abs(K.matrix).max()


def test_stiffness_interior_diagonal_five_point():
    # P1 on the diagonally split uniform grid reduces to the 5-point stencil
    space = build_lagrange_space(uniform_square_mesh(2), 1)
    K = assemble_stiffness(space)
    inode = space.free_node_indices[0]
    assert K.matrix.toarray()[inode, inode] == pytest.approx(4.0, abs=1e-12)


def _element_sum_stiffness(space):
    """Global stiffness summed from per-element quadrature matrices (oracle)."""
    K = np.zeros((space.n_nodes, space.n_nodes))
    for verts, dofs in zip(space.mesh.element_vertices(), space.element_dofs):
        K[np.ix_(dofs, dofs)] += element_stiffness_matrix(verts, space.degree)
    return K


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_stiffness_matches_sum_of_element_matrices(dim, k, n):
    mesh = uniform_interval_mesh(n) if dim == 1 else uniform_square_mesh(n)
    space = build_lagrange_space(mesh, k)
    expect = _element_sum_stiffness(space)
    got = assemble_stiffness(space).matrix.toarray()
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def _single_element_space(verts, k):
    """A space over one element with the given vertices, local dofs 0..n_local-1."""
    dim = verts.shape[1]
    n_local = len(reference_node_multi_indices(dim, k))
    mesh = SimplicialMesh(dim=dim, vertices=verts,
                          simplexes=np.arange(dim + 1)[None, :],
                          divisions=1, h=1.0)
    return LagrangeSpace(mesh=mesh, degree=k, nodes=np.zeros((n_local, dim)),
                         element_dofs=np.arange(n_local)[None, :],
                         free_node_indices=np.array([], dtype=np.int64))


_coordinate = st.floats(-3.0, 3.0)


@settings(deadline=None)
@given(st.lists(_coordinate, min_size=2, max_size=2), st.integers(1, 3))
def test_interval_stiffness_matches_element_quadrature(xs, k):
    # either orientation: a right-to-left interval has det J < 0
    assume(abs(xs[1] - xs[0]) >= 1e-2)
    verts = np.array(xs).reshape(2, 1)
    expect = element_stiffness_matrix(verts, k)
    got = assemble_stiffness(_single_element_space(verts, k)).matrix.toarray()
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


@settings(deadline=None)
@given(st.lists(_coordinate, min_size=6, max_size=6), st.integers(1, 3))
def test_triangle_stiffness_matches_element_quadrature(xs, k):
    # clockwise vertex orders (det J < 0) are drawn as often as counterclockwise
    verts = np.array(xs).reshape(3, 2)
    e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
    longest = max(e1 @ e1, e2 @ e2, (e2 - e1) @ (e2 - e1))
    assume(abs(e1[0] * e2[1] - e1[1] * e2[0]) >= 0.05 * longest > 0.0)
    expect = element_stiffness_matrix(verts, k)
    got = assemble_stiffness(_single_element_space(verts, k)).matrix.toarray()
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


# --- element quadrature tables ---

@pytest.mark.parametrize("dim, k", [(1, k) for k in range(1, 7)]
                         + [(2, k) for k in (1, 2, 3)])
def test_element_quadrature_points_are_the_einsum_bit_for_bit(dim, k):
    # the points come from broadcast products, one column of J at a time;
    # the einsum they replaced is the oracle, bit for bit, on every rule
    # that assembly and l2_error use, on the benchmark meshes and a small one
    for n in ((7, 100) if dim == 1 else (5, 48)):
        mesh = (uniform_interval_mesh if dim == 1 else uniform_square_mesh)(n)
        space = build_lagrange_space(mesh, k)
        for degree in {assembly.assembly_degree(k),
                       assembly.error_degree(dim, k)}:
            columns = assembly._element_quadrature(space, degree)[2]
            expect = quad_points_physical(
                mesh, reference_rule(dim, degree)).reshape(-1, dim)
            assert ([c.tobytes() for c in columns]
                    == [c.tobytes() for c in expect.T])


# --- load vectors ---

def test_load_zero_forcing():
    space = _space_1d(6, 2)
    F = full_load(space)(lambda x, t: np.zeros_like(x), [0.0])[0]
    assert np.all(F == 0.0)


def test_load_constant_forcing_hat_integrals():
    n = 8
    space = _space_1d(n, 1)
    h = 1.0 / n
    F = full_load(space)(lambda x, t: np.ones_like(x), [0.0])[0]
    expect = np.full(n + 1, h)
    expect[0] = expect[-1] = h / 2
    np.testing.assert_allclose(F, expect, rtol=1e-13)


def test_load_against_adaptive_quadrature_oracle():
    # f = x^2/(t+1)^2 at t = 0, entries integral(f * phi_i) via scipy.quad
    n, k = 4, 2
    space = _space_1d(n, k)
    F = full_load(space)(lambda x, t: x ** 2 / (t + 1.0) ** 2, [0.0])[0]

    U = FieldVector(np.zeros(space.n_nodes), space)
    for i in range(space.n_nodes):
        coeffs = np.zeros(space.n_nodes)
        coeffs[i] = 1.0
        U_i = FieldVector(coeffs, space)

        def integrand(x):
            # evaluate phi_i by locating x's element and using the basis
            ref = np.clip((x * n) % 1.0, 0.0, 1.0)
            e = min(int(x * n), n - 1)
            ref = x * n - e
            from nonlocfem.basis import reference_basis
            vals = reference_basis(1, k).eval(np.array([[ref]]))
            dofs = space.element_dofs[e]
            return float(vals[:, 0] @ coeffs[dofs]) * x ** 2

        exact, _ = quad(integrand, 0.0, 1.0, limit=200)
        assert F[i] == pytest.approx(exact, abs=1e-10)


def test_load_constant_scalar_forcing_is_broadcast():
    # a constant may come back as one scalar, or as an integer array
    square = build_lagrange_space(uniform_square_mesh(3), 2)
    for space, forcings in [
            (_space_1d(6, 2), [lambda x, t: np.ones_like(x), lambda x, t: 1.0,
                               lambda x, t: np.ones(len(x), dtype=int)]),
            (square, [lambda x, y, t: np.ones_like(x), lambda x, y, t: 1.0])]:
        expect, *others = [full_load(space)(f, [0.5])[0]
                           for f in forcings]
        for F in others:
            np.testing.assert_array_equal(F, expect)


def test_load_forcing_of_wrong_length_rejected():
    space = _space_1d(4, 2)
    for wrong in (lambda x, t: np.ones(len(x) + 1),
                  lambda x, t: np.ones((len(x), 2)),
                  lambda x, t: np.ones(len(x) - 1)):
        with pytest.raises(ValueError):
            full_load(space)(wrong, [0.0])


def test_load_nonfinite_forcing_rejected():
    space = _space_1d(4, 1)
    with pytest.raises(NonFiniteFieldError):
        full_load(space)(lambda x, t: np.full_like(x, np.inf), [0.0])


def test_load_on_free_rows_is_the_full_load_restricted():
    # the stepper builds its load operator on the free rows only
    forcings = {1: lambda x, t: np.sin(3.0 * x + t) + x ** 2,
                2: lambda x, y, t: np.cos(x - 2.0 * y) * (1.0 + t)}
    for space in (_space_1d(9, 3), _space_1d(5, 1),
                  build_lagrange_space(uniform_square_mesh(4), 2)):
        free = space.free_node_indices
        f = forcings[space.mesh.dim]
        F = LoadAssembler(space, free)(f, [0.3])[0]
        assert F.shape == (len(free),)
        np.testing.assert_array_equal(F, full_load(space)(f, [0.3])[0][free])


def test_load_on_free_rows_scalar_and_nonfinite_forcing():
    for space, one, inf in [
            (_space_1d(6, 2), lambda x, t: 1.0,
             lambda x, t: np.where(x > 0.5, np.inf, 0.0)),
            (build_lagrange_space(uniform_square_mesh(3), 2),
             lambda x, y, t: 1.0, lambda x, y, t: np.full_like(x, np.nan))]:
        free = space.free_node_indices
        load = LoadAssembler(space, free)
        expect = full_load(space)(one, [0.5])[0][free]
        np.testing.assert_array_equal(load(one, [0.5])[0], expect)
        with pytest.raises(NonFiniteFieldError):
            load(inf, [0.0])


# --- the forcing contract of a block of times ---

_BLOCK_TIMES = [0.1, 0.2, 0.3, 0.4]


def test_forcing_gets_point_rows_and_a_time_column():
    seen = []

    def f(x, y, t):
        seen.append((x.shape, y.shape, np.shape(t)))
        return x + y * t
    space = build_lagrange_space(uniform_square_mesh(3), 2)
    load = full_load(space)
    F = load(f, _BLOCK_TIMES)
    assert seen == [((load.n_points,), (load.n_points,), (4, 1))]
    assert F.shape == (4, space.n_nodes)
    for row, t in zip(F, _BLOCK_TIMES):
        np.testing.assert_array_equal(row, per_step_load(space, f, t))


def test_scalar_and_time_independent_forcing_broadcast_over_the_block():
    space = _space_1d(6, 2)
    load = full_load(space)
    ones = load(lambda x, t: 1.0, _BLOCK_TIMES)
    assert ones.shape == (4, space.n_nodes)
    for row in ones:
        np.testing.assert_array_equal(
            row, per_step_load(space, lambda x, t: np.ones_like(x), 0.0))
    steady = load(lambda x, t: np.sin(3.0 * x), _BLOCK_TIMES)
    for row, t in zip(steady, _BLOCK_TIMES):
        np.testing.assert_array_equal(
            row, per_step_load(space, lambda x, t: np.sin(3.0 * x), t))


def test_forcing_of_the_wrong_shape_for_the_block_rejected():
    space = _space_1d(4, 2)
    for wrong in (lambda x, t: np.ones((2, len(x))),
                  lambda x, t: np.ones(len(x) + 1) * t,
                  lambda x, t: np.ones((len(x), 4)),
                  lambda x, t: np.ones((4, len(x), 1))):
        with pytest.raises(ValueError):
            full_load(space)(wrong, _BLOCK_TIMES)


def test_nonfinite_forcing_names_a_time_of_the_block():
    space = _space_1d(4, 1)
    with pytest.raises(NonFiniteFieldError, match=r"at t=0\.3$"):
        full_load(space)(lambda x, t: np.where(t > 0.25, np.inf, x),
                         _BLOCK_TIMES)


def test_example2_cutoff_as_a_block_equals_per_time_calls():
    # sqrt([1 - t]_+) broadcast over a column of times on both sides of the
    # extinction time t = 1
    f = make_case("example2").f
    x = np.linspace(0.0, 1.0, 37)
    times = np.array([0.0, 0.5, 0.999, 1.0, 1.001, 1.5, 2.0])
    block = f(x, times[:, None])
    assert block.shape == (len(times), len(x))
    for row, t in zip(block, times):
        np.testing.assert_array_equal(row, f(x, t))
    assert np.all(block[times >= 1.0] == 0.0)


def _traced_call(load, f, times):
    """load(f, times) under tracemalloc, and the peak bytes the call added."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    block = load(f, times)
    return block, tracemalloc.get_traced_memory()[1] - before


def test_load_buffers_are_reused_and_never_alias_a_returned_block():
    # example1's default mesh on the free rows: a block of 163 steps, a short
    # one of 7 with another forcing, then the next 163 steps
    space = _space_1d(100, 2)
    free = space.free_node_indices
    load = LoadAssembler(space, free)
    assert load.block == 163
    f1, f2 = make_case("example1").f, make_case("example2").f
    calls = [(f1, 1e-3 * np.arange(163) + 5e-4), (f2, 0.2 * np.arange(7)),
             (f1, 1e-3 * np.arange(163, 326) + 5e-4)]
    # each call gets its forcing values made before tracing, so the traced
    # peak is what the assembler itself allocates
    (x,) = assembly._element_quadrature(space, assembly.assembly_degree(2))[2]
    values = [np.array(np.broadcast_to(f(x, times[:, None]),
                                       (len(times), load.n_points)))
              for f, times in calls]
    tracemalloc.start()
    try:
        traced = [_traced_call(load, lambda x, t, v=v: v, times)
                  for v, (_, times) in zip(values, calls)]
    finally:
        tracemalloc.stop()
    blocks, peaks = zip(*traced)
    kept = [block.copy() for block in blocks]
    for (f, times), block in zip(calls, blocks):
        assert block.shape == (len(times), len(free))
        for row, t in zip(block, times):
            np.testing.assert_array_equal(row, per_step_load(space, f, t, free))
    # later calls leave every earlier block as it was returned
    for block, copy in zip(blocks, kept):
        np.testing.assert_array_equal(block, copy)
    # the first call adds only the bin index of every element load (block
    # times the element dofs, 8 bytes each) to its returned block, and no
    # later call allocates a temporary: a call's peak stays within 16 KiB of
    # that, less than the weighted forcing values of even the 7 times alone
    bin_index = load.block * space.element_dofs.size * 8
    for block, peak, first in zip(blocks, peaks, (bin_index, 0, 0)):
        assert peak < block.nbytes + first + 16384


def test_load_block_is_the_value_budget_over_the_points():
    # 2^16 forcing values a call: 163 times of example1's default mesh (400
    # points), and one time of the 2D k = 3 mesh at n = 48, whose 73 728
    # points exceed the budget
    space = _space_1d(100, 2)
    load = LoadAssembler(space, space.free_node_indices)
    assert (load.n_points, load.block) == (400, 163)
    f = make_case("example1").f
    assert load(f, np.zeros(163)).shape == (163, len(space.free_node_indices))
    with pytest.raises(ValueError, match="at most 163 times per call, got 164"):
        load(f, np.zeros(164))
    space = build_lagrange_space(uniform_square_mesh(48), 3)
    load = LoadAssembler(space, space.free_node_indices)
    assert (load.n_points, load.block) == (73728, 1)
    one = load(lambda x, y, t: x * y + t, [0.5])[0]
    np.testing.assert_array_equal(
        one, per_step_load(space, lambda x, y, t: x * y + t, 0.5,
                           space.free_node_indices))
    with pytest.raises(ValueError, match="at most 1 times per call, got 2"):
        load(lambda x, y, t: x * y + t, [0.5, 0.6])


# --- interpolation ---

def test_interpolate_zero():
    space = _space_1d(5, 2)
    U = interpolate(space, lambda x: np.zeros_like(x))
    assert np.all(U.coefficients == 0.0)


def test_interpolate_nodal_values():
    space = _space_1d(4, 1)
    U = interpolate(space, lambda x: np.sin(np.pi * x))
    mid = np.flatnonzero(space.nodes[:, 0] == 0.5)[0]
    assert U.coefficients[mid] == pytest.approx(1.0, abs=0.0)
    assert U.coefficients[boundary_nodes(space)].max() == 0.0


def test_interpolate_reproduces_space_polynomials():
    # boundary-compatible quadratic: exactly representable for k = 2
    space = _space_1d(4, 2)
    U = interpolate(space, lambda x: x * (1 - x))
    assert l2_error(U, lambda x: x * (1 - x)) <= 1e-12


def test_interpolate_nonfinite_rejected():
    space = _space_1d(4, 1)
    with pytest.raises(NonFiniteFieldError):
        interpolate(space, lambda x: np.where(x > 0.4, np.nan, x))


def test_interpolate_requires_vectorized_field():
    # a scalar-only function raises rather than falling back to a per-point
    # loop; a constant field may still return one scalar
    space = _space_1d(4, 1)
    with pytest.raises(TypeError):
        interpolate(space, lambda x: math.sin(x))
    U = interpolate(space, lambda x: 2.0)
    assert np.all(U.coefficients[space.free_node_indices] == 2.0)


def test_interpolation_error_rate():
    # L2 error contracts by 2^(k+1) under mesh halving, within 15%
    for k in (1, 2, 3):
        errors = []
        for n in (8, 16, 32):
            space = _space_1d(n, k)
            U = interpolate(space, lambda x: np.sin(np.pi * x))
            errors.append(l2_error(U, lambda x: np.sin(np.pi * x)))
        for e0, e1 in zip(errors, errors[1:]):
            assert e0 / e1 == pytest.approx(2.0 ** (k + 1), rel=0.15)


# --- Ritz projection ---

def test_ritz_identity_on_space():
    space = _space_1d(6, 2)
    U = interpolate(space, lambda x: x * (1 - x))
    P = ritz_project(space, lambda x: 1.0 - 2.0 * x)
    assert np.max(np.abs(P.coefficients - U.coefficients)) <= 1e-10


def test_ritz_h1_rate_first_order():
    # H1 seminorm error via the energy identity |u|_1^2 - |P u|_1^2
    errs = []
    for n in (8, 16, 32):
        space = _space_1d(n, 1)
        P = ritz_project(space, lambda x: np.pi * np.cos(np.pi * x))
        K = assemble_stiffness(space)
        h1_exact_sq = np.pi ** 2 / 2.0
        h1_proj_sq = float(P.coefficients @ (K.matrix @ P.coefficients))
        errs.append(np.sqrt(max(h1_exact_sq - h1_proj_sq, 0.0)))
    for e0, e1 in zip(errs, errs[1:]):
        assert e0 / e1 == pytest.approx(2.0, rel=0.1)


def test_ritz_galerkin_orthogonality():
    space = _space_1d(8, 2)
    P = ritz_project(space, lambda x: np.pi * np.cos(np.pi * x))
    # residual of the projection equations on free nodes, quadrature-consistent
    K = assemble_stiffness(space)
    rhs = _ritz_rhs(space)
    resid = (K.matrix @ P.coefficients - rhs)[space.free_node_indices]
    assert np.max(np.abs(resid)) <= 1e-10


def _ritz_rhs(space):
    from nonlocfem.assembly import _geometry
    from nonlocfem.basis import reference_basis
    rule = reference_rule(1, 2 * space.degree + 2)
    basis = reference_basis(1, space.degree)
    grads = basis.eval_grad(rule.points)
    _, _, det, JinvT = _geometry(space.mesh)
    pg = np.einsum("edc,iqc->eiqd", JinvT, grads)
    pts = quad_points_physical(space.mesh, rule)
    gu = np.pi * np.cos(np.pi * pts[:, :, 0])
    wdet = det[:, None] * rule.weights[None, :]
    rhs_elem = np.einsum("eiqd,eq,eq->ei", pg, gu, wdet)
    rhs = np.zeros(space.n_nodes)
    np.add.at(rhs, space.element_dofs, rhs_elem)
    return rhs


def test_ritz_polynomial_exactness():
    space = _space_1d(5, 2)
    P = ritz_project(space, lambda x: 1.0 - 2.0 * x)
    assert l2_error(P, lambda x: x * (1 - x)) <= 1e-12


def test_ritz_singular_when_no_free_nodes():
    space = build_lagrange_space(uniform_square_mesh(1), 1)
    with pytest.raises(SingularSystemError):
        ritz_project(space, lambda x, y: (np.ones_like(x), np.ones_like(y)))


# --- norms ---

def test_l2_norm_sq_zero():
    space = _space_1d(5, 1)
    M = assemble_mass(space)
    assert l2_norm_sq(FieldVector(np.zeros(space.n_nodes), space), M) == 0.0


def test_l2_norm_sq_sin():
    space = _space_1d(64, 2)
    M = assemble_mass(space)
    U = interpolate(space, lambda x: np.sin(np.pi * x))
    assert l2_norm_sq(U, M) == pytest.approx(0.5, abs=1e-8)


def evaluate_on_elements(U, ref_points):
    """Values of U at the given reference points of every element, indexed
    (element, point): the basis expansion sum_j c_j phi_j evaluated directly."""
    space = U.space
    vals = reference_basis(space.mesh.dim, space.degree).eval(ref_points)
    return np.einsum("ei,iq->eq", U.coefficients[space.element_dofs], vals)


def test_l2_norm_sq_matches_quadrature_oracle():
    space = _space_1d(3, 2)
    M = assemble_mass(space)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(space.n_nodes)
    coeffs[boundary_nodes(space)] = 0.0
    U = FieldVector(coeffs, space)
    # direct quadrature of (sum c_j phi_j)^2 on a high-order rule
    rule = reference_rule(1, 10)
    vals = evaluate_on_elements(U, rule.points)
    h = 1.0 / 3.0
    direct = float(np.sum(h * rule.weights[None, :] * vals ** 2))
    assert l2_norm_sq(U, M) == pytest.approx(direct, rel=1e-12)


def test_l2_norm_dimension_mismatch():
    space = _space_1d(5, 1)
    M = assemble_mass(space)
    other = FieldVector(np.zeros(11), _space_1d(5, 2))
    with pytest.raises(ValueError):
        l2_norm_sq(other, M)


def test_l2_error_self_is_zero():
    space = _space_1d(6, 2)
    U = interpolate(space, lambda x: x * (1 - x))
    assert l2_error(U, lambda x: x * (1 - x)) <= 1e-12


def test_l2_error_zero_field_against_sin():
    space = _space_1d(50, 2)
    U = FieldVector(np.zeros(space.n_nodes), space)
    assert l2_error(U, lambda x: np.sin(np.pi * x)) == pytest.approx(
        1.0 / np.sqrt(2.0), abs=1e-8)


def test_l2_error_accepts_time_argument():
    space = _space_1d(6, 1)
    U = FieldVector(np.zeros(space.n_nodes), space)
    err = l2_error(U, lambda x, t: np.full_like(x, t), 2.0)
    assert err == pytest.approx(2.0, rel=1e-12)
