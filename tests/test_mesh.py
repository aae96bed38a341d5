import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given
from oracles import element_measures, mesh_size, node_lattice, on_boundary

from nonlocfem.mesh import (build_lagrange_space, reference_node_multi_indices,
                            uniform_interval_mesh, uniform_square_mesh)


def test_single_interval_element():
    m = uniform_interval_mesh(1)
    assert m.n_elements == 1
    assert m.h == 1.0
    np.testing.assert_array_equal(m.vertices.ravel(), [0.0, 1.0])


def test_interval_h_matches_reference_resolution():
    m = uniform_interval_mesh(100)
    assert m.h == pytest.approx(1e-2, abs=0.0)


def test_interval_vertices_and_boundary_flags():
    m = uniform_interval_mesh(4)
    np.testing.assert_allclose(m.vertices.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])
    boundary = on_boundary(m)
    assert boundary[0] and boundary[-1]
    assert not boundary[1:-1].any()


def test_interval_invalid_inputs():
    with pytest.raises(ValueError):
        uniform_interval_mesh(0)


def test_interval_lengths_sum_to_domain():
    m = uniform_interval_mesh(7)
    total = element_measures(m).sum()
    assert abs(total - 1.0) <= 1e-14


def test_smallest_square_mesh():
    m = uniform_square_mesh(1)
    assert m.n_elements == 2
    assert len(m.vertices) == 4
    assert on_boundary(m).all()


def test_square_mesh_h():
    m = uniform_square_mesh(16)
    assert m.h == pytest.approx(np.sqrt(2.0) / 16, rel=1e-15)
    assert mesh_size(m) == pytest.approx(m.h, rel=1e-15)


def test_square_mesh_interior_vertex():
    m = uniform_square_mesh(2)
    assert m.n_elements == 8
    interior = m.vertices[~on_boundary(m)]
    assert interior.shape == (1, 2)
    np.testing.assert_allclose(interior[0], [0.5, 0.5])


def test_square_invalid_count():
    with pytest.raises(ValueError):
        uniform_square_mesh(0)


def test_square_areas_sum_to_one():
    for n in (1, 3, 8):
        total = element_measures(uniform_square_mesh(n)).sum()
        assert abs(total - 1.0) <= 1e-12


def test_all_elements_have_positive_measure():
    assert (element_measures(uniform_square_mesh(5)) > 0).all()
    assert (element_measures(uniform_interval_mesh(5)) > 0).all()


def test_lagrange_counts_1d():
    m = uniform_interval_mesh(4)
    s1 = build_lagrange_space(m, 1)
    assert s1.n_nodes == 5 and len(s1.free_node_indices) == 3
    s3 = build_lagrange_space(m, 3)
    assert s3.n_nodes == 13 and len(s3.free_node_indices) == 11


def test_lagrange_counts_2d():
    s = build_lagrange_space(uniform_square_mesh(2), 1)
    assert s.n_nodes == 9 and len(s.free_node_indices) == 1
    s3 = build_lagrange_space(uniform_square_mesh(2), 3)
    assert s3.n_nodes == (3 * 2 + 1) ** 2


@given(st.sampled_from([1, 2]), st.integers(1, 4), st.integers(1, 12))
def test_lagrange_node_counts(dim, k, n):
    # nk + 1 nodes per direction, nk - 1 of them interior: a count that
    # holds only if every shared vertex, edge and face was merged exactly
    mesh = uniform_interval_mesh(n) if dim == 1 else uniform_square_mesh(n)
    s = build_lagrange_space(mesh, k)
    assert s.n_nodes == (n * k + 1) ** dim
    assert len(s.free_node_indices) == (n * k - 1) ** dim


def test_invalid_degree():
    with pytest.raises(ValueError):
        build_lagrange_space(uniform_interval_mesh(4), 0)


def test_nodes_equally_spaced_within_elements():
    m = uniform_interval_mesh(3)
    s = build_lagrange_space(m, 3)
    for e in range(m.n_elements):
        xs = s.nodes[s.element_dofs[e], 0]
        np.testing.assert_allclose(np.diff(xs), 1.0 / 9.0, rtol=1e-13)


def test_shared_faces_share_node_indices_2d():
    # C0 conformity: the total node count equals the fine-lattice count,
    # which is only possible if every shared face was merged exactly
    for n, k in [(2, 2), (3, 3), (4, 1)]:
        s = build_lagrange_space(uniform_square_mesh(n), k)
        assert s.n_nodes == (n * k + 1) ** 2
        # and every fine-lattice point appears exactly once
        seen = {tuple(p) for p in node_lattice(s)}
        assert len(seen) == s.n_nodes


def test_rebuild_is_idempotent():
    m = uniform_square_mesh(3)
    a = build_lagrange_space(m, 2)
    b = build_lagrange_space(m, 2)
    np.testing.assert_array_equal(a.nodes, b.nodes)
    np.testing.assert_array_equal(a.element_dofs, b.element_dofs)
    np.testing.assert_array_equal(a.free_node_indices, b.free_node_indices)


def test_free_nodes_strictly_interior():
    for dim_space in (build_lagrange_space(uniform_interval_mesh(6), 2),
                      build_lagrange_space(uniform_square_mesh(3), 2)):
        nodes = dim_space.nodes
        free = set(dim_space.free_node_indices.tolist())
        for i, x in enumerate(nodes):
            on_boundary = bool(np.any((x == 0.0) | (x == 1.0)))
            assert (i not in free) == on_boundary


def test_mesh_arrays_immutable():
    m = uniform_square_mesh(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0


# --- oracles: the per-cell and per-node loops the array code replaced ---

def _loop_square_simplexes(n):
    simplexes = []
    for cy in range(n):
        for cx in range(n):
            v00 = cy * (n + 1) + cx
            v10 = cy * (n + 1) + cx + 1
            v01 = (cy + 1) * (n + 1) + cx
            v11 = (cy + 1) * (n + 1) + cx + 1
            simplexes.append((v00, v10, v11))
            simplexes.append((v00, v11, v01))
    return np.array(simplexes, dtype=np.int64)


def _loop_square_vertices(n):
    return np.array([(ix / n, iy / n) for iy in range(n + 1)
                     for ix in range(n + 1)])


def _loop_square_numbering(n, k):
    """Node ids in order of first appearance, element by element."""
    local = reference_node_multi_indices(2, k)
    lattice_to_id = {}
    lattice_list = []

    def node_id(pos):
        nid = lattice_to_id.get(pos)
        if nid is None:
            nid = len(lattice_list)
            lattice_to_id[pos] = nid
            lattice_list.append(pos)
        return nid

    element_dofs = np.empty((2 * n * n, len(local)), dtype=np.int64)
    e = 0
    for cy in range(n):
        for cx in range(n):
            for loc, (i, j) in enumerate(local):
                element_dofs[e, loc] = node_id((cx * k + i + j, cy * k + j))
            e += 1
            for loc, (i, j) in enumerate(local):
                element_dofs[e, loc] = node_id((cx * k + i, cy * k + i + j))
            e += 1
    return element_dofs, np.array(lattice_list, dtype=np.int64)


def _loop_interval_numbering(n, k):
    """Element dofs, lattice, nodes and boundary flags of [0, 1] the way
    the 1D branch built them: element e covers lattice points e*k..e*k + k,
    at a + (b - a) lattice / nk with (a, b) = (0, 1)."""
    a, b = 0.0, 1.0
    local = reference_node_multi_indices(1, k)
    element_dofs = np.array([[e * k + i for (i,) in local] for e in range(n)],
                            dtype=np.int64)
    nk = n * k
    lattice = np.arange(nk + 1, dtype=np.int64).reshape(-1, 1)
    nodes = (a + (b - a) * lattice[:, 0] / nk).reshape(-1, 1)
    boundary = np.zeros(nk + 1, dtype=bool)
    boundary[0] = boundary[-1] = True
    return element_dofs, lattice, nodes, boundary


def _assert_identical(got, expect):
    assert got.dtype == expect.dtype
    np.testing.assert_array_equal(got, expect)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 48])
def test_square_mesh_matches_cell_loop(n):
    m = uniform_square_mesh(n)
    _assert_identical(m.simplexes, _loop_square_simplexes(n))
    _assert_identical(m.vertices, _loop_square_vertices(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 48])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_square_numbering_matches_node_loop(n, k):
    s = build_lagrange_space(uniform_square_mesh(n), k)
    element_dofs, lattice = _loop_square_numbering(n, k)
    nk = n * k
    boundary = ((lattice[:, 0] == 0) | (lattice[:, 0] == nk)
                | (lattice[:, 1] == 0) | (lattice[:, 1] == nk))
    _assert_identical(s.element_dofs, element_dofs)
    _assert_identical(node_lattice(s), lattice)
    _assert_identical(s.nodes, lattice / nk)
    _assert_identical(s.free_node_indices, np.flatnonzero(~boundary))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 100])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_interval_numbering_matches_node_loop(n, k):
    s = build_lagrange_space(uniform_interval_mesh(n), k)
    element_dofs, lattice, nodes, boundary = _loop_interval_numbering(n, k)
    _assert_identical(s.element_dofs, element_dofs)
    _assert_identical(node_lattice(s), lattice)
    _assert_identical(s.nodes, nodes)
    _assert_identical(s.free_node_indices, np.flatnonzero(~boundary))
