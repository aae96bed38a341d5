"""Uniform simplicial meshes and Lagrange node layouts.

Supports the two domains used throughout: the unit interval partitioned
into equal subintervals, and the unit square partitioned into 2*n*n
triangles by splitting an n-by-n grid of cells along same-direction
diagonals.
Node identity is resolved on an integer lattice, never by comparing
floating-point coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SimplicialMesh:
    """Partition of the unit interval (dim=1) or the unit square (dim=2).

    Attributes:
        dim: spatial dimension, 1 or 2.
        vertices: (n_vertices, dim) coordinates.
        simplexes: (n_elements, dim+1) vertex index tuples.
        divisions: subdivisions per direction (n elements for the
            interval, n cells per side for the square).
        h: largest element diameter.
    """

    dim: int
    vertices: np.ndarray
    simplexes: np.ndarray
    divisions: int
    h: float

    def __post_init__(self):
        for arr in (self.vertices, self.simplexes):
            arr.setflags(write=False)

    @property
    def n_elements(self) -> int:
        return len(self.simplexes)

    def element_vertices(self) -> np.ndarray:
        """Coordinates of each simplex, shape (n_elements, dim+1, dim)."""
        return self.vertices[self.simplexes]


@dataclass(frozen=True)
class LagrangeSpace:
    """Degree-k Lagrange nodal layout over a mesh (continuous, C0-conforming).

    Attributes:
        mesh: underlying simplicial mesh.
        degree: polynomial degree k >= 1.
        nodes: (n_nodes, dim) node coordinates, equally spaced per element.
        element_dofs: (n_elements, n_local) global node index per local node.
        free_node_indices: indices of interior nodes (the unknowns); every
            other node lies on the domain boundary.
    """

    mesh: SimplicialMesh
    degree: int
    nodes: np.ndarray
    element_dofs: np.ndarray
    free_node_indices: np.ndarray

    def __post_init__(self):
        for arr in (self.nodes, self.element_dofs, self.free_node_indices):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def uniform_interval_mesh(n: int) -> SimplicialMesh:
    """Partition [0, 1] into n equal elements.

    Raises ValueError when n < 1.
    """
    if n < 1:
        raise ValueError(f"invalid element count: need n >= 1, got {n}")
    vertices = (np.arange(n + 1) / n).reshape(-1, 1)
    simplexes = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return SimplicialMesh(dim=1, vertices=vertices,
                          simplexes=simplexes.astype(np.int64), divisions=n,
                          h=1.0 / n)


def uniform_square_mesh(n: int) -> SimplicialMesh:
    """Triangulate the unit square with 2*n*n triangles.

    Each grid cell is split along the diagonal from its lower-left to its
    upper-right corner (all diagonals in the same direction), so the mesh
    is deterministic and symmetric under half-turn rotation about the center.
    Raises ValueError when n < 1.
    """
    if n < 1:
        raise ValueError(f"invalid subdivision count: need n >= 1, got {n}")
    idx = np.arange(n + 1)
    xv, yv = np.meshgrid(idx / n, idx / n, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    # cells row by row; each splits into (v00, v10, v11) and (v00, v11, v01)
    cy, cx = np.divmod(np.arange(n * n, dtype=np.int64), n)
    v00 = cy * (n + 1) + cx
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    simplexes = np.stack([np.column_stack([v00, v10, v11]),
                          np.column_stack([v00, v11, v01])], axis=1).reshape(-1, 3)
    return SimplicialMesh(dim=2, vertices=vertices, simplexes=simplexes,
                          divisions=n, h=float(np.sqrt(2.0) / n))


def reference_node_multi_indices(dim: int, k: int) -> list[tuple[int, ...]]:
    """Lattice multi-indices of the equally spaced degree-k reference nodes.

    dim=1: (i,) for i = 0..k. dim=2: (i, j) with i + j <= k, enumerated j-major.
    The enumeration order fixes the local dof ordering used everywhere.
    """
    if dim == 1:
        return [(i,) for i in range(k + 1)]
    return [(i, j) for j in range(k + 1) for i in range(k + 1 - j)]


def build_lagrange_space(mesh: SimplicialMesh, k: int) -> LagrangeSpace:
    """Lay out the degree-k Lagrange nodes over a uniform mesh.

    Every (element, local node) gets its position on the fine lattice of
    spacing (element size)/k, and nodes are numbered in order of first
    appearance, element by element, the same way in both dimensions, so
    nodes shared between elements are merged exactly.
    Raises ValueError when k < 1.
    """
    if k < 1:
        raise ValueError(f"invalid degree: need k >= 1, got {k}")
    n, dim = mesh.divisions, mesh.dim
    nk = n * k
    fine = (nk + 1,) * dim
    local = np.array(reference_node_multi_indices(dim, k), dtype=np.int64)
    # local node m of a simplex lies at sum_i w_i c_i on the fine lattice,
    # c_i the grid points of its vertices (numbered row by row on the
    # (n+1)^dim grid) and w = (k - |m|, m_1, ..., m_dim); a lattice point's
    # key, its row-by-row index, is linear in the point, so the node's key
    # is sum_i w_i key(c_i)
    grid = np.unravel_index(np.arange(len(mesh.vertices)), (n + 1,) * dim)
    weights = np.column_stack([k - local.sum(axis=1), local])
    keys = (np.ravel_multi_index(grid, fine)[mesh.simplexes] @ weights.T).ravel()
    # node ids follow the first occurrence of each lattice point: a table
    # over the lattice holds the first position of every key
    position = np.arange(len(keys))
    first = np.full((nk + 1) ** dim, len(keys), dtype=np.int64)
    np.minimum.at(first, keys, position)
    node_keys = keys[first[keys] == position]
    node_of = np.empty_like(first)
    node_of[node_keys] = np.arange(len(node_keys))
    element_dofs = node_of[keys].reshape(mesh.n_elements, len(local))
    lattice = np.column_stack(np.unravel_index(node_keys, fine)[::-1])
    boundary = ((lattice == 0) | (lattice == nk)).any(axis=1)
    return LagrangeSpace(mesh=mesh, degree=k, nodes=lattice / nk,
                         element_dofs=element_dofs,
                         free_node_indices=np.flatnonzero(~boundary))


def edge_node_pairs(space: LagrangeSpace) -> np.ndarray:
    """The nodes inside every edge that holds exactly two (each edge at
    k = 3, none at another degree; in 1D the edge is the element), as rows
    (first, second) with first < second, sorted by first.

    A local node lies inside the edge between two vertices when exactly
    those two of its barycentric weights are positive. A node lies inside
    one edge only, so the elements that share an edge name the same pair,
    and a table over the nodes keeps it once.
    """
    k, dim = space.degree, space.mesh.dim
    local = np.array(reference_node_multi_indices(dim, k), dtype=np.int64)
    inside = np.column_stack([k - local.sum(axis=1), local]) > 0
    on_edge = np.flatnonzero(inside.sum(axis=1) == 2)
    edge = inside[on_edge] @ (1 << np.arange(dim + 1))   # its two vertices
    pairs = [on_edge[edge == e] for e in np.unique(edge)]
    pairs = np.array([p for p in pairs if len(p) == 2],
                     dtype=np.int64).reshape(-1, 2)
    nodes = space.element_dofs[:, pairs]
    partner = np.full(space.n_nodes, -1)
    partner[nodes.min(axis=-1)] = nodes.max(axis=-1)
    first = np.flatnonzero(partner >= 0)
    return np.column_stack([first, partner[first]])
