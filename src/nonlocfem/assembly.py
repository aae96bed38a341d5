"""Assembly of mass/stiffness matrices, load vectors, and discrete norms.

All forms are integrated with reference-element quadrature mapped through
the affine element transforms. The assembly rule has degree 2k+2;
error norms use a rule two degrees higher (capped at the largest available
symmetric triangle rule in 2D) so measured convergence rates reflect the
discretization, not the integrator.

Load vectors come a block of times per call (LoadAssembler): a forcing
f(x..., t) is called once with the quadrature point coordinates as rows
and the times as a column, and its values must broadcast to one row per
time; a wrong shape raises ValueError and a non-finite value
NonFiniteFieldError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .basis import reference_basis
from .mesh import LagrangeSpace, SimplicialMesh
from .quadrature import MAX_TRIANGLE_DEGREE, reference_rule

SYMMETRY_RTOL = 1e-14

# a load call computes at most this many forcing values (512 KiB), so a
# block of times is this budget over the quadrature points (163 steps on
# example1's default mesh, 400 points). 2^16, not 2^17: blocks of 256 steps
# raised example1's peak RSS by 2.5 MB and blocks of 163 by 1.6 MB, and the
# time per step did not differ measurably
_LOAD_BLOCK_VALUES = 1 << 16


class NonFiniteFieldError(ValueError):
    """A scalar field returned NaN or infinity where a finite value is required."""


@dataclass
class FieldVector:
    """Coefficient vector of a discrete function over a Lagrange space."""

    coefficients: np.ndarray
    space: LagrangeSpace

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.n_nodes,):
            raise ValueError(
                f"coefficient length {self.coefficients.shape} does not match "
                f"space with {self.space.n_nodes} nodes")


class SparseSymMatrix:
    """Symmetric sparse matrix assembled over the nodes of a space.

    The build checks symmetry to SYMMETRY_RTOL of the largest entry. When
    the transpose has the same pattern, as every assembled matrix does, the
    defect is taken entry by entry against the transpose's data; any other
    pattern is checked by |A - A^T| as a sparse difference.
    """

    def __init__(self, matrix: sp.csr_matrix):
        matrix = matrix.tocsr()
        scale = defect = 0.0
        if matrix.nnz:
            # a canonical matrix (sorted, no duplicates) has a canonical
            # transpose, so equal index arrays mean a symmetric pattern
            transpose = matrix.T.tocsr() if matrix.has_canonical_format else None
            if (transpose is not None
                    and np.array_equal(matrix.indptr, transpose.indptr)
                    and np.array_equal(matrix.indices, transpose.indices)):
                scale = max(matrix.data.max(), -matrix.data.min())
                diff = np.subtract(matrix.data, transpose.data,
                                   out=transpose.data)
                defect = np.abs(diff, out=diff).max()
            else:
                scale = abs(matrix).max()
                defect = abs(matrix - matrix.T).max()
        if defect > SYMMETRY_RTOL * max(scale, 1e-300):
            raise ValueError(f"matrix is not symmetric: defect {defect:.3e} "
                             f"vs scale {scale:.3e}")
        self.matrix = matrix

    def restrict(self, indices, *others: "SparseSymMatrix"):
        """Submatrix on the given node indices (row/column elimination),
        which must be sorted and unique (ValueError otherwise). With
        others, matrices of this one's sparsity pattern (ValueError
        otherwise), the tuple of this submatrix and theirs, on one pair of
        index arrays.

        One masked pass over the CSR arrays, whatever the number of
        matrices: an entry is kept when both its row and its column map to
        a kept node, in the order it is stored.
        """
        indices = np.asarray(indices)
        A = self.matrix
        n = A.shape[0]
        if (indices.ndim != 1 or indices.dtype.kind not in "iu"
                or np.any(indices[1:] <= indices[:-1])
                or len(indices) and not (0 <= indices[0] and indices[-1] < n)):
            raise ValueError("restriction indices must be sorted, unique "
                             "node indices")
        if not all(np.array_equal(A.indptr, B.matrix.indptr)
                   and np.array_equal(A.indices, B.matrix.indices)
                   for B in others):
            raise ValueError("the matrices do not share one sparsity pattern")
        row_of = np.full(n, -1, dtype=A.indices.dtype)
        row_of[indices] = np.arange(len(indices), dtype=A.indices.dtype)
        columns = row_of.take(A.indices)     # new column per entry, -1 if dropped
        keep = columns >= 0
        # a kept row loses only its entries in dropped columns, which are few
        lost = np.searchsorted(A.indptr, np.flatnonzero(~keep), side="right") - 1
        lengths = np.diff(A.indptr)
        indptr = np.zeros(len(indices) + 1, dtype=A.indptr.dtype)
        np.cumsum((lengths - np.bincount(lost, minlength=n))[indices],
                  out=indptr[1:])
        keep &= np.repeat(row_of >= 0, lengths)
        columns = columns[keep]
        subs = tuple(sp.csr_matrix((B.matrix.data[keep], columns, indptr),
                                   shape=(len(indices), len(indices)))
                     for B in (self, *others))
        return subs if others else subs[0]


def assembly_degree(k: int) -> int:
    """Quadrature degree for assembled forms."""
    return 2 * k + 2


def error_degree(dim: int, k: int) -> int:
    """Quadrature degree for error norms: two above assembly, table-capped in 2D."""
    deg = 2 * k + 4
    if dim == 2:
        deg = min(deg, MAX_TRIANGLE_DEGREE)
    return deg


def _geometry(mesh: SimplicialMesh):
    """Affine transform data per element: vertex 0, J, |det J|, J^{-T}.

    Column j of J is the edge from vertex 0 to vertex j + 1. The inverse is
    1/J in 1D and the adjugate divided by det J in 2D.
    """
    verts = mesh.element_vertices()
    J = np.ascontiguousarray(np.swapaxes(verts[:, 1:] - verts[:, :1], 1, 2))
    if mesh.dim == 1:
        det = J[:, 0, 0]
        JinvT = 1.0 / J
    else:
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 1, 0] * J[:, 0, 1]
        adj = np.stack([J[:, 1, 1], -J[:, 0, 1], -J[:, 1, 0], J[:, 0, 0]],
                       axis=-1).reshape(-1, 2, 2)
        JinvT = np.swapaxes(adj / det[:, None, None], 1, 2)
    return verts[:, 0], J, np.abs(det), JinvT


def _scatter_symmetric(space, element_matrices):
    """Sum the element matrices into one CSR matrix over the space's nodes:
    entry (i, j) of element e goes to (dofs[e, i], dofs[e, j]). The index
    arrays are built once in the index dtype SciPy keeps."""
    n = space.n_nodes
    dofs = space.element_dofs.astype(sp.get_index_dtype(maxval=n))
    n_local = dofs.shape[1]
    rows = np.repeat(dofs, n_local, axis=1).ravel()
    cols = np.tile(dofs, (1, n_local)).ravel()
    mat = sp.coo_matrix((element_matrices.ravel(), (rows, cols)), shape=(n, n))
    return SparseSymMatrix(mat.tocsr())


def assemble_mass(space: LagrangeSpace) -> SparseSymMatrix:
    """Global mass matrix M_ij = (phi_j, phi_i)."""
    k = space.degree
    rule = reference_rule(space.mesh.dim, assembly_degree(k))
    basis = reference_basis(space.mesh.dim, k)
    vals = basis.eval(rule.points)
    ref = np.einsum("iq,jq,q->ij", vals, vals, rule.weights)
    _, _, det, _ = _geometry(space.mesh)
    return _scatter_symmetric(space, det[:, None, None] * ref)


@lru_cache(maxsize=None)
def _reference_stiffness(dim: int, k: int) -> np.ndarray:
    """Reference tensors G_cd = sum_q w_q d_c phi_i d_d phi_j of the stiffness,
    shape (dim*dim, n_local, n_local) with G_cd at index c*dim + d."""
    rule = reference_rule(dim, assembly_degree(k))
    grads = reference_basis(dim, k).eval_grad(rule.points)
    G = np.einsum("iqc,jqd,q->cdij", grads, grads, rule.weights)
    G = np.ascontiguousarray(G.reshape(dim * dim, *G.shape[2:]))
    G.setflags(write=False)
    return G


def assemble_stiffness(space: LagrangeSpace) -> SparseSymMatrix:
    """Global stiffness matrix K_ij = (grad phi_j, grad phi_i).

    On affine simplices K_e = |det J_e| sum_cd (J_e^-1 J_e^-T)_cd G_cd with
    reference tensors G_cd computed once per (dim, k), so all element
    matrices come from one (n_el, dim^2) @ (dim^2, n_local^2) product.
    """
    dim, k = space.mesh.dim, space.degree
    G = _reference_stiffness(dim, k)
    _, _, det, JinvT = _geometry(space.mesh)
    geo = det[:, None] * (np.swapaxes(JinvT, 1, 2) @ JinvT).reshape(-1, dim * dim)
    elem = geo @ G.reshape(dim * dim, -1)
    return _scatter_symmetric(space, elem.reshape(-1, *G.shape[1:]))


def _columns(coords):
    """One coordinate array per axis of (n, dim) coordinate rows."""
    return tuple(coords[:, d] for d in range(coords.shape[1]))


def _evaluate_field(fn, columns, t=None):
    """Evaluate a scalar field at points given as one coordinate array per
    axis (see _columns), in one call.

    fn takes the columns (then t, if given) and returns an array of values,
    or a scalar for a constant field. t is a scalar, or a column of times
    (shape (n_t, 1)) that the points broadcast against, for n_t rows of
    values. A float array of the right shape is returned as is; anything
    else is converted and broadcast into a new array, and a result that does
    not broadcast to that shape raises ValueError.
    """
    vals = fn(*columns) if t is None else fn(*columns, t)
    shape = np.broadcast_shapes(np.shape(t), columns[0].shape)
    if (isinstance(vals, np.ndarray) and vals.dtype == np.float64
            and vals.shape == shape):
        return vals
    return np.broadcast_to(np.asarray(vals, dtype=float), shape).copy()


def _element_quadrature(space: LagrangeSpace, degree: int):
    """The rule of the given degree on every element: basis values at its
    points (n_local, n_q), weights times |det J| (n_el, n_q) and the point
    coordinates, one array per axis (see _columns), element by element."""
    dim = space.mesh.dim
    rule = reference_rule(dim, degree)
    v0, J, det, _ = _geometry(space.mesh)
    # J p for every element and rule point p: one broadcast product per
    # column of J, added in column order, bit for bit the einsum
    # "eij,qj->eqi" and about four times faster
    offset = J[:, None, :, 0] * rule.points[:, None, 0]
    for j in range(1, dim):
        offset += J[:, None, :, j] * rule.points[:, None, j]
    points = v0[:, None, :] + offset
    return (reference_basis(dim, space.degree).eval(rule.points),
            det[:, None] * rule.weights[None, :],
            _columns(points.reshape(-1, dim)))


class LoadAssembler:
    """Load-vector assembler bound to one space and quadrature rule, which
    computes the loads of many times in one call.

    Precomputes the element quadrature table of the assembly rule (basis
    values, weights times |det J| per element and the point coordinates,
    one array per axis; see _element_quadrature). A call evaluates the
    forcing once for all its times (the point coordinates as rows, the times
    as a column), forms every element load in one (n_t, n_el, n_q) @
    (n_q, n_local) product and sums them into the rows by one np.bincount,
    each time's dofs offset by its index times (n_rows + 1). Every row is
    bit for bit the load of its time alone. The load has only the given rows
    (node indices, e.g. the free nodes), in their order; the other nodes go
    to one extra bin per time that is dropped.

    A call takes at most block = max(1, _LOAD_BLOCK_VALUES // n_points)
    times, fixed at the build; more raise ValueError. This is the one rule
    for how many loads a call computes: the stepper asks for block steps
    at a time. The temporaries of a call are buffers of block times: the
    finiteness mask, the weighted forcing values and the element loads are
    allocated at the build, and the bin index of every element load is
    written by the first call and kept. The build only reserves memory;
    writing the bin index there would fault its pages in during a run's
    setup. So the first call allocates the bin index, and no later call
    allocates a temporary. The returned block is always a new array, and
    later calls leave it alone.
    """

    def __init__(self, space: LagrangeSpace, rows):
        vals, self._wdet, self._columns = _element_quadrature(
            space, assembly_degree(space.degree))
        self._vals_t = np.ascontiguousarray(vals.T)   # (nq, nl)
        self._width = len(rows) + 1     # the rows and the dropped bin
        row_of = np.full(space.n_nodes, len(rows))
        row_of[rows] = np.arange(len(rows))
        self._dofs = row_of[space.element_dofs.ravel()]
        self.n_points = self._wdet.size
        self.block = max(1, _LOAD_BLOCK_VALUES // self.n_points)
        self._finite = np.empty((self.block, self.n_points), dtype=bool)
        self._weighted = np.empty((self.block, *self._wdet.shape))
        self._elem = np.empty((self.block, len(self._wdet), self._vals_t.shape[1]))
        self._block_dofs = None

    def __call__(self, f, times) -> np.ndarray:
        """Loads at the given times, at most block of them, shape
        (len(times), n_rows); more times raise ValueError.

        f(x..., t) gets the point coordinates as rows and t as a column, so
        its values must broadcast to (len(times), n_points); otherwise
        ValueError. A non-finite value raises NonFiniteFieldError naming
        the first time that has one.
        """
        times = np.asarray(times, dtype=float)
        n_t = len(times)
        if n_t > self.block:
            raise ValueError(f"at most {self.block} times per call, got {n_t}")
        fvals = _evaluate_field(f, self._columns, times[:, None])
        if self._block_dofs is None:
            self._block_dofs = (self._width * np.arange(self.block)[:, None]
                                + self._dofs).ravel()
        finite = np.isfinite(fvals, out=self._finite[:n_t])
        if not finite.all():
            bad = times[np.argmin(finite.all(axis=1))]
            raise NonFiniteFieldError(
                f"forcing returned a non-finite value at t={bad}")
        weighted = np.multiply(self._wdet, fvals.reshape(n_t, *self._wdet.shape),
                               out=self._weighted[:n_t])
        del fvals   # blocks are large: release the forcing values early
        elem = np.matmul(weighted, self._vals_t, out=self._elem[:n_t])
        loads = np.bincount(self._block_dofs[:n_t * len(self._dofs)],
                            weights=elem.ravel(), minlength=n_t * self._width)
        return loads.reshape(n_t, self._width)[:, :-1]


def interpolate(space: LagrangeSpace, u) -> FieldVector:
    """Nodal interpolant of u in the space, boundary coefficients forced to 0."""
    vals = _evaluate_field(u, _columns(space.nodes))
    if not np.all(np.isfinite(vals)):
        raise NonFiniteFieldError("field returned a non-finite nodal value")
    full = np.zeros_like(vals)
    full[space.free_node_indices] = vals[space.free_node_indices]
    return FieldVector(full, space)


def l2_error(U: FieldVector, u_exact, t=None) -> float:
    """L2 norm of U - u_exact(., t), integrated on the error quadrature rule."""
    space = U.space
    vals, wdet, columns = _element_quadrature(
        space, error_degree(space.mesh.dim, space.degree))
    exact = _evaluate_field(u_exact, columns, t)
    if not np.all(np.isfinite(exact)):
        raise NonFiniteFieldError("exact solution returned a non-finite value")
    Uq = np.einsum("ei,iq->eq", U.coefficients[space.element_dofs], vals)
    return float(np.sqrt(np.sum(wdet * (Uq - exact.reshape(wdet.shape)) ** 2)))
