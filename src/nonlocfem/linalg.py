"""Solvers for the symmetric positive definite systems of each time step.

Two methods: block-Jacobi-preconditioned conjugate gradients (2D) and a
banded Cholesky factorization (1D node orderings, where the matrices have
bandwidth k). The CG preconditioner is the inverse of a block diagonal of
the matrix, 2x2 blocks on given pairs of unknowns and 1x1 blocks on the
others (Saad, Iterative Methods for Sparse Linear Systems, 2nd ed., 2003,
10.5), held as a CSR matrix. BlockJacobi alone holds the block layout: it
is built once from M, K and the pairs, and refilled from theta for every
solve. The banded solve is one LAPACK pbsv call on a Fortran-order lower
band, which the factorization overwrites; band_matvec multiplies on such a
band by BLAS sbmv, and both band kernels can write into vectors the caller
holds. How the stepper fills, starts and verifies these solves is
described in stepper.

Every reduction of CG goes through dot: BLAS ddot on consecutive chunks of
at most _DOT_CHUNK = 8 192 entries, summed in order. OpenBLAS splits a
ddot of more than 10 000 entries across threads (NumPy's @ and norm hand
it such vectors too), and each split rounds differently; a chunk below
that size runs on one thread, so results do not depend on the BLAS thread
count, and ddot is faster than NumPy's einsum loop.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import ddot, dsbmv
from scipy.linalg.lapack import dpbsv

CG = "conjugate-gradient"
DIRECT_BANDED = "direct-banded"

# the most entries of one ddot call (see the module docstring)
_DOT_CHUNK = 8192


def method_for_dim(dim: int) -> str:
    """The backend of a mesh dimension: banded Cholesky in 1D, CG otherwise."""
    return DIRECT_BANDED if dim == 1 else CG


class NotSPDError(RuntimeError):
    """The system is not positive definite (a CG search direction produced
    nonpositive curvature, or the banded Cholesky factorization failed),
    which signals a negative diffusion coefficient or a corrupted assembly."""


class SolverConvergenceError(RuntimeError):
    """The iteration budget was exhausted before reaching the tolerance."""


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two float64 vectors of one length: ddot on consecutive
    chunks of at most _DOT_CHUNK entries, summed in order, so on one thread
    whatever the BLAS thread count."""
    n = len(a)
    total = 0.0
    for start in range(0, n, _DOT_CHUNK):
        total += ddot(a, b, min(_DOT_CHUNK, n - start), start, 1, start, 1)
    return total


class BlockJacobi:
    """The inverse of the block diagonal of A = M + theta K, with a 2x2
    block on each pair (first[j], second[j]) of unknowns and a 1x1 block on
    every other unknown, as a CSR matrix on a pattern fixed at the build
    (the diagonal and both entries of each pair).

    M and K are CSR matrices of order n on one canonical pattern (sorted
    columns within a row), and the pairs are disjoint, with
    first[j] < second[j]. The build finds the diagonal and pair entries by
    one search of the pattern's row-major keys (row * n + column) and keeps
    their M and K values; it raises ValueError when K is on another pattern
    or an entry is missing. refill(theta) forms those entries of A, inverts
    each block compactly, one value per unknown and one per pair, and
    gathers the values into the CSR data by one take. Without pairs the
    matrix holds exactly 1 / diag A, and at theta = 0 exactly 1 / diag M.
    """

    def __init__(self, M: sp.csr_matrix, K: sp.csr_matrix,
                 first: np.ndarray, second: np.ndarray):
        if not (np.array_equal(M.indptr, K.indptr)
                and np.array_equal(M.indices, K.indices)):
            raise ValueError("K is not on M's sparsity pattern")
        n, m = M.shape[0], len(first)
        single = np.ones(n, dtype=bool)
        single[first] = single[second] = False
        # the block order of the unknowns: those without a pair in
        # increasing order, then every first, then every second
        order = np.concatenate([np.flatnonzero(single), first, second])
        keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(M.indptr))
        keys += M.indices
        wanted = np.concatenate([order * (n + 1), first * n + second])
        at = np.searchsorted(keys, wanted)
        if not (np.all(at < len(keys)) and np.array_equal(keys[at], wanted)):
            raise ValueError("a diagonal or pair entry is missing from M's "
                             "pattern")
        self._m, self._k = M.data[at], K.data[at]
        self._entries, self._values = np.empty(n + m), np.empty(n + m)
        # the compact value of each CSR entry (see refill): its unknown's
        # for a diagonal entry, its pair's for the two off-diagonal ones;
        # the COO conversion sorts each row by column
        pair = n + np.arange(m)
        slots = sp.csr_matrix((np.concatenate([np.arange(n), pair, pair]),
                               (np.concatenate([order, first, second]),
                                np.concatenate([order, second, first]))),
                              shape=(n, n))
        self._slot = slots.data
        self.matrix = sp.csr_matrix(
            (np.empty(n + 2 * m), slots.indices, slots.indptr), shape=(n, n))

    def refill(self, theta: float) -> sp.csr_matrix:
        """The matrix for A = M + theta K, each entry fl(fl(k theta) + m);
        returns it, valid until the next refill.

        Raises NotSPDError unless every diagonal entry and every 2x2 block
        determinant is positive (a NaN fails both), so every block is SPD.
        """
        entries = np.multiply(self._k, theta, out=self._entries)
        entries += self._m
        n = self.matrix.shape[0]
        diagonal, off = entries[:n], entries[n:]
        if not np.all(diagonal > 0.0):
            raise NotSPDError("matrix has a nonpositive or NaN diagonal entry")
        m = len(off)
        s = n - 2 * m
        a, d = diagonal[s:n - m], diagonal[n - m:]
        det = a * d
        det -= off * off
        if not np.all(det > 0.0):
            raise NotSPDError("a 2x2 block has a nonpositive or NaN "
                              "determinant")
        # the compact values: 1 / diag of the single unknowns, then the
        # inverse's (first, first), (second, second) and off-diagonal entry
        # of every pair
        values = self._values
        np.divide(1.0, diagonal[:s], out=values[:s])
        np.divide([d, a, -off], det, out=values[s:].reshape(3, m))
        np.take(values, self._slot, out=self.matrix.data, mode="clip")
        return self.matrix


def cg_jacobi(A: sp.csr_matrix, b: np.ndarray, tol: float, x0: np.ndarray,
              r0: np.ndarray, preconditioner: sp.csr_matrix
              ) -> tuple[np.ndarray, int]:
    """Preconditioned CG on a reduced SPD system from the start x0; returns
    (x, iterations).

    r0 is the residual b - A x0 of the start (the stepper forms it from
    products it carries, so the start costs no matrix-vector product) and
    preconditioner an SPD matrix P, applied as z = P r (BlockJacobi's
    matrix). x0 is not modified; r0 is consumed: CG updates that float
    vector in place as its residual, and x and the search direction in
    place too. CG stops once its recurrence residual (r0 for the start) is
    within tol ||b||, so it forms no b - A x; that residual can drift from
    the true one (Greenbaum 1997), and the caller verifies x. The budget is
    10 n iterations. Every reduction is dot, so x and the iteration count
    do not depend on the BLAS thread count. A NaN stops CG at once: a
    non-finite ||b|| raises ValueError, a NaN curvature NotSPDError.
    """
    n = len(b)
    bnorm = math.sqrt(dot(b, b))
    if bnorm == 0.0:
        return np.zeros(n), 0
    if not math.isfinite(bnorm):
        raise ValueError(f"right-hand side norm is {bnorm} (a non-finite "
                         f"entry or an overflow)")
    limit = 10 * n
    bound = tol * bnorm

    x, r = np.array(x0, dtype=float), r0
    if math.sqrt(dot(r, r)) <= bound:
        return x, 0
    # z is a new vector on every iteration, so p may start as z itself
    p = z = preconditioner @ r
    rz = dot(r, z)
    scaled = np.empty(n)
    for it in range(1, limit + 1):
        Ap = A @ p
        curvature = dot(p, Ap)
        if not curvature > 0.0:
            raise NotSPDError(
                f"nonpositive curvature {curvature:.3e} on iteration {it}")
        alpha = rz / curvature
        x += np.multiply(p, alpha, out=scaled)
        r -= np.multiply(Ap, alpha, out=scaled)
        if math.sqrt(dot(r, r)) <= bound:
            return x, it
        z = preconditioner @ r
        rz_new = dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverConvergenceError(
        f"CG did not reach relative residual {tol:g} in {limit} iterations")


def to_banded_lower(A: sp.spmatrix) -> np.ndarray:
    """Lower banded storage (LAPACK pbtrf layout, Fortran order) of a
    symmetric matrix: ab[i - j, j] = A[i, j] for j <= i <= j + bandwidth."""
    coo = A.tocoo()
    if len(coo.row) == 0:
        return np.zeros((1, A.shape[0]), order="F")
    bw = int(np.max(np.abs(coo.row - coo.col)))
    ab = np.zeros((bw + 1, A.shape[0]), order="F")
    mask = coo.row >= coo.col
    r, c, v = coo.row[mask], coo.col[mask], coo.data[mask]
    np.add.at(ab, (r - c, c), v)
    return ab


def band_matvec(ab: np.ndarray, x: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """A x for a symmetric A in lower banded storage (see to_banded_lower),
    by BLAS dsbmv; x must be a float64 vector of length A.shape[0]. With
    out (a contiguous float64 vector of that length) dsbmv writes A x into
    it."""
    if len(x) == 0:
        return np.zeros(0) if out is None else out   # dsbmv rejects it
    return dsbmv(ab.shape[0] - 1, 1.0, ab, x, lower=1, y=out, overwrite_y=1)


def solve_banded_spd(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cholesky solve in lower banded storage (see to_banded_lower), by one
    LAPACK pbsv call.

    A Fortran-order ab is overwritten by its Cholesky factor, and a
    contiguous float64 b by the solution, which is returned.
    """
    _, x, info = dpbsv(ab, b, lower=1, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise NotSPDError(f"banded Cholesky failed: pbsv info {info}")
    if info < 0:
        raise ValueError(f"banded Cholesky solve failed: pbsv info {info}")
    return x
