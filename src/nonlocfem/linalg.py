"""Solvers for the symmetric positive definite systems of each time step.

Two methods: Jacobi-preconditioned conjugate gradients (2D) and a banded
Cholesky factorization (1D node orderings, where the matrices have
bandwidth k). The banded solve is one LAPACK pbsv call on a Fortran-order
lower band, which the factorization overwrites; band_matvec multiplies on
such a band by BLAS sbmv, and both band kernels can write into vectors the
caller holds. How the stepper fills, starts and verifies these solves is
described in stepper.

Every reduction of CG goes through dot, a single-threaded einsum loop, on
purpose: NumPy's @ and norm hand vectors of more than 10 000 entries to
OpenBLAS, which splits them across threads. On a 2-core host that made the
2D step slower, and the split changes the rounding, so results would
depend on the BLAS thread count.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbsv

CG = "conjugate-gradient"
DIRECT_BANDED = "direct-banded"


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
    """a . b of two float vectors by NumPy's einsum loop, on one thread
    whatever the BLAS thread count (not SciPy BLAS ddot either: SciPy runs
    its own OpenBLAS thread pool)."""
    return float(np.einsum("i,i->", a, b))


def cg_jacobi(A: sp.csr_matrix, b: np.ndarray, tol: float, x0: np.ndarray,
              r0: np.ndarray, diagonal: np.ndarray) -> tuple[np.ndarray, int]:
    """Preconditioned CG on a reduced SPD system from the start x0; returns
    (x, iterations).

    r0 is the residual b - A x0 of the start (the stepper forms it from
    products it carries, so the start costs no matrix-vector product) and
    diagonal the diagonal of A. x0 is not modified; r0 is consumed: CG
    updates that float vector in place as its residual. CG stops once its
    recurrence residual (r0 for the start) is within tol ||b||, so it forms
    no b - A x; that residual can drift from the true one (Greenbaum 1997),
    and the caller verifies x. The budget is 10 n iterations. Every
    reduction is dot, so x and the iteration count do not depend on the
    BLAS thread count. A NaN stops CG at once: a non-finite ||b|| raises
    ValueError, a NaN diagonal entry or curvature NotSPDError.
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
    if not np.all(diagonal > 0.0):
        raise NotSPDError("matrix has a nonpositive or NaN diagonal entry")
    inv_diag = 1.0 / diagonal

    x, r = np.array(x0, dtype=float), r0
    if math.sqrt(dot(r, r)) <= bound:
        return x, 0
    z = inv_diag * r
    p = z.copy()
    rz = dot(r, z)
    for it in range(1, limit + 1):
        Ap = A @ p
        curvature = dot(p, Ap)
        if not curvature > 0.0:
            raise NotSPDError(
                f"nonpositive curvature {curvature:.3e} on iteration {it}")
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * Ap
        if math.sqrt(dot(r, r)) <= bound:
            return x, it
        z = inv_diag * r
        rz_new = dot(r, z)
        p = z + (rz_new / rz) * p
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
