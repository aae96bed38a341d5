"""Reference implementations the tests check the package against.

Each function here computes a quantity by a route independent of the one a
run takes (per-element quadrature, closed-form integrals, variation of
constants), or a diagnostic that no run needs. None of them is reached from
a solve, so they live with the tests instead of in the package. The last
section holds adapters: a package call with the inputs that a run supplies
(a start residual, output vectors, the rows of a load) filled in.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nonlocfem.assembly import (FieldVector, LoadAssembler,
                                NonFiniteFieldError, SparseSymMatrix, _geometry,
                                assemble_stiffness, assembly_degree)
from nonlocfem.basis import reference_basis
from nonlocfem.coefficient import (GuardStatus, NonlocalCoefficient,
                                   evaluate_from_norm_sq)
from nonlocfem.linalg import (BlockJacobi, NotSPDError, SolverConvergenceError,
                              cg_jacobi)
from nonlocfem.mesh import LagrangeSpace
from nonlocfem.quadrature import (MAX_TRIANGLE_DEGREE, gauss_legendre_interval,
                                  reference_rule)


# --- quadrature ---

def reference_measure(dim: int) -> float:
    return 1.0 if dim == 1 else 0.5


def monomial_integral(dim: int, exponents) -> float:
    """Exact integral of a monomial over the reference element.

    Used by the exactness tests: on [0,1] the integral of x^a is 1/(a+1);
    on the reference triangle the integral of x^a y^b is a! b! / (a+b+2)!.
    """
    if dim == 1:
        (a,) = exponents
        return 1.0 / (a + 1)
    a, b = exponents
    num = 1.0
    for i in range(1, a + 1):
        num *= i
    for i in range(1, b + 1):
        num *= i
    den = 1.0
    for i in range(1, a + b + 3):
        den *= i
    return num / den


# --- mesh geometry ---

def mesh_size(mesh) -> float:
    """Recompute the mesh size from the geometry (max element diameter)."""
    verts = mesh.element_vertices()
    if mesh.dim == 1:
        diam = np.abs(verts[:, 1, 0] - verts[:, 0, 0])
    else:
        d01 = np.linalg.norm(verts[:, 1] - verts[:, 0], axis=1)
        d02 = np.linalg.norm(verts[:, 2] - verts[:, 0], axis=1)
        d12 = np.linalg.norm(verts[:, 2] - verts[:, 1], axis=1)
        diam = np.max(np.stack([d01, d02, d12]), axis=0)
    return float(diam.max())


def element_measures(mesh) -> np.ndarray:
    """Length (dim=1) or area (dim=2) of every element."""
    verts = mesh.element_vertices()
    if mesh.dim == 1:
        return np.abs(verts[:, 1, 0] - verts[:, 0, 0])
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    return 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def on_boundary(mesh) -> np.ndarray:
    """Whether each vertex lies on the boundary of the unit interval or
    square, from its coordinates."""
    return ((mesh.vertices == 0.0) | (mesh.vertices == 1.0)).any(axis=1)


def boundary_nodes(space) -> np.ndarray:
    """Whether each node lies on the domain boundary: the nodes that are not
    free."""
    flags = np.ones(space.n_nodes, dtype=bool)
    flags[space.free_node_indices] = False
    return flags


def node_lattice(space) -> np.ndarray:
    """Integer coordinates of each node on the fine lattice of spacing
    (element size)/k, from the node positions."""
    nk = space.mesh.divisions * space.degree
    return np.rint(space.nodes * nk).astype(np.int64)


def edge_interior_pairs(space) -> set:
    """The node indices at 1/3 and 2/3 along every edge of a k = 3 space,
    as frozensets {i, j}, found from the lattice points of the vertices."""
    nk = space.mesh.divisions * space.degree
    index = {tuple(point): i for i, point in enumerate(node_lattice(space))}
    vertices = np.rint(space.mesh.vertices * nk).astype(np.int64)
    pairs = set()
    for simplex in space.mesh.simplexes:
        for a, b in itertools.combinations(vertices[simplex], 2):
            pairs.add(frozenset((index[tuple((2 * a + b) // 3)],
                                 index[tuple((a + 2 * b) // 3)])))
    return pairs


# --- element matrices by per-element quadrature ---

def element_mass_matrix(vertices, k: int) -> np.ndarray:
    """Mass matrix of a single element given its vertex coordinates."""
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    dim = verts.shape[1] if verts.ndim == 2 and verts.shape[1] in (1, 2) else 1
    verts = verts.reshape(dim + 1, dim)
    basis = reference_basis(dim, k)
    rule = reference_rule(dim, assembly_degree(k))
    vals = basis.eval(rule.points)
    ref = np.einsum("iq,jq,q->ij", vals, vals, rule.weights)
    if dim == 1:
        det = abs(verts[1, 0] - verts[0, 0])
    else:
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        det = abs(e1[0] * e2[1] - e1[1] * e2[0])
    return det * ref


def element_stiffness_matrix(vertices, k: int) -> np.ndarray:
    """Stiffness matrix of a single element given its vertex coordinates."""
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    dim = verts.shape[1] if verts.ndim == 2 and verts.shape[1] in (1, 2) else 1
    verts = verts.reshape(dim + 1, dim)
    basis = reference_basis(dim, k)
    rule = reference_rule(dim, assembly_degree(k))
    grads = basis.eval_grad(rule.points)
    if dim == 1:
        J = verts[1, 0] - verts[0, 0]
        det, JinvT = abs(J), np.array([[1.0 / J]])
    else:
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        d = e1[0] * e2[1] - e1[1] * e2[0]
        det = abs(d)
        JinvT = np.array([[e2[1], -e1[1]], [-e2[0], e1[0]]]) / d
    pg = np.einsum("dc,iqc->iqd", JinvT, grads)
    return det * np.einsum("iqd,jqd,q->ij", pg, pg, rule.weights)


def quad_points_physical(mesh, rule):
    """Quadrature point coordinates per element, shape (n_el, n_q, dim)."""
    v0, J, _, _ = _geometry(mesh)
    return v0[:, None, :] + np.einsum("eij,qj->eqi", J, rule.points)


# --- the load of one time ---

def per_step_load(space: LagrangeSpace, f, t, rows=None) -> np.ndarray:
    """The load vector (f(., t), phi_i) of one time, as the stepper computed
    it once per step before loads came in blocks: f at every quadrature
    point for the scalar t, one (n_el, n_q) @ (n_q, n_local) product and one
    np.bincount into the rows (all nodes, or the given node indices)."""
    dim, k = space.mesh.dim, space.degree
    rule = reference_rule(dim, assembly_degree(k))
    vals_t = np.ascontiguousarray(reference_basis(dim, k).eval(rule.points).T)
    _, _, det, _ = _geometry(space.mesh)
    wdet = det[:, None] * rule.weights[None, :]
    points = quad_points_physical(space.mesh, rule).reshape(-1, dim)
    n_rows, dofs = space.n_nodes, space.element_dofs.ravel()
    if rows is not None:
        n_rows = len(rows)
        row_of = np.full(space.n_nodes, n_rows)
        row_of[rows] = np.arange(n_rows)
        dofs = row_of[dofs]
    fvals = np.broadcast_to(np.asarray(f(*points.T, t), dtype=float),
                            (len(points),))
    if not np.isfinite(fvals).all():
        raise NonFiniteFieldError(
            f"forcing returned a non-finite value at t={t}")
    elem = np.dot(wdet * fvals.reshape(wdet.shape), vals_t)
    return np.bincount(dofs, weights=elem.ravel(),
                       minlength=n_rows + 1)[:n_rows]


# --- Ritz projection ---

class SingularSystemError(ValueError):
    """A projection system has no unknowns (every node is a boundary node)."""


def ritz_project(space: LagrangeSpace, grad_u, quad_refinement: int = 0) -> FieldVector:
    """Elliptic projection: (grad W, grad phi_i) = (grad u, grad phi_i) for all i.

    grad_u is called with coordinate arrays and must return du/dx (1D) or a
    pair (du/dx, du/dy) (2D). Diagnostic operation; solved directly.
    """
    if len(space.free_node_indices) == 0:
        raise SingularSystemError("no interior nodes: projection system is empty")
    dim = space.mesh.dim
    k = space.degree
    deg = assembly_degree(k) + max(0, quad_refinement)
    if dim == 2:
        deg = min(deg, MAX_TRIANGLE_DEGREE)
    rule = reference_rule(dim, deg)
    basis = reference_basis(dim, k)
    grads = basis.eval_grad(rule.points)
    _, _, det, JinvT = _geometry(space.mesh)
    pg = np.einsum("edc,iqc->eiqd", JinvT, grads)
    pts = quad_points_physical(space.mesh, rule)
    flat = pts.reshape(-1, dim)
    raw = grad_u(*(flat[:, d] for d in range(dim)))
    comps = [raw] if dim == 1 else list(raw)
    gu = np.stack([np.broadcast_to(np.asarray(g, dtype=float), (len(flat),))
                   for g in comps], axis=-1)
    gu = gu.reshape(pts.shape[0], pts.shape[1], dim)
    wdet = det[:, None] * rule.weights[None, :]
    rhs_elem = np.einsum("eiqd,eqd,eq->ei", pg, gu, wdet)
    rhs = np.zeros(space.n_nodes)
    np.add.at(rhs, space.element_dofs, rhs_elem)

    # the stiffness integrand has degree 2k - 2, which the assembly rule
    # already integrates exactly, so a refined right-hand side needs no
    # refined matrix
    K = assemble_stiffness(space)
    free = space.free_node_indices
    x = np.zeros(space.n_nodes)
    x[free] = spla.spsolve(K.restrict(free).tocsc(), rhs[free])
    return FieldVector(x, space)


# --- norms and the nonlocal coefficient ---

def l2_norm_sq(U: FieldVector, M: SparseSymMatrix) -> float:
    """Squared L2 norm of a discrete function: U^T M U."""
    if M.matrix.shape[0] != len(U.coefficients):
        raise ValueError(f"dimension mismatch: matrix {M.matrix.shape[0]}, "
                         f"vector {len(U.coefficients)}")
    return float(U.coefficients @ (M.matrix @ U.coefficients))


def evaluate(coeff: NonlocalCoefficient, U: FieldVector,
             M_mass: SparseSymMatrix) -> float:
    """a(U) = s^gamma with s = U^T M U.

    s = 0 and gamma < 0 (extinction) yields inf, which check_guards
    classifies as degenerate; s = 0 and gamma > 0 yields 0, which the guards
    report as below the floor. gamma = 0 always yields 1.
    """
    return evaluate_from_norm_sq(coeff, l2_norm_sq(U, M_mass))


def lipschitz_witness(coeff: NonlocalCoefficient, V: FieldVector, W: FieldVector,
                      M_mass: SparseSymMatrix) -> float:
    """|a(V) - a(W)| / ||V - W||_M, the sampled Lipschitz ratio.

    Only meaningful when both squared norms lie inside the guard window;
    raises ValueError on identical inputs (zero denominator).
    """
    diff = FieldVector(V.coefficients - W.coefficients, V.space)
    dist = math.sqrt(l2_norm_sq(diff, M_mass))
    if dist == 0.0:
        raise ValueError("identical inputs: Lipschitz ratio is undefined")
    av = evaluate(coeff, V, M_mass)
    aw = evaluate(coeff, W, M_mass)
    return abs(av - aw) / dist


# --- separated profiles by variation of constants ---

# the profile forcing g in w + alpha w'' = g of the 1D cases (example3's
# profile solves the homogeneous equation)
PROFILE_FORCING = {
    "example1": lambda x: -np.asarray(x, dtype=float) ** 2,
    "example2": lambda x: -math.sqrt(1.5) * np.exp(np.asarray(x, dtype=float)),
}


def w_profile_1d(g, alpha: float, C1: float, C2: float, x, quad_points: int = 64):
    """Variation-of-constants solution of w + alpha w'' = g on x >= 0.

    The inner integrals of g against cos and sin are evaluated by Gauss
    quadrature mapped to [0, x] (exact to roundoff for the smooth g used
    here). Requires alpha > 0.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    sa = math.sqrt(alpha)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    rule = gauss_legendre_interval(2 * quad_points - 1)
    p, wq = rule.points[:, 0], rule.weights
    xi = x_arr[:, None] * p[None, :]
    gv = np.asarray(g(xi), dtype=float)
    Ic = x_arr * np.sum(wq * gv * np.cos(xi / sa), axis=1)
    Is = x_arr * np.sum(wq * gv * np.sin(xi / sa), axis=1)
    out = ((C1 + Ic / sa) * np.sin(x_arr / sa)
           + (C2 - Is / sa) * np.cos(x_arr / sa))
    return out if np.ndim(x) else float(out[0])


def w_profile_2d(A2: float, B2: float, lam: float, alpha: float, x, y):
    """Separated homogeneous profile A2 sin(sqrt(lam/alpha) x) * B2 sin(...y).

    Requires 0 < lam < 1 and alpha > 0 so both frequencies are real.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    wx = math.sqrt(lam / alpha)
    wy = math.sqrt((1.0 - lam) / alpha)
    return A2 * np.sin(wx * np.asarray(x)) * B2 * np.sin(wy * np.asarray(y))


# --- sparse references: the SciPy expressions the assembly used to run ---

def scatter_reference(space: LagrangeSpace, element_matrices) -> sp.csr_matrix:
    """Element matrices summed by COO -> CSR from int64 broadcasts of the
    element dofs, entry (i, j) of element e at (dofs[e, i], dofs[e, j])."""
    dofs = space.element_dofs
    rows = np.broadcast_to(dofs[:, :, None], element_matrices.shape)
    cols = np.broadcast_to(dofs[:, None, :], element_matrices.shape)
    n = space.n_nodes
    return sp.coo_matrix((element_matrices.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n, n)).tocsr()


def restrict_reference(matrix, indices) -> sp.csr_matrix:
    """Rows, then columns, by SciPy fancy indexing."""
    return matrix[indices][:, indices].tocsr()


def symmetry_defect_reference(matrix) -> tuple[float, float]:
    """(|A - A^T|_max, |A|_max) as sparse arithmetic."""
    return abs(matrix - matrix.T).max(), abs(matrix).max()


# --- facts of a run that its record holds once ---

def froze(traj) -> bool:
    """Whether a run was frozen at extinction. The degenerate status is
    absorbing, so that is exactly when its last guard status is degenerate."""
    return traj.guard_status[-1] == GuardStatus.DEGENERATE


# --- solvers ---

def jacobi_cg(A, b, tol, x0, r0, preconditioner=None):
    """CG preconditioned by the diagonal of A alone, z = r / diag A, with
    NumPy reductions: the 2D solve before its edge pairs got 2x2 blocks,
    the reference their iteration counts are held against. Takes
    cg_jacobi's arguments and ignores its preconditioner; r0 is consumed
    the same way, and the result is (x, iterations)."""
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(len(b)), 0
    inv_diag = 1.0 / A.diagonal()
    x, r = np.array(x0, dtype=float), r0
    bound = tol * bnorm
    if np.linalg.norm(r) <= bound:
        return x, 0
    z = inv_diag * r
    p, rz = z.copy(), r @ z
    for it in range(1, 10 * len(b) + 1):
        Ap = A @ p
        curvature = p @ Ap
        if not curvature > 0.0:
            raise NotSPDError(f"nonpositive curvature {curvature:.3e}")
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= bound:
            return x, it
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverConvergenceError(f"Jacobi CG did not reach {tol:g}")


# --- adapters: package calls with what a run supplies filled in ---

def cg(A, b, tol, x0=None):
    """cg_jacobi from x0 (zero if None), with the start's residual b - A x0
    (a copy of b for the zero start) and the Jacobi preconditioner 1 / diag
    A, formed here as a BlockJacobi of M = K = A without pairs at theta = 0,
    which holds exactly 1 / diag A."""
    if x0 is None:
        x0, r0 = np.zeros(len(b)), np.array(b, dtype=float)
    else:
        r0 = b - A @ x0
    none = np.zeros(0, dtype=np.int64)
    preconditioner = BlockJacobi(A, A, none, none).refill(0.0)
    return cg_jacobi(A, b, tol, x0, r0, preconditioner)


def solve_verified(work, theta, rhs, start=((), (), ())):
    """work.solve_verified into new vectors, from the given levels (none by
    default, so CG starts at zero); returns (x, M x, K x)."""
    return work.solve_verified(theta, rhs, start,
                               tuple(np.empty_like(rhs) for _ in range(3)))


def matvecs(work, x):
    """work.matvecs into new vectors; returns (M x, K x)."""
    return work.matvecs(x, (np.empty_like(x), np.empty_like(x)))


def full_load(space: LagrangeSpace) -> LoadAssembler:
    """A load assembler of every node of the space, in node order."""
    return LoadAssembler(space, np.arange(space.n_nodes))
