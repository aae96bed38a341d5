"""Linearized Crank-Nicolson time stepping.

The first step is a predictor-corrector pair: a solve with the coefficient
frozen at a(U_0) followed by exactly one corrected solve with the
coefficient at the predicted midpoint. Every later step evaluates the
coefficient at the extrapolation (3/2) U_{n-1} - (1/2) U_{n-2}. Every
solve, the predictor included, is one linear SPD system
(M + theta K) x = M u - theta K u + delta F with theta = a delta/2, checked
against its residual by StepWorkspace.solve_verified. In 1D that matrix is
refilled in place on a preallocated lower band and solved by one LAPACK
pbsv call, and every product with M or K (the residual check, the next
level's M u and K u) is BLAS sbmv on their lower bands; the load is
evaluated on the free rows only. In 2D it is filled in place on the
sparsity pattern M and K share, CG solves it from the Galerkin best fit of
the last two levels, and the products are CSR. Every inner product is
linalg.dot, on one thread on purpose, so a trajectory does not depend on
the BLAS thread count (see linalg).

At extinction (zero field with a negative exponent) the coefficient is
undefined; the trajectory is frozen at zero from that step on, matching
the continuation of the exact extinct solutions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dnrm2

from .assembly import (FieldVector, LoadAssembler, SparseSymMatrix,
                       assemble_mass, assemble_stiffness, interpolate)
from .coefficient import (DegenerateCoefficientError, GuardStatus,
                          NonlocalCoefficient, check_guards,
                          evaluate_from_norm_sq)
from .linalg import (DIRECT_BANDED, SolverConvergenceError, band_matvec,
                     cg_jacobi, dot, method_for_dim, solve_banded_spd,
                     to_banded_lower)
from .mesh import LagrangeSpace

logger = logging.getLogger(__name__)

# guard policies, and the default relative residual bound of every solve
WARN = "warn"
ABORT = "abort"
DEFAULT_SOLVER_TOL = 1e-12

# the verified residual is never required below this multiple of
# ||A||_max ||x||, the backward-stable scale attainable in double precision
_FLOOR_EPS = 64.0 * np.finfo(float).eps


class SteppingError(RuntimeError):
    """A step failed; the message carries the step index and time."""


class GuardTripError(RuntimeError):
    """A guard trip occurred under the abort policy."""

    def __init__(self, step_index, t, status, value):
        super().__init__(f"guard {status.value} at step {step_index} "
                         f"(t={t:g}): coefficient {value:g}")
        self.step_index = step_index
        self.t = t
        self.status = status
        self.value = value


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, t_end] into n_steps steps of size delta."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")

    @property
    def delta(self) -> float:
        return self.t_end / self.n_steps

    def time(self, n: int) -> float:
        return n * self.delta

    def nearest_index(self, t: float) -> int:
        return min(max(int(round(t / self.delta)), 0), self.n_steps)


@dataclass
class TrajectorySummary:
    """Outcome of a full run."""

    grid: TimeGrid
    final: FieldVector
    energy_history: list
    coefficient_history: list
    snapshots: dict
    first_guard_trip: tuple | None
    frozen: bool


def galerkin_start(levels, rhs, theta):
    """The point of span{u} closest to the solution of (M + theta K) x = rhs
    in the energy norm of that matrix.

    levels holds (u, M u, K u) of earlier levels, so the Galerkin system
    (2x2 for two levels) costs dot products only, and the start is a linear
    combination of the levels. Eigenvalues below 1e-13 of the largest are
    dropped (a zero or repeated level); with none positive the start is 0.
    The reductions are linalg.dot, independent of the BLAS thread count.
    """
    m = len(levels)
    G = np.empty((m, m))
    for i, (u, _, _) in enumerate(levels):
        for j, (_, mu, ku) in enumerate(levels[:i + 1]):
            G[i, j] = G[j, i] = dot(u, mu) + theta * dot(u, ku)
    lam, V = np.linalg.eigh(G)
    if not lam[-1] > 0.0:
        return np.zeros(len(rhs))
    keep = lam > 1e-13 * lam[-1]
    V = V[:, keep]
    c = V @ ((V.T @ [dot(u, rhs) for u, _, _ in levels]) / lam[keep])
    x = c[0] * levels[0][0]
    for ci, (u, _, _) in zip(c[1:], levels[1:]):
        x += ci * u
    return x


class StepWorkspace:
    """Reduced matrices, banded forms and the load operator of one run.

    The mesh dimension picks the backend (see linalg.method_for_dim);
    solver_tol is the relative residual bound every solve is verified to.
    M and K must share one sparsity pattern (they are scattered from the
    same element dofs), so the system matrix M + theta K is formed entry by
    entry, on their lower bands in 1D and on their CSR data in 2D. Either
    way it is allocated once and refilled in place for every solve.

    In 1D the products with M and K (matvecs) run on the lower bands, so
    the residual check would share a band-conversion error with the solve.
    The build therefore checks the bands once against the CSR matrices on
    a fixed vector v: every entry of band(v) - csr(v) must lie within
    4 (2b + 1) eps (|A| |v|) for bandwidth b, four times the most that two
    roundings of a (2b + 1)-term row sum can differ; otherwise it raises
    ValueError. The load operator is built on the free rows only.
    """

    def __init__(self, space: LagrangeSpace, M: SparseSymMatrix,
                 K: SparseSymMatrix, grid: TimeGrid, forcing=None,
                 solver_tol: float = DEFAULT_SOLVER_TOL,
                 guard_policy: str = WARN):
        if not solver_tol > 0:
            raise ValueError(f"solver_tol must be positive, got {solver_tol}")
        if guard_policy not in (WARN, ABORT):
            raise ValueError(f"unknown guard policy {guard_policy!r}")
        self.grid = grid
        self.solver_tol = solver_tol
        self.guard_policy = guard_policy
        self.free = space.free_node_indices
        self.M_ff = M.restrict(self.free)
        self.K_ff = K.restrict(self.free)
        if not (np.array_equal(self.M_ff.indptr, self.K_ff.indptr)
                and np.array_equal(self.M_ff.indices, self.K_ff.indices)):
            raise ValueError("M and K do not share one sparsity pattern")
        self.use_banded = method_for_dim(space.mesh.dim) == DIRECT_BANDED
        if self.use_banded:
            self.Mb = to_banded_lower(self.M_ff)
            self.Kb = to_banded_lower(self.K_ff)
            _check_band(self.Mb, self.M_ff, "M")
            _check_band(self.Kb, self.K_ff, "K")
            self.ab = np.empty_like(self.Mb)
        else:
            self.A = self.M_ff.copy()
        self.load = None if forcing is None else LoadAssembler(space, self.free)
        self.forcing = forcing
        self._m_scale = abs(self.M_ff.data).max() if self.M_ff.nnz else 0.0
        self._k_scale = abs(self.K_ff.data).max() if self.K_ff.nnz else 0.0

    def load_vector(self, t_mid):
        if self.load is None:
            return None
        return self.load(self.forcing, t_mid)

    def matvecs(self, x):
        """(M x, K x) on the free nodes: sbmv on the bands in 1D, CSR in 2D."""
        if self.use_banded:
            return band_matvec(self.Mb, x), band_matvec(self.Kb, x)
        return self.M_ff @ x, self.K_ff @ x

    def step_rhs(self, theta, mu, ku, F):
        """M u - theta K u + delta F, from M u and K u of the last level."""
        rhs = mu - theta * ku
        if F is not None:
            rhs += self.grid.delta * F
        return rhs

    def _solve_once(self, theta, rhs, levels=()):
        # refilled on every solve, with no matrix-sized temporary: the banded
        # factorization overwrites its band
        if self.use_banded:
            np.multiply(self.Kb, theta, out=self.ab)
            self.ab += self.Mb
            return solve_banded_spd(self.ab, rhs)
        np.multiply(self.K_ff.data, theta, out=self.A.data)
        self.A.data += self.M_ff.data
        x0 = galerkin_start(levels, rhs, theta) if levels else None
        return cg_jacobi(self.A, rhs, self.solver_tol, x0=x0)[0]

    def solve_verified(self, theta, rhs, levels=()):
        """Solve (M + theta K) x = rhs and verify the residual against an
        independently recomputed matvec; returns (x, M x, K x).

        levels holds (u, M u, K u) of earlier levels; CG starts from their
        Galerkin best fit (see galerkin_start).

        A direct solve gets one iterative-refinement pass if needed. The
        acceptance bound never goes below the backward-stable scale
        ||A||_max ||x|| eps attainable in double precision.
        """
        if len(rhs) == 0:
            return rhs.copy(), rhs.copy(), rhs.copy()
        x = self._solve_once(theta, rhs, levels)
        bound = self.solver_tol * max(dnrm2(rhs), 1e-300)
        scale = self._m_scale + theta * self._k_scale
        for attempt in range(2):
            mu_x, ku_x = self.matvecs(x)
            r = rhs - (mu_x + theta * ku_x)
            res = dnrm2(r)
            floor = _FLOOR_EPS * scale * dnrm2(x)
            if res <= max(bound, floor):
                return x, mu_x, ku_x
            if attempt == 0 and self.use_banded:
                x = x + self._solve_once(theta, r)
            else:
                break
        raise SolverConvergenceError(
            f"verified residual {res:.3e} above tolerance {bound:.3e}")


def _check_band(ab, A, name):
    """Raise ValueError unless the lower band ab multiplies like the CSR A
    on a fixed vector, to the bound stated in StepWorkspace."""
    v = np.sin(1.0 + np.arange(A.shape[0]))
    width = 2 * (ab.shape[0] - 1) + 1
    tol = 4.0 * width * np.finfo(float).eps * (abs(A) @ np.abs(v))
    if not np.all(np.abs(band_matvec(ab, v) - A @ v) <= tol):
        raise ValueError(f"the lower band of {name} does not reproduce "
                         f"its CSR matrix-vector product")


def init(space: LagrangeSpace, u0) -> FieldVector:
    """Initial field U_0 = I_h u0 at t = 0."""
    return interpolate(space, u0)


def _coefficient(coeff, s):
    """Coefficient value and guard status from a squared norm; an undefined
    value (extinction with a negative exponent) maps to the degenerate status."""
    try:
        a = evaluate_from_norm_sq(coeff, s)
    except DegenerateCoefficientError:
        return math.inf, GuardStatus.DEGENERATE
    return a, check_guards(a, coeff)


def _first_step_coefficient(work, coeff, u0, mu0, ku0):
    """Corrected coefficient of step 1, its guard status and the load used.

    The predictor is a verified solve with the coefficient frozen at
    a(U_0); the coefficient is then evaluated once at the predicted
    midpoint, whose squared norm (u1 + u0).M(u1 + u0)/4 comes from the
    products that solve returns. A guard trip of a(U_0) aborts under the
    abort policy and is otherwise not recorded; a degenerate a(U_0) is
    returned as is, so the step freezes.
    """
    a0, status0 = _coefficient(coeff, dot(u0, mu0))
    if status0 == GuardStatus.DEGENERATE:
        return a0, status0, None
    if status0 != GuardStatus.OK and work.guard_policy == ABORT:
        raise GuardTripError(1, work.grid.time(1), status0, a0)
    F = work.load_vector(0.5 * work.grid.delta)
    theta0 = 0.5 * a0 * work.grid.delta
    u1, mu1, _ = work.solve_verified(
        theta0, work.step_rhs(theta0, mu0, ku0, F), ((u0, mu0, ku0),))
    a_half, status_half = _coefficient(coeff, 0.25 * dot(u1 + u0, mu1 + mu0))
    return a_half, status_half, F


def run(space: LagrangeSpace, u0, f, coeff: NonlocalCoefficient, grid: TimeGrid,
        solver_tol: float = DEFAULT_SOLVER_TOL, guard_policy: str = WARN,
        snapshot_times=()) -> TrajectorySummary:
    """Full trajectory: init, predictor-corrector, then multistep to t_end.

    f may be None for an unforced problem. Snapshot times are matched to the
    nearest grid time. The loop carries U, M U and K U of the last two
    levels on the free nodes; full-length fields are built only for the
    snapshots and the final field.
    """
    M = assemble_mass(space)
    K = assemble_stiffness(space)
    work = StepWorkspace(space, M, K, grid, forcing=f,
                         solver_tol=solver_tol, guard_policy=guard_policy)
    U0 = init(space, u0)
    free = work.free

    def embed(u_free):
        full = np.zeros(space.n_nodes)
        full[free] = u_free
        return FieldVector(full, space)

    snap_indices = {}
    for t_req in snapshot_times:
        snap_indices.setdefault(grid.nearest_index(t_req), []).append(t_req)
    snapshots = {t_req: (0.0, U0.copy()) for t_req in snap_indices.get(0, [])}

    # levels n-1 and n-2 on the free nodes: u, M u and K u
    u = U0.coefficients[free]
    mu, ku = work.matvecs(u)
    u_old = mu_old = ku_old = None
    energy_history = [(0.0, dot(u, mu))]
    coefficient_history = []
    frozen = False
    for n in range(1, grid.n_steps + 1):
        t = grid.time(n)
        try:
            if frozen:
                a, status = math.inf, GuardStatus.DEGENERATE
            elif n == 1:
                a, status, F = _first_step_coefficient(work, coeff, u, mu, ku)
            else:
                a, status = _coefficient(coeff, dot(1.5 * u - 0.5 * u_old,
                                                    1.5 * mu - 0.5 * mu_old))
            if status != GuardStatus.OK:
                if work.guard_policy == ABORT:
                    raise GuardTripError(n, t, status, a)
                if not coefficient_history \
                        or coefficient_history[-1][2] != status:
                    logger.warning("guard %s at t=%g (coefficient %.3e)",
                                   status.value, t, a)
            coefficient_history.append((t, a, status))
            if status == GuardStatus.DEGENERATE:
                # extinction: the trajectory stays at zero from here on
                frozen = True
                u_new = mu_new = ku_new = np.zeros(len(free))
            else:
                if n > 1:
                    F = work.load_vector(t - 0.5 * grid.delta)
                levels = ((u, mu, ku),) if n == 1 \
                    else ((u, mu, ku), (u_old, mu_old, ku_old))
                theta = 0.5 * a * grid.delta
                u_new, mu_new, ku_new = work.solve_verified(
                    theta, work.step_rhs(theta, mu, ku, F), levels)
        except GuardTripError:
            raise
        except Exception as exc:
            raise SteppingError(f"step {n} at t={t:g}: {exc}") from exc
        u_old, mu_old, ku_old = u, mu, ku
        u, mu, ku = u_new, mu_new, ku_new
        energy_history.append((t, dot(u, mu)))
        if n in snap_indices:
            U = embed(u)
            for t_req in snap_indices[n]:
                snapshots[t_req] = (t, U)

    first_trip = next(((n, t, status) for n, (t, _, status)
                       in enumerate(coefficient_history, 1)
                       if status != GuardStatus.OK), None)
    return TrajectorySummary(grid=grid, final=embed(u),
                             energy_history=energy_history,
                             coefficient_history=coefficient_history,
                             snapshots=snapshots, first_guard_trip=first_trip,
                             frozen=frozen)
