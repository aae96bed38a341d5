"""Linearized Crank-Nicolson time stepping.

The first step is a predictor-corrector pair: a solve with the coefficient
frozen at a(U_0) followed by exactly one corrected solve with the
coefficient at the predicted midpoint. Every later step evaluates the
coefficient at the extrapolation (3/2) U_{n-1} - (1/2) U_{n-2}.

Every solve, the predictor included, is one linear SPD system
(M + theta K) x = M u - theta K u + delta F with theta = a delta/2, and a
StepWorkspace holds what the solves of one run need. The mesh dimension
picks the backend (linalg.method_for_dim) once, when the workspace is
built: one object that stores M, K and the system matrix its own way,
solves, and multiplies by M and K, so nothing after the build branches on
the dimension. M and K share one sparsity pattern, so the system matrix is
allocated once and refilled in place, entry by entry, by the workspace's
one multiply-add for every solve. In 1D it is a lower band solved by one
LAPACK pbsv call, and every product with M or K (the verify, the next
level's M u and K u) is BLAS sbmv on their lower bands. In 2D it is CSR
data, CG solves it from the Galerkin best fit of the last few levels
(galerkin_start says how many, how and which it drops), and the products
are CSR. CG's preconditioner is block Jacobi (linalg.BlockJacobi): at
k = 3 the two free nodes inside each interior edge form a 2x2 block of
M + theta K and every other unknown a 1x1 block, so at k <= 2 it is the
Jacobi 1 / diag. The CG backend builds it once from M, K and the free rows
of the edge pairs, and it alone holds the block layout: every solve
refills it from theta, with no renumbering of the unknowns. Every
solution is verified against its residual, recomputed from independent
products with M and K; that verify is the only acceptance check of a
solve, and a miss gets one refinement pass before the solve is refused.
The loads are evaluated on the free rows, a block of steps per call
(LoadAssembler fixes how many), and the right-hand side and the verify's
residual are vectors the workspace reuses, so a banded step allocates no
vector.

run carries u, M u and K u of the last _START_LEVELS levels as rows of
one array, and a new level overwrites the oldest (pbsv and sbmv write
into the rows themselves), so nothing is moved or reallocated per level.
Every per-step scalar then comes from one single-threaded einsum of the u
rows of the two newest levels against their M u rows: the energy
U_n.M U_n, the extrapolated norm
2.25 E_n - 0.75 (u_n.M u_{n-1} + u_{n-1}.M u_n) + 0.25 E_{n-1} and the
cross term of the two levels. Every solve gets the rows of all levels,
newest first, as its start on both backends: CG starts from their
Galerkin best fit, the banded solve ignores them. No reduction is split
across BLAS threads (CG's are ddot calls on chunks below the size from
which OpenBLAS splits one; see linalg), so a trajectory does not depend
on the BLAS thread count.

At extinction the coefficient is infinite, and the trajectory is frozen
at zero from that step on, matching the continuation of the exact extinct
solutions: the step that freezes zeroes the levels and ends the stepping,
since the rest of the run's record already reads degenerate (a = inf,
energy 0), and every snapshot not yet taken is the zero final field.
That happens at a zero field with a negative exponent, where
the value is inf and check_guards classifies it as degenerate, and also
once a gamma < 0 trajectory rings on an unforced step: when delta F
is None or exactly zero on the free rows, theta dim pi^2 > 1 and the two
levels have a negative M-inner product. Unforced, s = ||u||^2 obeys
ds/dt = -2 a(u) ||grad u||^2 <= -2 lambda_1 s^(1 + gamma), so for
gamma < 0 it reaches zero in finite time. Galerkin eigenvalues of the
conforming spaces here bound the first Laplace eigenvalue
lambda_1 = dim pi^2 from above, so theta dim pi^2 > 1 makes the
Crank-Nicolson factor (1 - theta lambda)/(1 + theta lambda) of every
discrete mode negative: the step can no longer represent a decay, and for
gamma < 0 a large theta means a vanishing norm. A forcing that stays on
can hold the norm up: the steady state u* = K^-1 F / a*, which the scheme
keeps exactly, is positive, and a coarse step rings on the way to it, so a
forced step is never frozen. A guard trip is checked against the policy
first: abort raises GuardTripError, and warn logs one message, the error's
text (the step, t and the coefficient) with the freeze's reason, on the
first step of each run of one non-ok status.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dnrm2

from .assembly import (FieldVector, LoadAssembler, SparseSymMatrix,
                       assemble_mass, assemble_stiffness, interpolate)
from .coefficient import (GuardStatus, NonlocalCoefficient, check_guards,
                          evaluate_from_norm_sq)
from .linalg import (DIRECT_BANDED, BlockJacobi, SolverConvergenceError,
                     band_matvec, cg_jacobi, dot, method_for_dim,
                     solve_banded_spd, to_banded_lower)
from .mesh import LagrangeSpace, edge_node_pairs

logger = logging.getLogger(__name__)

# guard policies, and the default relative residual bound of every solve
WARN = "warn"
ABORT = "abort"
DEFAULT_SOLVER_TOL = 1e-12

# the verified residual is never required below this multiple of
# ||A||_max ||x||, the backward-stable scale attainable in double precision
_FLOOR_EPS = 64.0 * np.finfo(float).eps

# run carries the last _START_LEVELS levels, and CG starts from them (the
# banded solve ignores the start); galerkin_start states when it drops a
# level, by _START_DROP, _START_LEAST and _START_SHARE
_START_LEVELS = 4
_START_DROP = 1e-13
_START_LEAST = np.finfo(float).tiny
_START_SHARE = 1e-2


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
    """Outcome of a full run: the final field, the snapshots and one
    record of the steps, by columns on the run's grid. energy[n] is
    ||U_n||^2_M for n = 0..n_steps, and coefficient[n - 1] and
    guard_status[n - 1] are a and its status of step n = 1..n_steps; the
    time of level n is grid.time(n). The degenerate status is absorbing
    (a = inf and energy 0 from the step that froze on), so a run was
    frozen at extinction exactly when its last status is degenerate."""

    final: FieldVector
    grid: TimeGrid
    energy: np.ndarray
    coefficient: np.ndarray
    guard_status: list
    snapshots: dict

    @property
    def coefficient_history(self) -> list:
        """(t, coefficient, guard status) of every step, read from the
        columns (the benchmark's per-layer counters read it)."""
        return [(self.grid.time(n), a, status) for n, (a, status)
                in enumerate(zip(self.coefficient.tolist(),
                                 self.guard_status), 1)]

    @property
    def first_guard_trip(self) -> tuple | None:
        """(step, t, status) of the first step whose guard status is not
        ok, or None."""
        return next(((n, self.grid.time(n), status) for n, status
                     in enumerate(self.guard_status, 1)
                     if status != GuardStatus.OK), None)


def galerkin_start(u, mu, ku, rhs, theta, tol):
    """The point of the span of the levels closest to the solution of
    (M + theta K) x = rhs in the energy norm of that matrix, and its
    residual: returns (x, rhs - (M + theta K) x).

    u holds earlier levels, newest first, and mu and ku their products with
    M and K; a run carries the last _START_LEVELS, the count that gave the
    shortest example3 run (ROADMAP "Ruled out" has the measurements). This
    is the one description of the start. The levels of a run are nearly
    parallel (on example3 at n = 48 the last two differ by 6e-9 to 3e-7 in
    the energy norm), so their Gram matrix
    u_i.(M + theta K) u_j, formed from inner products, is singular to
    roundoff and loses every direction but the first. Instead the levels
    are made orthogonal in the energy inner product (Fischer, CMAME 163,
    1998): each level, with A u_i = M u_i + theta K u_i from the carried
    products, is orthogonalized twice, one kept level after the other,
    against the levels already kept ("twice is enough", Giraud, Langou &
    Rozloznik 2005), its A-product updated by the same steps as itself.
    (Classical Gram-Schmidt, which takes a pass's coefficients against all
    kept levels at once, lets the residual below drift from rhs - A x from
    five levels on.) Then x = sum_i (w_i.rhs) w_i and residual =
    rhs - sum_i (w_i.rhs) A w_i over the kept remainders w_i, normalized in
    the energy norm, so the start needs no matrix-vector product, and every
    reduction is linalg.dot (ddot on chunks of at most 8 192 entries, below
    the 10 000 from which OpenBLAS splits a ddot across threads) or
    einsum, on one thread whatever the BLAS thread count.

    A level is dropped when its remainder w, orthogonal to the levels kept
    before it, has an energy norm of at most _START_DROP of its own, or a
    squared norm below _START_LEAST (too few digits to normalize by), or
    when an estimate of the rounding that its term adds to the residual
    exceeds _START_SHARE of the verify bound tol ||rhs||. w is a difference of
    nearly equal vectors, so each entry of w and of A w carries a rounding
    error of a few eps of the level's own size: below _START_DROP its
    direction is noise (a zero or repeated level). Normalizing w multiplies
    that error by sqrt(own / norm_sq), own and norm_sq the squared energy
    norms of the level and of w. The term (w.rhs) A w of the residual, w
    normalized, then moves by about eps sqrt(own / norm_sq) |w.rhs| ||A w||.
    That is the level's term eps beta_i W |u_i| of the entrywise rounding
    bound of the residual (W = |M| + theta |K|), with the level's weight
    beta_i = |w.rhs| / sqrt(norm_sq) and sqrt(own) ||A w|| for the size of
    W |u_i|. CG trusts this residual and stops on its recurrence, so a level
    that moved it by a share of the bound would make the verify refine.

    The estimate is not a bound on that gap: it leaves out the rounding of
    the carried products M u and K u (CSR row sums of up to 37 terms at
    k = 3), and a ringing step makes ||rhs|| small against
    |M| |u| + theta |K| |u|, so the gap can exceed the share; ROADMAP
    "Ruled out" has the measured gaps, in runs that never refined. With no
    level kept the start is 0 and its residual rhs.
    """
    n = len(rhs)
    w, aw = np.empty((len(u), n)), np.empty((len(u), n))  # kept, unnormalized
    norm_sq, weight = [], []   # w_i.A w_i and (w_i.rhs) / (w_i.A w_i)
    scratch = np.empty(n)
    budget = (_START_SHARE * tol * math.sqrt(dot(rhs, rhs))
              / np.finfo(float).eps)
    for u_i, mu_i, ku_i in zip(u, mu, ku):
        k = len(norm_sq)
        w_k, aw_k = w[k], aw[k]
        np.multiply(ku_i, theta, out=aw_k)
        aw_k += mu_i
        own = dot(u_i, aw_k)
        if not own > _START_LEAST:
            continue
        np.copyto(w_k, u_i)
        for _ in range(2 if k else 0):
            for w_l, aw_l, norm_sq_l in zip(w, aw, norm_sq):
                c = dot(aw_l, w_k) / norm_sq_l
                w_k -= np.multiply(w_l, c, out=scratch)
                aw_k -= np.multiply(aw_l, c, out=scratch)
        remainder = dot(w_k, aw_k)
        if not remainder > max(_START_DROP ** 2 * own, _START_LEAST):
            continue
        p = dot(w_k, rhs)
        if (math.sqrt(own / remainder) * abs(p) / math.sqrt(remainder)
                * math.sqrt(dot(aw_k, aw_k) / remainder) > budget):
            continue
        norm_sq.append(remainder)
        weight.append(p / remainder)
    x = np.einsum("i,ij->j", weight, w[:len(weight)])
    residual = np.einsum("i,ij->j", weight, aw[:len(weight)], out=scratch)
    np.subtract(rhs, residual, out=residual)
    return x, residual


class _BandedBackend:
    """The 1D solves. m, k and a hold M, K and A = M + theta K as lower
    bands (linalg.to_banded_lower); a solve is one pbsv, which overwrites a
    and ignores the start, and the products are sbmv on the bands.

    The verify multiplies on the same bands the solve uses, so it would
    share a band-conversion error with the solve. The build therefore checks
    the bands once against the CSR matrices on a fixed vector v: every
    entry of band(v) - csr(v) must lie within 4 (2b + 1) eps (|A| |v|) for
    bandwidth b, four times the most that two roundings of a (2b + 1)-term
    row sum can differ; otherwise it raises ValueError.
    """

    def __init__(self, M, K):
        self.m, self.k = to_banded_lower(M), to_banded_lower(K)
        v = np.sin(1.0 + np.arange(M.shape[0]))
        for ab, A, name in ((self.m, M, "M"), (self.k, K, "K")):
            width = 2 * (ab.shape[0] - 1) + 1
            tol = 4.0 * width * np.finfo(float).eps * (abs(A) @ np.abs(v))
            if not np.all(np.abs(band_matvec(ab, v) - A @ v) <= tol):
                raise ValueError(f"the lower band of {name} does not "
                                 f"reproduce its CSR matrix-vector product")
        self.a = np.empty_like(self.m)

    def matvecs(self, x, out):
        return band_matvec(self.m, x, out[0]), band_matvec(self.k, x, out[1])

    def solve(self, theta, rhs, x, start):
        np.copyto(x, rhs)
        return solve_banded_spd(self.a, x)


class _CGBackend:
    """The 2D solves. m, k and a are the CSR data of M, K and
    A = M + theta K, all three on M's index arrays, which A shares, not
    copies; a solve is CG from the Galerkin start (galerkin_start),
    preconditioned by BlockJacobi, and the products are CSR. BlockJacobi is
    built once from M, K and the free rows of the edge pairs.
    """

    def __init__(self, space, M, K, tol):
        self.M, self.K, self.tol = M, K, tol
        self.A = type(M)((np.empty_like(M.data), M.indices, M.indptr),
                         shape=M.shape)
        self.m, self.k, self.a = M.data, K.data, self.A.data
        # the edge pairs' free rows; pairs with a boundary node drop out
        row_of = np.full(space.n_nodes, -1)
        row_of[space.free_node_indices] = np.arange(M.shape[0])
        pairs = row_of[edge_node_pairs(space)]
        first, second = pairs[(pairs >= 0).all(axis=1)].T
        self.preconditioner = BlockJacobi(M, K, first, second)

    def matvecs(self, x, out):
        out[0][:], out[1][:] = self.M @ x, self.K @ x
        return out

    def solve(self, theta, rhs, x, start):
        preconditioner = self.preconditioner.refill(theta)
        x0, r0 = galerkin_start(*start, rhs, theta, self.tol)
        x[:] = cg_jacobi(self.A, rhs, self.tol, x0, r0, preconditioner)[0]
        return x


class StepWorkspace:
    """The backend, the loads and the reused vectors of one run's solves
    (the module docstring describes them).

    solver_tol is the relative residual bound every solve is verified to,
    in (0, 1) (ValueError otherwise): at 1 or above, x = 0 would pass the
    verify for every right-hand side.
    M and K must share one sparsity pattern (they are scattered from the
    same element dofs); otherwise the build raises ValueError. They are
    restricted to the free nodes together, in one pass, onto one pair of
    index arrays, and the 2D system matrix is built on those too, so the
    run holds one copy of the pattern. The mesh dimension picks the backend
    (linalg.method_for_dim), once: _BandedBackend in 1D, _CGBackend in 2D.
    A backend keeps the storage of M, K and A = M + theta K as three arrays
    m, k and a, which _solve_once refills as a = k theta + m;
    solve(theta, rhs, x, start) then solves into x and returns it, and
    matvecs(x, out) writes M x and K x into out = (mx, kx), two contiguous
    vectors, and returns them.
    """

    def __init__(self, space: LagrangeSpace, M: SparseSymMatrix,
                 K: SparseSymMatrix, grid: TimeGrid, forcing=None,
                 solver_tol: float = DEFAULT_SOLVER_TOL):
        if not 0 < solver_tol < 1:
            raise ValueError(f"solver_tol must lie in (0, 1), got {solver_tol}")
        self.grid, self.solver_tol = grid, solver_tol
        self.free = space.free_node_indices
        self.M_ff, self.K_ff = M.restrict(self.free, K)
        if method_for_dim(space.mesh.dim) == DIRECT_BANDED:
            self.backend = _BandedBackend(self.M_ff, self.K_ff)
        else:
            self.backend = _CGBackend(space, self.M_ff, self.K_ff, solver_tol)
        self.load = None if forcing is None else LoadAssembler(space, self.free)
        self.forcing = forcing
        self._loads = None
        self._loads_from = self._loads_end = 1   # the steps _loads holds
        n_free = len(self.free)
        self._rhs = np.empty(n_free)          # step_rhs's result
        self._residual = np.empty(n_free)     # the verify's rhs - A x
        self._m_scale, self._k_scale = (
            max(A.data.max(), -A.data.min()) if A.nnz else 0.0
            for A in (self.M_ff, self.K_ff))

    def scaled_load(self, n):
        """delta F of step n (1-based) on the free rows, or None if unforced.

        F is the load at the step's midpoint n delta - delta/2 (exactly
        delta/2 for step 1). A miss computes the loads of steps n to
        n + load.block - 1 (to the last step at most) in one call, the
        block that LoadAssembler fixes at its build.
        """
        if self.load is None:
            return None
        if not self._loads_from <= n < self._loads_end:
            delta = self.grid.delta
            steps = np.arange(n, min(n + self.load.block, self.grid.n_steps + 1))
            self._loads = None      # freed before the next block is built
            self._loads = self.load(self.forcing, steps * delta - 0.5 * delta)
            self._loads *= delta
            self._loads_from, self._loads_end = n, n + len(steps)
        return self._loads[n - self._loads_from]

    def step_rhs(self, theta, mu, ku, dF):
        """M u - theta K u + delta F, from M u and K u of the last level and
        dF = delta F (None if unforced).

        The result is the workspace's right-hand-side vector, valid until the
        next call overwrites it."""
        rhs = np.multiply(ku, -theta, out=self._rhs)
        rhs += mu
        if dF is not None:
            rhs += dF
        return rhs

    def _solve_once(self, theta, rhs, x, start):
        # the one refill of A = theta K + M, in place, with no matrix-sized
        # temporary; the backend solves into x
        backend = self.backend
        np.multiply(backend.k, theta, out=backend.a)
        backend.a += backend.m
        return backend.solve(theta, rhs, x, start)

    def solve_verified(self, theta, rhs, start, out):
        """Solve (M + theta K) x = rhs, verify the residual against an
        independently recomputed matvec, and write x, M x and K x into
        out, three contiguous vectors; returns out.

        start = (u, M u, K u) holds earlier levels, newest first, and their
        products: CG starts from their Galerkin best fit (galerkin_start),
        the banded solve ignores them. The bound never goes below the
        backward-stable scale ||A||_max ||x|| eps attainable in double
        precision; ||x|| is computed only for a residual above
        solver_tol ||rhs||. A miss gets one refinement pass (the same solve
        on the residual, started from no levels, so CG starts at zero), then
        SolverConvergenceError. The residual goes into the workspace's
        residual vector, so rhs must not be that vector.
        """
        if len(rhs) == 0:
            return out
        x = self._solve_once(theta, rhs, out[0], start)
        bound = self.solver_tol * max(dnrm2(rhs), 1e-300)
        scale = self._m_scale + theta * self._k_scale
        for attempt in range(2):
            mu_x, ku_x = self.backend.matvecs(x, out[1:])
            r = np.multiply(ku_x, theta, out=self._residual)
            r += mu_x
            np.subtract(rhs, r, out=r)
            res = dnrm2(r)
            if res <= bound or res <= _FLOOR_EPS * scale * dnrm2(x):
                if x is not out[0]:
                    np.copyto(out[0], x)
                return out
            if attempt == 0:
                x = x + self._solve_once(theta, r, r, ((), (), ()))
        raise SolverConvergenceError(
            f"verified residual {res:.3e} above tolerance {bound:.3e}")


def init(space: LagrangeSpace, u0) -> FieldVector:
    """Initial field U_0 = I_h u0 at t = 0."""
    return interpolate(space, u0)


def _coefficient(coeff, s):
    """Coefficient value and guard status from a squared norm; extinction
    with a negative exponent is an infinite value, which check_guards
    classifies as degenerate."""
    a = evaluate_from_norm_sq(coeff, s)
    return a, check_guards(a, coeff)


def run(space: LagrangeSpace, u0, f, coeff: NonlocalCoefficient, grid: TimeGrid,
        solver_tol: float = DEFAULT_SOLVER_TOL, guard_policy: str = WARN,
        snapshot_times=()) -> TrajectorySummary:
    """Full trajectory: init, predictor-corrector, then multistep to t_end.

    f may be None for an unforced problem. Snapshot times are matched to the
    nearest grid time, with a warning for one that is not on the grid, and
    snapshots maps each requested time to (grid time, field). A snapshot is
    taken when a step starts from its level; one the stepping never starts
    from is the final field (the last level, or zero after a freeze).
    Full-length fields are built only for the snapshots and the final field.
    """
    if guard_policy not in (WARN, ABORT):
        raise ValueError(f"unknown guard policy {guard_policy!r}")
    M = assemble_mass(space)
    K = assemble_stiffness(space)
    work = StepWorkspace(space, M, K, grid, forcing=f, solver_tol=solver_tol)
    U0 = init(space, u0)
    free = work.free
    delta = grid.delta

    def embed(u_free):
        full = np.zeros(space.n_nodes)
        full[free] = u_free
        return FieldVector(full, space)

    snap_indices = {}
    for t_req in snapshot_times:
        index = grid.nearest_index(t_req)
        if abs(grid.time(index) - t_req) > 1e-9 * delta:
            logger.warning("snapshot time %g is not on the time grid; it is "
                           "taken at t=%r", t_req, grid.time(index))
        snap_indices.setdefault(index, []).append(t_req)

    # level l is u = rows[l], M u = rows[L + l] and K u = rows[2 L + l] for
    # the L carried levels, and a new level overwrites the oldest. When
    # level c is the newest, starts[c] holds the u, M u and K u rows of every
    # level, newest first, and newest[c] views the u and M u rows of c and
    # of the level before it, in that order (rows 0 and L - 1 by a stride of
    # L - 1, else rows c and c - 1 by a stride of -1); reduce(c) gives
    # R[i][j] = u_i.M u_j of those two as Python floats, R[0][0] the energy
    # of the newest.
    L = _START_LEVELS
    rows = np.zeros((3 * L, len(free)))
    levels = [(rows[i], rows[L + i], rows[2 * L + i]) for i in range(L)]
    starts = [tuple(zip(*(levels[(c - j) % L] for j in range(L))))
              for c in range(L)]
    newest = [(rows[:L][two], rows[L:2 * L][two])
              for two in [slice(0, None, L - 1), slice(1, None, -1)]
              + [slice(c, c - 2, -1) for c in range(2, L)]]

    def reduce(c):
        return np.einsum("ij,kj->ik", *newest[c]).tolist()

    def solve(theta, c, dF, start):
        # the next level from level c, written over the oldest, the one
        # after c; starts[start] is its start. Returns the new level.
        _, mu, ku = levels[c]
        rhs = work.step_rhs(theta, mu, ku, dF)
        new = c + 1 if c + 1 < L else 0
        work.solve_verified(theta, rhs, starts[start], levels[new])
        return new

    # the record reads degenerate until a step writes it, so a run that
    # freezes leaves its tail as it is
    energy = np.zeros(grid.n_steps + 1)
    coefficient = np.full(grid.n_steps, math.inf)
    guard_status = [GuardStatus.DEGENERATE] * grid.n_steps
    taken = {}     # level index -> its snapshot field
    c = 0      # the newest level
    # U0 is zero on the boundary, as embed leaves it
    rows[0] = U0.coefficients[free]
    work.backend.matvecs(rows[0], (rows[L], rows[2 * L]))
    R = reduce(c)
    energy[0] = R[0][0]
    stiffness_per_a = 0.5 * delta * space.mesh.dim * math.pi ** 2
    for n in range(1, grid.n_steps + 1):
        if n - 1 in snap_indices:
            taken[n - 1] = embed(rows[c])
        t = grid.time(n)
        reason = ""
        try:
            if n == 1:
                # predictor: a(U_0) frozen, solved into level 1; the
                # corrector's coefficient is taken at the predicted midpoint,
                # and its start has the predictor first
                a, status = _coefficient(coeff, R[0][0])
                if status != GuardStatus.DEGENERATE:
                    if status != GuardStatus.OK and guard_policy == ABORT:
                        raise GuardTripError(1, t, status, a)
                    theta = 0.5 * a * delta
                    R = reduce(solve(theta, c, work.scaled_load(1), c))
                    a, status = _coefficient(
                        coeff, 0.25 * (R[0][0] + R[0][1] + R[1][0] + R[1][1]))
            else:
                a, status = _coefficient(coeff, 2.25 * R[0][0]
                                         - 0.75 * (R[0][1] + R[1][0])
                                         + 0.25 * R[1][1])
                # np.any(None) is False: an unforced step has no load or a
                # zero one (the load is not held across steps, so a block's
                # memory is freed before the next block is built)
                if (coeff.gamma < 0.0 and status != GuardStatus.DEGENERATE
                        and a * stiffness_per_a > 1.0 and R[0][1] < 0.0
                        and not np.any(work.scaled_load(n))):
                    cosine = R[0][1] / math.sqrt(max(R[0][0] * R[1][1], 1e-300))
                    reason = (f"; an unforced step with theta*dim*pi^2 = "
                              f"{a * stiffness_per_a:.3g} > 1 and an M-cosine "
                              f"of the last two levels of {cosine:.4f} < 0")
                    a, status = math.inf, GuardStatus.DEGENERATE
            if status != GuardStatus.OK:
                if guard_policy == ABORT:
                    raise GuardTripError(n, t, status, a)
                if status == GuardStatus.DEGENERATE:
                    reason += "; the field is frozen at zero"
                if n == 1 or guard_status[n - 2] != status:
                    logger.warning("%s%s", GuardTripError(n, t, status, a),
                                   reason)
            coefficient[n - 1], guard_status[n - 1] = a, status
            if status == GuardStatus.DEGENERATE:
                # extinction: the trajectory stays at zero from here on
                rows[:] = 0.0
                break
            theta = 0.5 * a * delta
            # the corrector overwrites the predictor, level 1
            c = solve(theta, c, work.scaled_load(n), 1 if n == 1 else c)
            R = reduce(c)
            energy[n] = R[0][0]
        except GuardTripError:
            raise
        except Exception as exc:
            raise SteppingError(f"step {n} at t={t:g}: {exc}") from exc

    final = embed(rows[c])
    snapshots = {t_req: (grid.time(index), taken.get(index, final))
                 for index, requested in snap_indices.items()
                 for t_req in requested}
    return TrajectorySummary(final=final, grid=grid, energy=energy,
                             coefficient=coefficient,
                             guard_status=guard_status, snapshots=snapshots)
