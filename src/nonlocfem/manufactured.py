"""Closed-form solutions built by separation of variables u = w(x) l(t).

The time factor solves l' = -l^(2*gamma+1); the profile solves
w + alpha * Lap(w) = g with the scalar alpha fixed by the self-consistency
equation alpha = (integral of w(., alpha)^2)^gamma. Each shipped case is
one ManufacturedCase entry of _CASES; make_case resolves its alpha, and
w, l, u = w l and u0 = u(., 0) follow from it the same way for every case.

Alpha is re-solved at construction time (never hard-coded) by bracketed
root finding on alpha - G(alpha); the known decimals are asserted in tests.
All closed forms return exactly 0 on the domain boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .quadrature import gauss_legendre_interval

# Gauss-Legendre points per direction for the self-consistency integrals,
# and the iteration budget and default tolerance of the alpha root search
_QUAD_POINTS = 64
_ALPHA_MAX_ITERATIONS = 200
ALPHA_TOLERANCE = 1e-15


class RootBracketError(ValueError):
    """The residual does not change sign over the supplied bracket."""


class AlphaSolveError(RuntimeError):
    """The fixed-point iteration budget was exhausted."""


@dataclass(frozen=True)
class ManufacturedCase:
    """One explicit-solution configuration; alpha is nan until make_case
    resolves it."""

    case_id: str
    dim: int
    gamma: float
    C: float                       # offset of the time factor l_of_t
    bracket: tuple[float, float]   # alpha search bracket
    profile: Callable              # profile(alpha, *x) before the boundary clamp
    f: Callable | None             # PDE forcing; None when identically zero
    # resolution, step and horizon of the reference experiments
    default_t_end: float
    default_k: int
    default_n: int
    default_delta: float
    fixed_point_profile: Callable | None = None  # G's integrand, if not profile
    alpha: float = math.nan

    @property
    def t_max(self) -> float:
        """Validity horizon: the extinction time C when gamma < 0, else inf."""
        return self.C if self.gamma < 0.0 else math.inf

    def w(self, *x):
        """Spatial profile, vanishing on the boundary."""
        x = [np.asarray(xi, dtype=float) for xi in x]
        return _clamp(self.profile(self.alpha, *x), x)

    def l(self, t):
        """Time factor."""
        return l_of_t(self.gamma, self.C, t)

    def u(self, *xt):
        """u(x[, y], t) = w * l."""
        return self.w(*xt[:-1]) * self.l(xt[-1])

    def u0(self, *x):
        """Initial datum u(., 0)."""
        return self.u(*x, 0.0)


def l_of_t(gamma: float, C: float, t):
    """Separated time factor l(t) = (2*gamma*(t - C))^(-1/(2*gamma)).

    For gamma < 0 the positive-part form [2|gamma|(C - t)]_+^(1/(2|gamma|))
    is returned, which is zero beyond the extinction time t = C. gamma = 0
    is rejected (the classical heat equation has its own solutions).
    """
    if gamma == 0.0:
        raise ValueError("gamma must be nonzero for the separated time factor")
    t_arr = np.asarray(t, dtype=float)
    if gamma > 0.0:
        arg = 2.0 * gamma * (t_arr - C)
        if np.any(arg <= 0.0):
            raise ValueError(f"time factor undefined at t <= C = {C}")
        out = arg ** (-1.0 / (2.0 * gamma))
    else:
        mag = -2.0 * gamma * (C - t_arr)
        out = np.maximum(mag, 0.0) ** (-1.0 / (2.0 * gamma))
    return out if out.ndim else float(out)


def solve_alpha(G, bracket, tolerance=ALPHA_TOLERANCE) -> float:
    """Root of alpha - G(alpha) on the bracket, by bisection with secant steps.

    Guaranteed to keep a sign-changing bracket; a secant candidate is used
    whenever it falls strictly inside the current bracket, with a bisection
    fallback when progress stalls. Returns alpha with
    |alpha - G(alpha)| <= tolerance. A bracket without 0 < lo < hi or a
    tolerance that is not positive raises ValueError.
    """
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise ValueError(f"bracket must satisfy 0 < lo < hi, got {bracket}")
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    f_lo = lo - G(lo)
    f_hi = hi - G(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise RootBracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={f_lo:.3e}, f(hi)={f_hi:.3e}")

    last_side = 0
    for _ in range(_ALPHA_MAX_ITERATIONS):
        width = hi - lo
        denom = f_hi - f_lo
        mid = lo + 0.5 * width
        if denom != 0.0:
            secant = lo - f_lo * width / denom
            # reject candidates outside or hugging the bracket, and force a
            # bisection when the same endpoint was replaced twice in a row
            if (lo + 1e-3 * width < secant < hi - 1e-3 * width
                    and abs(last_side) < 2):
                mid = secant
        f_mid = mid - G(mid)
        if abs(f_mid) <= tolerance:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
            last_side = max(1, last_side + 1)
        else:
            hi, f_hi = mid, f_mid
            last_side = min(-1, last_side - 1)
    raise AlphaSolveError(
        f"no convergence to |alpha - G(alpha)| <= {tolerance:g} "
        f"in {_ALPHA_MAX_ITERATIONS} iterations")


def _ex1_profile(alpha, x):
    sa = math.sqrt(alpha)
    C1 = (1.0 - 2.0 * alpha + 2.0 * alpha * math.cos(1.0 / sa)) / math.sin(1.0 / sa)
    return (C1 * np.sin(x / sa) - 2.0 * alpha * np.cos(x / sa)
            - x * x + 2.0 * alpha)


def _ex1_forcing(x, t):
    x = np.asarray(x, dtype=float)
    return x * x / (np.asarray(t) + 1.0) ** 2


_EX2_G_SCALE = math.sqrt(1.5)   # g = -_EX2_G_SCALE e^x


def _ex2_profile(alpha, x):
    sa = math.sqrt(alpha)
    A = _EX2_G_SCALE / (alpha + 1.0)
    B = (_EX2_G_SCALE * (math.e - math.cos(1.0 / sa))
         / ((alpha + 1.0) * math.sin(1.0 / sa)))
    return B * np.sin(x / sa) + A * np.cos(x / sa) - A * np.exp(x)


def _ex2_forcing(x, t):
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.exp(x) * np.sqrt(np.maximum(1.0 - t, 0.0))


_EX3_AMPLITUDE = (8.0 / math.pi ** 2) ** 0.25


def _ex3_profile(alpha, x, y, omega_y=math.pi):
    return _EX3_AMPLITUDE * np.sin(math.pi * x) * np.sin(omega_y * y)


_CASES = {case.case_id: case for case in (
    ManufacturedCase(
        "example1", dim=1, gamma=0.5, C=-1.0, bracket=(0.1, 0.3),
        profile=_ex1_profile, f=_ex1_forcing, default_t_end=10.0,
        default_k=2, default_n=100, default_delta=1e-3),
    ManufacturedCase(
        "example2", dim=1, gamma=-1.0 / 3.0, C=1.0, bracket=(0.1, 0.12),
        profile=_ex2_profile, f=_ex2_forcing, default_t_end=2.0,
        default_k=2, default_n=100, default_delta=1e-3),
    # G takes the y-frequency sqrt(1/alpha - pi^2) from the separation
    # constant, which is pi only at the exact root; the bracket is tight
    # because G crosses the diagonal more than once
    ManufacturedCase(
        "example3", dim=2, gamma=2.0, C=-0.25, bracket=(0.045, 0.055),
        profile=_ex3_profile, f=None, default_t_end=1.0,
        default_k=3, default_n=16, default_delta=1e-2,
        fixed_point_profile=lambda a, x, y: _ex3_profile(
            a, x, y, math.sqrt((1.0 - math.pi ** 2 * a) / a))),
)}

CASE_IDS = tuple(_CASES)


def _tensor_rule(dim: int):
    """Tensor Gauss-Legendre grid (one array per axis) and weights on [0,1]^dim."""
    rule = gauss_legendre_interval(2 * _QUAD_POINTS - 1)
    p, wq = rule.points[:, 0], rule.weights
    weights = wq
    for _ in range(dim - 1):
        weights = np.multiply.outer(weights, wq)
    return np.meshgrid(*[p] * dim, indexing="ij"), weights


def fixed_point_map(case_id: str):
    """The case-defining map G(alpha) = (integral of w(., alpha)^2)^gamma,
    by tensor Gauss-Legendre quadrature, and its search bracket."""
    if case_id not in _CASES:
        raise ValueError(f"unknown case id {case_id!r}; expected one of {CASE_IDS}")
    case = _CASES[case_id]
    integrand = case.fixed_point_profile or case.profile
    X, W = _tensor_rule(case.dim)

    def G(a):
        return float(np.sum(W * integrand(a, *X) ** 2)) ** case.gamma
    return G, case.bracket


def _clamp(values, x):
    """values, set to 0 wherever a coordinate lies on {0, 1}."""
    on_boundary = False
    for xi in x:
        on_boundary = on_boundary | (xi == 0.0) | (xi == 1.0)
    return np.where(on_boundary, 0.0, values)


@lru_cache(maxsize=None)
def make_case(case_id: str) -> ManufacturedCase:
    """Assemble a shipped case with alpha re-solved from its fixed point."""
    G, bracket = fixed_point_map(case_id)
    alpha = solve_alpha(G, bracket)
    return replace(_CASES[case_id], alpha=alpha)


@dataclass(frozen=True)
class CaseReport:
    """Residual diagnostics for one shipped case."""

    max_pde_residual: float
    fixed_point_residual: float
    boundary_max: float
    initial_mass: float
    coefficient_consistency: float


def _fd_time_derivative(u_of_t, t, dt):
    return (u_of_t(t - 2 * dt) - 8.0 * u_of_t(t - dt)
            + 8.0 * u_of_t(t + dt) - u_of_t(t + 2 * dt)) / (12.0 * dt)


def _fd_second_derivative(u_of_s, s, ds):
    return (-u_of_s(s - 2 * ds) + 16.0 * u_of_s(s - ds) - 30.0 * u_of_s(s)
            + 16.0 * u_of_s(s + ds) - u_of_s(s + 2 * ds)) / (12.0 * ds ** 2)


def _time_samples(case, n_time):
    """Sample times inside the validity horizon, keeping clear of the
    extinction kink where time derivatives of the closed form blow up."""
    if math.isfinite(case.t_max):
        pre = np.linspace(0.0, 0.9 * case.t_max, n_time)
        post = np.linspace(1.1 * case.t_max, case.default_t_end, max(n_time // 2, 2))
        return np.concatenate([pre, post])
    return np.linspace(0.0, case.default_t_end, n_time)


def verify_case(case: ManufacturedCase) -> CaseReport:
    """Sample the strong-form residual u_t - a(u) Lap(u) - f over the domain.

    Derivatives are high-order finite differences of the black-box closed
    form and a(u) is computed by quadrature of u^2, so the check is
    independent of the identities used to build the case. Also reports the
    fixed-point residual, the boundary trace, the initial mass (the theory
    requires it positive), and the consistency of a(u(., t)) with
    alpha * l(t)^(2*gamma).
    """
    # finite-difference steps; points per axis and about how many sample
    # times to keep, by dimension
    dx, dt = 1e-3, 1e-3
    n_axis, n_times = {1: (50, 50), 2: (25, 10)}[case.dim]
    G, _ = fixed_point_map(case.case_id)
    fp_residual = abs(case.alpha - G(case.alpha))

    P, W = _tensor_rule(case.dim)
    ts = _time_samples(case, 50)
    ts = ts[:: max(1, len(ts) // n_times)]
    axis = np.linspace(4 * dx, 1.0 - 4 * dx, n_axis)
    xs = np.meshgrid(*[axis] * case.dim, indexing="ij")

    max_residual = coeff_dev = 0.0
    for t in ts:
        s = float(np.sum(W * case.u(*P, t) ** 2))
        u_t = _fd_time_derivative(lambda tt: case.u(*xs, tt), t, dt)
        lap = sum(_fd_second_derivative(
            lambda xi, i=i: case.u(*xs[:i], xi, *xs[i + 1:], t), xs[i], dx)
            for i in range(case.dim))
        fv = case.f(*xs, t) if case.f is not None else 0.0
        if s == 0.0:
            residual = np.abs(u_t - fv)  # extinct continuation: u == 0
        else:
            a_val = s ** case.gamma
            residual = np.abs(u_t - a_val * lap - fv)
            if t < case.t_max:
                target = case.alpha * float(case.l(t)) ** (2.0 * case.gamma)
                coeff_dev = max(coeff_dev,
                                abs(a_val - target) / max(1.0, abs(target)))
        max_residual = max(max_residual, float(np.max(residual)))

    # each face: one coordinate at 0 or 1, the others on an open edge grid
    edge = np.meshgrid(*[np.linspace(0.0, 1.0, 11)] * case.dim,
                       indexing="ij", sparse=True)
    boundary_max = 0.0
    for t in np.linspace(0.0, min(case.default_t_end, 2.0), 7):
        for i in range(case.dim):
            for side in (0.0, 1.0):
                vals = case.u(*edge[:i], side, *edge[i + 1:], t)
                boundary_max = max(boundary_max, float(np.max(np.abs(vals))))

    initial_mass = float(np.sum(W * case.u0(*P)))

    return CaseReport(max_pde_residual=max_residual,
                      fixed_point_residual=fp_residual,
                      boundary_max=boundary_max, initial_mass=initial_mass,
                      coefficient_consistency=coeff_dev)
