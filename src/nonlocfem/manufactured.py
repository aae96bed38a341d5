"""Closed-form solutions built by separation of variables u = k(x) l(t).

The time factor solves l' = -l^(2*gamma+1); the profile solves
w + alpha * Lap(w) = g with the scalar alpha fixed by the self-consistency
equation alpha = (integral of w(., alpha)^2)^gamma. Three ready-to-run
cases are shipped:

  example1: 1D, gamma = 1/2,  forcing x^2/(t+1)^2, decaying solution.
  example2: 1D, gamma = -1/3, forcing e^x sqrt([1-t]_+), extinction at t = 1.
  example3: 2D, gamma = 2,    unforced, product-of-sines profile.

Alpha is re-solved at construction time (never hard-coded) by bracketed
root finding on alpha - G(alpha); the known decimals are asserted in tests.
All closed forms return exactly 0 on the domain boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .quadrature import gauss_legendre_interval

CASE_IDS = ("example1", "example2", "example3")

# Gauss-Legendre points per direction for the self-consistency integrals,
# and the iteration budget of the alpha root search
_QUAD_POINTS = 64
_ALPHA_MAX_ITERATIONS = 200


class RootBracketError(ValueError):
    """The residual does not change sign over the supplied bracket."""


class AlphaSolveError(RuntimeError):
    """The fixed-point iteration budget was exhausted."""


@dataclass(frozen=True)
class AlphaSolveConfig:
    """Bracketed search settings for the alpha fixed point."""

    bracket: tuple[float, float]
    tolerance: float = 1e-13

    def __post_init__(self):
        lo, hi = self.bracket
        if not 0.0 < lo < hi:
            raise ValueError(f"bracket must satisfy 0 < lo < hi, got {self.bracket}")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class ManufacturedCase:
    """One explicit-solution configuration, with all constants resolved."""

    case_id: str
    dim: int
    gamma: float
    C: float
    alpha: float
    w: Callable                 # spatial profile, vanishing on the boundary
    l: Callable                 # time factor
    g: Callable | None          # profile forcing in w + alpha*Lap(w) = g
    u: Callable                 # u(x[, y], t) = w * l
    f: Callable | None          # PDE forcing; None when identically zero
    u0: Callable                # initial datum u(., 0)
    t_max: float                # validity horizon (extinction time, or inf)
    # resolution, step and horizon of the reference experiments
    default_t_end: float
    default_k: int
    default_n: int
    default_delta: float


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


def solve_alpha(G, config: AlphaSolveConfig) -> float:
    """Root of alpha - G(alpha) on the bracket, by bisection with secant steps.

    Guaranteed to keep a sign-changing bracket; a secant candidate is used
    whenever it falls strictly inside the current bracket, with a bisection
    fallback when progress stalls. Returns alpha with
    |alpha - G(alpha)| <= config.tolerance.
    """
    lo, hi = config.bracket
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
        if abs(f_mid) <= config.tolerance:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
            last_side = max(1, last_side + 1)
        else:
            hi, f_hi = mid, f_mid
            last_side = min(-1, last_side - 1)
    raise AlphaSolveError(
        f"no convergence to |alpha - G(alpha)| <= {config.tolerance:g} "
        f"in {_ALPHA_MAX_ITERATIONS} iterations")


def _ex1_profile_unclamped(alpha, x):
    sa = math.sqrt(alpha)
    C1 = (1.0 - 2.0 * alpha + 2.0 * alpha * math.cos(1.0 / sa)) / math.sin(1.0 / sa)
    x = np.asarray(x, dtype=float)
    return (C1 * np.sin(x / sa) - 2.0 * alpha * np.cos(x / sa)
            - x * x + 2.0 * alpha)


def _ex2_profile_unclamped(alpha, x):
    sa = math.sqrt(alpha)
    s32 = math.sqrt(1.5)
    A = s32 / (alpha + 1.0)
    B = s32 * (math.e - math.cos(1.0 / sa)) / ((alpha + 1.0) * math.sin(1.0 / sa))
    x = np.asarray(x, dtype=float)
    return B * np.sin(x / sa) + A * np.cos(x / sa) - A * np.exp(x)


_EX3_AMPLITUDE = (8.0 / math.pi ** 2) ** 0.25


def fixed_point_map(case_id: str):
    """The case-defining map G(alpha) and its search bracket.

    G is always the self-consistency integral (integral of w(., alpha)^2
    over the domain) raised to the case exponent; for the 2D case the
    y-frequency of the profile depends on alpha through the separation
    constant, and the bracket is kept tight because the map crosses the
    diagonal more than once.
    """
    rule = gauss_legendre_interval(2 * _QUAD_POINTS - 1)
    p, wq = rule.points[:, 0], rule.weights

    if case_id == "example1":
        def G(a):
            vals = _ex1_profile_unclamped(a, p)
            return math.sqrt(float(np.sum(wq * vals ** 2)))
        return G, (0.1, 0.3)

    if case_id == "example2":
        def G(a):
            vals = _ex2_profile_unclamped(a, p)
            return float(np.sum(wq * vals ** 2)) ** (-1.0 / 3.0)
        return G, (0.1, 0.12)

    if case_id == "example3":
        X, Y = np.meshgrid(p, p, indexing="ij")
        W2 = np.outer(wq, wq)

        def G(a):
            lam = math.pi ** 2 * a
            omega_y = math.sqrt((1.0 - lam) / a)
            vals = _EX3_AMPLITUDE * np.sin(math.pi * X) * np.sin(omega_y * Y)
            return float(np.sum(W2 * vals ** 2)) ** 2.0
        return G, (0.045, 0.055)

    raise ValueError(f"unknown case id {case_id!r}; expected one of {CASE_IDS}")


def _clamp_1d(x, values):
    on_boundary = (x == 0.0) | (x == 1.0)
    return np.where(on_boundary, 0.0, values)


def _clamp_2d(x, y, values):
    on_boundary = ((x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0))
    return np.where(on_boundary, 0.0, values)


@lru_cache(maxsize=None)
def make_case(case_id: str) -> ManufacturedCase:
    """Assemble a shipped case with alpha re-solved from its fixed point."""
    G, bracket = fixed_point_map(case_id)
    alpha = solve_alpha(G, AlphaSolveConfig(bracket=bracket))

    if case_id == "example1":
        gamma, C = 0.5, -1.0

        def w(x):
            x = np.asarray(x, dtype=float)
            return _clamp_1d(x, _ex1_profile_unclamped(alpha, x))

        def l(t):
            return l_of_t(gamma, C, t)

        def g(x):
            x = np.asarray(x, dtype=float)
            return -x * x

        def u(x, t):
            return w(x) * l(t)

        def f(x, t):
            x = np.asarray(x, dtype=float)
            return x * x / (np.asarray(t) + 1.0) ** 2

        def u0(x):
            return w(x)

        return ManufacturedCase(case_id, 1, gamma, C, alpha, w, l, g, u, f, u0,
                                t_max=math.inf, default_t_end=10.0,
                                default_k=2, default_n=100, default_delta=1e-3)

    if case_id == "example2":
        gamma, C = -1.0 / 3.0, 1.0
        scale0 = (2.0 / 3.0) ** 1.5

        def w(x):
            x = np.asarray(x, dtype=float)
            return _clamp_1d(x, _ex2_profile_unclamped(alpha, x))

        def l(t):
            return l_of_t(gamma, C, t)

        def g(x):
            x = np.asarray(x, dtype=float)
            return -math.sqrt(1.5) * np.exp(x)

        def u(x, t):
            return w(x) * l(t)

        def f(x, t):
            x = np.asarray(x, dtype=float)
            t = np.asarray(t, dtype=float)
            return np.exp(x) * np.sqrt(np.maximum(1.0 - t, 0.0))

        def u0(x):
            return w(x) * scale0

        return ManufacturedCase(case_id, 1, gamma, C, alpha, w, l, g, u, f, u0,
                                t_max=1.0, default_t_end=2.0,
                                default_k=2, default_n=100, default_delta=1e-3)

    gamma, C = 2.0, -0.25
    C3 = _EX3_AMPLITUDE

    def w(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        vals = C3 * np.sin(math.pi * x) * np.sin(math.pi * y)
        return _clamp_2d(x, y, vals)

    def l(t):
        return l_of_t(gamma, C, t)

    def u(x, y, t):
        return w(x, y) * l(t)

    def u0(x, y):
        return w(x, y)

    return ManufacturedCase(case_id, 2, gamma, C, alpha, w, l, None, u, None,
                            u0, t_max=math.inf, default_t_end=1.0,
                            default_k=3, default_n=16, default_delta=1e-2)


@dataclass(frozen=True)
class CaseReport:
    """Residual diagnostics for one shipped case."""

    case_id: str
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
    # sample counts in space and time, finite-difference steps
    n_space, n_time, dx, dt = 50, 50, 1e-3, 1e-3
    G, _ = fixed_point_map(case.case_id)
    fp_residual = abs(case.alpha - G(case.alpha))

    rule = gauss_legendre_interval(2 * _QUAD_POINTS - 1)
    p, wq = rule.points[:, 0], rule.weights
    ts = _time_samples(case, n_time)
    if case.dim == 1:
        xs = np.linspace(4 * dx, 1.0 - 4 * dx, n_space)
    else:
        grid1 = np.linspace(4 * dx, 1.0 - 4 * dx, max(8, n_space // 2))
        ts = ts[:: max(1, len(ts) // 10)]
        XX, YY = np.meshgrid(grid1, grid1, indexing="ij")
        PX, PY = np.meshgrid(p, p, indexing="ij")
        W2 = np.outer(wq, wq)

    max_residual = 0.0
    coeff_dev = 0.0
    for t in ts:
        if case.dim == 1:
            s = float(np.sum(wq * case.u(p, t) ** 2))
            u_t = _fd_time_derivative(lambda tt: case.u(xs, tt), t, dt)
            lap = _fd_second_derivative(lambda xx: case.u(xx, t), xs, dx)
            fv = case.f(xs, t) if case.f is not None else 0.0
        else:
            s = float(np.sum(W2 * case.u(PX, PY, t) ** 2))
            u_t = _fd_time_derivative(lambda tt: case.u(XX, YY, tt), t, dt)
            lap = (_fd_second_derivative(lambda xx: case.u(xx, YY, t), XX, dx)
                   + _fd_second_derivative(lambda yy: case.u(XX, yy, t), YY, dx))
            fv = case.f(XX, YY, t) if case.f is not None else 0.0
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

    t_b = np.linspace(0.0, min(case.default_t_end, 2.0), 7)
    boundary_max = 0.0
    for t in t_b:
        if case.dim == 1:
            vals = np.abs(case.u(np.array([0.0, 1.0]), t))
        else:
            edge = np.linspace(0.0, 1.0, 11)
            vals = np.concatenate([
                np.abs(case.u(edge, np.zeros_like(edge), t)),
                np.abs(case.u(edge, np.ones_like(edge), t)),
                np.abs(case.u(np.zeros_like(edge), edge, t)),
                np.abs(case.u(np.ones_like(edge), edge, t))])
        boundary_max = max(boundary_max, float(np.max(vals)))

    if case.dim == 1:
        initial_mass = float(np.sum(wq * case.u0(p)))
    else:
        initial_mass = float(np.sum(W2 * case.u0(PX, PY)))

    return CaseReport(case_id=case.case_id, max_pde_residual=max_residual,
                      fixed_point_residual=fp_residual,
                      boundary_max=boundary_max, initial_mass=initial_mass,
                      coefficient_consistency=coeff_dev)
