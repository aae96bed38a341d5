"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion. The convergence studies run full-size ladders and take a couple
of minutes in total.
"""

import math
import re
import time

import numpy as np
from conftest import ACCEPTANCE_LINES
from oracles import (boundary_nodes, element_mass_matrix,
                     element_stiffness_matrix, evaluate, froze, l2_norm_sq,
                     monomial_integral)

from nonlocfem import harness
from nonlocfem.assembly import FieldVector, assemble_mass, interpolate, l2_error
from nonlocfem.cli import main
from nonlocfem.coefficient import GuardStatus, NonlocalCoefficient
from nonlocfem.harness import RunConfig, run_solve, sweep
from nonlocfem.manufactured import make_case, verify_case
from nonlocfem.mesh import (build_lagrange_space, uniform_interval_mesh,
                            uniform_square_mesh)
from nonlocfem.quadrature import MAX_TRIANGLE_DEGREE, reference_rule
from nonlocfem.stepper import TimeGrid, run

REFERENCE_ALPHA = {
    "example1": 0.223688785954835,
    "example2": 0.108016681670528,
    "example3": 1.0 / (2.0 * math.pi ** 2),
}


def _criterion(num, description, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num} ({description}): {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num} ({description}): {detail}"


def test_criterion_1_alpha_reproduction(capsys):
    details = []
    ok = True
    for case_id, tol in (("example1", 1e-10), ("example2", 1e-10),
                         ("example3", 1e-12)):
        t0 = time.perf_counter()
        code = main(["alpha", case_id])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        value = float(re.search(r"= ([0-9.]+)", out).group(1))
        diff = abs(value - REFERENCE_ALPHA[case_id])
        ok = ok and code == 0 and diff <= tol and elapsed < 1.0
        details.append(f"{case_id}: |diff|={diff:.2e} ({elapsed * 1e3:.0f} ms)")
    _criterion(1, "alpha reproduction", ok, "; ".join(details))


def test_criterion_2_manufactured_residuals():
    details = []
    ok = True
    for case_id in ("example1", "example2", "example3"):
        report = verify_case(make_case(case_id))
        case_ok = (report.max_pde_residual <= 1e-7
                   and report.fixed_point_residual <= 1e-12
                   and report.boundary_max == 0.0)
        ok = ok and case_ok
        details.append(f"{case_id}: residual={report.max_pde_residual:.1e} "
                       f"fp={report.fixed_point_residual:.1e} "
                       f"boundary={report.boundary_max:g}")
    _criterion(2, "manufactured-solution residuals", ok, "; ".join(details))


def _record_frozen_runs(monkeypatch):
    """Record, for every run a sweep makes, whether the extinction freeze
    fired; none of the convergence runs goes extinct."""
    frozen = []
    stepping = harness.run

    def recording(*args, **kwargs):
        traj = stepping(*args, **kwargs)
        frozen.append(froze(traj))
        return traj
    monkeypatch.setattr(harness, "run", recording)
    return frozen


# (case, k, n ladder, delta, t_end) of every spatial-order study: example1
# to t = 10; example3 on [0, 0.1]; example2 on [0, 0.9], short of its
# extinction at t = 1, at a delta whose time error does not floor the
# ladder (README says why k = 2 is left out)
_SPACE_LADDERS = [
    ("example1", 1, [8, 16, 32, 64], 1e-3, 10.0),
    ("example1", 2, [4, 8, 16, 32], 1e-3, 10.0),
    ("example1", 3, [2, 4, 8, 16], 1e-3, 10.0),
    ("example3", 1, [4, 8, 16, 32], 1e-3, 0.1),
    ("example3", 2, [2, 4, 8, 16], 1e-3, 0.1),
    ("example3", 3, [2, 4, 8], 1e-3, 0.1),
    ("example2", 1, [8, 16, 32, 64], 1e-3, 0.9),
    ("example2", 3, [4, 8, 16], 1e-4, 0.9),
]


def test_criterion_3_spatial_convergence(monkeypatch):
    frozen = _record_frozen_runs(monkeypatch)
    t0 = time.perf_counter()
    details = []
    ok = True
    for case, k, ladder, delta, t_end in _SPACE_LADDERS:
        config = RunConfig(case=case, k=k, delta=delta, t_end=t_end)
        result = sweep(config, "h", ladder)
        slope = result.fitted_slope
        k_ok = slope is not None and abs(slope - (k + 1)) <= 0.25
        ok = ok and k_ok
        details.append(f"{case} k={k}: slope={slope:.3f} (target {k + 1})")
    elapsed = time.perf_counter() - t0
    runs = sum(len(ladder) for _, _, ladder, _, _ in _SPACE_LADDERS)
    ok = ok and elapsed < 600.0 and len(frozen) == runs and not any(frozen)
    details.append(f"total {elapsed:.1f}s; frozen runs {sum(frozen)}")
    _criterion(3, "spatial convergence", ok, "; ".join(details))


def test_criterion_4_temporal_convergence(monkeypatch):
    frozen = _record_frozen_runs(monkeypatch)
    t0 = time.perf_counter()
    config = RunConfig(case="example1", k=3, n=32, t_end=10.0)
    result_1d = sweep(config, "delta", [0.1 / 2 ** j for j in range(5)])
    slope_1d = result_1d.fitted_slope
    ok = slope_1d is not None and abs(slope_1d - 2.0) <= 0.25

    # example2 on [0, 0.9]: nearer its extinction at t = 1 the order drops,
    # since u_tt grows like (1 - t)^(-1/2) (see README)
    config_ex2 = RunConfig(case="example2", k=3, n=64, t_end=0.9)
    result_ex2 = sweep(config_ex2, "delta", [0.1 / 2 ** j for j in range(5)])
    slope_ex2 = result_ex2.fitted_slope
    ok = ok and slope_ex2 is not None and abs(slope_ex2 - 2.0) <= 0.25

    config2 = RunConfig(case="example3", k=3, n=8, t_end=1.0)
    result_2d = sweep(config2, "delta", [0.2 / 2 ** j for j in range(4)])
    slope_2d = result_2d.fitted_slope
    ok = ok and slope_2d is not None and abs(slope_2d - 2.0) <= 0.35
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0 and len(frozen) == 14 and not any(frozen)
    _criterion(4, "temporal convergence", ok,
               f"1D slope={slope_1d:.3f} (tol 0.25); "
               f"example2 slope={slope_ex2:.3f} (tol 0.25); "
               f"2D slope={slope_2d:.3f} (tol 0.35); total {elapsed:.1f}s; "
               f"frozen runs {sum(frozen)}")


def test_criterion_5_classical_cn_oracle():
    details = []
    ok = True
    for k, n in ((1, 32), (2, 32), (3, 16)):
        space = build_lagrange_space(uniform_interval_mesh(n), k)
        delta = 1e-3
        n_steps = 500  # t = 0.5
        grid = TimeGrid(t_end=0.5, n_steps=n_steps)
        traj = run(space, lambda x: np.sin(np.pi * x), None,
                   NonlocalCoefficient(gamma=0.0), grid)
        ratio = math.sqrt(traj.energy[-1] / traj.energy[0])
        factor = (1 - np.pi ** 2 * delta / 2) / (1 + np.pi ** 2 * delta / 2)
        oracle = factor ** n_steps
        tol = max(1e-8, 2.0 * (1.0 / n) ** (k + 1))
        k_ok = abs(ratio - oracle) <= tol
        ok = ok and k_ok
        details.append(f"k={k}: |dev|={abs(ratio - oracle):.2e} tol={tol:.2e}")
    _criterion(5, "classical CN oracle", ok, "; ".join(details))


def test_criterion_6_energy_decay():
    runs = []
    space1 = build_lagrange_space(uniform_interval_mesh(32), 2)
    runs.append(("1D gamma=0", run(space1, lambda x: np.sin(np.pi * x), None,
                                   NonlocalCoefficient(gamma=0.0),
                                   TimeGrid(0.3, 300))))
    runs.append(("1D gamma=1/2", run(space1, lambda x: np.sin(np.pi * x), None,
                                     NonlocalCoefficient(gamma=0.5),
                                     TimeGrid(0.3, 300))))
    case3 = make_case("example3")
    space3 = build_lagrange_space(uniform_square_mesh(8), 3)
    runs.append(("example3", run(space3, case3.u0, case3.f,
                                 NonlocalCoefficient(gamma=case3.gamma),
                                 TimeGrid(1.0, 100))))
    ok = True
    details = []
    for label, traj in runs:
        norms = np.sqrt(traj.energy)
        worst = float(np.max(np.diff(norms)))
        run_ok = worst <= 1e-10
        ok = ok and run_ok
        details.append(f"{label}: max increase {worst:.2e}")
    _criterion(6, "energy decay for unforced runs", ok, "; ".join(details))


def test_criterion_7_extinction_behavior():
    # ceiling 1e3 makes leaving the bounded-coefficient regime visible; the
    # default 1e12 is never reached at desk scale. From t = 1 on every
    # Crank-Nicolson mode factor is negative, so the discrete field would
    # ring, changing sign each step (the M-cosine of consecutive levels is
    # -0.9999) while its norm decays only slowly; the stepper detects that
    # and freezes the field at zero, at t = 1.001 with either ceiling
    config = RunConfig(case="example2", k=2, n=100, delta=1e-3, t_end=2.0,
                       guard_ceiling=1e3)
    report = run_solve(config)
    times = np.array([report.grid.time(n) for n in range(len(report.energy))])
    max_late = float(report.energy[times >= 1.05 - 1e-12].max())
    trip = report.first_guard_trip
    trip_ok = (trip is not None
               and trip[2] in (GuardStatus.ABOVE_CEILING,
                               GuardStatus.DEGENERATE)
               and 0.9 <= trip[1] <= 1.1)
    ok = max_late <= 1e-6 and trip_ok
    trip_desc = "none" if trip is None else f"{trip[2].value} at t={trip[1]:.3f}"
    _criterion(7, "extinction behavior", ok,
               f"max energy t>=1.05: {max_late:.2e}; first trip: {trip_desc}")


def test_criterion_8_element_matrix_oracles():
    h = 0.37
    Me = element_mass_matrix(np.array([[0.0], [h]]), 1)
    mass_dev = np.max(np.abs(Me - np.array([[h / 3, h / 6], [h / 6, h / 3]])))
    Ke = element_stiffness_matrix(np.array([[0.0], [h]]), 1)
    stiff_dev = np.max(np.abs(Ke - np.array([[1 / h, -1 / h], [-1 / h, 1 / h]])))
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    Mt = element_mass_matrix(tri, 1)
    tri_dev = np.max(np.abs(Mt - (0.5 / 12.0)
                            * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])))
    ok = mass_dev <= 1e-14 and stiff_dev <= 1e-14 * (1 / h) and tri_dev <= 1e-14
    _criterion(8, "element-matrix oracles", ok,
               f"mass dev {mass_dev:.1e}; stiffness dev {stiff_dev:.1e}; "
               f"P1 triangle dev {tri_dev:.1e}")


def test_criterion_9_property_suites():
    # nonlocal scaling law, 100 random cases at 1e-12 relative
    space = build_lagrange_space(uniform_interval_mesh(16), 2)
    M = assemble_mass(space)
    rng = np.random.default_rng(42)
    scaling_worst = 0.0
    for _ in range(100):
        gamma = rng.uniform(-2.0, 3.0)
        c = rng.uniform(0.1, 10.0)
        coeff = NonlocalCoefficient(gamma=gamma)
        v = rng.standard_normal(space.n_nodes)
        v[boundary_nodes(space)] = 0.0
        U = FieldVector(v, space)
        if l2_norm_sq(U, M) == 0.0:
            continue
        lhs = evaluate(coeff, FieldVector(c * v, space), M)
        rhs = c ** (2 * gamma) * evaluate(coeff, U, M)
        scaling_worst = max(scaling_worst, abs(lhs - rhs) / abs(rhs))
    scaling_ok = scaling_worst <= 1e-12

    # interpolation error contraction 2^(k+1) within 15%
    interp_ok = True
    interp_details = []
    for k in (1, 2, 3):
        errors = []
        for n in (8, 16, 32):
            sp = build_lagrange_space(uniform_interval_mesh(n), k)
            U = interpolate(sp, lambda x: np.sin(np.pi * x))
            errors.append(l2_error(U, lambda x: np.sin(np.pi * x)))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        target = 2.0 ** (k + 1)
        interp_ok = interp_ok and all(abs(r - target) <= 0.15 * target
                                      for r in ratios)
        interp_details.append(f"k={k}: ratios "
                              + "/".join(f"{r:.2f}" for r in ratios))

    # quadrature exactness at declared degree
    quad_worst = 0.0
    for degree in range(1, 11):
        rule = reference_rule(1, degree)
        for a in range(rule.degree + 1):
            approx = float(np.sum(rule.weights * rule.points[:, 0] ** a))
            exact = monomial_integral(1, (a,))
            quad_worst = max(quad_worst, abs(approx - exact) / exact)
    for degree in range(1, MAX_TRIANGLE_DEGREE + 1):
        rule = reference_rule(2, degree)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                approx = float(np.sum(rule.weights * rule.points[:, 0] ** a
                                      * rule.points[:, 1] ** b))
                exact = monomial_integral(2, (a, b))
                quad_worst = max(quad_worst, abs(approx - exact) / exact)
    quad_ok = quad_worst <= 1e-13

    ok = scaling_ok and interp_ok and quad_ok
    _criterion(9, "property suites", ok,
               f"scaling worst {scaling_worst:.2e}; "
               + "; ".join(interp_details)
               + f"; quadrature worst {quad_worst:.2e}")
