import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from oracles import PROFILE_FORCING, w_profile_1d, w_profile_2d
from scipy.optimize import brentq

from nonlocfem.manufactured import (CASE_IDS, AlphaSolveError, CaseReport,
                                    ManufacturedCase, RootBracketError,
                                    fixed_point_map, l_of_t, make_case,
                                    solve_alpha, verify_case)

REFERENCE_ALPHA = {
    "example1": 0.223688785954835,
    "example2": 0.108016681670528,
    "example3": 1.0 / (2.0 * math.pi ** 2),
}


# --- time factor ---

def test_l_decaying_case():
    assert l_of_t(0.5, -1.0, 0.0) == pytest.approx(1.0, abs=0.0)
    for t in (0.0, 1.0, 9.0):
        assert l_of_t(0.5, -1.0, t) == pytest.approx(1.0 / (t + 1.0), rel=1e-15)


def test_l_extinction_case():
    assert l_of_t(-1.0 / 3.0, 1.0, 1.0) == 0.0
    assert l_of_t(-1.0 / 3.0, 1.0, 1.5) == 0.0
    val = l_of_t(-1.0 / 3.0, 1.0, 0.25)
    assert val == pytest.approx(((2.0 / 3.0) * 0.75) ** 1.5, rel=1e-15)


def test_l_quartic_root_case():
    assert l_of_t(2.0, -0.25, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert l_of_t(2.0, -0.25, 2.0) == pytest.approx((4 * 2.0 + 1) ** -0.25,
                                                    rel=1e-15)


def test_l_rejects_gamma_zero_and_bad_domain():
    with pytest.raises(ValueError):
        l_of_t(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        l_of_t(0.5, 0.0, -0.5)  # argument nonpositive for gamma > 0


def test_l_vectorized():
    t = np.array([0.0, 1.0, 3.0])
    np.testing.assert_allclose(l_of_t(0.5, -1.0, t), 1.0 / (t + 1.0))


# --- 1D profile ---

def test_w1d_homogeneous():
    alpha = 0.2
    x = np.linspace(0.0, 1.0, 11)
    vals = w_profile_1d(lambda xi: np.zeros_like(xi), alpha, 1.0, 0.0, x)
    np.testing.assert_allclose(vals, np.sin(x / math.sqrt(alpha)), atol=1e-15)


def test_w1d_matches_closed_form_quadratic_forcing():
    # g = -x^2 has the closed-form particular solution -x^2 + 2 alpha
    alpha, C1, C2 = 0.3, 0.7, -0.2
    x = np.linspace(0.0, 1.0, 17)
    vals = w_profile_1d(lambda xi: -xi ** 2, alpha, C1, C2, x)
    sa = math.sqrt(alpha)
    expect = (C1 * np.sin(x / sa) + (C2 - 2 * alpha) * np.cos(x / sa)
              - x ** 2 + 2 * alpha)
    np.testing.assert_allclose(vals, expect, atol=1e-12)


def test_w1d_ode_residual():
    # w + alpha w'' = g checked by high-order finite differences
    alpha, C1, C2 = 0.15, 0.4, 0.1

    def g(xi):
        return np.exp(xi) * np.sin(2.0 * xi)

    def w(x):
        return w_profile_1d(g, alpha, C1, C2, x)

    xs = np.linspace(0.05, 0.95, 100)
    dx = 1e-3
    wxx = (-w(xs - 2 * dx) + 16 * w(xs - dx) - 30 * w(xs)
           + 16 * w(xs + dx) - w(xs + 2 * dx)) / (12 * dx ** 2)
    residual = np.abs(w(xs) + alpha * wxx - g(xs))
    assert residual.max() <= 1e-8


def test_w1d_requires_positive_alpha():
    with pytest.raises(ValueError):
        w_profile_1d(lambda xi: xi, -0.1, 0.0, 0.0, 0.5)


# --- 2D profile ---

def test_w2d_example3_parameters():
    alpha = 1.0 / (2.0 * math.pi ** 2)
    lam = math.pi ** 2 * alpha
    x = np.linspace(0.0, 1.0, 7)
    y = np.linspace(0.0, 1.0, 7)
    X, Y = np.meshgrid(x, y)
    vals = w_profile_2d(1.0, 1.0, lam, alpha, X, Y)
    np.testing.assert_allclose(vals, np.sin(np.pi * X) * np.sin(np.pi * Y),
                               atol=1e-12)


def test_w2d_boundary_lines_vanish():
    alpha = 0.03
    lam = 0.4
    y = np.linspace(0.0, 1.0, 9)
    assert np.max(np.abs(w_profile_2d(1.0, 2.0, lam, alpha, 0.0, y))) == 0.0
    x = np.linspace(0.0, 1.0, 9)
    assert np.max(np.abs(w_profile_2d(1.0, 2.0, lam, alpha, x, 0.0))) == 0.0


def test_w2d_pde_residual():
    alpha, lam = 0.04, 0.55
    xs = np.linspace(0.1, 0.9, 10)
    X, Y = np.meshgrid(xs, xs)
    d = 1e-3

    def w(xx, yy):
        return w_profile_2d(1.3, 0.8, lam, alpha, xx, yy)

    lap = ((-w(X - 2 * d, Y) + 16 * w(X - d, Y) - 30 * w(X, Y)
            + 16 * w(X + d, Y) - w(X + 2 * d, Y))
           + (-w(X, Y - 2 * d) + 16 * w(X, Y - d) - 30 * w(X, Y)
              + 16 * w(X, Y + d) - w(X, Y + 2 * d))) / (12 * d ** 2)
    residual = np.abs(w(X, Y) + alpha * lap)
    assert residual.max() <= 1e-8


def test_w2d_lambda_range_enforced():
    with pytest.raises(ValueError):
        w_profile_2d(1.0, 1.0, 1.5, 0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        w_profile_2d(1.0, 1.0, 0.5, -0.1, 0.5, 0.5)


# --- alpha fixed point ---

@pytest.mark.parametrize("case_id", CASE_IDS)
def test_alpha_matches_reference_decimals(case_id):
    G, bracket = fixed_point_map(case_id)
    alpha = solve_alpha(G, bracket)
    tol = 1e-15 if case_id == "example3" else 1e-10
    assert abs(alpha - REFERENCE_ALPHA[case_id]) <= tol
    assert abs(alpha - G(alpha)) <= 1e-12


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_alpha_agrees_with_brentq_oracle(case_id):
    G, bracket = fixed_point_map(case_id)
    ours = solve_alpha(G, bracket)
    reference = brentq(lambda a: a - G(a), *bracket, xtol=1e-15)
    assert ours == pytest.approx(reference, abs=1e-12)


def test_alpha_no_sign_change():
    with pytest.raises(RootBracketError):
        solve_alpha(lambda a: -1.0, (0.5, 1.0))


def test_alpha_budget_exhausted():
    # alpha - G(alpha) jumps from -1 to +1 inside the bracket and is zero
    # nowhere, so no iterate meets the tolerance. copysign, not np.sign: the
    # search lands on the float c itself, where np.sign would give a root.
    c = 0.15 + math.sqrt(2.0) * 1e-3

    def G(a):
        return a - math.copysign(1.0, a - c)

    with pytest.raises(AlphaSolveError, match="200 iterations"):
        solve_alpha(G, (0.1, 0.2))


def test_alpha_config_validation():
    def G(a):
        return 0.15

    with pytest.raises(ValueError, match="0 < lo < hi"):
        solve_alpha(G, (-0.1, 0.2))
    with pytest.raises(ValueError, match="tolerance must be positive"):
        solve_alpha(G, (0.1, 0.2), tolerance=0.0)


# --- cases ---

def test_case_ids_and_unknown_rejected():
    with pytest.raises(ValueError):
        fixed_point_map("example9")
    for cid in CASE_IDS:
        assert isinstance(make_case(cid), ManufacturedCase)


def test_example3_center_value():
    case = make_case("example3")
    expect = (8.0 / math.pi ** 2) ** 0.25
    assert case.u(0.5, 0.5, 0.0) == pytest.approx(expect, rel=1e-15)
    # decimal frozen from a 40-digit evaluation: 0.9488499966575886907...
    assert expect == pytest.approx(0.9488499966575886, rel=1e-14)


def test_example2_extinct_for_late_times():
    case = make_case("example2")
    x = np.linspace(0.0, 1.0, 21)
    for t in (1.0, 1.3, 2.0):
        assert np.max(np.abs(case.u(x, t))) == 0.0


def test_example1_profile_matches_generic_variation_of_constants():
    # the shipped closed form agrees with w_profile_1d run on g = -x^2
    case = make_case("example1")
    sa = math.sqrt(case.alpha)
    C1 = (1 - 2 * case.alpha + 2 * case.alpha * math.cos(1 / sa)) / math.sin(1 / sa)
    x = np.linspace(0.05, 0.95, 19)
    generic = w_profile_1d(PROFILE_FORCING["example1"], case.alpha, C1, 0.0, x)
    np.testing.assert_allclose(generic, case.w(x), atol=1e-12)


def test_example2_profile_matches_generic_variation_of_constants():
    # uses the derived constant C1 = (e - sqrt(a) sin(1/sqrt(a)) - cos(1/sqrt(a)))
    #                               / ((a+1) sqrt(2/3) sin(1/sqrt(a)))
    case = make_case("example2")
    a = case.alpha
    sa = math.sqrt(a)
    C1 = ((math.e - sa * math.sin(1 / sa) - math.cos(1 / sa))
          / ((a + 1) * math.sqrt(2.0 / 3.0) * math.sin(1 / sa)))
    x = np.linspace(0.05, 0.95, 19)
    generic = w_profile_1d(PROFILE_FORCING["example2"], a, C1, 0.0, x)
    np.testing.assert_allclose(generic, case.w(x), atol=1e-12)


# --- per-case properties, over every entry of CASE_IDS ---

@st.composite
def _case_sample(draw, forced=False):
    """A case id, points of its closed domain (one array per axis) and a time
    in [0, default_t_end]; with forced, a forced case and a time < t_max."""
    case_id = draw(st.sampled_from(
        [cid for cid in CASE_IDS if not forced or make_case(cid).f is not None]))
    case = make_case(case_id)
    n = draw(st.integers(1, 8))
    axis = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    x = tuple(np.array(draw(axis)) for _ in range(case.dim))
    t_hi = min(case.default_t_end, case.t_max) if forced else case.default_t_end
    t = draw(st.floats(0.0, t_hi, exclude_max=forced and t_hi == case.t_max))
    return case_id, x, t


# one explicit sample per case, so every case runs whatever hypothesis draws
_EVERY_CASE = [(cid, (np.array([0.25, 0.5]),) * make_case(cid).dim, 0.5)
               for cid in CASE_IDS]


def _with_examples(samples):
    def decorate(test):
        for sample in reversed(samples):
            test = example(sample)(test)
        return test
    return decorate


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(deadline=None)
@given(_case_sample())
@_with_examples(_EVERY_CASE)
def test_initial_datum_is_u_at_time_zero(sample):
    case_id, x, _ = sample
    case = make_case(case_id)
    assert _bits(case.u0(*x)) == _bits(case.u(*x, 0.0))


@settings(deadline=None)
@given(_case_sample())
@_with_examples(_EVERY_CASE + [
    ("example1", (np.linspace(0.0, 1.0, 13),), t) for t in (0.0, 2.5)])
def test_u_is_w_times_l(sample):
    case_id, x, t = sample
    case = make_case(case_id)
    assert _bits(case.u(*x, t)) == _bits(case.w(*x) * case.l(t))


@settings(deadline=None)
@given(_case_sample())
@_with_examples(_EVERY_CASE + [
    ("example1", (np.array(0.5),), t) for t in (0.0, 0.7, 5.0)])
def test_u_vanishes_on_the_boundary(sample):
    # the drawn points are moved onto each face in turn: one coordinate at
    # 0 or 1, the others where they were drawn
    case_id, x, t = sample
    case = make_case(case_id)
    for i in range(case.dim):
        for side in (0.0, 1.0):
            face = x[:i] + (np.full_like(x[i], side),) + x[i + 1:]
            assert np.all(case.u(*face, t) == 0.0)


@settings(deadline=None)
@given(_case_sample(forced=True))
@_with_examples([(cid, (np.linspace(0.1, 0.9, 9),), t)
                 for cid in ("example1", "example2") for t in (0.0, 0.4)])
def test_forcing_is_minus_g_times_l_power(sample):
    # f = -g(x) l(t)^(2 gamma + 1) before t_max
    case_id, x, t = sample
    case = make_case(case_id)
    expect = (-PROFILE_FORCING[case_id](*x)
              * float(case.l(t)) ** (2.0 * case.gamma + 1.0))
    np.testing.assert_allclose(case.f(*x, t), expect, rtol=1e-12)


def test_decay_classification_gamma_positive():
    # gamma > 0: the closed-form norm decreases monotonically in t
    for cid in ("example1", "example3"):
        case = make_case(cid)
        ts = np.linspace(0.0, case.default_t_end, 40)
        lv = np.array([float(case.l(t)) for t in ts])
        assert np.all(np.diff(lv) < 0.0)


def test_extinction_classification_gamma_negative():
    case = make_case("example2")
    assert case.t_max == 1.0
    assert float(case.l(case.t_max)) == 0.0
    assert float(case.l(1.7)) == 0.0


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_verify_case_report(case_id):
    report = verify_case(make_case(case_id))
    assert isinstance(report, CaseReport)
    assert report.max_pde_residual <= 1e-7
    assert report.fixed_point_residual <= 1e-12
    assert report.boundary_max == 0.0
    assert report.initial_mass > 0.0
    assert report.coefficient_consistency <= 1e-8
