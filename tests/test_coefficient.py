import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given
from oracles import boundary_nodes, evaluate, l2_norm_sq, lipschitz_witness

from nonlocfem.assembly import FieldVector, assemble_mass
from nonlocfem.coefficient import (GuardStatus, NonlocalCoefficient,
                                   check_guards, evaluate_from_norm_sq)
from nonlocfem.mesh import build_lagrange_space, uniform_interval_mesh


@pytest.fixture(scope="module")
def setting():
    space = build_lagrange_space(uniform_interval_mesh(16), 2)
    return space, assemble_mass(space)


def _field_with_norm_sq(space, M, target, rng):
    v = rng.standard_normal(space.n_nodes)
    v[boundary_nodes(space)] = 0.0
    U = FieldVector(v, space)
    s = l2_norm_sq(U, M)
    U.coefficients *= math.sqrt(target / s)
    return U


def test_unit_norm_gives_one(setting):
    space, M = setting
    rng = np.random.default_rng(0)
    U = _field_with_norm_sq(space, M, 1.0, rng)
    for gamma in (-1.5, -0.5, 0.3, 2.0):
        coeff = NonlocalCoefficient(gamma=gamma)
        assert evaluate(coeff, U, M) == pytest.approx(1.0, rel=1e-12)


def test_gamma_zero_always_one(setting):
    space, M = setting
    rng = np.random.default_rng(1)
    coeff = NonlocalCoefficient(gamma=0.0)
    for target in (1e-8, 0.3, 42.0):
        U = _field_with_norm_sq(space, M, target, rng)
        assert evaluate(coeff, U, M) == 1.0
    assert evaluate(coeff, FieldVector(np.zeros(space.n_nodes), space), M) == 1.0


def test_quarter_norm_negative_half_power(setting):
    space, M = setting
    rng = np.random.default_rng(2)
    U = _field_with_norm_sq(space, M, 0.25, rng)
    coeff = NonlocalCoefficient(gamma=-0.5)
    assert evaluate(coeff, U, M) == pytest.approx(2.0, rel=1e-12)


def test_degenerate_zero_field(setting):
    space, M = setting
    zero = FieldVector(np.zeros(space.n_nodes), space)
    # gamma < 0: the value is infinite, and the guards call it degenerate
    coeff = NonlocalCoefficient(gamma=-1.0 / 3.0)
    a = evaluate(coeff, zero, M)
    assert a == math.inf
    assert check_guards(a, coeff) == GuardStatus.DEGENERATE
    # gamma > 0: the value is 0, below the floor
    coeff = NonlocalCoefficient(gamma=0.5)
    assert evaluate(coeff, zero, M) == 0.0
    assert check_guards(0.0, coeff) == GuardStatus.BELOW_FLOOR


@pytest.mark.parametrize("gamma, s, value, status", [
    (-1.0 / 3.0, 0.0, math.inf, GuardStatus.DEGENERATE),
    (-1.0 / 3.0, -1e-30, math.inf, GuardStatus.DEGENERATE),
    (-1.0 / 3.0, 5e-324, 5e-324 ** (-1.0 / 3.0), GuardStatus.ABOVE_CEILING),
    (-1.0 / 3.0, math.inf, 0.0, GuardStatus.BELOW_FLOOR),
    (-1.0 / 3.0, math.nan, math.nan, GuardStatus.ABOVE_CEILING),
    (0.5, 0.0, 0.0, GuardStatus.BELOW_FLOOR),
    (0.5, math.inf, math.inf, GuardStatus.ABOVE_CEILING),
])
def test_classification_at_the_edges(gamma, s, value, status):
    coeff = NonlocalCoefficient(gamma=gamma)
    a = evaluate_from_norm_sq(coeff, s)
    assert a == value or (math.isnan(a) and math.isnan(value))
    assert check_guards(a, coeff) == status


def test_overflowing_power_raises():
    # a finite s > 0 whose power overflows raises instead of giving inf, so
    # inf with gamma < 0 means s <= 0
    with pytest.raises(OverflowError):
        evaluate_from_norm_sq(NonlocalCoefficient(gamma=-1.0), 5e-324)


@given(st.floats(-2.0, 2.0).filter(lambda gamma: gamma != 0.0), st.floats())
@example(-1.0 / 3.0, 0.0)
@example(-1.0 / 3.0, -0.0)
@example(-1.0 / 3.0, 5e-324)
@example(-1.0, 5e-324)
@example(2.0, 1e300)
def test_only_extinction_is_degenerate(gamma, s):
    # s ranges over every float (negative, zero, subnormal, inf, NaN): the
    # guards call the value degenerate exactly at extinction, s <= 0 with
    # gamma < 0; for any other s the power is a value they classify
    # otherwise, or it overflows on a finite s > 0
    coeff = NonlocalCoefficient(gamma=gamma)
    try:
        a = evaluate_from_norm_sq(coeff, s)
    except OverflowError:
        assert 0.0 < s < math.inf
        return
    degenerate = check_guards(a, coeff) == GuardStatus.DEGENERATE
    assert degenerate == (gamma < 0.0 and s <= 0.0)


def test_positivity(setting):
    space, M = setting
    rng = np.random.default_rng(3)
    for gamma in (-1.0, 0.7):
        coeff = NonlocalCoefficient(gamma=gamma)
        for target in (1e-6, 1.0, 1e6):
            U = _field_with_norm_sq(space, M, target, rng)
            assert evaluate(coeff, U, M) > 0.0


def test_guard_classification():
    coeff = NonlocalCoefficient(gamma=1.0, floor_m=1e-12, ceil_M=1e12)
    assert check_guards(1.0, coeff) == GuardStatus.OK
    assert check_guards(1e-15, coeff) == GuardStatus.BELOW_FLOOR
    assert check_guards(1e13, coeff) == GuardStatus.ABOVE_CEILING
    assert check_guards(math.inf, coeff) == GuardStatus.ABOVE_CEILING
    with pytest.raises(ValueError):
        check_guards(-1.0, coeff)


def test_guard_threshold_validation():
    with pytest.raises(ValueError):
        NonlocalCoefficient(gamma=1.0, floor_m=0.0)
    with pytest.raises(ValueError):
        NonlocalCoefficient(gamma=1.0, floor_m=1.0, ceil_M=0.5)


def test_scaling_law(setting):
    # a(c U) = c^(2 gamma) a(U), 100 random cases at 1e-12 relative
    space, M = setting
    rng = np.random.default_rng(4)
    for _ in range(100):
        gamma = rng.uniform(-2.0, 3.0)
        c = rng.uniform(0.1, 10.0)
        coeff = NonlocalCoefficient(gamma=gamma)
        U = _field_with_norm_sq(space, M, rng.uniform(0.5, 2.0), rng)
        scaled = FieldVector(c * U.coefficients, space)
        lhs = evaluate(coeff, scaled, M)
        rhs = c ** (2.0 * gamma) * evaluate(coeff, U, M)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_monotonicity_in_norm(setting):
    space, M = setting
    rng = np.random.default_rng(5)
    targets = [0.1, 0.5, 1.0, 4.0, 9.0]
    for gamma, sign in ((1.5, 1.0), (-0.7, -1.0)):
        coeff = NonlocalCoefficient(gamma=gamma)
        values = [evaluate(coeff, _field_with_norm_sq(space, M, s, rng), M)
                  for s in targets]
        diffs = sign * np.diff(values)
        assert np.all(diffs > 0.0)


def test_lipschitz_identical_inputs(setting):
    space, M = setting
    rng = np.random.default_rng(6)
    U = _field_with_norm_sq(space, M, 1.0, rng)
    with pytest.raises(ValueError):
        lipschitz_witness(NonlocalCoefficient(gamma=0.5), U, U, M)


def test_lipschitz_gamma_zero(setting):
    space, M = setting
    rng = np.random.default_rng(7)
    coeff = NonlocalCoefficient(gamma=0.0)
    for _ in range(10):
        V = _field_with_norm_sq(space, M, rng.uniform(0.5, 2.0), rng)
        W = _field_with_norm_sq(space, M, rng.uniform(0.5, 2.0), rng)
        assert lipschitz_witness(coeff, V, W, M) == 0.0


def test_lipschitz_ratio_bounded(setting):
    # for gamma = 1/2, |a(v) - a(w)| = | ||v|| - ||w|| | <= ||v - w||,
    # so the sampled ratio is bounded by 1 on the guarded set
    space, M = setting
    rng = np.random.default_rng(8)
    coeff = NonlocalCoefficient(gamma=0.5)
    worst = 0.0
    for _ in range(1000):
        V = _field_with_norm_sq(space, M, rng.uniform(1.0, 2.0), rng)
        W = _field_with_norm_sq(space, M, rng.uniform(1.0, 2.0), rng)
        worst = max(worst, lipschitz_witness(coeff, V, W, M))
    assert worst <= 1.0 + 1e-12


def test_lipschitz_directional_limit(setting):
    # V = W + eps e: the ratio approaches |2 gamma| s^(gamma-1) |(W, e)_M| / ||e||_M
    space, M = setting
    rng = np.random.default_rng(9)
    gamma = 0.5
    coeff = NonlocalCoefficient(gamma=gamma)
    W = _field_with_norm_sq(space, M, 1.7, rng)
    e = _field_with_norm_sq(space, M, 1.0, rng)
    eps = 1e-7
    V = FieldVector(W.coefficients + eps * e.coefficients, space)
    ratio = lipschitz_witness(coeff, V, W, M)
    s = l2_norm_sq(W, M)
    inner = float(W.coefficients @ (M.matrix @ e.coefficients))
    expect = abs(2.0 * gamma) * s ** (gamma - 1.0) * abs(inner)
    assert math.isfinite(ratio)
    assert ratio == pytest.approx(expect, rel=1e-4)
