import numpy as np
import pytest
from oracles import monomial_integral, reference_measure

from nonlocfem.quadrature import MAX_TRIANGLE_DEGREE, reference_rule


@pytest.mark.parametrize("degree", range(0, 12))
def test_interval_weights_sum_to_measure(degree):
    rule = reference_rule(1, degree)
    assert abs(rule.weights.sum() - reference_measure(1)) <= 1e-14


@pytest.mark.parametrize("degree", range(1, MAX_TRIANGLE_DEGREE + 1))
def test_triangle_weights_sum_to_measure(degree):
    rule = reference_rule(2, degree)
    assert abs(rule.weights.sum() - reference_measure(2)) <= 1e-14


@pytest.mark.parametrize("degree", range(0, 12))
def test_interval_monomial_exactness(degree):
    rule = reference_rule(1, degree)
    for a in range(rule.degree + 1):
        approx = float(np.sum(rule.weights * rule.points[:, 0] ** a))
        exact = monomial_integral(1, (a,))
        assert abs(approx - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("degree", range(1, MAX_TRIANGLE_DEGREE + 1))
def test_triangle_monomial_exactness(degree):
    rule = reference_rule(2, degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            approx = float(np.sum(rule.weights
                                  * rule.points[:, 0] ** a
                                  * rule.points[:, 1] ** b))
            exact = monomial_integral(2, (a, b))
            assert abs(approx - exact) <= 1e-13 * abs(exact)


def test_triangle_degree_cap():
    with pytest.raises(ValueError):
        reference_rule(2, MAX_TRIANGLE_DEGREE + 1)


def test_triangle_points_inside_reference_element():
    for degree in range(1, MAX_TRIANGLE_DEGREE + 1):
        pts = reference_rule(2, degree).points
        # the degree 1..8 tables use interior points only
        assert (pts >= 0.0).all()
        assert (pts.sum(axis=1) <= 1.0 + 1e-15).all()


def test_unsupported_dimension():
    with pytest.raises(ValueError):
        reference_rule(3, 2)
