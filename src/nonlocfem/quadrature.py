"""Quadrature rules on the reference interval [0,1] and reference triangle.

1D rules are Gauss-Legendre. 2D rules are the standard symmetric triangle
rules (Dunavant 1985) up to degree 8, stored in compressed orbit form.
Weights sum to the reference measure (1 for the interval, 1/2 for the
triangle), so integrals are plain weighted sums of point values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on a reference element, exact up to `degree`."""

    degree: int
    points: np.ndarray   # (n_points, dim)
    weights: np.ndarray  # (n_points,)

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


# Dunavant symmetric rules in compressed form. Each entry of an orbit list is
# (orbit_type, weight, params): "S3" is the centroid, "S21" the 3-point orbit
# of barycentric (1-2a, a, a), "S111" the 6-point orbit of (1-a-b, a, b).
# Weights are normalized to sum to 1 over the full expanded rule.
_DUNAVANT = {
    1: [("S3", 1.0, ())],
    2: [("S21", 1.0 / 3.0, (1.0 / 6.0,))],
    3: [("S3", -0.5625, ()),
        ("S21", 25.0 / 48.0, (0.2,))],
    4: [("S21", 0.223381589678011, (0.445948490915965,)),
        ("S21", 0.109951743655322, (0.091576213509771,))],
    5: [("S3", 0.225, ()),
        ("S21", 0.132394152788506, (0.470142064105115,)),
        ("S21", 0.125939180544827, (0.101286507323456,))],
    6: [("S21", 0.116786275726379, (0.249286745170910,)),
        ("S21", 0.050844906370207, (0.063089014491502,)),
        ("S111", 0.082851075618374, (0.310352451033784, 0.636502499121399))],
    7: [("S3", -0.149570044467682, ()),
        ("S21", 0.175615257433208, (0.260345966079040,)),
        ("S21", 0.053347235608838, (0.065130102902216,)),
        ("S111", 0.077113760890257, (0.312865496004874, 0.638444188569810))],
    8: [("S3", 0.144315607677787, ()),
        ("S21", 0.095091634267285, (0.459292588292723,)),
        ("S21", 0.103217370534718, (0.170569307751760,)),
        ("S21", 0.032458497623198, (0.050547228317031,)),
        ("S111", 0.027230314174435, (0.263112829634638, 0.728492392955404))],
}

MAX_TRIANGLE_DEGREE = max(_DUNAVANT)


def _expand_orbit(kind, params):
    """Barycentric coordinates of all points in an orbit."""
    if kind == "S3":
        return [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)]
    if kind == "S21":
        a = params[0]
        b = 1.0 - 2.0 * a
        return [(b, a, a), (a, b, a), (a, a, b)]
    a, b = params
    c = 1.0 - a - b
    return [(c, a, b), (a, b, c), (b, c, a), (c, b, a), (b, a, c), (a, c, b)]


@lru_cache(maxsize=None)
def gauss_legendre_interval(degree: int) -> QuadratureRule:
    """Smallest Gauss-Legendre rule on [0,1] exact to the given degree."""
    if degree < 0:
        raise ValueError(f"quadrature degree must be nonnegative, got {degree}")
    m = max(1, (degree + 2) // 2)  # 2m-1 >= degree
    x, w = np.polynomial.legendre.leggauss(m)
    points = 0.5 * (x + 1.0)
    weights = 0.5 * w
    return QuadratureRule(degree=2 * m - 1,
                          points=points.reshape(-1, 1), weights=weights)


@lru_cache(maxsize=None)
def symmetric_triangle_rule(degree: int) -> QuadratureRule:
    """Symmetric rule on the triangle (0,0)-(1,0)-(0,1) exact to `degree`.

    Available up to degree 8; higher requests raise ValueError.
    """
    if degree < 1:
        degree = 1
    if degree > MAX_TRIANGLE_DEGREE:
        raise ValueError(
            f"no symmetric triangle rule of degree {degree} "
            f"(max {MAX_TRIANGLE_DEGREE})")
    pts = []
    wts = []
    for kind, w, params in _DUNAVANT[degree]:
        for lam in _expand_orbit(kind, params):
            # map barycentric (l0, l1, l2) to (x, y) = (l1, l2)
            pts.append((lam[1], lam[2]))
            wts.append(0.5 * w)
    return QuadratureRule(degree=degree,
                          points=np.array(pts), weights=np.array(wts))


def reference_rule(dim: int, degree: int) -> QuadratureRule:
    """Rule on the reference element of the given dimension."""
    if dim == 1:
        return gauss_legendre_interval(degree)
    if dim == 2:
        return symmetric_triangle_rule(degree)
    raise ValueError(f"unsupported dimension {dim}")

