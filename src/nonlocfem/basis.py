"""Lagrange basis functions on the reference interval and triangle.

Each basis is represented by its monomial coefficients, obtained once by
inverting the Vandermonde matrix on the equally spaced reference nodes
(small and well conditioned for the supported degrees). Values and
gradients are then evaluated at arbitrary reference points.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .mesh import reference_node_multi_indices


def _eval_monomials(exponents, points, axis=None):
    """Monomial values at points, or with an axis their derivatives along
    it, shape (n_monomials, n_points)."""
    pts = np.atleast_2d(points)
    out = np.zeros((len(exponents), len(pts)))
    for m, exps in enumerate(exponents):
        if axis is not None and exps[axis] == 0:
            continue
        term = np.full(len(pts), 1.0 if axis is None else float(exps[axis]))
        for d, e in enumerate(exps):
            p = e - 1 if d == axis else e
            if p:
                term = term * pts[:, d] ** p
        out[m] = term
    return out


class ReferenceBasis:
    """Degree-k Lagrange basis on the reference element.

    Local node ordering matches mesh.reference_node_multi_indices, which is
    also the ordering of LagrangeSpace.element_dofs.
    """

    def __init__(self, dim: int, degree: int):
        if degree < 1:
            raise ValueError(f"invalid degree: need k >= 1, got {degree}")
        self.dim = dim
        multi = reference_node_multi_indices(dim, degree)
        nodes = np.array(multi, dtype=float) / degree
        # the monomials of total degree <= k have the node multi-indices as exponents
        self._exponents = multi
        vander = _eval_monomials(self._exponents, nodes)  # (n_mono, n_nodes)
        # column i of coeffs holds basis i in the monomial basis
        self._coeffs = np.linalg.solve(vander.T, np.eye(len(multi)))

    def eval(self, points) -> np.ndarray:
        """Basis values at reference points, shape (n_local, n_points)."""
        mono = _eval_monomials(self._exponents, points)
        return self._coeffs.T @ mono

    def eval_grad(self, points) -> np.ndarray:
        """Reference gradients at points, shape (n_local, n_points, dim)."""
        pts = np.atleast_2d(points)
        out = np.empty((len(self._exponents), len(pts), self.dim))
        for axis in range(self.dim):
            dmono = _eval_monomials(self._exponents, pts, axis)
            out[:, :, axis] = self._coeffs.T @ dmono
        return out


@lru_cache(maxsize=None)
def reference_basis(dim: int, degree: int) -> ReferenceBasis:
    return ReferenceBasis(dim, degree)
