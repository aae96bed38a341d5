"""The nonlocal diffusion coefficient a(U) = (integral of U^2)^gamma.

Also provides the runtime guards that flag when a trajectory leaves the
regime 0 < m <= a <= M where the method's local-in-time theory holds, and
a sampled Lipschitz-ratio witness used by the property tests.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .assembly import FieldVector, SparseSymMatrix, l2_norm_sq

DEFAULT_FLOOR = 1e-12
DEFAULT_CEILING = 1e12


class DegenerateCoefficientError(ArithmeticError):
    """The squared norm vanished where the coefficient would be 0 or infinite."""


class GuardStatus(enum.Enum):
    OK = "ok"
    BELOW_FLOOR = "below-floor"
    ABOVE_CEILING = "above-ceiling"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class NonlocalCoefficient:
    """Exponent and guard thresholds for the diffusion coefficient."""

    gamma: float
    floor_m: float = DEFAULT_FLOOR
    ceil_M: float = DEFAULT_CEILING

    def __post_init__(self):
        if not self.floor_m > 0:
            raise ValueError(f"guard floor must be positive, got {self.floor_m}")
        if not self.ceil_M > self.floor_m:
            raise ValueError("guard ceiling must exceed the floor")


def evaluate(coeff: NonlocalCoefficient, U: FieldVector,
             M_mass: SparseSymMatrix) -> float:
    """a(U) = s^gamma with s = U^T M U.

    Raises DegenerateCoefficientError when s = 0 and gamma < 0 (the value
    would be infinite); s = 0 and gamma > 0 yields 0, which the guards
    report as below the floor. gamma = 0 always yields 1.
    """
    return evaluate_from_norm_sq(coeff, l2_norm_sq(U, M_mass))


def evaluate_from_norm_sq(coeff: NonlocalCoefficient, s: float) -> float:
    if s < 0.0:
        # roundoff can produce a tiny negative quadratic form at extinction
        s = 0.0
    if coeff.gamma == 0.0:
        return 1.0
    if s == 0.0:
        if coeff.gamma < 0.0:
            raise DegenerateCoefficientError(
                "coefficient is infinite: zero field with negative exponent")
        return 0.0
    return s ** coeff.gamma


def check_guards(value: float, coeff: NonlocalCoefficient) -> GuardStatus:
    """Classify a coefficient value against the [m, M] nondegeneracy window."""
    if value < 0.0:
        raise ValueError(f"coefficient value must be nonnegative, got {value}")
    if not math.isfinite(value):
        return GuardStatus.ABOVE_CEILING
    if value < coeff.floor_m:
        return GuardStatus.BELOW_FLOOR
    if value > coeff.ceil_M:
        return GuardStatus.ABOVE_CEILING
    return GuardStatus.OK


def lipschitz_witness(coeff: NonlocalCoefficient, V: FieldVector, W: FieldVector,
                      M_mass: SparseSymMatrix) -> float:
    """|a(V) - a(W)| / ||V - W||_M, the sampled Lipschitz ratio.

    Only meaningful when both squared norms lie inside the guard window;
    raises ValueError on identical inputs (zero denominator).
    """
    diff = FieldVector(V.coefficients - W.coefficients, V.space)
    dist = math.sqrt(l2_norm_sq(diff, M_mass))
    if dist == 0.0:
        raise ValueError("identical inputs: Lipschitz ratio is undefined")
    av = evaluate(coeff, V, M_mass)
    aw = evaluate(coeff, W, M_mass)
    return abs(av - aw) / dist
