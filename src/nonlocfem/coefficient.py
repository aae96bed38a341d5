"""The nonlocal diffusion coefficient a(U) = (integral of U^2)^gamma.

The coefficient is evaluated from the squared norm s = U^T M U, which the
stepper already holds. Also provides the runtime guards that flag when a
trajectory leaves the regime 0 < m <= a <= M where the method's
local-in-time theory holds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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


def evaluate_from_norm_sq(coeff: NonlocalCoefficient, s: float) -> float:
    """a(U) = s^gamma from the squared norm s = U^T M U.

    Raises DegenerateCoefficientError when s = 0 and gamma < 0 (the value
    would be infinite); s = 0 and gamma > 0 yields 0, which the guards
    report as below the floor. gamma = 0 always yields 1.
    """
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

