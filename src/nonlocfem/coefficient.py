"""The nonlocal diffusion coefficient a(U) = (integral of U^2)^gamma.

The coefficient is evaluated from the squared norm s = U^T M U, which the
stepper already holds. Also provides the runtime guards that flag when a
trajectory leaves the regime 0 < m <= a <= M where the method's
local-in-time theory holds. At extinction (s = 0 with gamma < 0) the value
is infinite, and the guards alone classify it as degenerate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

DEFAULT_FLOOR = 1e-12
DEFAULT_CEILING = 1e12


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

    s <= 0 (roundoff can make the quadratic form slightly negative at
    extinction) yields inf when gamma < 0, which the guards report as
    degenerate, and 0 when gamma > 0, which they report as below the floor.
    gamma = 0 always yields 1. Otherwise the power is taken on a Python
    float, so a finite s > 0 gives a finite value or raises OverflowError,
    and s = inf gives 0 when gamma < 0: with gamma < 0, inf means s <= 0.
    """
    if coeff.gamma == 0.0:
        return 1.0
    if s <= 0.0:
        return math.inf if coeff.gamma < 0.0 else 0.0
    return float(s) ** coeff.gamma


def check_guards(value: float, coeff: NonlocalCoefficient) -> GuardStatus:
    """Classify a coefficient value against the [m, M] nondegeneracy window.

    inf with gamma < 0 is extinction (evaluate_from_norm_sq gives it only
    for s <= 0) and is degenerate; any other value that is not finite, NaN
    included, is above the ceiling."""
    if value < 0.0:
        raise ValueError(f"coefficient value must be nonnegative, got {value}")
    if value == math.inf and coeff.gamma < 0.0:
        return GuardStatus.DEGENERATE
    if not math.isfinite(value):
        return GuardStatus.ABOVE_CEILING
    if value < coeff.floor_m:
        return GuardStatus.BELOW_FLOOR
    if value > coeff.ceil_M:
        return GuardStatus.ABOVE_CEILING
    return GuardStatus.OK

