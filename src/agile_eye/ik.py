"""Inverse kinematics: all eight working modes for a given orientation.

Each leg's constraint w_i . v_i = 0 is linear in (sin theta_i, cos theta_i),
so each leg admits exactly two solutions half a turn apart -- unless both
coefficients vanish, in which case the leg is fully folded or extended and
its angle is arbitrary.  The full solution set is the Cartesian product
over legs: generically 2^3 = 8 joint triplets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .mechanism import SIGNATURES, STRUCTURE_TOL, JointTriplet, WorkingModeSignature, leg_table
from .so3 import wrap_angle


@dataclass(frozen=True, slots=True)
class LegIkOutcome:
    """Per-leg result: two antipodal angles, or an arbitrary (singular) leg."""

    arbitrary: bool
    angles: tuple[float, float] | None = None


@dataclass(frozen=True, slots=True)
class IkSolutionSet:
    """Outcome of the full inverse-kinematic solve.

    `enumerated` holds the Cartesian product of per-leg angles.  When some
    leg is arbitrary it is empty, unless the solve was asked to fill
    arbitrary legs with the convention angle 0, in which case it has
    2^k entries for k non-arbitrary legs.
    """

    legs: tuple[LegIkOutcome, LegIkOutcome, LegIkOutcome]
    enumerated: tuple[JointTriplet, ...]

    @property
    def any_arbitrary(self) -> bool:
        return any(leg.arbitrary for leg in self.legs)

    @property
    def signatures(self) -> tuple[WorkingModeSignature, ...] | None:
        """The working mode of each enumerated triplet; None when a leg is
        arbitrary.  Leg i's first angle is the root atan2(num_i, den_i),
        where B_ii = +hypot(num_i, den_i), and its antipode has -hypot, so
        the signatures run in itertools.product((1, -1), repeat=3) order:
        the order of `SIGNATURES`."""
        return None if self.any_arbitrary else tuple(SIGNATURES.values())


# LegIkOutcome is frozen, so every arbitrary leg shares one.
_ARBITRARY = LegIkOutcome(arbitrary=True)


def _leg_outcome(leg: int, num: float, den: float) -> LegIkOutcome:
    # theta = atan2(num, den) and its antipode, from the leg table
    if not (math.isfinite(num) and math.isfinite(den)):
        raise ValueError(f"leg {leg}: leg table entries ({num}, {den}) are not finite")
    if max(abs(num), abs(den)) < STRUCTURE_TOL:
        return _ARBITRARY
    a = wrap_angle(math.atan2(num, den))
    return LegIkOutcome(arbitrary=False, angles=(a, wrap_angle(a + math.pi)))


def solve_ik(r: np.ndarray, fill_arbitrary: bool = False) -> IkSolutionSet:
    """All working modes for the given orientation.

    Degenerate legs are reported, not raised.  With fill_arbitrary=True
    each arbitrary leg contributes the single convention angle 0 to the
    enumeration instead of suppressing it.  A NaN or infinite entry of
    the leg table raises ValueError naming the leg.
    """
    legs = tuple(_leg_outcome(i, n, d) for i, (n, d) in enumerate(leg_table(r), 1))
    if any(leg.arbitrary for leg in legs) and not fill_arbitrary:
        return IkSolutionSet(legs, ())
    options = [(0.0,) if leg.arbitrary else leg.angles for leg in legs]
    enumerated = tuple(JointTriplet(*c) for c in itertools.product(*options))
    return IkSolutionSet(legs, enumerated)
