"""Direct kinematics: trivial orientations, the four-solution cascade,
and the degenerate branches (self-motion families, trivial-only joints).

For fixed actuator angles the constraint system splits in two.  One branch
(cos theta = 0) is independent of the joints and yields four fixed
"trivial" orientations at which every leg is singular.  The other branch
forces phi = theta3 and reduces to a scalar equation
c1 * cos(theta) + c2 * sin(theta) = 0 whose coefficients depend only on
the joints; each of its two roots admits two psi values, giving four
nontrivial solutions related by half-turns about platform joint axes.

The cascade degenerates in two ways.  When both coefficients vanish
(equivalently when one of three condition pairs on the joints holds), a
whole one-parameter family of orientations assembles: a self-motion.  Each
condition pair allows two such curves -- one with the singular leg folded
("a" variant), one with it extended ("b" variant) -- and both curves are
reachable for any joints satisfying the pair; which one applies is a
property of the platform orientation, not of the joints.  When only c2
vanishes and no condition pair holds, the nontrivial branch collapses
into the trivial one and the four trivial orientations are the only
solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import UnknownFamily
from .mechanism import (
    SIGN_TABLE,
    STRUCTURE_TOL,
    JointTriplet,
    condition_pairs,
    det_factor,
    joint_factors,
    joint_trig,
    leg_b,
)
from .so3 import HALF_PI, EulerZyx, rotation_angle, wrap_angle

_TRIVIAL = (
    np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]),
    np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]]),
    np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]),
    np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
)
# The nonzero entry of each column of T_k: T[2, 0], T[0, 1], T[1, 2].
_TRIVIAL_SIGNS = tuple((float(t[2, 0]), float(t[0, 1]), float(t[1, 2])) for t in _TRIVIAL)

FAMILY_LABELS = ("1a", "1b", "2a", "2b", "3a", "3b")

# Condition pair -> the two self-motion family ids it enables (a, b).
PAIR_FAMILIES = {1: (1, 2), 2: (3, 4), 3: (5, 6)}

# Leg that stays singular (and free) on each family.
FAMILY_SINGULAR_LEG = {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3}

_PAIR_DESCRIPTIONS = {
    1: "cos(phi) = 0 and sin(psi) = 0, theta free (leg 1 singular)",
    2: "sin(phi) = 0 and cos(psi) = 0, theta free (leg 2 singular)",
    3: "theta = +pi/2 with phi - psi free, or theta = -pi/2 with "
    "phi + psi free (leg 3 singular)",
}


@dataclass(frozen=True)
class CascadeIntermediates:
    """Coefficients of the cascade at a candidate theta.

    c1 * cos(theta) + c2 * sin(theta) = 0 determines theta from the joints
    alone (q1 = c1, q2 = c2 here); then p1 * cos(psi) + p2 * sin(psi) = 0
    and p3 * cos(psi) + p4 * sin(psi) = 0 determine psi.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    q1: float
    q2: float


@dataclass(frozen=True)
class JointDegeneracy:
    """Degeneracy class of a joint triplet.

    kind is one of "generic", "self_motion", "trivial_only".  For
    self-motion joints, `pair` (1..3) names the condition pair that
    holds; both of the pair's family curves assemble, so no single a/b
    variant is attached here.
    """

    kind: str
    pair: int | None = None


@dataclass(frozen=True)
class DkResult:
    """Full direct-kinematics outcome for one joint triplet.

    The four trivial orientations are always present: `trivial` computes
    fresh copies on access (`trivial_orientations`).  `branch` is
    "finite" (four Euler solutions in half-turn order: (phi, theta, psi),
    (phi, theta, psi+pi), (phi, theta+pi, -psi), (phi, theta+pi, -psi+pi)),
    "self_motion" (a condition pair holds; `families` lists the two
    assembling curves) or "trivial_only".
    """

    branch: str
    solutions: tuple[EulerZyx, EulerZyx, EulerZyx, EulerZyx] | None = None
    pair: int | None = None
    families: tuple[int, int] | None = None
    constrained: str | None = None

    @property
    def is_finite(self) -> bool:
        return self.branch == "finite"

    @property
    def trivial(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return trivial_orientations()


def trivial_orientations() -> tuple[np.ndarray, ...]:
    """The four orientations that solve the constraints for any joints."""
    return tuple(m.copy() for m in _TRIVIAL)


def nearest_trivial(r: np.ndarray) -> tuple[int, float]:
    """Id (1..4) of the trivial orientation nearest to r, and its distance.

    Each T_k is a signed permutation, so trace(T_k^T r) is a signed sum of
    r01, r12 and r20; the geodesic distance falls as that trace grows, so
    the nearest T_k has the largest.  Ties go to the lowest id.  Column j
    of T_k is +-e_(j-1 mod 3), so column j of r^T T_k is a signed row
    j-1 of r: built from r's entries directly, it equals the matrix
    product bit for bit.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.tolist()
    traces = (r12 - r01 - r20, r01 - r12 - r20, r20 - r01 - r12, r01 + r12 + r20)
    k = max(range(4), key=traces.__getitem__)
    s0, s1, s2 = _TRIVIAL_SIGNS[k]
    m = (
        (s0 * r20, s1 * r00, s2 * r10),
        (s0 * r21, s1 * r01, s2 * r11),
        (s0 * r22, s1 * r02, s2 * r12),
    )
    return k + 1, rotation_angle(m)


def _psi_coeffs(trig, ct: float, st: float) -> tuple[float, float, float, float]:
    # (p1, p2, p3, p4) of the two psi equations at cos(theta), sin(theta)
    s1, c1, s2, c2, s3, c3 = trig
    return s1 * c3, s1 * st * s3 - ct * c1, c2 * st * c3 - ct * s2, c2 * s3


def cascade_intermediates(j: JointTriplet, theta: float) -> CascadeIntermediates:
    """Evaluate all cascade coefficients at the given theta."""
    trig = joint_trig(*j.as_tuple())
    q1, q2 = joint_factors(*trig)
    p = _psi_coeffs(trig, math.cos(theta), math.sin(theta))
    return CascadeIntermediates(*p, q1=q1, q2=q2)


# JointDegeneracy is frozen, so the two classes without a pair are shared.
_GENERIC = JointDegeneracy(kind="generic")
_TRIVIAL_ONLY = JointDegeneracy(kind="trivial_only")


def joint_degeneracy(j: JointTriplet, trig, q2: float) -> JointDegeneracy:
    """classify_joint_degeneracy(j) from j's joint trig (`joint_trig`) and
    determinant factor q2, for a caller that has both."""
    if math.isnan(q2):
        # every threshold below would fail towards "generic"
        raise ValueError(f"joints {j.as_tuple()} are not finite")
    pairs = condition_pairs(*trig)
    if True in pairs:
        return JointDegeneracy(kind="self_motion", pair=pairs.index(True) + 1)
    if abs(q2) <= STRUCTURE_TOL:
        return _TRIVIAL_ONLY
    return _GENERIC


def classify_joint_degeneracy(j: JointTriplet) -> JointDegeneracy:
    """Sort a joint triplet into generic / self-motion / trivial-only.

    Raises ValueError for a NaN joint."""
    trig = joint_trig(*j.as_tuple())
    return joint_degeneracy(j, trig, det_factor(*trig))


def _fold_half(a: float) -> float:
    # Representative of an angle-mod-pi class in (-pi/2, pi/2].
    a = wrap_angle(a)
    if a > HALF_PI:
        return a - math.pi
    if a <= -HALF_PI:
        return a + math.pi
    return a


# Canonical order, keyed by which signs of diag(B) at the cascade's first
# solution agree with sign(q2) (pattern rel): cascade solution i has pattern
# rel * P_i, so solution k is cascade solution P.index(rel * P_k).  Other
# keys are unreachable; cascade order is kept if roundoff lands there.
_ORDERS = {
    tuple(r > 0 for r in rel): tuple(
        SIGN_TABLE.index(tuple(r * p for r, p in zip(rel, pk))) for pk in SIGN_TABLE
    )
    for rel in SIGN_TABLE
}


def finite_solutions(phi: float, trig, q1: float, q2: float):
    """The four nontrivial direct solutions, as raw (phi, theta, psi)
    floats in canonical order, of joints with third angle phi, joint trig
    `trig` (`joint_trig`) and joint factors (q1, q2) (`joint_factors`).

    The angles are not wrapped (EulerZyx wraps them).  The joints must be
    generic (`joint_degeneracy`); solve_dk is this plus that check.
    """
    theta = _fold_half(math.atan2(-q1, q2))
    ct, st = math.cos(theta), math.sin(theta)
    p1, p2, p3, p4 = _psi_coeffs(trig, ct, st)
    # Either psi equation may degenerate alone; use the better-conditioned one.
    if max(abs(p1), abs(p2)) < max(abs(p3), abs(p4)):
        p1, p2 = p3, p4
    psi = _fold_half(math.atan2(-p1, p2))
    raw = (
        (phi, theta, psi),
        (phi, theta, psi + math.pi),
        (phi, theta + math.pi, -psi),
        (phi, theta + math.pi, -psi + math.pi),
    )
    # Leg table (r21, r11), (r02, r22), (r10, r00) of raw[0], written as
    # euler_to_rotation writes those entries (its angles are already
    # wrapped, and cos/sin(phi) = c3, s3), so diag(B) and the order are
    # bit-identical to b_diagonal(j, euler_to_rotation(raw[0])).
    s3, c3 = trig[4], trig[5]
    cp, sp = math.cos(psi), math.sin(psi)
    b1, b2, b3 = leg_b(
        trig,
        (
            (ct * sp, s3 * st * sp + c3 * cp),
            (c3 * st * cp + s3 * sp, ct * cp),
            (s3 * ct, c3 * ct),
        ),
    )
    pos = q2 > 0.0
    rel = ((b1 > 0.0) == pos, (b2 > 0.0) == pos, (b3 > 0.0) == pos)
    order = _ORDERS.get(rel, (0, 1, 2, 3))
    return tuple(raw[i] for i in order)


def solve_dk(j: JointTriplet) -> DkResult:
    """Solve the direct kinematics for one joint triplet.

    Generic joints give four nontrivial Euler solutions in canonical
    order (`finite_solutions`): solution k has working-mode signature
    sign(q2) * P_k, with P the mechanism's SIGN_TABLE.  Degenerate joints
    (within STRUCTURE_TOL) give the self-motion or trivial-only branch
    instead.  The trivial orientations are attached in every case.  A NaN
    joint raises ValueError.
    """
    trig = joint_trig(*j.as_tuple())
    q1, q2 = joint_factors(*trig)
    deg = joint_degeneracy(j, trig, q2)
    if deg.kind == "self_motion":
        return DkResult(
            branch="self_motion",
            pair=deg.pair,
            families=PAIR_FAMILIES[deg.pair],
            constrained=_PAIR_DESCRIPTIONS[deg.pair],
        )
    if deg.kind == "trivial_only":
        return DkResult(branch="trivial_only")
    solutions = finite_solutions(j.theta3, trig, q1, q2)
    return DkResult(branch="finite", solutions=tuple(EulerZyx(*e) for e in solutions))


def self_motion_family(family_id, parameter: float) -> np.ndarray:
    """Orientation on one of the six self-motion curves.

    family_id is 1..6 or a label from FAMILY_LABELS ("1a".."3b"); the
    free angle is `parameter`.  On the "a" curves the singular leg is
    fully folded (platform joint axis equal to the base joint axis), on
    the "b" curves fully extended (opposite).
    """
    if isinstance(family_id, str):
        label = family_id.lower()
        if label not in FAMILY_LABELS:
            raise UnknownFamily(f"unknown self-motion family {family_id!r}")
        fid = FAMILY_LABELS.index(label) + 1
    else:
        fid = int(family_id)
        if fid < 1 or fid > 6:
            raise UnknownFamily(f"self-motion family id must be 1..6, got {family_id}")
    c, s = math.cos(parameter), math.sin(parameter)
    if fid == 1:
        return np.array([[0.0, -1.0, 0.0], [c, 0.0, s], [-s, 0.0, c]])
    if fid == 2:
        return np.array([[0.0, 1.0, 0.0], [c, 0.0, -s], [-s, 0.0, -c]])
    if fid == 3:
        return np.array([[c, s, 0.0], [0.0, 0.0, -1.0], [-s, c, 0.0]])
    if fid == 4:
        return np.array([[c, -s, 0.0], [0.0, 0.0, 1.0], [-s, -c, 0.0]])
    if fid == 5:
        return np.array([[0.0, -s, c], [0.0, c, s], [-1.0, 0.0, 0.0]])
    return np.array([[0.0, -s, -c], [0.0, c, -s], [1.0, 0.0, 0.0]])
