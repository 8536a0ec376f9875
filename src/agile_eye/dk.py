"""Direct kinematics: trivial orientations, the four-solution cascade,
and the degenerate branches (self-motion families, trivial-only joints).

For fixed actuator angles the constraint system splits in two.  One branch
(cos theta = 0) is independent of the joints and yields four fixed
"trivial" orientations at which every leg is singular.  The other branch
forces phi = theta3 and reduces to a scalar equation
c1 * cos(theta) + c2 * sin(theta) = 0 whose coefficients depend only on
the joints; each of its two roots admits two psi values, giving four
nontrivial solutions related by half-turns about platform joint axes.
Solution k has working-mode signature sign(c2) P_k (P = SIGN_TABLE), so
the four carry the four signatures of sign product sign(c2) (c2 is `q2`).

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
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import UnknownFamily
from .mechanism import (
    SIGN_TABLE,
    SIGNATURES,
    STRUCTURE_TOL,
    JointTriplet,
    WorkingModeSignature,
    as_rows,
    condition_pairs,
    det_factor,
    joint_factors,
    joint_trig,
)
from .so3 import HALF_PI, EulerZyx, nearest_flip, relative, rotation_entries

# T_k = C diag(h_k), C the cyclic column permutation (column j of C is
# e_(j-1 mod 3)): h_k holds the nonzero entries T[2, 0], T[0, 1], T[1, 2].
_TRIVIAL_SIGNS = ((-1.0, -1.0, 1.0), (-1.0, 1.0, -1.0), (1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
_TRIVIAL = tuple(
    np.array([[0.0, h1, 0.0], [0.0, 0.0, h2], [h0, 0.0, 0.0]]) for h0, h1, h2 in _TRIVIAL_SIGNS
)

# sign(q2) * SIGN_TABLE, row by row, indexed by q2 > 0: the signatures of
# the four direct solutions, as shared instances of mechanism.SIGNATURES
SOLUTION_SIGNATURES = tuple(
    tuple(SIGNATURES[s * p1, s * p2, s * p3] for p1, p2, p3 in SIGN_TABLE) for s in (-1, 1)
)

FAMILY_LABELS = ("1a", "1b", "2a", "2b", "3a", "3b")

# Every accepted family name -> its id: "1".."6" and the labels "1a".."3b".
FAMILY_IDS = {name: i for i, label in enumerate(FAMILY_LABELS, 1) for name in (str(i), label)}

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


@dataclass(frozen=True, slots=True)
class JointDegeneracy:
    """Degeneracy class of a joint triplet.

    kind is one of "generic", "self_motion", "trivial_only".  For
    self-motion joints, `pair` (1..3) names the condition pair that
    holds; both of the pair's family curves assemble, so no single a/b
    variant is attached here.
    """

    kind: str
    pair: int | None = None


@dataclass(frozen=True, slots=True)
class DkResult:
    """Full direct-kinematics outcome for one joint triplet.

    `q2` is det_factor of the joints, on every branch, and the trivial
    orientations are always present (`trivial` copies them).  `branch` is
    "finite" (four Euler solutions in half-turn order: (phi, theta, psi),
    (phi, theta, psi+pi), (phi, theta+pi, -psi), (phi, theta+pi, -psi+pi)),
    "self_motion" (a condition pair holds; `families` lists the two
    assembling curves) or "trivial_only".
    """

    branch: str
    q2: float
    solutions: tuple[EulerZyx, EulerZyx, EulerZyx, EulerZyx] | None = None
    pair: int | None = None
    families: tuple[int, int] | None = None
    constrained: str | None = None

    @property
    def is_finite(self) -> bool:
        return self.branch == "finite"

    @property
    def signatures(self) -> tuple[WorkingModeSignature, ...] | None:
        """sign(q2) * SIGN_TABLE[k] for each solution k; None if not finite."""
        return None if self.solutions is None else SOLUTION_SIGNATURES[self.q2 > 0.0]

    @property
    def trivial(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return trivial_orientations()


def trivial_orientations() -> tuple[np.ndarray, ...]:
    """The four orientations that solve the constraints for any joints."""
    return tuple(m.copy() for m in _TRIVIAL)


def nearest_trivial(r) -> tuple[int, float]:
    """Id (1..4) of the trivial orientation nearest to r (an array or its
    rows), and its distance.

    With T_k = C diag(h_k) (`_TRIVIAL_SIGNS`), r^T T_k = (r^T C) diag(h_k):
    `nearest_flip` of r^T C, whose column j is row j-1 of r, written from
    r's entries bit for bit; ties as in `nearest_flip`.
    """
    # r^T C is picked entry by entry, not computed (`so3.relative`): C is a
    # permutation, so each entry is one entry of r, and adding the zero
    # products would turn -0.0 into +0.0 and an infinite entry into NaN
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = as_rows(r)
    return nearest_flip(((r20, r00, r10), (r21, r01, r11), (r22, r02, r12)), _TRIVIAL_SIGNS)


# JointDegeneracy is frozen, so the two classes without a pair are shared.
_GENERIC = JointDegeneracy(kind="generic")
_TRIVIAL_ONLY = JointDegeneracy(kind="trivial_only")


def joint_degeneracy(j: JointTriplet, trig, q2: float) -> JointDegeneracy:
    """classify_joint_degeneracy(j) from j's joint trig (`joint_trig`) and
    determinant factor q2 = det_factor(*trig), for a caller that has both.

    Joints with |q2| > 2 STRUCTURE_TOL are generic, decided before the
    condition pairs are evaluated.  The exit is exact: where a pair holds,
    q2's float value has |q2| <= 2 STRUCTURE_TOL.  det_factor computes
    (s1 s2) s3 + (c1 c2) c3, and each pair bounds one factor of each
    product below STRUCTURE_TOL (pair 1: s2 and c3, pair 2: s3 and c1,
    pair 3: s1 and c2), the others being sines and cosines of magnitude
    <= 1.  Rounding is monotone and the bounds are floats, so each rounded
    product is at most that factor in magnitude, below STRUCTURE_TOL, and
    the rounded sum of two such products is at most 2 STRUCTURE_TOL.
    """
    if abs(q2) > 2.0 * STRUCTURE_TOL:
        return _GENERIC
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
    # Representative in (-pi/2, pi/2] of the angle-mod-pi class of an atan2
    # output a in [-pi, pi]: -pi and pi both fold to +0.0.
    if a > HALF_PI:
        return a - math.pi
    if a <= -HALF_PI:
        return a + math.pi
    return a


# Canonical order, keyed by (B11 > 0, q2 > 0) at the cascade's first
# solution, whose signature is sign(q2) P_m with P_m,3 = sign(q2)
# (`cascade`): cascade solution i has signature sign(q2) P_m P_i, so
# solution k is cascade solution P.index(P_m P_k).
_ORDERS = {
    (m1 * m3 > 0, m3 > 0): tuple(
        SIGN_TABLE.index((m1 * p1, m2 * p2, m3 * p3)) for p1, p2, p3 in SIGN_TABLE
    )
    for m1, m2, m3 in SIGN_TABLE
}


def cascade(trig, q1: float, q2: float):
    """The cascade's first solution (theta, psi), both folded to
    (-pi/2, pi/2], their cosines and sines (ct, st, cp, sp), and the
    canonical order (`_ORDERS`) of generic joints with joint trig `trig`
    and joint factors (q1, q2).  theta solves q1 cos(theta) + q2
    sin(theta) = 0, then psi solves p1 cos(psi) + p2 sin(psi) = 0 or
    p3 cos(psi) + p4 sin(psi) = 0; the four solutions are the half-turn
    table of `DkResult` on (theta3, theta, psi).  `solve_dk`,
    `direct_solution` and `nearest_direct_solution` all read this one
    output, so a caller that matches and then solves runs it once.

    One sign fixes the order.  theta is folded to (-pi/2, pi/2], and the
    float nearest pi/2 lies below pi/2, so cos(theta) > 0.  Leg 3 reads
    (r10, r00) = cos(theta) (s3, c3) on the first solution, so there
    B33 = s3 (s3 cos(theta)) + c3 (c3 cos(theta)) > 0: both terms are
    >= 0 and one is about cos(theta) / 2 or more.  That solution's
    signature sign(q2) P_m thus has P_m,3 = sign(q2), which leaves two
    rows of P, and sign(B11) picks one.
    """
    theta = _fold_half(math.atan2(-q1, q2))
    ct, st = math.cos(theta), math.sin(theta)
    s1, c1, s2, c2, s3, c3 = trig
    p1, p2 = s1 * c3, s1 * st * s3 - ct * c1
    p3, p4 = c2 * st * c3 - ct * s2, c2 * s3
    # Either psi equation may degenerate alone; use the better-conditioned one.
    if max(abs(p1), abs(p2)) < max(abs(p3), abs(p4)):
        p1, p2 = p3, p4
    psi = _fold_half(math.atan2(-p1, p2))
    # B11 = s1 r21 + c1 r11 of the first solution, with (r21, r11) written
    # as so3.rotation_entries writes them (cos/sin(phi) = c3, s3), so it is
    # bit-identical to b_diagonal(j, euler_to_rotation(that solution))[0].
    cp, sp = math.cos(psi), math.sin(psi)
    b1 = s1 * (ct * sp) + c1 * (s3 * st * sp + c3 * cp)
    return theta, psi, (ct, st, cp, sp), _ORDERS[b1 > 0.0, q2 > 0.0]


def _half_turn(i: int, phi: float, theta: float, psi: float) -> EulerZyx:
    """Entry i (0..3) of the half-turn table on the cascade's first
    solution (phi, theta, psi)."""
    if i >= 2:
        theta, psi = theta + math.pi, -psi if i == 2 else -psi + math.pi
    elif i == 1:
        psi += math.pi
    return EulerZyx(phi, theta, psi)


def direct_solution(k: int, phi: float, trig, first):
    """solve_dk's solutions[k] (0..3) of generic joints with third angle
    phi (a JointTriplet's theta3), joint trig `trig` (`joint_trig`) and
    cascade output `first` (`cascade`), with the nine entries of its
    matrix, row by row (`rotation_entries`), both bit for bit: what a
    caller that tracks one solution needs.  A sine or cosine is reused
    only where its angle is the same float: (s3, c3) for phi, and the
    cascade's own for theta or psi where the solution keeps them.
    """
    theta, psi, (ct, st, cp, sp), order = first
    i = order[k]
    e = _half_turn(i, phi, theta, psi)
    if i >= 2:
        ct, st = math.cos(e.theta), math.sin(e.theta)
    if i >= 1:
        cp, sp = math.cos(e.psi), math.sin(e.psi)
    return e, rotation_entries(trig[5], trig[4], ct, st, cp, sp)


# Column signs of the half-turns H_i: cascade solution i is R H_i, R the
# first (`_half_turn`: psi + pi is a half-turn about x, theta + pi with
# -psi one about y).  Legs 1, 2, 3 read columns 1, 2, 0 of R and flipping
# a column flips that leg's B_ii, so H_i flips as P_i does.  Each order of
# `_ORDERS` lists them canonically: solution k is R H_order[k].
_HALF_TURNS = tuple((p3, p1, p2) for p1, p2, p3 in SIGN_TABLE)
_ORDER_TURNS = {order: tuple(_HALF_TURNS[i] for i in order) for order in _ORDERS.values()}


def nearest_direct_solution(trig, first, r) -> tuple[int, float]:
    """Index k (1..4) of the direct solution of generic joints nearest to r
    (an array or its rows), and its rotation distance, from the joint trig
    `trig` and cascade output `first` that `direct_solution` takes.

    The four solutions are R H_k for the cascade's first solution R
    (`_ORDER_TURNS`), so r^T R_k is M = r^T R with its columns flipped by
    H_k: `nearest_flip` of M (`so3.relative` of r and R, in floats), over
    the four half-turns in canonical order (ties go to the lowest
    index).  Any two solutions are pi apart.  NaN or infinite entries of r
    give a NaN distance.
    """
    _, _, (ct, st, cp, sp), order = first
    a = rotation_entries(trig[5], trig[4], ct, st, cp, sp)
    return nearest_flip(relative(as_rows(r), (a[0:3], a[3:6], a[6:9])), _ORDER_TURNS[order])


def solve_dk(j: JointTriplet) -> DkResult:
    """Solve the direct kinematics for one joint triplet.

    Generic joints give four nontrivial Euler solutions in canonical
    order (`cascade`): solution k has working-mode signature
    sign(q2) * P_k, with P the mechanism's SIGN_TABLE, which the result
    reports with q2 (`DkResult.signatures`).  Degenerate joints
    (within STRUCTURE_TOL) give the self-motion or trivial-only branch
    instead; joints with |q2| > 2 STRUCTURE_TOL are generic without a
    look at the condition pairs (`joint_degeneracy`).  The trivial
    orientations are attached in every case.  A NaN joint raises
    ValueError.
    """
    trig = joint_trig(*j.as_tuple())
    q1, q2 = joint_factors(*trig)
    deg = joint_degeneracy(j, trig, q2)
    if deg.kind == "self_motion":
        return DkResult(
            branch="self_motion",
            q2=q2,
            pair=deg.pair,
            families=PAIR_FAMILIES[deg.pair],
            constrained=_PAIR_DESCRIPTIONS[deg.pair],
        )
    if deg.kind == "trivial_only":
        return DkResult(branch="trivial_only", q2=q2)
    theta, psi, _, order = cascade(trig, q1, q2)
    solutions = tuple(_half_turn(i, j.theta3, theta, psi) for i in order)
    return DkResult(branch="finite", q2=q2, solutions=solutions)


def self_motion_family(family_id, parameter: float) -> np.ndarray:
    """Orientation on one of the six self-motion curves.

    family_id is an integer 1..6 (a float raises TypeError) or a key of
    FAMILY_IDS; the free angle is `parameter`.  On the "a" curves the
    singular leg is fully folded (platform joint axis equal to the base
    joint axis), on the "b" curves fully extended.
    """
    if isinstance(family_id, str):
        fid = FAMILY_IDS.get(family_id.lower())
        if fid is None:
            raise UnknownFamily(f"unknown self-motion family {family_id!r}")
    else:
        fid = operator.index(family_id)
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
