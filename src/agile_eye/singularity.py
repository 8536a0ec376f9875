"""Jacobian construction, closed-form determinants, and the singularity
classification into three families.

The velocity relation is A @ omega + B @ theta_dot = 0 with row i of A
equal to (w_i x v_i)^T and B diagonal with B_ii = (w_i x v_i)^T u_i.
On the nontrivial direct solutions det(A) reduces to a function of the
joints alone,

    det(A) = sin(t1) sin(t2) sin(t3) + cos(t1) cos(t2) cos(t3),

and on the trivial orientations to its negative.  The three singular
families: self-motions (six one-parameter orientation curves), lockups
(trivial orientation, det factor nonzero), and infinitesimal motions at a
trivial orientation (det factor zero without a condition pair).

The sign of det(A) at an inverse solution.  Let D(R) = r00 r11 r22 +
r02 r10 r21.  At an inverse-kinematic solution leg i has theta_i =
atan2(num_i, den_i) or that plus pi, so (sin, cos)(theta_i) =
sigma_i (num_i, den_i) / h_i with h_i = hypot(num_i, den_i), and
B_ii = sigma_i h_i: sigma is the working-mode signature.  The leg table
pairs (r21, r11), (r02, r22) and (r10, r00), so

    q2 = s1 s2 s3 + c1 c2 c3 = pi(sigma) D / (h1 h2 h3),

pi(sigma) = sigma_1 sigma_2 sigma_3.  In ZYX Euler angles (phi, theta,
psi) both D and

    cos^2 theta [(cos phi cos psi + sin theta sin phi sin psi)^2
                 + cos^2 theta sin^2 phi sin^2 psi]

expand to cos^2 theta (cos^2 phi cos^2 psi + 2 sin theta sin phi cos phi
sin psi cos psi + sin^2 phi sin^2 psi), so D >= 0.  Wherever D > 0,
sign(q2) = pi(sigma); as direct solution k has signature sign(q2) P_k,
working mode sigma is in assembly mode k = SIGN_TABLE.index(pi(sigma)
sigma) + 1.  D = 0 exactly when cos theta = 0 (curves 3a and 3b, which hold the
trivial orientations) or sin phi sin psi = cos phi cos psi = 0 (curves
1a, 1b, 2a and 2b): every self-motion curve has a zero in both products
of D (r00 = r02 = 0 on 1a and 1b, r02 = r22 = 0 on 2a and 2b, r00 = r21 =
0 on 3a and 3b), and D is zero nowhere else.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToolConfig
from .dk import PAIR_FAMILIES, joint_degeneracy, nearest_trivial, self_motion_family
from .exceptions import DenominatorDegenerate, NotAssembled
from .mechanism import (
    SIGN_TABLE,
    STRUCTURE_TOL,
    JointTriplet,
    det_factor,
    jacobian_rows,
    joint_trig,
    leg_residuals,
    leg_table,
)
from .so3 import rotation_distance, wrap_angle


@dataclass(frozen=True, slots=True, eq=False)
class JacobianPair:
    """Matrix A (rows w_i x v_i) and the diagonal of B.  Two pairs are
    equal when their arrays are; like its arrays, a pair is unhashable."""

    a: np.ndarray
    b_diag: np.ndarray

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.a, other.a) and np.array_equal(self.b_diag, other.b_diag)

    __hash__ = None


@dataclass(frozen=True, slots=True)
class SingularityClass:
    """Classification of an assembled configuration.

    kind: "regular", "self_motion" (with family_id 1..6),
    "infinitesimal_at_trivial" or "lockup" (with trivial_id 1..4).
    """

    kind: str
    family_id: int | None = None
    trivial_id: int | None = None


# SingularityClass is frozen, so every regular configuration shares one.
_REGULAR = SingularityClass(kind="regular")


def jacobians(j: JointTriplet, r: np.ndarray) -> JacobianPair:
    """Numeric A and diag(B) at a configuration; diag(B) is A's diagonal
    (`mechanism`)."""
    a = np.array(jacobian_rows(joint_trig(*j.as_tuple()), r))
    return JacobianPair(a=a, b_diag=a.diagonal().copy())


def det3(m) -> float:
    """Determinant of a 3x3 matrix (an array or three float rows),
    expanded directly."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    return float(
        m00 * (m11 * m22 - m12 * m21)
        - m01 * (m10 * m22 - m12 * m20)
        + m02 * (m10 * m21 - m11 * m20)
    )


def det_a_closed_form(j: JointTriplet, branch: str = "nontrivial") -> float:
    """Closed-form det(A) in joint space.

    branch "nontrivial" applies on the four nontrivial direct solutions;
    branch "trivial" (the four trivial orientations) carries the opposite
    sign.  The value is identical across the four assembly modes.
    """
    q2 = det_factor(*joint_trig(*j.as_tuple()))
    if branch == "nontrivial":
        return q2
    if branch == "trivial":
        return -q2
    raise ValueError(f"branch must be 'nontrivial' or 'trivial', got {branch!r}")


def b_diag_closed_form(j: JointTriplet, mode: int) -> np.ndarray:
    """Closed-form diagonal of B at direct solution `mode`, an integer 1..4
    (a float raises TypeError).

    B_ii = P_mode,i * q2 / (d_j d_l), with P the mechanism's SIGN_TABLE
    and d_j, d_l the two denominators paired with leg i.  This is the
    numeric diag(B) at solve_dk(j).solutions[mode - 1], sign included.

    Raises DenominatorDegenerate unless every denominator exceeds
    STRUCTURE_TOL (NaN fails too): else the numerator vanishes too and the
    configuration is leg-singular, so no finite ratio is reported.
    """
    if operator.index(mode) not in (1, 2, 3, 4):
        raise ValueError(f"assembly mode must be 1..4, got {mode}")
    s1, c1, s2, c2, s3, c3 = joint_trig(*j.as_tuple())
    # sqrt(1 - cos^2 a sin^2 b) rewritten without cancellation
    d1 = math.sqrt(s3 * s3 + c3 * c3 * c1 * c1)  # 1 - cos^2 t3 sin^2 t1
    d2 = math.sqrt(s1 * s1 + c1 * c1 * c2 * c2)  # 1 - cos^2 t1 sin^2 t2
    d3 = math.sqrt(s2 * s2 + c2 * c2 * c3 * c3)  # 1 - cos^2 t2 sin^2 t3
    if not (d1 > STRUCTURE_TOL and d2 > STRUCTURE_TOL and d3 > STRUCTURE_TOL):
        raise DenominatorDegenerate(
            "closed-form B denominator vanished (leg-singular joints): "
            f"d = ({d1:.3e}, {d2:.3e}, {d3:.3e})"
        )
    q2 = det_factor(s1, c1, s2, c2, s3, c3)
    p1, p2, p3 = SIGN_TABLE[mode - 1]
    return np.array([p1 * q2 / (d1 * d2), p2 * q2 / (d3 * d2), p3 * q2 / (d3 * d1)])


# An infinite entry of r meets the curve's zeros (inf * 0) and sets numpy's
# invalid flag, and finite entries whose sums overflow set its overflow
# flag; the distance is NaN for both, so no warning is due.
@np.errstate(invalid="ignore", over="ignore")
def family_distance(r: np.ndarray, family_id: int) -> tuple[float, float]:
    """Min rotation distance from r to a self-motion curve.

    Returns (parameter, distance) with the parameter in (-pi, pi].  Each
    curve is affine in (cos t, sin t), so trace(r^T S(t)) = a + b cos t +
    c sin t, read off S at t = 0, pi and pi/2.  The geodesic distance falls
    as that trace grows, so the nearest point is at t* = atan2(c, b); the
    distance is rotation_distance(r, S(t*)).  When b = c = 0 the whole
    curve is equally far and t* is simply what atan2 gives for the
    rounded b and c.
    """
    f0, f_pi, f_half = (
        float(np.sum(r * self_motion_family(family_id, t)))
        for t in (0.0, math.pi, 0.5 * math.pi)
    )
    a, b = 0.5 * (f0 + f_pi), 0.5 * (f0 - f_pi)
    t = wrap_angle(math.atan2(f_half - a, b))
    return t, rotation_distance(r, self_motion_family(family_id, t))


def _best_family(r: np.ndarray, family_ids) -> tuple[int, float]:
    best_fid, best_d = 0, math.inf
    for fid in family_ids:
        _, d = family_distance(r, fid)
        if d < best_d:
            best_fid, best_d = fid, d
    return best_fid, best_d


def classify_configuration(
    j: JointTriplet, r: np.ndarray, cfg: ToolConfig = DEFAULT_CONFIG
) -> SingularityClass:
    """Classify an assembled configuration into the three singular
    families or Regular.

    Raises NotAssembled when some constraint residual exceeds the
    residual tolerance, or when an entry of r is not finite.  Every
    regular configuration gets the one shared "regular" instance.
    """
    trig = joint_trig(*j.as_tuple())
    rows = r.tolist()
    e1, e2, e3 = leg_residuals(trig, leg_table(rows))
    tol = cfg.residual_tol
    if not (abs(e1) <= tol and abs(e2) <= tol and abs(e3) <= tol):  # NaN fails too
        worst = float(np.max(np.abs((e1, e2, e3))))
        raise NotAssembled(f"constraint residuals reach {worst:.3e} (> {tol:g})")
    q2 = det_factor(*trig)
    pair = joint_degeneracy(j, trig, q2).pair
    if pair is not None:
        fid, dist = _best_family(r, PAIR_FAMILIES[pair])
        if dist < cfg.singular_tol:
            return SingularityClass(kind="self_motion", family_id=fid)
    trivial_id, trivial_dist = nearest_trivial(rows)
    if math.isnan(trivial_dist):
        # r01, r12 or r20 is not finite: outside the leg table, so the
        # residual gate let it through
        raise NotAssembled(f"distance to the nearest trivial orientation is {trivial_dist}")
    if trivial_dist >= cfg.singular_tol:
        det = det3(jacobian_rows(trig, rows))
        if abs(det) > cfg.singular_tol:
            return _REGULAR
        # Tolerance-band fallback: attribute to the nearest singular structure.
        fid, fdist = _best_family(r, range(1, 7))
        # Each trivial orientation lies on one curve of each pair (T1 on
        # families 1, 4, 5; T2 on 2, 3, 5; T3 on 1, 3, 6; T4 on 2, 4, 6),
        # so a finite fdist never exceeds trivial_dist: only the NaN
        # distances of an r that is not a rotation fall through.
        if fdist <= trivial_dist:
            return SingularityClass(kind="self_motion", family_id=fid)
    # A trivial orientation is nearest: the det factor tells lockup from infinitesimal.
    kind = "lockup" if abs(q2) > STRUCTURE_TOL else "infinitesimal_at_trivial"
    return SingularityClass(kind=kind, trivial_id=trivial_id)
