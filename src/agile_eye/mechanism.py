"""Geometry of the orthogonal 3-RRR wrist: constraints, the leg table,
and the joint-space factors of the direct kinematics.

Legs are indexed 1..3.  Leg i runs from a base revolute joint with fixed
axis u_i through an intermediate joint with axis w_i(theta_i) to a
platform joint whose axis v_i rotates with the mobile platform.  All
adjacent axes are orthogonal by construction; the wrist is assembled at
(joints, orientation) exactly when w_i . v_i = 0 for every leg.

The leg table: leg i reads two entries (num_i, den_i) of R, the
components of -v_i across u_i: (r21, r11), (r02, r22) and (r10, r00)
(`leg_table`).  With s_i, c_i the sine and cosine of theta_i,

    w_i . v_i = s_i den_i - c_i num_i     (leg_residuals)
    theta_i   = atan2(num_i, den_i)       (inverse kinematics, or + pi)
    B_ii      = s_i num_i + c_i den_i     (leg_b; (w_i x v_i) . u_i)

u_i is the i-th base axis, so B_ii is entry i of row i of the Jacobian A
(`jacobian_rows`), bit for bit: that entry is (-s_i)(-num_i) minus
c_i (-den_i), and IEEE negation is exact (a NaN's sign aside).  A caller
that builds A reads diag(B) off it; only `b_diagonal` calls `leg_b`.

The joint-space factors q1, q2 and the three condition pairs use only
arithmetic, abs, < and & on the sines and cosines of `joint_trig`, so the
same functions take Python floats and broadcasting numpy arrays.  The
helpers that take `trig` let a caller compute the joint trig once per
call, and `leg_table` and `jacobian_rows` take the orientation as an
array or as its rows (`as_rows`), so a caller converts it once;
`constraint_residuals` and `b_diagonal` wrap them for (j, r).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .so3 import wrap_angle

# Tolerance of every exact structural identity: the condition pairs, q2 = 0,
# folded or extended legs and vanishing B denominators.
STRUCTURE_TOL = 1e-9

# P: at direct solution k (1..4), B_ii = P_k,i q2 / (d_j d_l) with the leg
# denominators of b_diag_closed_form, so its signature is sign(q2) P_k.
# The rows flip legs (1, 2), (2, 3), (1, 3) and form a group under product.
SIGN_TABLE = ((1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1))


@dataclass(frozen=True, slots=True)
class WorkingModeSignature:
    """Signs of (B11, B22, B33); one of the 8 working modes."""

    s1: int
    s2: int
    s3: int

    def __post_init__(self):
        for s in (self.s1, self.s2, self.s3):
            if s not in (-1, 1):
                raise ValueError("signature components must be +1 or -1")

    @property
    def label(self) -> str:
        return "".join("+" if s > 0 else "-" for s in (self.s1, self.s2, self.s3))

    @property
    def product(self) -> int:
        return self.s1 * self.s2 * self.s3


# The 8 working modes, keyed by sign triple: the package's functions return
# these shared instances (frozen, so equal to any other of the same signs).
SIGNATURES = {s: WorkingModeSignature(*s) for s in itertools.product((1, -1), repeat=3)}


@dataclass(frozen=True, slots=True, init=False)
class JointTriplet:
    """Active-joint angles (theta1, theta2, theta3), each in (-pi, pi]."""

    theta1: float
    theta2: float
    theta3: float

    def __init__(self, theta1: float, theta2: float, theta3: float):
        _set_theta1(self, wrap_angle(float(theta1)))
        _set_theta2(self, wrap_angle(float(theta2)))
        _set_theta3(self, wrap_angle(float(theta3)))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta1, self.theta2, self.theta3)


# each slot is written once, already wrapped, through its member descriptor
_set_theta1, _set_theta2, _set_theta3 = (
    JointTriplet.theta1.__set__, JointTriplet.theta2.__set__, JointTriplet.theta3.__set__
)


def joint_trig(t1: float, t2: float, t3: float):
    """(s1, c1, s2, c2, s3, c3): sines and cosines of the joint angles."""
    return math.sin(t1), math.cos(t1), math.sin(t2), math.cos(t2), math.sin(t3), math.cos(t3)


def det_factor(s1, c1, s2, c2, s3, c3):
    """q2 = s1 s2 s3 + c1 c2 c3, det(A) on the nontrivial direct solutions.

    The sum is accumulated in place, so on grid arrays no third
    grid-sized temporary is made.
    """
    q2 = s1 * s2 * s3
    q2 += c1 * c2 * c3
    return q2


def joint_factors(s1, c1, s2, c2, s3, c3):
    """(q1, q2): the direct kinematics' theta equation is
    q1 cos(theta) + q2 sin(theta) = 0."""
    return s1 * c2 * c3 * s3 - c1 * s2, det_factor(s1, c1, s2, c2, s3, c3)


def condition_pairs(s1, c1, s2, c2, s3, c3):
    """Whether each condition pair holds within STRUCTURE_TOL: 1 is sin t2
    = cos t3 = 0, 2 is sin t3 = cos t1 = 0, 3 is sin t1 = cos t2 = 0."""
    return (
        (abs(s2) < STRUCTURE_TOL) & (abs(c3) < STRUCTURE_TOL),
        (abs(s3) < STRUCTURE_TOL) & (abs(c1) < STRUCTURE_TOL),
        (abs(s1) < STRUCTURE_TOL) & (abs(c2) < STRUCTURE_TOL),
    )


def _w(trig):
    s1, c1, s2, c2, s3, c3 = trig
    return (0.0, -s1, c1), (c2, 0.0, -s2), (-s3, c3, 0.0)


def as_rows(r):
    """The rows of an orientation given as a 3x3 array (`r.tolist()`) or
    already as its rows, which are returned as they are."""
    return r.tolist() if isinstance(r, np.ndarray) else r


def _v(r):
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = as_rows(r)
    return (-r01, -r11, -r21), (-r02, -r12, -r22), (-r00, -r10, -r20)


def jacobian_rows(trig, r):
    """Rows w_i x v_i of the Jacobian A, as float triples, from the
    joint trig (`joint_trig`) and the orientation (an array or its
    rows)."""
    return [
        (wy * vz - wz * vy, wz * vx - wx * vz, wx * vy - wy * vx)
        for (wx, wy, wz), (vx, vy, vz) in zip(_w(trig), _v(r))
    ]


def leg_table(r):
    """(num_i, den_i) of legs 1..3: (r21, r11), (r02, r22), (r10, r00),
    from the orientation (an array or its rows)."""
    (r00, _, r02), (r10, r11, _), (_, r21, r22) = as_rows(r)
    return (r21, r11), (r02, r22), (r10, r00)


def leg_residuals(trig, table) -> tuple[float, float, float]:
    """w_i . v_i = s_i den_i - c_i num_i from the joint trig and the leg
    table; all zero when assembled."""
    s1, c1, s2, c2, s3, c3 = trig
    (n1, d1), (n2, d2), (n3, d3) = table
    return s1 * d1 - c1 * n1, s2 * d2 - c2 * n2, s3 * d3 - c3 * n3


def leg_b(trig, table) -> tuple[float, float, float]:
    """B_ii = s_i num_i + c_i den_i from the joint trig and the leg table."""
    s1, c1, s2, c2, s3, c3 = trig
    (n1, d1), (n2, d2), (n3, d3) = table
    return s1 * n1 + c1 * d1, s2 * n2 + c2 * d2, s3 * n3 + c3 * d3


def constraint_residuals(j: JointTriplet, r: np.ndarray) -> tuple[float, float, float]:
    """Raw dot products w_i . v_i; all zero when assembled.  Signs are
    kept so downstream mode logic can reuse them."""
    return leg_residuals(joint_trig(*j.as_tuple()), leg_table(r))


def b_diagonal(j: JointTriplet, r: np.ndarray) -> tuple[float, float, float]:
    """diag(B); the sign of B_ii tells which of the two leg-i branches the
    configuration uses."""
    return leg_b(joint_trig(*j.as_tuple()), leg_table(r))
