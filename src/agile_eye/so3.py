"""SO(3) primitives: ZYX Euler triplets, rotation matrices, and a metric.

Orientations are parameterized as R = Rz(phi) @ Ry(theta) @ Rx(psi) (the
ZYX Euler convention).  Angles live in the half-open interval (-pi, pi],
with +pi retained.  Rotation matrices are plain 3x3 float64 numpy arrays;
the Euler triplet is the one dedicated type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import MalformedRotation

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# Entrywise tolerance on R^T R = I and det(R) = 1.
ORTHONORMAL_TOL = 1e-10


def wrap_angle(x: float) -> float:
    """Wrap an angle to (-pi, pi], keeping the +pi endpoint.  NaN stays
    NaN; an infinite angle raises ValueError."""
    if -math.pi < x <= math.pi:  # math.remainder returns these unchanged
        return x
    try:
        y = math.remainder(x, TWO_PI)
    except ValueError:  # math domain error, from an infinite x
        raise ValueError(f"cannot wrap angle {x!r}") from None
    return math.pi if y == -math.pi else y


@dataclass(frozen=True, slots=True, init=False)
class EulerZyx:
    """ZYX Euler triplet (phi, theta, psi); each angle normalized to (-pi, pi]."""

    phi: float
    theta: float
    psi: float

    def __init__(self, phi: float, theta: float, psi: float):
        _set_phi(self, wrap_angle(float(phi)))
        _set_theta(self, wrap_angle(float(theta)))
        _set_psi(self, wrap_angle(float(psi)))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.phi, self.theta, self.psi)


# each slot is written once, already wrapped, through its member descriptor
_set_phi, _set_theta, _set_psi = (
    EulerZyx.phi.__set__, EulerZyx.theta.__set__, EulerZyx.psi.__set__
)


def rotation_entries(cf, sf, ct, st, cp, sp) -> tuple[float, ...]:
    """The nine entries, row by row, of Rz(phi) @ Ry(theta) @ Rx(psi) from
    the cosines and sines of its angles (cf = cos(phi), sf = sin(phi),
    and so on): the one home of the ZYX formula."""
    return (
        cf * ct, cf * st * sp - sf * cp, cf * st * cp + sf * sp,
        sf * ct, sf * st * sp + cf * cp, sf * st * cp - cf * sp,
        -st, ct * sp, ct * cp,
    )


def euler_to_rotation(e) -> np.ndarray:
    """Build the rotation matrix Rz(phi) @ Ry(theta) @ Rx(psi).

    Accepts an EulerZyx or any (phi, theta, psi) sequence; angles need not
    be pre-normalized.
    """
    if isinstance(e, EulerZyx):
        phi, theta, psi = e.as_tuple()
    else:
        phi, theta, psi = (float(a) for a in e)
    entries = rotation_entries(
        math.cos(phi), math.sin(phi), math.cos(theta), math.sin(theta), math.cos(psi), math.sin(psi)
    )
    # a flat sequence converts faster than nested rows, to the same float64s
    return np.array(entries).reshape(3, 3)


def validate_rotation(r: np.ndarray) -> np.ndarray:
    """Check that r is a proper rotation; return it as a float64 array.

    Raises MalformedRotation if r is not 3x3, or unless R^T R and det(R)
    are within ORTHONORMAL_TOL of I (entrywise) and of +1; NaN fails, and
    so do finite entries whose products overflow (with no numpy warning).
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise MalformedRotation(f"expected 3x3 matrix, got shape {r.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.max(np.abs(r.T @ r - np.eye(3)))
    if not err <= ORTHONORMAL_TOL:
        raise MalformedRotation(f"R^T R deviates from identity by {err:.3e}")
    det = float(np.linalg.det(r))
    if not abs(det - 1.0) <= ORTHONORMAL_TOL:
        raise MalformedRotation(f"det(R) = {det:.15g}, expected +1")
    return r


def rotation_angle(m, h=(1.0, 1.0, 1.0)) -> float:
    """Angle of the rotation M diag(h), for M given by its rows (float
    triples) and a sign triple h, in [0, pi].

    |vee(M - M^T)| = 2 sin(angle) and trace(M) - 1 = 2 cos(angle); their
    atan2 keeps full precision over the whole range.  Each entry of M
    diag(h) is an entry of M times a sign, which is exact, so the angle is
    that of the flipped matrix bit for bit.  NaN or infinite entries give
    NaN (atan2 of two infinities would give a multiple of pi/4), and so do
    entries whose sums overflow.  M is assumed to be a rotation and is not
    checked (`validate_rotation` checks); a positive multiple of the
    identity reads as angle 0.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    h0, h1, h2 = h
    s = math.hypot(m21 * h1 - m12 * h2, m02 * h2 - m20 * h0, m10 * h0 - m01 * h1)
    c = m00 * h0 + m11 * h1 + m22 * h2 - 1.0
    return math.atan2(s, c) if math.isfinite(s + c) else math.nan


def nearest_flip(m, flips) -> tuple[int, float]:
    """Index k (1..4) of the sign triple h = flips[k - 1] that makes
    M diag(h) the rotation of smallest angle, and that angle, for M given
    by its rows and four sign triples: the rotation among the four that is
    nearest to the identity.

    A rotation's angle falls as its trace (1 + 2 cos(angle)) grows, so
    that h has the largest trace h0 m00 + h1 m11 + h2 m22.  Ties of the
    computed traces go to the lowest index; an M exactly as near to two
    may get either, as its traces round.  M diag(h) is M with column i
    times h_i.  NaN or infinite entries give a NaN angle (`rotation_angle`).
    """
    (m00, _, _), (_, m11, _), (_, _, m22) = m
    traces = [h0 * m00 + h1 * m11 + h2 * m22 for h0, h1, h2 in flips]
    k = 0
    for i in (1, 2, 3):
        if traces[i] > traces[k]:
            k = i
    return k + 1, rotation_angle(m, flips[k])


# An infinite entry makes the product NaN (inf * 0) and sets numpy's
# invalid flag; rotation_angle returns NaN for it, so no warning is due.
@np.errstate(invalid="ignore")
def rotation_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic angle between two rotations, in [0, pi]: the angle of
    a^T b.  NaN if either has a NaN or infinite entry.  Both are assumed
    to be rotations and are not checked (`validate_rotation` checks); a
    positive multiple of a rotation is at distance 0 from it, up to
    rounding: rotation_distance(2 I, I) is 0."""
    # np.dot makes the same BLAS call as a.T @ b, with less overhead
    return rotation_angle(np.dot(a.T, b).tolist())

