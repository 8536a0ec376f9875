"""SO(3) primitives: ZYX Euler triplets, rotation matrices, and a metric.

Orientations are parameterized as R = Rz(phi) @ Ry(theta) @ Rx(psi) (the
ZYX Euler convention).  Angles live in the half-open interval (-pi, pi],
with +pi retained.  Rotation matrices are plain 3x3 float64 numpy arrays;
the dedicated types here are the Euler triplet and its decomposition
result, which has to distinguish the gimbal-locked case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import MalformedRotation

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# |cos(theta)| below this means theta = +/-pi/2: the ZYX factorization is
# not unique there (representation singularity).
SINGULAR_COS_TOL = 1e-9

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


@dataclass(frozen=True)
class EulerZyx:
    """ZYX Euler triplet (phi, theta, psi); each angle normalized to (-pi, pi]."""

    phi: float
    theta: float
    psi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", wrap_angle(float(self.phi)))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))
        object.__setattr__(self, "psi", wrap_angle(float(self.psi)))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.phi, self.theta, self.psi)


@dataclass(frozen=True)
class EulerFamily:
    """Result of factoring a rotation into ZYX Euler angles.

    Off the representation singularity the factorization is unique and
    ``euler`` holds it.  At theta = +/-pi/2 only one angle combination is
    determined: phi - psi when theta = +pi/2, phi + psi when theta = -pi/2.
    That combination is stored in ``angle_combo`` (normalized to (-pi, pi]).
    """

    singular: bool
    euler: EulerZyx | None = None
    theta: float | None = None
    angle_combo: float | None = None

    @classmethod
    def unique(cls, euler: EulerZyx) -> "EulerFamily":
        return cls(singular=False, euler=euler)

    @classmethod
    def representation_singular(cls, theta: float, combo: float) -> "EulerFamily":
        return cls(singular=True, theta=theta, angle_combo=wrap_angle(combo))


def euler_to_rotation(e) -> np.ndarray:
    """Build the rotation matrix Rz(phi) @ Ry(theta) @ Rx(psi).

    Accepts an EulerZyx or any (phi, theta, psi) sequence; angles need not
    be pre-normalized.
    """
    if isinstance(e, EulerZyx):
        phi, theta, psi = e.as_tuple()
    else:
        phi, theta, psi = (float(a) for a in e)
    cf, sf = math.cos(phi), math.sin(phi)
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(psi), math.sin(psi)
    return np.array(
        [
            [cf * ct, cf * st * sp - sf * cp, cf * st * cp + sf * sp],
            [sf * ct, sf * st * sp + cf * cp, sf * st * cp - cf * sp],
            [-st, ct * sp, ct * cp],
        ]
    )


def validate_rotation(r: np.ndarray) -> np.ndarray:
    """Check that r is a proper rotation; return it as a float64 array.

    Raises MalformedRotation if r is not 3x3, or unless R^T R and det(R)
    are within ORTHONORMAL_TOL of I (entrywise) and of +1; NaN fails.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise MalformedRotation(f"expected 3x3 matrix, got shape {r.shape}")
    err = np.max(np.abs(r.T @ r - np.eye(3)))
    if not err <= ORTHONORMAL_TOL:
        raise MalformedRotation(f"R^T R deviates from identity by {err:.3e}")
    det = float(np.linalg.det(r))
    if not abs(det - 1.0) <= ORTHONORMAL_TOL:
        raise MalformedRotation(f"det(R) = {det:.15g}, expected +1")
    return r


def rotation_to_euler(r: np.ndarray) -> EulerFamily:
    """Factor a rotation into ZYX Euler angles.

    Returns the unique triplet with theta in (-pi/2, pi/2) when the matrix
    is away from the representation singularity.  When cos(theta) is zero
    within SINGULAR_COS_TOL, returns the singular branch carrying theta =
    +/-pi/2 and the constrained combination phi -/+ psi.
    """
    r = validate_rotation(r)
    st = -float(r[2, 0])
    ct = math.hypot(float(r[2, 1]), float(r[2, 2]))
    if ct < SINGULAR_COS_TOL:
        theta = HALF_PI if st > 0.0 else -HALF_PI
        combo = math.atan2(-float(r[0, 1]), float(r[1, 1]))
        return EulerFamily.representation_singular(theta, combo)
    theta = math.atan2(st, ct)
    phi = math.atan2(float(r[1, 0]), float(r[0, 0]))
    psi = math.atan2(float(r[2, 1]), float(r[2, 2]))
    return EulerFamily.unique(EulerZyx(phi, theta, psi))


def canonicalize_euler(e: EulerZyx) -> EulerZyx:
    """Return the canonical representative of an Euler triplet.

    The triplets (phi, theta, psi) and (phi + pi, pi - theta, psi + pi)
    describe the same orientation; the canonical pick has theta in
    (-pi/2, pi/2].  Triplets on the representation singularity are
    returned unchanged (already normalized), which keeps the map
    idempotent there.
    """
    if abs(math.cos(e.theta)) < SINGULAR_COS_TOL:
        return e
    if -HALF_PI < e.theta <= HALF_PI:
        return e
    theta = math.pi - e.theta if e.theta > 0.0 else -math.pi - e.theta
    return EulerZyx(e.phi + math.pi, theta, e.psi + math.pi)


def rotation_angle(m) -> float:
    """Angle of a rotation given by its rows (float triples), in [0, pi].

    |vee(M - M^T)| = 2 sin(angle) and trace(M) - 1 = 2 cos(angle); their
    atan2 keeps full precision over the whole range.  NaN or infinite
    entries give NaN (atan2 of two infinities would give a multiple of
    pi/4), and so do entries whose sums overflow.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    s = math.hypot(m21 - m12, m02 - m20, m10 - m01)
    c = m00 + m11 + m22 - 1.0
    return math.atan2(s, c) if math.isfinite(s + c) else math.nan


# An infinite entry makes the product NaN (inf * 0) and sets numpy's
# invalid flag; rotation_angle returns NaN for it, so no warning is due.
@np.errstate(invalid="ignore")
def rotation_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic angle between two rotations, in [0, pi]: the angle of
    a^T b.  NaN if either has a NaN or infinite entry."""
    # np.dot makes the same BLAS call as a.T @ b, with less overhead
    return rotation_angle(np.dot(a.T, b).tolist())


def axis_angle_rotation(axis, angle: float) -> np.ndarray:
    """Rotation by `angle` about `axis` (need not be unit length)."""
    ax = np.asarray(axis, dtype=float)
    n = float(np.linalg.norm(ax))
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    x, y, z = ax / n
    c, s = math.cos(angle), math.sin(angle)
    k = 1.0 - c
    return np.array(
        [
            [c + x * x * k, x * y * k - z * s, x * z * k + y * s],
            [y * x * k + z * s, c + y * y * k, y * z * k - x * s],
            [z * x * k - y * s, z * y * k + x * s, c + z * z * k],
        ]
    )
