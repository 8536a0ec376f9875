"""Working-mode signatures, the working/assembly mode correspondence,
and certified path tracking.

The sign triple of diag(B) identifies the working mode: flipping one
leg's angle by pi flips the corresponding B_ii.  Direct solution k of
generic joints has signature sign(q2) * P_k (P the mechanism's SIGN_TABLE,
q2 the joint-space determinant factor), so only the four signatures of
sign product sign(q2) are reachable, each naming its solution by lookup.

The four direct solutions are half-turns of the first about the platform
axes: R_k = R_1 H_k with H_k = I, diag(1, -1, -1), diag(-1, 1, -1) and
diag(-1, -1, 1), in solve_dk's canonical order.  The cascade's raw
solutions are R H_k (psi + pi is a half-turn about x; theta + pi with -psi
one about y), the H_k form a group, and the canonical order is a
translation in it.  So r^T R_k is M = r^T R_1 with its columns
sign-flipped by H_k: one matrix product matches an orientation against
all four solutions (`nearest_solution`), and any two solutions are pi
apart.

The wrist is non-cuspidal: a joint path can change assembly mode only
where it meets the determinant surface q2 = sin t1 sin t2 sin t3 +
cos t1 cos t2 cos t3 = 0.  Inside one sign domain of q2 no B_ii vanishes,
so every direct solution keeps its signature, and the canonical solution
order ties each index 1..4 to a signature.  Tracking is therefore two
steps per segment: certify by Lipschitz and curvature bounds that |q2|
stays above the singular tolerance, then take the end waypoint's direct
solution with the start's index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToolConfig
from .dk import DkResult, solve_dk
from .exceptions import (
    DegenerateJoints,
    NoMatchingSolution,
    NoSuchMode,
    SingularNoSignature,
    StartNotASolution,
)
from .mechanism import (
    SIGN_TABLE,
    STRUCTURE_TOL,
    JointTriplet,
    b_diagonal,
    det_factor,
    joint_trig,
)
from .so3 import EulerZyx, euler_to_rotation, rotation_angle, wrap_angle

# Orientation-to-solution matching tolerance (rotation distance, radians).
MATCH_TOL = 1e-6

# Column signs of the half-turns H_k: direct solution k is R_1 H_k.
_HALF_TURNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


@dataclass(frozen=True)
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

    @classmethod
    def from_label(cls, label: str) -> "WorkingModeSignature":
        if len(label) != 3 or any(ch not in "+-" for ch in label):
            raise ValueError(f"signature label must be three of '+'/'-', got {label!r}")
        return cls(*(1 if ch == "+" else -1 for ch in label))


@dataclass(frozen=True)
class SingularityCrossing:
    """Report of a singularity encountered while tracking a path."""

    segment: int
    reason: str


@dataclass(frozen=True)
class TrackResult:
    """Orientation path produced by track_path.

    One entry per input waypoint actually reached; each is direct
    solution `mode_id` (1..4) of its waypoint.  `crossing` is None for a
    clean track; otherwise it names the first offending segment
    (path[segment] -> path[segment + 1]) and the orientations list stops
    at the last safely reached waypoint.
    """

    orientations: tuple[np.ndarray, ...]
    eulers: tuple[EulerZyx, ...]
    mode_id: int
    crossing: SingularityCrossing | None = None

    @property
    def crossed(self) -> bool:
        return self.crossing is not None


def working_mode_signature(j: JointTriplet, r: np.ndarray) -> WorkingModeSignature:
    """Componentwise signs of the numeric diag(B).

    Raises SingularNoSignature unless every |B_ii| > STRUCTURE_TOL (NaN
    fails too): otherwise the configuration is leg-singular, with no mode.
    """
    b = b_diagonal(j, r)
    if not all(abs(x) > STRUCTURE_TOL for x in b):
        raise SingularNoSignature(
            f"diag(B) = {tuple(b)} has a vanishing entry (tol {STRUCTURE_TOL:g})"
        )
    return WorkingModeSignature(*(1 if x > 0 else -1 for x in b))


def _finite_dk(j: JointTriplet) -> DkResult:
    dk = solve_dk(j)
    if not dk.is_finite:
        raise DegenerateJoints(
            f"direct kinematics branch is {dk.branch!r}; finite solutions required"
        )
    return dk


def _q2_sign(j: JointTriplet) -> int:
    return 1 if det_factor(*joint_trig(*j.as_tuple())) > 0.0 else -1


def direct_signature(j: JointTriplet, mode: int) -> WorkingModeSignature:
    """Signature sign(q2) * SIGN_TABLE[mode - 1] of direct solution `mode`
    (1..4) of j, exact wherever solve_dk(j) is finite."""
    s = _q2_sign(j)
    return WorkingModeSignature(*(s * p for p in SIGN_TABLE[mode - 1]))


def assembly_mode_for(j: JointTriplet, sig: WorkingModeSignature) -> EulerZyx:
    """The direct solution realizing a requested working-mode signature.

    Only the four signatures whose sign product matches the sign of the
    joint-space determinant factor are realizable; asking for one from
    the opposite group raises NoSuchMode.
    """
    dk = _finite_dk(j)
    s = _q2_sign(j)
    rel = (s * sig.s1, s * sig.s2, s * sig.s3)
    if rel in SIGN_TABLE:
        return dk.solutions[SIGN_TABLE.index(rel)]
    raise NoSuchMode(
        f"signature {sig.label} not realized: these joints admit the "
        f"sign-product {'+' if s > 0 else '-'} group only"
    )


def nearest_solution(dk: DkResult, r: np.ndarray) -> tuple[int, float]:
    """Index (1..4) of the finite direct solution of `dk` nearest to r, and
    its rotation distance.

    With M = r^T R_1, r^T R_k = M H_k; the distance falls as trace(M H_k)
    grows, so the nearest solution has the largest (ties go to the lowest
    index) and its distance is the angle of M H_k.  NaN in r gives a NaN
    distance.
    """
    m = (r.T @ euler_to_rotation(dk.solutions[0])).tolist()
    m00, m11, m22 = m[0][0], m[1][1], m[2][2]
    traces = [h0 * m00 + h1 * m11 + h2 * m22 for h0, h1, h2 in _HALF_TURNS]
    k = max(range(4), key=traces.__getitem__)
    h = _HALF_TURNS[k]
    return k + 1, rotation_angle([[x * s for x, s in zip(row, h)] for row in m])


def assembly_mode_id(
    j: JointTriplet, r: np.ndarray, tol: float = MATCH_TOL
) -> int:
    """Index (1..4) of the canonical direct solution within `tol` of r
    (NaN fails)."""
    idx, dist = nearest_solution(_finite_dk(j), r)
    if not dist <= tol:
        raise NoMatchingSolution(
            "orientation matches no nontrivial direct solution of these joints"
        )
    return idx


def _segment_crossing(a: JointTriplet, b: JointTriplet, singular_tol: float) -> str | None:
    """Why the shortest-arc segment a -> b is not certified clear, or None.

    Every first and second partial of q2 has magnitude <= 1, so along
    a + f * d (d the wrapped joint differences) |dq2/df| <= L and
    |d2q2/df2| <= L**2, with L = |d1| + |d2| + |d3|.  An interval [f0, f1]
    of length h keeps |q2| > t = singular_tol throughout when its endpoint
    values v0, v1 share a sign and either (|v0| + |v1| - L h) / 2 > t
    (Piyavskii-Shubert exclusion) or min(|v0|, |v1|) - (L h)**2 / 8 > t
    (linear interpolation error); any other interval is bisected.  The
    second bound keeps the bisection short on segments that run close to
    the surface q2 = 0.  Every comparison is written so that NaN fails it.
    """
    base = a.as_tuple()
    d = [wrap_angle(y - x) for x, y in zip(base, b.as_tuple())]
    lip = sum(abs(x) for x in d)
    stack = [(0.0, 1.0, det_factor(*joint_trig(*base)), det_factor(*joint_trig(*b.as_tuple())))]
    while stack:
        f0, f1, v0, v1 = stack.pop()
        if not (abs(v0) > singular_tol and abs(v1) > singular_tol):
            return "determinant factor within tolerance"
        if (v0 > 0.0) != (v1 > 0.0):
            return "determinant sign change"
        lh = lip * (f1 - f0)
        lipschitz = (abs(v0) + abs(v1) - lh) / 2.0
        curvature = min(abs(v0), abs(v1)) - lh * lh / 8.0
        if max(lipschitz, curvature) > singular_tol:
            continue
        fm = 0.5 * (f0 + f1)
        if not (lh > singular_tol and f0 < fm < f1):
            return "determinant factor within tolerance"
        vm = det_factor(*joint_trig(*(x + fm * dx for x, dx in zip(base, d))))
        stack.append((fm, f1, vm, v1))
        stack.append((f0, fm, v0, vm))
    return None


def track_path(
    path, start: np.ndarray, cfg: ToolConfig = DEFAULT_CONFIG
) -> TrackResult:
    """Track the assembly mode along a joint path.

    `start` must match one of the four direct solutions of path[0] within
    MATCH_TOL (else StartNotASolution); its index is the tracked mode.
    Each segment is first certified to keep |q2| > cfg.singular_tol (see
    _segment_crossing); the waypoint's orientation is then the direct
    solution with the start's index.  Inside one sign domain of q2 every
    B_ii is nonzero, so each solution keeps its working-mode signature and
    the canonical order pins the index to that signature.  A
    SingularityCrossing is reported on the first segment that is not
    certified ("determinant sign change" or "determinant factor within
    tolerance"), or whose end waypoint has no finite direct solutions
    ("direct solve became ...").  Condition pairs and trivial-only joints
    have |q2| < 2 STRUCTURE_TOL, inside the default singular_tol.
    """
    waypoints = [p if isinstance(p, JointTriplet) else JointTriplet(*p) for p in path]
    if not waypoints:
        raise ValueError("path must contain at least one waypoint")

    dk0 = solve_dk(waypoints[0])
    if not dk0.is_finite:
        raise StartNotASolution(
            f"first waypoint has branch {dk0.branch!r}, not finite solutions"
        )
    mode, dist = nearest_solution(dk0, start)
    if not dist <= MATCH_TOL:  # NaN fails too
        raise StartNotASolution(
            f"start orientation is {dist:.3e} rad from the nearest "
            f"direct solution (tol {MATCH_TOL:g})"
        )
    best = mode - 1
    eulers = [dk0.solutions[best]]
    orientations = [euler_to_rotation(eulers[0])]

    for seg in range(len(waypoints) - 1):
        b = waypoints[seg + 1]
        reason = _segment_crossing(waypoints[seg], b, cfg.singular_tol)
        if reason is None:
            dk = solve_dk(b)
            if not dk.is_finite:
                reason = f"direct solve became {dk.branch}"
        if reason is not None:
            crossing = SingularityCrossing(seg, reason)
            return TrackResult(tuple(orientations), tuple(eulers), best + 1, crossing)
        eulers.append(dk.solutions[best])
        orientations.append(euler_to_rotation(eulers[-1]))
    return TrackResult(tuple(orientations), tuple(eulers), best + 1)
