"""Working-mode signatures, the working/assembly mode correspondence,
and certified path tracking.

The sign triple of diag(B) identifies the working mode: flipping one
leg's angle by pi flips the corresponding B_ii.  Direct solution k of
generic joints has signature sign(q2) * P_k (P = SIGN_TABLE, q2 the
determinant factor; `DkResult.signatures`), so only the four signatures of
sign product sign(q2) are reachable, each naming its solution by lookup.
At an inverse solution sign(q2) is the sign product pi(sigma) of the
working mode sigma (the `singularity` module docstring proves it), so
each working mode has a constant assembly mode, SIGN_TABLE.index(pi(sigma)
sigma) + 1: +++ and --- are in mode 1, --+ and ++- in 2, +-- and -++ in
3, -+- and +-+ in 4.

One helper, `_nearest_mode`, answers "which mode is r at joints j?" for
`assembly_mode_id` and for `track_path`'s start alike.  It evaluates the
joints once (`_generic`: their trig and joint factors,
`dk.joint_degeneracy`'s decision that they are generic, and the cascade
core), then `dk.nearest_direct_solution` finds the direct solution
nearest r, and its distance, from the cascade's first solution alone,
with no full direct-kinematics solve, and the distance is checked
against the tolerance.  Its errors name the branch, or the distance and
the tolerance; the tracker re-raises them as StartNotASolution.

The wrist is non-cuspidal: a joint path can change assembly mode only
where it meets the determinant surface q2 = sin t1 sin t2 sin t3 +
cos t1 cos t2 cos t3 = 0.  Inside one sign domain of q2 no B_ii vanishes,
so every direct solution keeps its signature, and the canonical solution
order ties each index 1..4 to a signature.  Tracking is therefore two
steps per segment: certify by Lipschitz and curvature bounds that |q2|
stays above the singular tolerance, then take the end waypoint's direct
solution with the start's index.  Every waypoint, the first included,
costs one joint trig, one run of the cascade core (`dk.cascade`) and one
solve of the tracked solution alone (`dk.direct_solution`, which hands
over its Euler triple and its nine matrix entries), and its q2 ends one
certificate and starts the next; the first one's index is matched by
`_nearest_mode`, whose joint trig and cascade output it then reads.  The
entries of all waypoints go into one flat list that becomes one
(N, 3, 3) array at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, ToolConfig
from .dk import (
    SOLUTION_SIGNATURES,
    cascade,
    direct_solution,
    joint_degeneracy,
    nearest_direct_solution,
    solve_dk,  # noqa: F401  (bench/tracing.py patches modes.solve_dk)
)
from .exceptions import (
    DegenerateJoints,
    NoMatchingSolution,
    NoSuchMode,
    SingularNoSignature,
    StartNotASolution,
)
from .mechanism import (
    SIGNATURES,
    STRUCTURE_TOL,
    JointTriplet,
    WorkingModeSignature,
    b_diagonal,
    det_factor,
    joint_factors,
    joint_trig,
)
from .so3 import EulerZyx, wrap_angle

# Orientation-to-solution matching tolerance (rotation distance, radians).
MATCH_TOL = 1e-6


@dataclass(frozen=True, slots=True)
class SingularityCrossing:
    """Report of a singularity encountered while tracking a path."""

    segment: int
    reason: str


@dataclass(frozen=True, slots=True)
class TrackResult:
    """Orientation path produced by track_path.

    One entry per input waypoint actually reached, each direct solution
    `mode_id` (1..4) of its waypoint, in working mode `signature`.  The
    orientations are (3, 3) views of one (N, 3, 3) float64 array, one per
    waypoint: writing into one leaves the others as they are.
    `crossing` is None for a clean track; otherwise it names the first
    offending segment (path[segment] -> path[segment + 1]) and the
    orientations list stops at the last safely reached waypoint.
    """

    orientations: tuple[np.ndarray, ...] = field(compare=False)  # eulers fix them
    eulers: tuple[EulerZyx, ...]
    mode_id: int
    signature: WorkingModeSignature
    crossing: SingularityCrossing | None = None

    @property
    def crossed(self) -> bool:
        return self.crossing is not None


def working_mode_signature(j: JointTriplet, r: np.ndarray) -> WorkingModeSignature:
    """Componentwise signs of the numeric diag(B).

    Raises SingularNoSignature unless every |B_ii| > STRUCTURE_TOL (NaN
    fails too): otherwise the configuration is leg-singular, with no mode.
    The signature returned is the shared instance of `SIGNATURES`, the
    one solve_dk(j).signatures holds for the same signs.
    """
    b1, b2, b3 = b_diagonal(j, r)
    if not (abs(b1) > STRUCTURE_TOL and abs(b2) > STRUCTURE_TOL and abs(b3) > STRUCTURE_TOL):
        raise SingularNoSignature(
            f"diag(B) = {(b1, b2, b3)} has a vanishing entry (tol {STRUCTURE_TOL:g})"
        )
    return SIGNATURES[1 if b1 > 0 else -1, 1 if b2 > 0 else -1, 1 if b3 > 0 else -1]


def _generic(j: JointTriplet):
    """(trig, q2, first): the joint trig (`joint_trig`), determinant factor
    and cascade output (`dk.cascade`) of generic joints; DegenerateJoints
    on any other (`joint_degeneracy`), ValueError on a NaN joint."""
    trig = joint_trig(*j.as_tuple())
    q1, q2 = joint_factors(*trig)
    kind = joint_degeneracy(j, trig, q2).kind
    if kind != "generic":
        raise DegenerateJoints(f"branch {kind!r}, not finite solutions")
    return trig, q2, cascade(trig, q1, q2)


def _nearest_mode(j: JointTriplet, r, tol: float):
    """(mode, trig, q2, first): the index (1..4) of the direct solution of
    j within `tol` of r (`dk.nearest_direct_solution`), with `_generic`'s
    output for j.  DegenerateJoints as `_generic`; NoMatchingSolution
    naming the distance where it exceeds tol (NaN fails too)."""
    trig, q2, first = _generic(j)
    mode, dist = nearest_direct_solution(trig, first, r)
    if not dist <= tol:
        raise NoMatchingSolution(
            f"orientation is {dist:.3e} rad from the nearest direct solution (tol {tol:g})"
        )
    return mode, trig, q2, first


def assembly_mode_for(j: JointTriplet, sig: WorkingModeSignature) -> EulerZyx:
    """The direct solution realizing a requested working-mode signature.

    Only the four signatures whose sign product matches the sign of the
    joint-space determinant factor are realizable; asking for one from
    the opposite group raises NoSuchMode.  The solution is built alone
    (`dk.direct_solution`, bit for bit solve_dk's); joints that are not
    generic raise DegenerateJoints.
    """
    trig, q2, first = _generic(j)
    signatures = SOLUTION_SIGNATURES[q2 > 0.0]
    if sig in signatures:
        return direct_solution(signatures.index(sig), j.theta3, trig, first)[0]
    raise NoSuchMode(
        f"signature {sig.label} not realized: these joints admit the "
        f"sign-product {'+' if q2 > 0.0 else '-'} group only"
    )


def assembly_mode_id(
    j: JointTriplet, r: np.ndarray, tol: float = MATCH_TOL
) -> int:
    """Index (1..4) of the canonical direct solution within `tol` of r
    (NaN fails).

    Joints that are not generic raise DegenerateJoints (`_generic`);
    generic ones are matched against their four direct solutions by
    `dk.nearest_direct_solution`, and NoMatchingSolution names the
    nearest one's distance and `tol` (`_nearest_mode`).
    """
    return _nearest_mode(j, r, tol)[0]


def _segment_crossing(
    a: JointTriplet, b: JointTriplet, qa: float, qb: float, singular_tol: float
) -> str | None:
    """Why the shortest-arc segment a -> b, with determinant factors qa and
    qb at its ends, is not certified clear, or None.

    Every first and second partial of q2 has magnitude <= 1, so along
    a + f * d (d the wrapped joint differences) |dq2/df| <= L and
    |d2q2/df2| <= L**2, with L = |d1| + |d2| + |d3|.  An interval [f0, f1]
    of length h keeps |q2| > t = singular_tol throughout when its endpoint
    values v0, v1 share a sign and either (|v0| + |v1| - L h) / 2 > t
    (Piyavskii-Shubert exclusion) or min(|v0|, |v1|) - (L h)**2 / 8 > t
    (linear interpolation error); any other interval is bisected.  The
    second bound keeps the bisection short on segments that run close to
    the surface q2 = 0.  The whole segment [0, 1] is checked first, and
    the stack of intervals left to check is used only when it is
    bisected.  Every comparison is written so that NaN fails it.
    """
    d = (
        wrap_angle(b.theta1 - a.theta1),
        wrap_angle(b.theta2 - a.theta2),
        wrap_angle(b.theta3 - a.theta3),
    )
    lip = abs(d[0]) + abs(d[1]) + abs(d[2])
    f0, f1, v0, v1 = 0.0, 1.0, qa, qb
    stack = []
    while True:
        if not (abs(v0) > singular_tol and abs(v1) > singular_tol):
            return "determinant factor within tolerance"
        if (v0 > 0.0) != (v1 > 0.0):
            return "determinant sign change"
        lh = lip * (f1 - f0)
        lipschitz = (abs(v0) + abs(v1) - lh) / 2.0
        curvature = min(abs(v0), abs(v1)) - lh * lh / 8.0
        if max(lipschitz, curvature) > singular_tol:
            if not stack:
                return None
            f0, f1, v0, v1 = stack.pop()
            continue
        fm = 0.5 * (f0 + f1)
        if not (lh > singular_tol and f0 < fm < f1):
            return "determinant factor within tolerance"
        vm = det_factor(*joint_trig(*(x + fm * dx for x, dx in zip(a.as_tuple(), d))))
        # check [f0, fm] next, then [fm, f1]
        stack.append((fm, f1, vm, v1))
        f1, v1 = fm, vm


def track_path(
    path, start: np.ndarray, cfg: ToolConfig = DEFAULT_CONFIG
) -> TrackResult:
    """Track the assembly mode along a joint path.

    `start` must match one of the four direct solutions of path[0] within
    MATCH_TOL, by the match assembly_mode_id runs (`_nearest_mode`; else
    StartNotASolution, with its message after "first waypoint has " or
    "start "); its index is the tracked mode.  Each segment is first
    certified to keep |q2| > cfg.singular_tol (see _segment_crossing);
    every waypoint's orientation, path[0]'s too, is the direct solution
    with that index, solved alone by `direct_solution` (bit for bit the
    solution solve_dk returns, and its matrix) from one `cascade` per
    waypoint, the one the match read on path[0].  Inside one sign domain of q2 every B_ii is
    nonzero, so each solution keeps its working-mode signature and the
    canonical order pins the index to that signature.  A
    SingularityCrossing is reported on the first segment that is not
    certified ("determinant sign change" or "determinant factor within
    tolerance"), or whose end waypoint has no finite direct solutions
    ("direct solve became ...", by `joint_degeneracy`).
    Condition pairs and trivial-only joints have |q2| <= 2 STRUCTURE_TOL
    (proved in `joint_degeneracy`), inside the default singular_tol, so a
    certified end waypoint is generic with no look at the condition pairs
    whenever singular_tol >= 2 STRUCTURE_TOL.  A NaN joint at any
    waypoint raises ValueError naming its index, before any tracking.
    """
    waypoints = [p if isinstance(p, JointTriplet) else JointTriplet(*p) for p in path]
    if not waypoints:
        raise ValueError("path must contain at least one waypoint")
    for k, p in enumerate(waypoints):
        # wrapped angles are finite or NaN, so the sum is NaN iff one is
        if math.isnan(p.theta1 + p.theta2 + p.theta3):
            raise ValueError(f"waypoint {k}: joints {p.as_tuple()} are not finite")

    a = waypoints[0]
    try:
        mode, trig, qa, first = _nearest_mode(a, start, MATCH_TOL)
    except DegenerateJoints as exc:
        raise StartNotASolution(f"first waypoint has {exc}") from exc
    except NoMatchingSolution as exc:
        raise StartNotASolution(f"start {exc}") from exc
    best, sig = mode - 1, SOLUTION_SIGNATURES[qa > 0.0][mode - 1]
    e, entries = direct_solution(best, a.theta3, trig, first)
    eulers = [e]
    # every waypoint's nine matrix entries, row by row: one array at the end
    flat = list(entries)

    for seg, b in enumerate(waypoints[1:]):
        trig = joint_trig(*b.as_tuple())
        q1, qb = joint_factors(*trig)
        reason = _segment_crossing(a, b, qa, qb, cfg.singular_tol)
        if reason is None:
            kind = joint_degeneracy(b, trig, qb).kind
            if kind != "generic":
                reason = f"direct solve became {kind}"
        if reason is not None:
            crossing = SingularityCrossing(seg, reason)
            return _track_result(flat, eulers, mode, sig, crossing)
        e, entries = direct_solution(best, b.theta3, trig, cascade(trig, q1, qb))
        eulers.append(e)
        flat += entries
        a, qa = b, qb
    return _track_result(flat, eulers, mode, sig)


def _track_result(flat, eulers, mode, sig, crossing=None) -> TrackResult:
    # one (N, 3, 3) array; each waypoint's orientation is a view of it
    orientations = tuple(np.array(flat).reshape(-1, 3, 3))
    return TrackResult(orientations, tuple(eulers), mode, sig, crossing)
