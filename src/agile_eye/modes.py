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
3, -+- and +-+ in 4.  `assembly_mode_id` reads the mode from that table,
with no direct-kinematics solve, wherever a Newton-Kantorovich
certificate proves it equal to the nearest-solution match within tol
(`_certified_mode`): an assembled orientation lies within the certified
radius of r, and every |B_ii| exceeds the radius, so that orientation is
the direct solution with the numeric signs of diag(B).  Every other
input is matched against all four direct solutions, the one solve_dk of
a match (`_match`).  Each match first evaluates its joints once
(`_generic`): their trig and joint factors, and `dk.joint_degeneracy`'s
decision that they are generic, which the certificate takes as given.

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
solution with the start's index.  Every waypoint, the first included,
costs one joint trig and one solve of the tracked solution alone
(`dk.direct_solution`, which hands over its Euler triple already wrapped
and its nine matrix entries), and its q2 ends one certificate and starts
the next; the first one's index is matched as in assembly_mode_id
(`_match`), on that same joint trig and q2.  The entries of all
waypoints go into one flat list that becomes one (N, 3, 3) array at the
end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, ToolConfig
from .dk import SOLUTION_SIGNATURES, DkResult, direct_solution, joint_degeneracy, solve_dk
from .exceptions import (
    DegenerateJoints,
    NoMatchingSolution,
    NoSuchMode,
    SingularNoSignature,
    StartNotASolution,
)
from .mechanism import (
    SIGN_TABLE,
    SIGNATURES,
    STRUCTURE_TOL,
    JointTriplet,
    WorkingModeSignature,
    b_diagonal,
    det_factor,
    jacobian_rows,
    joint_factors,
    joint_trig,
    leg_residuals,
    leg_table,
)
from .so3 import EulerZyx, euler_to_rotation, nearest_flip, wrap_angle

# Orientation-to-solution matching tolerance (rotation distance, radians).
MATCH_TOL = 1e-6

# Column signs of the half-turns H_k: direct solution k is R_1 H_k.  Legs
# 1, 2, 3 read columns 1, 2, 0 of R, flipping a column flips that leg's
# B_ii, and R_1 has signature sign(q2) * +++, so H_k flips as P_k does.
_HALF_TURNS = tuple((p3, p1, p2) for p1, p2, p3 in SIGN_TABLE)

# Rounding allowance of `_certified_mode`: a bound on the rounding error of
# each entry it computes, and on the residuals of solve_dk's solutions.
_ROUNDING = 1e-14
_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class SingularityCrossing:
    """Report of a singularity encountered while tracking a path."""

    segment: int
    reason: str


@dataclass(frozen=True)
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
    """(trig, q1, q2): the joint trig (`joint_trig`) and joint factors of
    generic joints; DegenerateJoints on any other (`joint_degeneracy`),
    ValueError on a NaN joint."""
    trig = joint_trig(*j.as_tuple())
    q1, q2 = joint_factors(*trig)
    kind = joint_degeneracy(j, trig, q2).kind
    if kind != "generic":
        raise DegenerateJoints(
            f"direct kinematics branch is {kind!r}; finite solutions required"
        )
    return trig, q1, q2


def assembly_mode_for(j: JointTriplet, sig: WorkingModeSignature) -> EulerZyx:
    """The direct solution realizing a requested working-mode signature.

    Only the four signatures whose sign product matches the sign of the
    joint-space determinant factor are realizable; asking for one from
    the opposite group raises NoSuchMode.  The solution is built alone
    (`dk.direct_solution`, bit for bit solve_dk's); joints that are not
    generic raise DegenerateJoints.
    """
    trig, q1, q2 = _generic(j)
    signatures = SOLUTION_SIGNATURES[q2 > 0.0]
    if sig in signatures:
        return direct_solution(signatures.index(sig), j.theta3, trig, q1, q2)[0]
    raise NoSuchMode(
        f"signature {sig.label} not realized: these joints admit the "
        f"sign-product {'+' if q2 > 0.0 else '-'} group only"
    )


def nearest_solution(dk: DkResult, r: np.ndarray) -> tuple[int, float]:
    """Index (1..4) of the finite direct solution of `dk` nearest to r, and
    its rotation distance.

    With M = r^T R_1, r^T R_k = M H_k: `nearest_flip` of M and the
    half-turns (ties as there).  NaN in r gives a NaN distance.
    """
    return nearest_flip((r.T @ euler_to_rotation(dk.solutions[0])).tolist(), _HALF_TURNS)


def _certified_mode(trig, q2: float, r: np.ndarray) -> tuple[int, float] | None:
    """(k, rad): for generic joints j with joint trig `trig` and
    determinant factor q2 (`joint_factors`), nearest_solution(solve_dk(j),
    r) gives index k at a distance of at most rad, and k is
    SIGN_TABLE.index(sign(q2) sigma) + 1 for the signs sigma of the
    numeric diag(B); None wherever that is not proven.  The caller decides
    that j is generic (`_generic`); no joint function is evaluated here.

    Let e = _ROUNDING, rho the numeric residuals, A the numeric Jacobian
    (rows w_i x v_i), b = (x1, y2, z3) its diagonal, diag(B), and delta = ||r r^T - I||_F + e.
    Write r = R0 (I + S), R0 orthogonal and S symmetric (polar form).  The
    singular values s of r have |s - 1| <= |s^2 - 1|, so ||S||_2 <= delta
    and each v_i = r v'_i is within delta of R0 v'_i.

    1. Lipschitz constant.  F(omega) = residuals(exp(omega^) R0) has
       entries w_i . exp(omega^) R0 v'_i with unit vectors on both sides.
       By Duhamel's formula the second derivative of exp(omega^ + s a^)
       in s is twice an integral, over a simplex of area 1/2, of products
       of rotations with two factors a^, so it is at most |a|^2 in norm:
       each gradient of F_i is 1-Lipschitz and F' is L-Lipschitz with
       L = sqrt(3), on all of R^3.
    2. Newton-Kantorovich.  F'(0) = -A(R0), whose rows are within delta
       of A's (rounding included), so ||A(R0) - A||_F <= sqrt(3) delta.
       With ||A^-1||_F = ||adj A||_F / |det A| and N = ||adj A||_F + e,
       the Neumann series gives ||A(R0)^-1|| <= beta = N / (|det A| - e
       - sqrt(3) N delta) when that denominator is positive.  F(0) is
       within delta of rho in each entry, so ||F'(0)^-1 F(0)|| <= eta =
       beta (||rho|| + sqrt(3) delta).  If h = beta L eta <= 1/2, F has a
       zero omega* with |omega*| <= t* = 2 eta / (1 + sqrt(1 - 2 h)) <=
       2 eta: R* = exp(omega*^) R0 is orthogonal, satisfies every
       constraint and lies t* or less from R0.
    3. The zero is direct solution k.  B_ii = v_i . (u_i x w_i) moves by
       at most the move of v_i, so |B_ii(R*) - b_i| <= delta + t* < rad
       (below); with |b_i| > rad, R* has the signs sigma and is not
       trivial (diag(B) = 0 there).  A proper nontrivial zero has
       signature sign(q2) P_k, of sign product +1; if R0 is improper, -R*
       is one, with signature -sigma, so sign(q2) sigma is outside the
       table and None is returned.  Otherwise R* is direct solution k.
    4. nearest_solution finds it.  The other solutions are half-turns
       of R*, at pi - t* or more, so with rad < 1/4 (which makes
       delta < 1/12) trace(r^T R_k) is the largest.  The (|skew|, trace
       - 1) point of r^T R_k is that of R0^T R_k, on the circle of radius
       2 at the angle d, moved by at most delta sqrt(4 d^2 + 9) (S is
       symmetric; |tr(S Q)| <= 3 ||S||_2), which turns it by less than
       3 delta.  So the distance it reports is at most rad = t* +
       3 delta + e (1 + 2 beta).

    The last term is the float slack: solve_dk's solutions have residuals
    below e, so by step 2 applied there each is within 2 beta e of the
    exact one; that covers the distance's rounding and keeps solve_dk's
    own diag(B), of magnitude |B_ii(R*)| > 2 delta + e (1 + 2 beta), on
    the signs that give its canonical order.  Every comparison fails on
    NaN, so a NaN or infinite entry in r gives None.
    """
    rows = r.tolist()
    rho = leg_residuals(trig, leg_table(rows))
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = jacobian_rows(trig, rows)
    # the columns of adj A are the cross products of the rows
    u1, u2, u3 = y2 * z3 - z2 * y3, z2 * x3 - x2 * z3, x2 * y3 - y2 * x3
    v1, v2, v3 = y3 * z1 - z3 * y1, z3 * x1 - x3 * z1, x3 * y1 - y3 * x1
    w1, w2, w3 = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
    det = x1 * u1 + y1 * u2 + z1 * u3
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    g01 = r00 * r10 + r01 * r11 + r02 * r12
    g02 = r00 * r20 + r01 * r21 + r02 * r22
    g12 = r10 * r20 + r11 * r21 + r12 * r22
    delta = _ROUNDING + math.hypot(
        r00 * r00 + r01 * r01 + r02 * r02 - 1.0,
        r10 * r10 + r11 * r11 + r12 * r12 - 1.0,
        r20 * r20 + r21 * r21 + r22 * r22 - 1.0,
        g01, g01, g02, g02, g12, g12,
    )
    n = _ROUNDING + math.hypot(u1, u2, u3, v1, v2, v3, w1, w2, w3)
    den = abs(det) - _ROUNDING - _SQRT3 * n * delta
    if not den > 0.0:
        return None
    beta = n / den
    eta = beta * (math.hypot(*rho) + _SQRT3 * delta)
    h = _SQRT3 * beta * eta
    if not h <= 0.5:
        return None
    rad = (
        2.0 * eta / (1.0 + math.sqrt(1.0 - 2.0 * h))
        + 3.0 * delta
        + _ROUNDING * (1.0 + 2.0 * beta)
    )
    if not (rad < 0.25 and abs(x1) > rad and abs(y2) > rad and abs(z3) > rad):
        return None
    s = 1 if q2 > 0.0 else -1
    rel = (s if x1 > 0.0 else -s, s if y2 > 0.0 else -s, s if z3 > 0.0 else -s)
    return (SIGN_TABLE.index(rel) + 1, rad) if rel in SIGN_TABLE else None


def assembly_mode_id(
    j: JointTriplet, r: np.ndarray, tol: float = MATCH_TOL
) -> int:
    """Index (1..4) of the canonical direct solution within `tol` of r
    (NaN fails).

    Joints that are not generic raise DegenerateJoints (`_generic`).
    Where `_certified_mode` proves the answer within tol it is read from
    the sign table, with no direct-kinematics solve; every other input is
    matched against solve_dk's four solutions (`nearest_solution`).
    """
    trig, _, q2 = _generic(j)
    idx, dist = _match(j, trig, q2, r, tol)
    if not dist <= tol:
        raise NoMatchingSolution(
            "orientation matches no nontrivial direct solution of these joints"
        )
    return idx


def _match(j: JointTriplet, trig, q2: float, r: np.ndarray, tol: float) -> tuple[int, float]:
    """(k, distance) of the direct solution of generic joints j, with joint
    trig `trig` and determinant factor q2, nearest to r: the certified
    radius where `_certified_mode` proves k within tol, else
    nearest_solution of solve_dk, the only solve of a mode match."""
    certified = _certified_mode(trig, q2, r)
    if certified is not None and certified[1] <= tol:  # NaN fails too
        return certified
    return nearest_solution(solve_dk(j), r)


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
    MATCH_TOL (`_match`; else StartNotASolution); its index is the tracked
    mode.  Each segment is first certified to keep |q2| > cfg.singular_tol
    (see _segment_crossing); every waypoint's orientation, path[0]'s too,
    is the direct solution with that index, solved alone by
    `direct_solution` (bit for bit the solution solve_dk returns, and its
    matrix).  Inside one
    sign domain of q2 every B_ii is nonzero, so each solution keeps its
    working-mode signature and the canonical order pins the index to that
    signature.  A SingularityCrossing is reported on the first segment
    that is not certified ("determinant sign change" or "determinant
    factor within tolerance"), or whose end waypoint has no finite direct
    solutions ("direct solve became ...", by `joint_degeneracy`).
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
    trig = joint_trig(*a.as_tuple())
    q1, qa = joint_factors(*trig)
    kind = joint_degeneracy(a, trig, qa).kind
    if kind != "generic":
        raise StartNotASolution(f"first waypoint has branch {kind!r}, not finite solutions")
    mode, dist = _match(a, trig, qa, start, MATCH_TOL)
    if not dist <= MATCH_TOL:  # NaN fails too
        raise StartNotASolution(
            f"start orientation is {dist:.3e} rad from the nearest "
            f"direct solution (tol {MATCH_TOL:g})"
        )
    best, sig = mode - 1, SOLUTION_SIGNATURES[qa > 0.0][mode - 1]
    e, entries = direct_solution(best, a.theta3, trig, q1, qa)
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
        e, entries = direct_solution(best, b.theta3, trig, q1, qb)
        eulers.append(e)
        flat += entries
        a, qa = b, qb
    return _track_result(flat, eulers, mode, sig)


def _track_result(flat, eulers, mode, sig, crossing=None) -> TrackResult:
    # one (N, 3, 3) array; each waypoint's orientation is a view of it
    orientations = tuple(np.array(flat).reshape(-1, 3, 3))
    return TrackResult(orientations, tuple(eulers), mode, sig, crossing)
