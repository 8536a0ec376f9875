"""Independent kinematics of the orthogonal 3-RRR wrist (Agile Eye).

The benchmark's input generators and oracles use this module instead of
the package under test, so a defect in the package cannot hide itself.
Everything here is written from the geometry stated in the paper and the
README: R = Rz(phi) Ry(theta) Rx(psi); base axes u_i are the base x, y, z
axes; platform axes v_i = -R[:,1], -R[:,2], -R[:,0]; the intermediate
axes are w1 = (0, -s1, c1), w2 = (c2, 0, -s2), w3 = (-s3, c3, 0); leg i
is assembled when w_i . v_i = 0.  Pure Python (no numpy), so that input
generation can run before the timed import of the package.

Matrices are 3-tuples of 3-tuples of floats.
"""

from __future__ import annotations

import math

PI = math.pi
TWO_PI = 2.0 * math.pi


def wrap(a: float) -> float:
    """Angle in (-pi, pi]."""
    y = math.remainder(a, TWO_PI)
    return PI if y == -PI else y


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def rz(a):
    c, s = math.cos(a), math.sin(a)
    return ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))


def ry(a):
    c, s = math.cos(a), math.sin(a)
    return ((c, 0.0, s), (0.0, 1.0, 0.0), (-s, 0.0, c))


def rx(a):
    c, s = math.cos(a), math.sin(a)
    return ((1.0, 0.0, 0.0), (0.0, c, -s), (0.0, s, c))


def euler_rot(phi: float, theta: float, psi: float):
    return matmul(matmul(rz(phi), ry(theta)), rx(psi))


def as_tuple(m):
    """Any 3x3 indexable (numpy array included) as nested float tuples."""
    return tuple(tuple(float(m[i][j]) for j in range(3)) for i in range(3))


def frobenius(a, b) -> float:
    return math.sqrt(sum((a[i][j] - b[i][j]) ** 2 for i in range(3) for j in range(3)))


def rot_angle(a, b) -> float:
    """Geodesic angle between rotations (arccos form; fine above ~1e-6)."""
    t = sum(a[i][j] * b[i][j] for i in range(3) for j in range(3))
    return math.acos(min(1.0, max(-1.0, 0.5 * (t - 1.0))))


def q2(t1: float, t2: float, t3: float) -> float:
    """Joint-space determinant factor s1 s2 s3 + c1 c2 c3 (paper, det(A))."""
    return math.sin(t1) * math.sin(t2) * math.sin(t3) + math.cos(t1) * math.cos(
        t2
    ) * math.cos(t3)


def _w(j):
    t1, t2, t3 = j
    return (
        (0.0, -math.sin(t1), math.cos(t1)),
        (math.cos(t2), 0.0, -math.sin(t2)),
        (-math.sin(t3), math.cos(t3), 0.0),
    )


def _v(r):
    return (
        (-r[0][1], -r[1][1], -r[2][1]),
        (-r[0][2], -r[1][2], -r[2][2]),
        (-r[0][0], -r[1][0], -r[2][0]),
    )


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def residuals(j, r) -> tuple[float, float, float]:
    """w_i . v_i for the three legs; all zero when assembled."""
    return tuple(
        sum(wi[k] * vi[k] for k in range(3)) for wi, vi in zip(_w(j), _v(r))
    )


def jacobian_rows(j, r):
    """Rows w_i x v_i of A."""
    return tuple(_cross(wi, vi) for wi, vi in zip(_w(j), _v(r)))


def b_diag(j, r) -> tuple[float, float, float]:
    """B_ii = (w_i x v_i) . u_i, with u_i the i-th base axis."""
    rows = jacobian_rows(j, r)
    return (rows[0][0], rows[1][1], rows[2][2])


def det3(m) -> float:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def leg_fold(r) -> tuple[float, float, float]:
    """u_i . v_i per leg: +1 folded, -1 extended, |.| < 1 otherwise."""
    return (-r[0][1], -r[1][2], -r[2][0])


def leg_ik(r, tol: float = 1e-12):
    """Per leg: the two assembled angles (a, a + pi), or None if arbitrary.

    From w_i . v_i = 0: tan t1 = R21 / R11, tan t2 = R02 / R22,
    tan t3 = R10 / R00.
    """
    out = []
    for num, den in ((r[2][1], r[1][1]), (r[0][2], r[2][2]), (r[1][0], r[0][0])):
        if max(abs(num), abs(den)) < tol:
            out.append(None)
        else:
            a = math.atan2(num, den)
            out.append((wrap(a), wrap(a + PI)))
    return tuple(out)


def signature(j, r) -> tuple[int, int, int]:
    return tuple(1 if b > 0.0 else -1 for b in b_diag(j, r))


def signature_label(sig) -> str:
    return "".join("+" if s > 0 else "-" for s in sig)


# Assembly mode from the working-mode signature: mode 1 has all three
# signs equal to sign(q2); modes 2, 3, 4 flip legs (1,2), (2,3), (1,3).
_MODE_BY_FLIPS = {
    (False, False, False): 1,
    (True, True, False): 2,
    (False, True, True): 3,
    (True, False, True): 4,
}


def expected_mode_id(sig, sigma: int) -> int | None:
    return _MODE_BY_FLIPS.get(tuple(s != sigma for s in sig))


# The four trivial orientations (v_i parallel to u_i for every leg), in the
# numbering the CLI reports as trivial_id 1..4.
TRIVIAL = (
    ((0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (-1.0, 0.0, 0.0)),
    ((0.0, 1.0, 0.0), (0.0, 0.0, -1.0), (-1.0, 0.0, 0.0)),
    ((0.0, -1.0, 0.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0)),
    ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
)

# Exact quarter and half turns, so that the self-motion curves below have
# exact zero and unit entries.
_RZ90 = ((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
_RX180 = ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))
_RX90 = ((1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 1.0, 0.0))
_RXM90 = ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, -1.0, 0.0))
_RY90 = ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0))
_RYM90 = ((0.0, 0.0, -1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0))
_I = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

# Family id -> (P, free rotation, Q) with curve S(t) = P @ free(t) @ Q.
#   1a/1b: phi = pi/2, psi = 0 / pi, theta free  (leg 1 folded / extended)
#   2a/2b: phi = 0, psi = pi/2 / -pi/2, theta free (leg 2)
#   3a/3b: theta = pi/2 / -pi/2, one Euler combination free (leg 3)
_FAMILIES = {
    1: (_RZ90, ry, _I),
    2: (_RZ90, ry, _RX180),
    3: (_I, ry, _RX90),
    4: (_I, ry, _RXM90),
    5: (_I, rz, _RY90),
    6: (_I, rz, _RYM90),
}

# Condition pair -> its two self-motion families.
PAIR_FAMILIES = {1: (1, 2), 2: (3, 4), 3: (5, 6)}


def family_curve(fid: int, t: float):
    p, free, q = _FAMILIES[fid]
    return matmul(matmul(p, free(t)), q)


def family_distance(r, fid: int) -> float:
    """Closed-form distance from r to a self-motion curve.

    trace(R^T S(t)) = a + b cos t + c sin t because S is affine in
    (cos t, sin t); its maximum is a + hypot(b, c).
    """

    def tr(t):
        s = family_curve(fid, t)
        return sum(r[i][k] * s[i][k] for i in range(3) for k in range(3))

    t0, tpi, thalf = tr(0.0), tr(PI), tr(0.5 * PI)
    a = 0.5 * (t0 + tpi)
    b = 0.5 * (t0 - tpi)
    c = thalf - a
    best = a + math.hypot(b, c)
    return math.acos(min(1.0, max(-1.0, 0.5 * (best - 1.0))))


def condition_pair(j, tol: float = 1e-9) -> int | None:
    """Which self-motion condition pair the joints satisfy, if any."""
    t1, t2, t3 = j
    if abs(math.sin(t2)) < tol and abs(math.cos(t3)) < tol:
        return 1
    if abs(math.sin(t3)) < tol and abs(math.cos(t1)) < tol:
        return 2
    if abs(math.sin(t1)) < tol and abs(math.cos(t2)) < tol:
        return 3
    return None


def min_trig(j) -> float:
    """Smallest |sin| or |cos| over the three joints (distance from pairs)."""
    return min(min(abs(math.sin(t)), abs(math.cos(t))) for t in j)


# --- Lipschitz certification of q2 along a shortest-arc joint segment ---
#
# Along j(f) = a + f * wrap(b - a), f in [0, 1], every partial of q2 has
# magnitude <= 1, so |dq2/df| <= L = |d1| + |d2| + |d3|.  On [f0, f1] with
# endpoint values of equal sign, min |q2| >= (|q0| + |q1| - L (f1 - f0)) / 2.

CLEAR = "clear"
CROSSING = "crossing"
UNDECIDED = "undecided"


def certify_segment(a, b, clear: float, max_evals: int = 4096) -> str:
    """CROSSING if q2 certainly changes sign on the segment, CLEAR if
    |q2| >= clear is certified everywhere on it, else UNDECIDED."""
    d = [wrap(y - x) for x, y in zip(a, b)]
    lip = sum(abs(x) for x in d)

    def q(f):
        return q2(*(x + f * dx for x, dx in zip(a, d)))

    v0, v1 = q(0.0), q(1.0)
    stack = [(0.0, 1.0, v0, v1)]
    evals = 2
    status = CLEAR
    while stack:
        f0, f1, v0, v1 = stack.pop()
        if v0 == 0.0 or v1 == 0.0 or (v0 < 0.0) != (v1 < 0.0):
            return CROSSING
        h = f1 - f0
        if status == CLEAR and min(abs(v0), abs(v1)) < clear:
            status = UNDECIDED
        # Keep refining while the interval could hold a root, or could dip
        # below `clear` while the segment is still a candidate for CLEAR.
        need = (abs(v0) + abs(v1) - lip * h) / 2.0 <= (
            clear if status == CLEAR else 0.0
        )
        if not need:
            continue
        if evals >= max_evals:
            return UNDECIDED
        fm = 0.5 * (f0 + f1)
        vm = q(fm)
        evals += 1
        stack.append((f0, fm, v0, vm))
        stack.append((fm, f1, vm, v1))
    return status
