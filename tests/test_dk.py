import math
import struct
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from agile_eye import (
    FAMILY_LABELS,
    EulerZyx,
    JointTriplet,
    UnknownFamily,
    assembly_mode_for,
    classify_joint_degeneracy,
    constraint_residuals,
    det_a_closed_form,
    euler_to_rotation,
    family_distance,
    jacobians,
    rotation_distance,
    self_motion_family,
    solve_dk,
    solve_ik,
    trivial_orientations,
    validate_rotation,
    working_mode_signature,
)
from agile_eye.dk import cascade, direct_solution, nearest_trivial
from agile_eye.mechanism import STRUCTURE_TOL, det_factor, joint_factors, joint_trig
from conftest import (
    HALF_PI,
    PLATFORM_HOME,
    axis_angle_rotation,
    circ_diff,
    euler_matches,
    random_joints,
)

FIG_SOLUTIONS = (
    (0.100, -0.672, -0.383),
    (0.100, -0.672, 2.759),
    (0.100, 2.470, 0.383),
    (0.100, 2.470, 3.525),
)

R_TO1 = [[0, -1, 0], [0, 0, 1], [-1, 0, 0]]
R_TO2 = [[0, 1, 0], [0, 0, -1], [-1, 0, 0]]
R_TO3 = [[0, -1, 0], [0, 0, -1], [1, 0, 0]]
R_TO4 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def q1_q2(j: JointTriplet) -> tuple[float, float]:
    return joint_factors(*joint_trig(*j.as_tuple()))


def generic_joints(rng) -> JointTriplet:
    while True:
        j = random_joints(rng)
        if classify_joint_degeneracy(j).kind == "generic":
            return j


def trivial_only_joints(t1: float, t2: float) -> JointTriplet:
    # root of the theta-equation coefficient along the third joint,
    # chosen away from the self-motion condition pairs
    t3 = math.atan2(
        -math.cos(t1) * math.cos(t2), math.sin(t1) * math.sin(t2)
    )
    return JointTriplet(t1, t2, t3)


def test_trivial_orientations_exact():
    tos = trivial_orientations()
    np.testing.assert_array_equal(tos[0], R_TO1)
    np.testing.assert_array_equal(tos[1], R_TO2)
    np.testing.assert_array_equal(tos[2], R_TO3)
    np.testing.assert_array_equal(tos[3], R_TO4)
    for m in tos:
        validate_rotation(m)


def _nearest_trivial_by_search(r):
    # the four-distance loop nearest_trivial replaced, kept as its oracle
    best_id, best_d = 0, math.inf
    for k, m in enumerate(trivial_orientations(), 1):
        d = rotation_distance(r, m)
        if d < best_d:
            best_id, best_d = k, d
    return best_id, best_d


def test_nearest_trivial_matches_search(rng):
    # uniform rotations from normal quaternions, then 1e-12..1e-3 rad off each T_k
    rotations = [
        axis_angle_rotation(q[1:], 2.0 * math.atan2(np.linalg.norm(q[1:]), q[0]))
        for q in rng.normal(size=(20_000, 4))
    ]
    for t in trivial_orientations():
        for angle in np.logspace(-12, -3, 40):
            rotations.append(t @ axis_angle_rotation(rng.normal(size=3), angle))
            rotations.append(axis_angle_rotation(rng.normal(size=3), angle) @ t)
        rotations.append(t)
    for r in rotations:
        assert nearest_trivial(r) == nearest_trivial(r.tolist()) == _nearest_trivial_by_search(r)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_nearest_trivial_non_finite_distance_is_nan(value):
    for i in range(9):
        r = np.eye(3)
        r.flat[i] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, d = nearest_trivial(r)
            _, d_rows = nearest_trivial(r.tolist())
        assert math.isnan(d) and math.isnan(d_rows)


def test_classify_self_motion_pairs():
    assert classify_joint_degeneracy(JointTriplet(0.5, 0.0, math.pi / 2)).pair == 1
    assert classify_joint_degeneracy(JointTriplet(math.pi / 2, 0.7, 0.0)).pair == 2
    assert classify_joint_degeneracy(JointTriplet(0.0, -math.pi / 2, 0.9)).pair == 3
    assert (
        classify_joint_degeneracy(JointTriplet(math.pi, math.pi / 2, 0.9)).pair == 3
    )


def test_classify_generic_and_trivial_only():
    assert classify_joint_degeneracy(JointTriplet(0, 0, 0)).kind == "generic"
    j = trivial_only_joints(1.0, 1.0)
    deg = classify_joint_degeneracy(j)
    assert deg.kind == "trivial_only"
    # verify the construction actually zeroes the coefficient
    assert abs(q1_q2(j)[1]) < 1e-15


def _full_degeneracy_rule(j):
    # classify_joint_degeneracy as defined, with no early exit: the
    # condition pairs first, then |q2| <= STRUCTURE_TOL
    s1, c1, s2, c2, s3, c3 = joint_trig(*j.as_tuple())
    tol = STRUCTURE_TOL
    pairs = (
        abs(s2) < tol and abs(c3) < tol,
        abs(s3) < tol and abs(c1) < tol,
        abs(s1) < tol and abs(c2) < tol,
    )
    if True in pairs:
        return "self_motion", pairs.index(True) + 1
    if abs(det_factor(s1, c1, s2, c2, s3, c3)) <= tol:
        return "trivial_only", None
    return "generic", None


def _offset(draw):
    # 1e-12 to 1e-8, half the time 5e-10 to 1e-9: two such offsets on a
    # condition-pair line put |q2| between STRUCTURE_TOL and twice it
    exponent = draw(st.floats(-12.0, -8.0) | st.floats(-9.3, -9.0, exclude_max=True))
    return draw(st.sampled_from([-1.0, 1.0])) * 10.0**exponent


@st.composite
def near_degenerate_joints(draw):
    # joints 1e-12 to 1e-8 off a condition-pair line (pair p: sin of joint
    # p mod 3 and cos of joint p + 1 mod 3 vanish, 0-based) or off the
    # surface q2 = 0, or with |q2| in (STRUCTURE_TOL, 3 STRUCTURE_TOL]
    free = st.floats(-math.pi, math.pi)
    offset = _offset(draw)
    kind = draw(st.sampled_from([1, 2, 3, "surface", "band"]))
    if kind in (1, 2, 3):
        t = [draw(free), draw(free), draw(free)]
        t[kind % 3] = draw(st.sampled_from([0.0, math.pi])) + offset
        t[(kind + 1) % 3] = draw(st.sampled_from([HALF_PI, -HALF_PI])) + _offset(draw)
        return JointTriplet(*t)
    t1, t2 = draw(free), draw(free)
    a, b = math.sin(t1) * math.sin(t2), math.cos(t1) * math.cos(t2)
    rho = math.hypot(a, b)
    assume(rho > 1e-3)
    if kind == "band":
        offset = math.copysign(
            draw(st.floats(STRUCTURE_TOL, 3 * STRUCTURE_TOL, exclude_min=True)), offset
        )
    # q2 = rho sin(t3 + delta), as in the order property below
    return JointTriplet(t1, t2, math.asin(offset / rho) - math.atan2(b, a))


@settings(max_examples=600, deadline=None)
@given(near_degenerate_joints())
def test_degeneracy_early_exit_matches_full_rule(j):
    # joint_degeneracy answers "generic" for |q2| > 2 STRUCTURE_TOL before
    # it looks at the condition pairs; wherever a pair holds, |q2| is
    # within that bound, so the answer is the full rule's
    kind, pair = _full_degeneracy_rule(j)
    deg = classify_joint_degeneracy(j)
    assert (deg.kind, deg.pair) == (kind, pair)
    assert solve_dk(j).branch == ("finite" if kind == "generic" else kind)
    if kind == "self_motion":
        assert abs(det_factor(*joint_trig(*j.as_tuple()))) <= 2 * STRUCTURE_TOL


# Self-motion joints on each condition pair, and trivial-only joints; the
# first two read +++ from a signature formula that ignores the branch.
OFF_FINITE_JOINTS = [
    JointTriplet(math.pi / 2, 0.0, 0.0),
    JointTriplet(0.5, 0.0, math.pi / 2),
    JointTriplet(0.0, -math.pi / 2, 0.9),
    JointTriplet(math.pi, math.pi / 2, 0.9),
    trivial_only_joints(1.0, 1.0),
    trivial_only_joints(-2.0, 0.4),
]


@pytest.mark.parametrize("j", OFF_FINITE_JOINTS, ids=lambda j: str(j.as_tuple()))
def test_signatures_none_off_finite_branch(j):
    dk = solve_dk(j)
    assert dk.branch in ("self_motion", "trivial_only")
    assert dk.solutions is None
    assert dk.signatures is None


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=600, deadline=None)
@given(near_degenerate_joints() | st.builds(JointTriplet, *[st.floats(-math.pi, math.pi)] * 3))
@example(JointTriplet(math.pi / 2, 0.0, 0.0))
@example(JointTriplet(0.5, 0.0, math.pi / 2))
@example(trivial_only_joints(1.0, 1.0))
def test_dk_q2_is_closed_form_on_every_branch(j):
    # q2 is det_factor's value bit for bit, and signatures exist exactly
    # where solutions do
    dk = solve_dk(j)
    assert _bits(dk.q2) == _bits(det_a_closed_form(j))
    assert (dk.solutions is None) is (dk.signatures is None) is (not dk.is_finite)


def _half_turn_table(j, dk):
    # DkResult's half-turn table on the one solution whose theta and psi
    # both lie in (-pi/2, pi/2], built with EulerZyx's own wraps and
    # ordered by the numeric signatures of its entries
    (base,) = [
        e for e in dk.solutions if -HALF_PI < e.theta <= HALF_PI and -HALF_PI < e.psi <= HALF_PI
    ]
    phi, theta, psi = base.as_tuple()
    table = [
        EulerZyx(phi, theta, psi),
        EulerZyx(phi, theta, psi + math.pi),
        EulerZyx(phi, theta + math.pi, -psi),
        EulerZyx(phi, theta + math.pi, -psi + math.pi),
    ]
    ordered = {
        dk.signatures.index(working_mode_signature(j, euler_to_rotation(e))): e for e in table
    }
    assert sorted(ordered) == [0, 1, 2, 3]
    return [ordered[k] for k in range(4)]


@settings(max_examples=400, deadline=None)
@given(*[st.floats(min_value=-math.pi, max_value=math.pi)] * 3)
@example(0.0, 0.0, 0.0)
@example(-0.0, -0.0, -0.0)
@example(0.3, -0.2, math.pi)
@example(math.pi, math.pi / 2, -math.pi / 2)
@example(1.0, 0.5, -0.0)
def test_direct_solution_is_half_turn_table_entry_bit_for_bit(t1, t2, t3):
    # solve_dk's four solutions and the tracker's one-solution solve
    # against the half-turn table: the same EulerZyx, angle bits
    # included, and euler_to_rotation's entries
    j = JointTriplet(t1, t2, t3)
    trig = joint_trig(*j.as_tuple())
    q1, q2 = joint_factors(*trig)
    assume(classify_joint_degeneracy(j).kind == "generic")
    dk = solve_dk(j)
    for k, want in enumerate(_half_turn_table(j, dk)):
        e, entries = direct_solution(k, j.theta3, trig, cascade(trig, q1, q2))
        assert e == want == dk.solutions[k]
        for got in (e, dk.solutions[k]):
            assert list(map(_bits, got.as_tuple())) == list(map(_bits, want.as_tuple()))
        assert list(map(_bits, entries)) == list(map(_bits, euler_to_rotation(want).ravel()))


def test_signatures_are_shared_per_sign_of_q2(rng):
    # the eight signatures are built once; a result looks its four up
    groups = {}
    for _ in range(200):
        dk = solve_dk(generic_joints(rng))
        assert groups.setdefault(dk.q2 > 0.0, dk.signatures) is dk.signatures
    assert len(groups) == 2


@settings(max_examples=400, deadline=None)
@given(*[st.floats(min_value=-math.pi, max_value=math.pi)] * 3)
def test_signatures_are_numeric_signatures(t1, t2, t3):
    # sign(q2) * P_k against the numeric signs of diag(B) at solution k,
    # and assembly_mode_for inverts it
    j = JointTriplet(t1, t2, t3)
    dk = solve_dk(j)
    assume(dk.is_finite)
    for sig, sol in zip(dk.signatures, dk.solutions):
        assert sig == working_mode_signature(j, euler_to_rotation(sol))
        assert sig.product == (1 if dk.q2 > 0.0 else -1)
        assert assembly_mode_for(j, sig) == sol


def test_joint_factors_expansions(rng):
    for _ in range(2000):
        j = random_joints(rng)
        t1, t2, t3 = j.as_tuple()
        q1, q2 = q1_q2(j)
        assert q1 == pytest.approx(
            math.sin(t1) * math.cos(t2) * math.cos(t3) * math.sin(t3)
            - math.cos(t1) * math.sin(t2),
            abs=1e-15,
        )
        assert q2 == pytest.approx(
            math.sin(t1) * math.sin(t2) * math.sin(t3)
            + math.cos(t1) * math.cos(t2) * math.cos(t3),
            abs=1e-15,
        )


def test_solve_dk_reported_values():
    dk = solve_dk(JointTriplet(-0.3, -0.7, 0.1))
    assert dk.is_finite
    for got, expected in zip(dk.solutions, FIG_SOLUTIONS):
        assert euler_matches(got, expected, 1e-3)


def test_solve_dk_reference_joints():
    dk = solve_dk(JointTriplet(0, 0, 0))
    expected = ((0, 0, 0), (0, 0, math.pi), (0, math.pi, 0), (0, math.pi, math.pi))
    for got, exp in zip(dk.solutions, expected):
        assert euler_matches(got, exp, 1e-12)


def test_solve_dk_theta_roots_match_scan_oracle(rng):
    # independent oracle: sign-change scan of the theta equation
    for _ in range(50):
        j = generic_joints(rng)
        dk = solve_dk(j)
        q1, q2 = q1_q2(j)

        def g(theta):
            return q1 * math.cos(theta) + q2 * math.sin(theta)

        ts = np.linspace(-math.pi, math.pi, 20001)
        roots = []
        for a, b in zip(ts[:-1], ts[1:]):
            if g(a) == 0.0 or g(a) * g(b) < 0:
                lo, hi = a, b
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if g(lo) * g(mid) <= 0:
                        hi = mid
                    else:
                        lo = mid
                roots.append(0.5 * (lo + hi))
        thetas = sorted({round(s.theta, 9) for s in dk.solutions})
        assert len(roots) == 2
        for r in roots:
            assert min(circ_diff(r, t) for t in thetas) < 1e-8


def test_solve_dk_self_motion_branch():
    dk = solve_dk(JointTriplet(0.5, 0.0, math.pi / 2))
    assert dk.branch == "self_motion"
    assert dk.pair == 1
    assert dk.families == (1, 2)
    assert dk.solutions is None
    assert "theta free" in dk.constrained
    assert len(dk.trivial) == 4


def test_solve_dk_trivial_only_branch():
    dk = solve_dk(trivial_only_joints(1.0, 1.0))
    assert dk.branch == "trivial_only"
    assert dk.solutions is None


@pytest.mark.parametrize(
    "joints",
    [(math.nan, 0.0, 0.0), (0.3, math.nan, -1.2), (math.nan, 0.0, math.pi / 2)],
    ids=["nan_first", "nan_second", "nan_beside_pair_1"],
)
def test_nan_joints_rejected(joints):
    # every threshold fails towards "generic" on NaN, and (nan, 0, pi/2)
    # meets condition pair 1 on its finite joints
    j = JointTriplet(*joints)
    with pytest.raises(ValueError, match="not finite"):
        solve_dk(j)
    with pytest.raises(ValueError, match="not finite"):
        classify_joint_degeneracy(j)


def test_residual_closure_finite(rng):
    for _ in range(300):
        j = generic_joints(rng)
        for sol in solve_dk(j).solutions:
            r = euler_to_rotation(sol)
            assert np.max(np.abs(constraint_residuals(j, r))) < 1e-10


def test_residual_closure_self_motion(rng):
    # both family curves of the active pair assemble, for any free joint
    cases = [
        (1, lambda t1: JointTriplet(t1, 0.0, math.pi / 2)),
        (2, lambda t2: JointTriplet(-math.pi / 2, t2, math.pi)),
        (3, lambda t3: JointTriplet(math.pi, math.pi / 2, t3)),
    ]
    rng = np.random.default_rng(7)
    for pair, make in cases:
        for _ in range(50):
            j = make(rng.uniform(-math.pi, math.pi))
            dk = solve_dk(j)
            assert dk.branch == "self_motion" and dk.pair == pair
            t = rng.uniform(-math.pi, math.pi)
            for fid in dk.families:
                r = self_motion_family(fid, t)
                assert np.max(np.abs(constraint_residuals(j, r))) < 1e-12


def test_half_turn_structure(rng):
    # any two finite solutions differ by a half turn about a platform axis
    for _ in range(200):
        j = generic_joints(rng)
        mats = [euler_to_rotation(s) for s in solve_dk(j).solutions]
        for a in range(4):
            for b in range(a + 1, 4):
                d = min(
                    rotation_distance(
                        mats[b], mats[a] @ axis_angle_rotation(axis, math.pi)
                    )
                    for axis in PLATFORM_HOME
                )
                assert d < 1e-9


def test_ik_dk_closure(rng):
    for _ in range(300):
        j = generic_joints(rng)
        for sol in solve_dk(j).solutions:
            r = euler_to_rotation(sol)
            best = min(
                max(circ_diff(a, b) for a, b in zip(cand.as_tuple(), j.as_tuple()))
                for cand in solve_ik(r).enumerated
            )
            assert best < 1e-10


def test_redundant_phi_branch_collapses(rng):
    # the companion triplet from the phi = theta3 +/- pi branch represents
    # the same orientations
    for _ in range(300):
        j = generic_joints(rng)
        for sol in solve_dk(j).solutions:
            companion = (sol.phi + math.pi, -sol.theta + math.pi, sol.psi + math.pi)
            a, b = euler_to_rotation(sol), euler_to_rotation(companion)
            assert np.max(np.abs(a - b)) < 1e-12


def test_self_motion_family_matrices():
    np.testing.assert_allclose(
        self_motion_family(1, 0.0), [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15
    )
    np.testing.assert_allclose(
        self_motion_family(6, 0.0), [[0, 0, -1], [0, 1, 0], [1, 0, 0]], atol=1e-15
    )
    np.testing.assert_allclose(
        self_motion_family(3, math.pi / 2),
        [[0, 1, 0], [0, 0, -1], [-1, 0, 0]],
        atol=1e-15,
    )


def test_self_motion_family_labels_and_validity(rng):
    for fid in range(1, 7):
        label = FAMILY_LABELS[fid - 1]
        t = rng.uniform(-math.pi, math.pi)
        np.testing.assert_allclose(
            self_motion_family(fid, t), self_motion_family(label, t), atol=0
        )
        validate_rotation(self_motion_family(fid, t))
    with pytest.raises(UnknownFamily):
        self_motion_family(7, 0.0)
    with pytest.raises(UnknownFamily):
        self_motion_family("4c", 0.0)


def test_self_motion_family_id_is_an_integer():
    # a float id was once truncated: 1.9 gave family 1
    r = self_motion_family(2, 0.3)
    for fid in (1.9, 2.0, np.float64(2.0)):
        with pytest.raises(TypeError):
            self_motion_family(fid, 0.3)
        with pytest.raises(TypeError):
            family_distance(r, fid)
    np.testing.assert_array_equal(self_motion_family(np.int64(2), 0.3), r)
    assert family_distance(r, np.int64(2)) == family_distance(r, 2)


def test_trivials_on_exactly_three_families():
    # membership oracle: coarse scan + scipy bounded refinement
    def min_distance(r, fid):
        ts = np.linspace(-math.pi, math.pi, 721)
        dists = [rotation_distance(r, self_motion_family(fid, t)) for t in ts]
        k = int(np.argmin(dists))
        res = minimize_scalar(
            lambda t: rotation_distance(r, self_motion_family(fid, t)),
            bounds=(ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]),
            method="bounded",
            options={"xatol": 1e-12},
        )
        return float(res.fun)

    memberships = {}
    for tid, r in enumerate(trivial_orientations(), 1):
        members = [
            fid for fid in range(1, 7) if min_distance(r, fid) < 1e-9
        ]
        assert len(members) == 3
        memberships[tid] = members
    # every family carries exactly two of the trivial orientations
    counts = {fid: 0 for fid in range(1, 7)}
    for members in memberships.values():
        for fid in members:
            counts[fid] += 1
    assert all(c == 2 for c in counts.values())


def test_solve_dk_runtime():
    j = JointTriplet(-0.3, -0.7, 0.1)
    solve_dk(j)  # warm up
    n = 2000
    start = time.perf_counter()
    for _ in range(n):
        solve_dk(j)
    per_call = (time.perf_counter() - start) / n
    assert per_call < 1e-3


def euler_b_diag(j: JointTriplet, e: EulerZyx) -> tuple[float, float, float]:
    """diag(B) at an orientation, expanded in its Euler angles: an oracle
    that shares neither the leg table nor euler_to_rotation."""
    t1, t2, t3 = j.as_tuple()
    cf, sf = math.cos(e.phi), math.sin(e.phi)
    ct, st_ = math.cos(e.theta), math.sin(e.theta)
    cp, sp = math.cos(e.psi), math.sin(e.psi)
    return (
        math.sin(t1) * ct * sp + math.cos(t1) * (cf * cp + sf * st_ * sp),
        math.sin(t2) * (cf * st_ * cp + sf * sp) + math.cos(t2) * ct * cp,
        math.sin(t3) * sf * ct + math.cos(t3) * cf * ct,
    )


# Whether each B_ii has the sign of q2, for solutions 1..4: solution 1 has
# the all-equal signature and the half-turn table flips legs (1, 2),
# (2, 3) and (1, 3).
ORACLE_PATTERNS = (
    (True, True, True),
    (False, False, True),
    (True, False, False),
    (False, True, False),
)


def oracle_order(j: JointTriplet, solutions) -> tuple[EulerZyx, ...]:
    """The four direct solutions in the order the Euler-expanded diag(B)
    picks."""
    positive = q1_q2(j)[1] > 0.0
    patterns = [tuple((b > 0.0) == positive for b in euler_b_diag(j, s)) for s in solutions]
    assert sorted(patterns) == sorted(ORACLE_PATTERNS)
    return tuple(solutions[patterns.index(p)] for p in ORACLE_PATTERNS)


def test_euler_b_diag_matches_jacobians(rng):
    for _ in range(500):
        j = generic_joints(rng)
        for s in solve_dk(j).solutions:
            numeric = jacobians(j, euler_to_rotation(s)).b_diag
            np.testing.assert_allclose(euler_b_diag(j, s), numeric, rtol=0, atol=1e-14)


angles = st.floats(min_value=-math.pi, max_value=math.pi)


@settings(max_examples=300, deadline=None)
@given(angles, angles, angles)
def test_solution_order_matches_euler_oracle(t1, t2, t3):
    j = JointTriplet(t1, t2, t3)
    assume(classify_joint_degeneracy(j).kind == "generic")
    sols = solve_dk(j).solutions
    assert sols == oracle_order(j, sols)


@settings(max_examples=300, deadline=None)
@given(angles, angles, st.floats(min_value=-9.5, max_value=-6.0), st.booleans())
def test_solution_order_matches_euler_oracle_near_q2_zero(t1, t2, log_q2, negative):
    # q2 = s1 s2 sin(t3) + c1 c2 cos(t3) = rho sin(t3 + delta): put t3 where
    # q2 is +-10**log_q2, 3e-10 to 1e-6, so down to STRUCTURE_TOL = 1e-9
    a, b = math.sin(t1) * math.sin(t2), math.cos(t1) * math.cos(t2)
    rho = math.hypot(a, b)
    assume(rho > 1e-3)
    q2 = -(10.0**log_q2) if negative else 10.0**log_q2
    j = JointTriplet(t1, t2, math.asin(q2 / rho) - math.atan2(b, a))
    assume(classify_joint_degeneracy(j).kind == "generic")
    assert abs(q1_q2(j)[1]) < 2e-6
    sols = solve_dk(j).solutions
    assert sols == oracle_order(j, sols)
    # the order reads sign(B11) alone because B33 > 0 on the cascade's
    # first two solutions, the two with theta in (-pi/2, pi/2]
    first = [s for s in sols if -HALF_PI < s.theta <= HALF_PI]
    assert len(first) == 2
    for s in first:
        assert jacobians(j, euler_to_rotation(s)).b_diag[2] > 0.0
