import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from agile_eye import (
    FAMILY_LABELS,
    EulerZyx,
    JointTriplet,
    UnknownFamily,
    axis_angle_rotation,
    canonicalize_euler,
    cascade_intermediates,
    classify_joint_degeneracy,
    constraint_residuals,
    euler_to_rotation,
    jacobians,
    platform_axes_home,
    rotation_distance,
    self_motion_family,
    solve_dk,
    solve_ik,
    trivial_orientations,
    validate_rotation,
)
from agile_eye.dk import nearest_trivial
from conftest import circ_diff, euler_matches, random_joints

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
        assert nearest_trivial(r) == _nearest_trivial_by_search(r)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_nearest_trivial_non_finite_distance_is_nan(value):
    for i in range(9):
        r = np.eye(3)
        r.flat[i] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, d = nearest_trivial(r)
        assert math.isnan(d)


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
    inter = cascade_intermediates(j, 0.0)
    assert abs(inter.q2) < 1e-15


def test_cascade_intermediates_expansions(rng):
    for _ in range(2000):
        j = random_joints(rng)
        theta = rng.uniform(-math.pi, math.pi)
        t1, t2, t3 = j.as_tuple()
        inter = cascade_intermediates(j, theta)
        assert inter.p1 == pytest.approx(math.sin(t1) * math.cos(t3), abs=1e-15)
        assert inter.p2 == pytest.approx(
            math.sin(t1) * math.sin(theta) * math.sin(t3)
            - math.cos(theta) * math.cos(t1),
            abs=1e-15,
        )
        assert inter.p3 == pytest.approx(
            math.cos(t2) * math.sin(theta) * math.cos(t3)
            - math.cos(theta) * math.sin(t2),
            abs=1e-15,
        )
        assert inter.p4 == pytest.approx(math.cos(t2) * math.sin(t3), abs=1e-15)
        assert inter.q1 == pytest.approx(
            math.sin(t1) * math.cos(t2) * math.cos(t3) * math.sin(t3)
            - math.cos(t1) * math.sin(t2),
            abs=1e-15,
        )
        assert inter.q2 == pytest.approx(
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
        inter = cascade_intermediates(j, 0.0)

        def g(theta):
            return inter.q1 * math.cos(theta) + inter.q2 * math.sin(theta)

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
    axes = platform_axes_home()
    for _ in range(200):
        j = generic_joints(rng)
        mats = [euler_to_rotation(s) for s in solve_dk(j).solutions]
        for a in range(4):
            for b in range(a + 1, 4):
                d = min(
                    rotation_distance(
                        mats[b], mats[a] @ axis_angle_rotation(axis, math.pi)
                    )
                    for axis in axes
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
    # the same orientations; canonical forms coincide
    for _ in range(300):
        j = generic_joints(rng)
        for sol in solve_dk(j).solutions:
            companion = EulerZyx(
                sol.phi + math.pi, -sol.theta + math.pi, sol.psi + math.pi
            )
            a = canonicalize_euler(sol)
            b = canonicalize_euler(companion)
            assert all(
                circ_diff(x, y) < 1e-12 for x, y in zip(a.as_tuple(), b.as_tuple())
            )


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
    positive = cascade_intermediates(j, 0.0).q2 > 0.0
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
@given(angles, angles, st.floats(min_value=-8.5, max_value=-6.0), st.booleans())
def test_solution_order_matches_euler_oracle_near_q2_zero(t1, t2, log_q2, negative):
    # q2 = s1 s2 sin(t3) + c1 c2 cos(t3) = rho sin(t3 + delta): put t3 where
    # q2 is +-10**log_q2, 3e-9 to 1e-6
    a, b = math.sin(t1) * math.sin(t2), math.cos(t1) * math.cos(t2)
    rho = math.hypot(a, b)
    assume(rho > 1e-3)
    q2 = -(10.0**log_q2) if negative else 10.0**log_q2
    j = JointTriplet(t1, t2, math.asin(q2 / rho) - math.atan2(b, a))
    assume(classify_joint_degeneracy(j).kind == "generic")
    assert abs(cascade_intermediates(j, 0.0).q2) < 2e-6
    sols = solve_dk(j).solutions
    assert sols == oracle_order(j, sols)
