import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agile_eye import (
    DegenerateJoints,
    JointTriplet,
    ToolConfig,
    NoMatchingSolution,
    NoSuchMode,
    SingularNoSignature,
    StartNotASolution,
    WorkingModeSignature,
    assembly_mode_for,
    assembly_mode_id,
    det_a_closed_form,
    euler_to_rotation,
    rotation_distance,
    solve_dk,
    solve_ik,
    track_path,
    trivial_orientations,
    working_mode_signature,
    wrap_angle,
)
from agile_eye import dk as dk_module
from agile_eye import modes
from agile_eye.dk import cascade, nearest_direct_solution
from agile_eye.mechanism import (
    SIGN_TABLE,
    b_diagonal,
    constraint_residuals,
    det_factor,
    joint_factors,
    joint_trig,
)
from agile_eye.modes import MATCH_TOL, SingularityCrossing, TrackResult
from agile_eye.singularity import jacobians
from agile_eye.so3 import ORTHONORMAL_TOL, nearest_flip
from conftest import (
    axis_angle_rotation,
    circ_diff,
    count_calls,
    random_joints,
    random_orientation,
)
from test_dk import FIG_SOLUTIONS, generic_joints, trivial_only_joints

FIG_JOINTS = JointTriplet(-0.3, -0.7, 0.1)


def test_signature_label_roundtrip():
    sig = WorkingModeSignature(1, -1, 1)
    assert sig.label == "+-+"
    assert sig.product == -1
    for signs in itertools.product((1, -1), repeat=3):
        label = WorkingModeSignature(*signs).label
        assert tuple(1 if ch == "+" else -1 for ch in label) == signs
    with pytest.raises(ValueError):
        WorkingModeSignature(0, 1, 1)


def test_reference_signature_is_all_positive():
    # global sign fixed once by direct numeric evaluation: at the
    # reference configuration each (w_i x v_i) . u_i equals +1
    sig = working_mode_signature(JointTriplet(0, 0, 0), np.eye(3))
    assert sig == WorkingModeSignature(1, 1, 1)


def test_first_solution_carries_all_equal_signature(rng):
    # the solution labeled 1 is anchored to the all-equal signature in
    # either det-sign domain; that anchor is what keeps mode ids constant
    # along singularity-free paths
    for _ in range(1000):
        j = generic_joints(rng)
        sigma = 1 if det_a_closed_form(j) > 0 else -1
        sig1 = working_mode_signature(
            j, euler_to_rotation(solve_dk(j).solutions[0])
        )
        assert (sig1.s1, sig1.s2, sig1.s3) == (sigma, sigma, sigma)


def test_negative_domain_first_solution():
    # joints with negative det factor: solution 1 is the all-negative
    # signature member, matching the conventional sign assumption
    j = JointTriplet(math.pi, 0.0, 0.0)
    dk = solve_dk(j)
    assert dk.solutions[0].as_tuple() == pytest.approx((0.0, math.pi, 0.0))
    sig = working_mode_signature(j, euler_to_rotation(dk.solutions[0]))
    assert sig == WorkingModeSignature(-1, -1, -1)


def test_signature_flips_between_first_two_solutions():
    sols = solve_dk(FIG_JOINTS).solutions
    sig_a = working_mode_signature(FIG_JOINTS, euler_to_rotation(sols[0]))
    sig_b = working_mode_signature(FIG_JOINTS, euler_to_rotation(sols[1]))
    assert sig_b.s1 == -sig_a.s1
    assert sig_b.s2 == -sig_a.s2
    assert sig_b.s3 == sig_a.s3


def test_signature_undefined_at_trivial_orientation():
    with pytest.raises(SingularNoSignature):
        working_mode_signature(JointTriplet(0, 0, 0), trivial_orientations()[0])


@pytest.mark.parametrize("entry", [(2, 1), (1, 1), (0, 2), (2, 2), (1, 0), (0, 0)])
def test_signature_nan_leg_table_entry_raises(entry):
    # the leg table (r21, r11), (r02, r22), (r10, r00): a NaN makes one
    # B_ii NaN while the other two stay clear of zero
    r = euler_to_rotation((0.100, -0.672, -0.383))
    for j in solve_ik(r).enumerated:
        bad = r.copy()
        bad[entry] = math.nan
        with pytest.raises(SingularNoSignature, match="nan"):
            working_mode_signature(j, bad)


def test_signature_is_the_shared_instance_of_its_direct_solution(rng):
    for _ in range(200):
        j = generic_joints(rng)
        dk = solve_dk(j)
        for k, e in enumerate(dk.solutions, 1):
            sig = working_mode_signature(j, euler_to_rotation(e))
            assert sig is dk.signatures[k - 1]
            assert sig == WorkingModeSignature(sig.s1, sig.s2, sig.s3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sig.s1 = -sig.s1


def test_signature_bijection_and_pattern(rng):
    for _ in range(10_000):
        j = generic_joints(rng)
        sigs = [
            working_mode_signature(j, euler_to_rotation(s))
            for s in solve_dk(j).solutions
        ]
        assert len(set(sigs)) == 4
        s1 = sigs[0]
        assert sigs[1] == WorkingModeSignature(-s1.s1, -s1.s2, s1.s3)
        assert sigs[2] == WorkingModeSignature(s1.s1, -s1.s2, -s1.s3)
        assert sigs[3] == WorkingModeSignature(-s1.s1, s1.s2, -s1.s3)
        # common sign product equals the sign of the determinant factor
        products = {sig.product for sig in sigs}
        assert products == {1 if det_a_closed_form(j) > 0 else -1}


def test_assembly_mode_for_reported_configuration():
    # the third reported solution is recovered from its signature
    sig = working_mode_signature(
        FIG_JOINTS, euler_to_rotation(FIG_SOLUTIONS[2])
    )
    sol = assembly_mode_for(FIG_JOINTS, sig)
    assert all(
        circ_diff(a, b) < 1e-3 for a, b in zip(sol.as_tuple(), FIG_SOLUTIONS[2])
    )


def test_assembly_mode_for_reference():
    sol = assembly_mode_for(JointTriplet(0, 0, 0), WorkingModeSignature(1, 1, 1))
    assert sol.as_tuple() == (0.0, 0.0, 0.0)


def test_assembly_mode_for_opposite_group(rng):
    # the message names the group the joints do realize: sign(q2)
    groups = set()
    for _ in range(50):
        j = generic_joints(rng)
        sig = working_mode_signature(
            j, euler_to_rotation(solve_dk(j).solutions[0])
        )
        flipped = WorkingModeSignature(-sig.s1, -sig.s2, -sig.s3)
        group = "+" if det_a_closed_form(j) > 0.0 else "-"
        groups.add(group)
        with pytest.raises(NoSuchMode, match=rf"sign-product \{group} group only"):
            assembly_mode_for(j, flipped)
    assert groups == {"+", "-"}


def test_assembly_mode_for_degenerate_joints():
    with pytest.raises(DegenerateJoints):
        assembly_mode_for(
            JointTriplet(0.5, 0.0, math.pi / 2), WorkingModeSignature(1, 1, 1)
        )


def test_signature_class_has_one_home():
    import agile_eye
    from agile_eye import mechanism

    assert WorkingModeSignature is mechanism.WorkingModeSignature
    assert modes.WorkingModeSignature is mechanism.WorkingModeSignature
    assert not hasattr(agile_eye, "direct_signature")
    assert not hasattr(modes, "direct_signature")


def test_assembly_mode_for_reads_one_solve(rng, monkeypatch):
    # the signature lookup reads the sign of q2 from one joint evaluation
    # (`_generic`) and solves the requested solution alone: no solve_dk,
    # and no determinant factor beside joint_factors' own
    calls = dict.fromkeys(("solve_dk", "joint_trig", "det_factor"), 0)

    def spy(name):
        real = getattr(modes, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(modes, name, counting)

    for name in calls:
        spy(name)
    for _ in range(50):
        j = generic_joints(rng)
        dk = solve_dk(j)
        for sig, sol in zip(dk.signatures, dk.solutions):
            calls.update(dict.fromkeys(calls, 0))
            assert assembly_mode_for(j, sig) == sol
            assert calls == {"solve_dk": 0, "joint_trig": 1, "det_factor": 0}
        flipped = WorkingModeSignature(*(-s for s in (sig.s1, sig.s2, sig.s3)))
        calls.update(dict.fromkeys(calls, 0))
        with pytest.raises(NoSuchMode):
            assembly_mode_for(j, flipped)
        assert calls == {"solve_dk": 0, "joint_trig": 1, "det_factor": 0}


def test_assembly_mode_ids():
    r1 = euler_to_rotation((0.100, -0.672, -0.383))
    r4 = euler_to_rotation((0.100, 2.470, 3.525))
    assert assembly_mode_id(FIG_JOINTS, r1, tol=2e-3) == 1
    assert assembly_mode_id(FIG_JOINTS, r4, tol=2e-3) == 4
    with pytest.raises(NoMatchingSolution):
        assembly_mode_id(JointTriplet(0, 0, 0), trivial_orientations()[0])


# Half-turns about the platform axes: direct solution k is R_1 H_k.
HALF_TURNS = [np.diag(h) for h in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))]


def _near_surface_joints(t1, t2, q2):
    # joints with det factor q2, or None where the (t1, t2) slice is flat
    a, b = math.sin(t1) * math.sin(t2), math.cos(t1) * math.cos(t2)
    m = math.hypot(a, b)
    if m < 0.1:
        return None
    return JointTriplet(t1, t2, math.atan2(a, b) + math.acos(q2 / m))


def _assert_half_turn_order(j):
    dk = solve_dk(j)
    assume(dk.is_finite)
    r1 = euler_to_rotation(dk.solutions[0])
    for sol, h in zip(dk.solutions, HALF_TURNS):
        assert np.max(np.abs(euler_to_rotation(sol) - r1 @ h)) <= 2e-15


angles = st.floats(min_value=-math.pi, max_value=math.pi)


@settings(max_examples=400, deadline=None)
@given(angles, angles, angles)
def test_direct_solutions_are_half_turns_of_the_first(t1, t2, t3):
    _assert_half_turn_order(JointTriplet(t1, t2, t3))


@settings(max_examples=300, deadline=None)
@given(angles, angles, angles)
def test_leg_flips_permute_the_direct_solutions(t1, t2, t3):
    # The working/assembly mode relation from the joint side: turning leg i
    # by pi negates (s_i, c_i), so it negates residual i and B_ii, and
    # multiplies q2 by pi(sigma) for the flips sigma.  Every direct solution
    # of j therefore solves the flipped joints too, with signature
    # sigma sign(q2) P_k: the four solutions are the same set, solution k
    # at index SIGN_TABLE.index(pi(sigma) sigma P_k) of the flipped joints.
    j = JointTriplet(t1, t2, t3)
    assume(abs(det_factor(*joint_trig(t1, t2, t3))) > 1e-3)
    mats = [euler_to_rotation(s) for s in solve_dk(j).solutions]
    for sigma in itertools.product((1, -1), repeat=3):
        turned = (t + (math.pi if s < 0 else 0.0) for t, s in zip(j.as_tuple(), sigma))
        flipped = [euler_to_rotation(s) for s in solve_dk(JointTriplet(*turned)).solutions]
        for k, p in enumerate(SIGN_TABLE):
            moved = tuple(math.prod(sigma) * s * x for s, x in zip(sigma, p))
            assert np.max(np.abs(flipped[SIGN_TABLE.index(moved)] - mats[k])) <= 1e-12


@settings(max_examples=400, deadline=None)
@given(
    angles,
    angles,
    st.floats(min_value=math.log10(2e-9), max_value=-6.0),
    st.sampled_from([-1.0, 1.0]),
)
def test_half_turn_order_near_determinant_surface(t1, t2, log_q2, sign):
    j = _near_surface_joints(t1, t2, sign * 10.0**log_q2)
    assume(j is not None)
    _assert_half_turn_order(j)


def _nearest(j, r):
    # the one mode match, on j's own joint evaluation
    trig = joint_trig(*j.as_tuple())
    return nearest_direct_solution(trig, cascade(trig, *joint_factors(*trig)), r)


def _assembly_mode_id_by_search(j, r, tol=MATCH_TOL):
    # the four-matrix search the half-turn matcher replaced
    for idx, sol in enumerate(solve_dk(j).solutions, 1):
        if rotation_distance(r, euler_to_rotation(sol)) < tol:
            return idx
    return None


def test_assembly_mode_id_matches_search(rng):
    # direct solutions rotated by up to 2 MATCH_TOL (so about half match),
    # exact solutions, and unrelated orientations
    for case in range(20_000):
        j = generic_joints(rng)
        if case % 4 == 3:
            r = euler_to_rotation(rng.uniform(-math.pi, math.pi, 3))
        else:
            sol = solve_dk(j).solutions[rng.integers(4)]
            angle = 0.0 if case % 4 == 2 else rng.uniform(0.0, 2.0 * MATCH_TOL)
            r = euler_to_rotation(sol) @ axis_angle_rotation(rng.normal(size=3), angle)
        try:
            got = assembly_mode_id(j, r)
        except NoMatchingSolution:
            got = None
        assert got == _assembly_mode_id_by_search(j, r)


def test_assembly_mode_id_near_determinant_surface(rng):
    # Direct solutions rotated by MATCH_TOL / 2 at 3e-9 <= |q2| <= 1e-6:
    # there |B_ii| is below the perturbation, so the numeric signature of
    # (j, r) often names another solution; matching against all four
    # direct solutions still returns k.
    cases = wrong = 0
    while cases < 2000:
        t1, t2 = rng.uniform(-math.pi, math.pi, 2)
        a, b = math.sin(t1) * math.sin(t2), math.cos(t1) * math.cos(t2)
        m = math.hypot(a, b)
        if m < 0.1:
            continue
        q2 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(math.log10(3e-9), -6.0)
        j = JointTriplet(t1, t2, math.atan2(a, b) + math.acos(q2 / m))
        for k, sol in enumerate(solve_dk(j).solutions, 1):
            axis = rng.normal(size=3)
            r = euler_to_rotation(sol) @ axis_angle_rotation(axis, 0.5 * MATCH_TOL)
            assert assembly_mode_id(j, r) == k
            rel = tuple(int(np.sign(q2 * x)) for x in b_diagonal(j, r))
            wrong += rel != SIGN_TABLE[k - 1]
            cases += 1
    assert wrong > cases // 4


def _mode_or_none(j, r, tol=MATCH_TOL):
    try:
        return assembly_mode_id(j, r, tol)
    except NoMatchingSolution:
        return None


def _assert_matches_search(j, r, tol=MATCH_TOL):
    # assembly_mode_id accepts a distance equal to tol and the search does
    # not; its distance formula rounds differently, so a case within 1e-15
    # of tol is left out
    dist = min(rotation_distance(r, euler_to_rotation(s)) for s in solve_dk(j).solutions)
    assume(not abs(dist - tol) <= 1e-15)
    assert _mode_or_none(j, r, tol) == _assembly_mode_id_by_search(j, r, tol)


def _finite_solutions(t1, t2, t3):
    j = JointTriplet(t1, t2, t3)
    dk = solve_dk(j)
    assume(dk.is_finite)
    return j, dk.solutions


axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1)
modes_0_3 = st.integers(0, 3)


@settings(max_examples=400, deadline=None)
@given(angles, angles, angles, modes_0_3)
def test_assembly_mode_id_exact_solutions_match_search(t1, t2, t3, k):
    j, sols = _finite_solutions(t1, t2, t3)
    r = euler_to_rotation(sols[k])
    assert _mode_or_none(j, r) == _assembly_mode_id_by_search(j, r) == k + 1


@settings(max_examples=400, deadline=None)
@given(
    angles,
    angles,
    angles,
    st.floats(min_value=math.log10(2e-9), max_value=-1.0),
    st.sampled_from([-1.0, 1.0, None]),
)
def test_direct_solution_residuals_within_rounding_allowance(t1, t2, t3, log_q2, sign):
    # solve_dk's solutions have residuals below 1e-14, a few ulp, on
    # uniform joints (sign None) and near the determinant surface
    j = JointTriplet(t1, t2, t3) if sign is None else _near_surface_joints(t1, t2, sign * 10.0**log_q2)
    assume(j is not None)
    j, sols = _finite_solutions(*j.as_tuple())
    for sol in sols:
        assert max(abs(x) for x in constraint_residuals(j, euler_to_rotation(sol))) < 1e-14


@settings(max_examples=400, deadline=None)
@given(angles, angles, angles, angles, angles, angles)
def test_nearest_direct_solution_matches_four_distance_search(t1, t2, t3, phi, theta, psi):
    # any orientation, assembled or not; where two distances tie within
    # 1e-12, rounding may pick either, so such a case is left out
    j, sols = _finite_solutions(t1, t2, t3)
    r = euler_to_rotation((phi, theta, psi))
    dists = [rotation_distance(r, euler_to_rotation(s)) for s in sols]
    best = min(range(4), key=dists.__getitem__)
    assume(sorted(dists)[1] - dists[best] > 1e-12)
    k, dist = _nearest(j, r)
    assert k == best + 1
    assert abs(dist - dists[best]) <= 1e-15


def test_nearest_flip_tie_goes_to_lowest_index():
    # a quarter-turn about x has diagonal (1, 0, 0): the half-turns 1 and 2
    # both give trace 1, and both rotations are quarter-turns
    turns = dk_module._HALF_TURNS
    assert [np.diag(h).tolist() for h in turns] == [h.tolist() for h in HALF_TURNS]
    quarter_x = ((1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 1.0, 0.0))
    assert nearest_flip(quarter_x, turns) == (1, math.pi / 2)
    swapped = (turns[1], turns[0], *turns[2:])
    assert nearest_flip(quarter_x, swapped) == (1, math.pi / 2)


@settings(max_examples=400, deadline=None)
@given(angles, angles, angles, modes_0_3, axes, st.floats(0.0, 2.0 * MATCH_TOL))
def test_assembly_mode_id_rotated_solutions_match_search(t1, t2, t3, k, axis, angle):
    j, sols = _finite_solutions(t1, t2, t3)
    r = euler_to_rotation(sols[k]) @ axis_angle_rotation(axis, angle)
    _assert_matches_search(j, r)


@settings(max_examples=400, deadline=None)
@given(
    angles,
    angles,
    st.floats(min_value=math.log10(3e-9), max_value=-6.0),
    st.sampled_from([-1.0, 1.0]),
    modes_0_3,
    axes,
    st.floats(0.0, 2.0 * MATCH_TOL),
)
def test_assembly_mode_id_near_determinant_surface_matches_search(
    t1, t2, log_q2, sign, k, axis, angle
):
    j = _near_surface_joints(t1, t2, sign * 10.0**log_q2)
    assume(j is not None)
    j, sols = _finite_solutions(*j.as_tuple())
    r = euler_to_rotation(sols[k]) @ axis_angle_rotation(axis, angle)
    _assert_matches_search(j, r)


@settings(max_examples=400, deadline=None)
@given(angles, angles, angles, modes_0_3, axes, st.floats(-9.0, -3.0))
def test_assembly_mode_id_near_trivial_orientation_matches_search(
    t1, t2, t3, k, axis, log_angle
):
    # every residual vanishes at a trivial orientation too, but diag(B)
    # does: only the |B_ii| margin tells it from a direct solution
    j, _ = _finite_solutions(t1, t2, t3)
    r = trivial_orientations()[k] @ axis_angle_rotation(axis, 10.0**log_angle)
    _assert_matches_search(j, r)


@settings(max_examples=400, deadline=None)
@given(
    angles,
    angles,
    angles,
    modes_0_3,
    axes,
    st.floats(0.0, 2.0 * MATCH_TOL),
    st.floats(-ORTHONORMAL_TOL, ORTHONORMAL_TOL),
)
def test_assembly_mode_id_scaled_off_so3_matches_search(
    t1, t2, t3, k, axis, angle, scale
):
    j, sols = _finite_solutions(t1, t2, t3)
    r = (1.0 + scale) * euler_to_rotation(sols[k]) @ axis_angle_rotation(axis, angle)
    _assert_matches_search(j, r)


@settings(max_examples=400, deadline=None)
@given(
    angles,
    angles,
    angles,
    modes_0_3,
    st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    st.sampled_from([0.5, 0.9, 1.1, 2.0]),
)
def test_assembly_mode_id_off_so3_with_zero_residuals_matches_search(
    t1, t2, t3, k, s, factor
):
    # r = R_k (I + S + hat(omega)) with S symmetric, its entries at most
    # ORTHONORMAL_TOL / 4, and omega chosen so that the residuals, which
    # are linear in r, stay those of R_k.  The rotation nearest r is R_k
    # turned by about |omega|, which only the orthonormality defect of r
    # shows; tol straddles the distance to R_k.
    j, sols = _finite_solutions(t1, t2, t3)
    rk = euler_to_rotation(sols[k])
    sym = 0.25 * ORTHONORMAL_TOL * np.array(
        [[s[0], s[3], s[4]], [s[3], s[1], s[5]], [s[4], s[5], s[2]]]
    )
    # residuals of R_k hat(omega) are -A (R_k omega)
    wx, wy, wz = rk.T @ np.linalg.solve(jacobians(j, rk).a, constraint_residuals(j, rk @ sym))
    r = rk @ (np.eye(3) + sym + np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]]))
    dist = rotation_distance(r, rk)
    assume(dist > 1e-12)
    tol = factor * dist
    _assert_matches_search(j, r, tol)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [(a, b) for a in range(3) for b in range(3)])
def test_assembly_mode_id_non_finite_orientation(entry, value):
    # every distance is NaN, never atan2(inf, inf) = pi/4, so even a loose
    # tol matches nothing
    dk = solve_dk(FIG_JOINTS)
    r = euler_to_rotation(dk.solutions[0])
    r[entry] = value
    assert math.isnan(rotation_distance(r, np.eye(3)))
    assert math.isnan(rotation_distance(np.eye(3), r))
    assert math.isnan(rotation_distance(r, euler_to_rotation(dk.solutions[0])))
    assert math.isnan(_nearest(FIG_JOINTS, r)[1])
    for tol in (MATCH_TOL, 1.0):
        with pytest.raises(NoMatchingSolution):
            assembly_mode_id(FIG_JOINTS, r, tol)


def test_assembly_mode_id_nan_tol():
    r = euler_to_rotation(solve_dk(FIG_JOINTS).solutions[0])
    assert assembly_mode_id(FIG_JOINTS, r) == 1
    with pytest.raises(NoMatchingSolution):
        assembly_mode_id(FIG_JOINTS, r, math.nan)


def test_assembly_mode_id_regular_poses_need_no_direct_solve(rng, monkeypatch):
    # At IK solutions with |q2| and every |B_ii| at least 1e-3, working
    # mode sigma is in assembly mode SIGN_TABLE.index(pi(sigma) sigma) + 1,
    # and the one match finds it with no full direct-kinematics solve.
    cases = []
    while len(cases) < 2000:
        r = random_orientation(rng)
        for j in solve_ik(r).enumerated:
            b = b_diagonal(j, r)
            if abs(det_a_closed_form(j)) < 1e-3 or min(abs(x) for x in b) < 1e-3:
                continue
            sig = tuple(1 if x > 0 else -1 for x in b)
            k = SIGN_TABLE.index(tuple(math.prod(sig) * x for x in sig)) + 1
            assert _assembly_mode_id_by_search(j, r) == k
            cases.append((j, r, k))

    def no_solve(j):
        raise AssertionError("solve_dk called")

    monkeypatch.setattr(modes, "solve_dk", no_solve)
    for j, r, k in cases:
        assert assembly_mode_id(j, r) == k


@pytest.mark.parametrize(
    "j",
    [JointTriplet(0.5, 0.0, math.pi / 2), trivial_only_joints(1.0, 1.0)],
    ids=["condition_pair", "trivial_only"],
)
def test_assembly_mode_id_declines_degenerate_joints(j, monkeypatch):
    # joints that are not generic are declined by joint_degeneracy, at one
    # of their own (trivial) orientations too, before any match or solve,
    # with the message of solve_dk's branch
    r = solve_dk(j).trivial[0]
    branch = solve_dk(j).branch
    solves = count_calls(monkeypatch, "solve_dk", [modes])
    message = f"direct kinematics branch is {branch!r}; finite solutions required"
    with pytest.raises(DegenerateJoints, match=f"^{message}$"):
        assembly_mode_id(j, r)
    assert solves == {}


def test_diag_b_is_read_from_jacobian_rows(rng, monkeypatch):
    # jacobians builds A's rows and takes diag(B) from them, and a mode
    # match reads no diag(B); leg_b is for b_diagonal alone
    from agile_eye import mechanism, singularity

    calls = count_calls(monkeypatch, "leg_b", (mechanism, singularity, modes))
    for _ in range(200):
        r = random_orientation(rng)
        for j in solve_ik(r).enumerated:
            jacobians(j, r)
            assembly_mode_id(j, r)
        with pytest.raises(NoMatchingSolution):
            assembly_mode_id(random_joints(rng), r @ axis_angle_rotation((1, 2, 3), 0.5))
    assert calls == {}


def test_track_results_compare_by_value():
    # eulers determine the orientations, which are left out of == and hash
    path = [FIG_JOINTS, JointTriplet(-0.25, -0.65, 0.15), JointTriplet(-0.2, -0.6, 0.2)]
    dk = solve_dk(FIG_JOINTS)
    first = [track_path(path, euler_to_rotation(s)) for s in dk.solutions]
    again = [track_path(path, euler_to_rotation(s)) for s in dk.solutions]
    for a, b in zip(first, again):
        assert a == b
        assert hash(a) == hash(b)
    assert len(set(first)) == 4
    assert [t.signature for t in first] == list(dk.signatures)
    assert track_path(path[:2], euler_to_rotation(dk.solutions[0])) != first[0]


def test_track_constant_path():
    start = euler_to_rotation(solve_dk(FIG_JOINTS).solutions[0])
    result = track_path([FIG_JOINTS] * 5, start)
    assert not result.crossed
    assert len(result.orientations) == 5
    for r in result.orientations:
        assert rotation_distance(r, start) < 1e-12


def test_track_requires_valid_start():
    with pytest.raises(StartNotASolution):
        track_path([FIG_JOINTS], euler_to_rotation((1.2, 0.4, 0.9)))
    with pytest.raises(StartNotASolution):
        track_path(
            [JointTriplet(0.5, 0.0, math.pi / 2)], euler_to_rotation((0, 0, 0))
        )


@pytest.mark.parametrize(
    "j, branch",
    [
        (JointTriplet(0.5, 0.0, math.pi / 2), "self_motion"),
        (JointTriplet(math.pi, math.pi / 2, 0.9), "self_motion"),
        (trivial_only_joints(1.0, 1.0), "trivial_only"),
    ],
    ids=["pair_1", "pair_3", "trivial_only"],
)
def test_track_rejects_degenerate_first_waypoint(j, branch, monkeypatch):
    # the first waypoint's degeneracy comes from joint_degeneracy, as every
    # other waypoint's does, under solve_dk's branch names
    assert solve_dk(j).branch == branch
    solves = count_calls(monkeypatch, "solve_dk", [modes])
    message = f"first waypoint has branch {branch!r}, not finite solutions"
    for start in (np.eye(3), trivial_orientations()[0]):
        with pytest.raises(StartNotASolution, match=f"^{message}$"):
            track_path([j, FIG_JOINTS], start)
    assert solves == {}


def test_track_start_scaled_off_so3_keeps_its_mode(monkeypatch):
    # Scaling an exact solution by 1 + 2e-7 leaves it within rounding of
    # that solution: it is matched with the index and the track of the
    # exact start, with no solve_dk.
    path = [FIG_JOINTS, JointTriplet(-0.25, -0.65, 0.15), JointTriplet(-0.2, -0.6, 0.2)]
    for k, sol in enumerate(solve_dk(FIG_JOINTS).solutions):
        exact = euler_to_rotation(sol)
        start = exact * (1.0 + 2e-7)
        index, dist = _nearest(FIG_JOINTS, start)
        assert index == k + 1 and dist < 1e-15
        solves = count_calls(monkeypatch, "solve_dk", [modes])
        result = track_path(path, start)
        assert solves == {}
        monkeypatch.undo()
        assert result.mode_id == k + 1
        assert result == track_path(path, exact)


def test_track_rejects_empty_path():
    with pytest.raises(ValueError, match="path must contain at least one waypoint"):
        track_path([], euler_to_rotation((0.0, 0.0, 0.0)))


def test_track_rejects_nan_start():
    with pytest.raises(StartNotASolution, match="nan rad"):
        track_path([FIG_JOINTS], euler_to_rotation((math.nan, 0.4, 0.9)))


def test_track_rejects_nan_first_waypoint():
    with pytest.raises(ValueError, match="not finite"):
        track_path([JointTriplet(math.nan, 0.0, 0.0)], np.eye(3))


@pytest.mark.parametrize("as_triplets", [False, True], ids=["tuples", "triplets"])
@pytest.mark.parametrize("index", [1, 3, 6], ids=["second", "middle", "last"])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_track_rejects_nan_waypoint_anywhere(index, column, as_triplets):
    # found before tracking starts: a later NaN is not a crossing
    path = [FIG_JOINTS.as_tuple()] * 7
    bad = [0.3, -0.2, 0.5]
    bad[column] = math.nan
    path[index] = tuple(bad)
    if as_triplets:
        path = [JointTriplet(*p) for p in path]
    start = euler_to_rotation(solve_dk(FIG_JOINTS).solutions[0])
    with pytest.raises(ValueError, match=f"^waypoint {index}: .* not finite"):
        track_path(path, start)


def test_track_rejects_nan_waypoint_after_crossing():
    # segment 0 crosses q2 = 0, which was reported before the NaN was seen
    a = JointTriplet(0.0, 0.0, 0.0)
    b = JointTriplet(math.pi, 0.0, 0.0)
    start = euler_to_rotation(solve_dk(a).solutions[0])
    assert track_path([a, b], start).crossing.segment == 0
    for path in ([a, b, a, (0.1, math.nan, 0.2)], [a, b, JointTriplet(math.nan, 0.0, 0.0)]):
        with pytest.raises(ValueError, match=f"^waypoint {len(path) - 1}: "):
            track_path(path, start)


def test_track_loop_closes_and_keeps_mode():
    base = JointTriplet(0.3, -0.2, 0.5)
    loop = [
        base,
        JointTriplet(0.6, -0.1, 0.4),
        JointTriplet(0.5, -0.4, 0.7),
        base,
    ]
    for mode_index in range(4):
        start = euler_to_rotation(solve_dk(base).solutions[mode_index])
        result = track_path(loop, start)
        assert not result.crossed
        assert result.mode_id == mode_index + 1
        assert rotation_distance(result.orientations[-1], start) < 1e-8
        ids = {
            assembly_mode_id(j, r)
            for j, r in zip(loop, result.orientations)
        }
        assert ids == {mode_index + 1}
        sigs = {
            working_mode_signature(j, r).label
            for j, r in zip(loop, result.orientations)
        }
        assert len(sigs) == 1


def test_track_reports_crossing():
    # straight joint path from the positive to the negative det domain
    a = JointTriplet(0.0, 0.0, 0.0)  # det factor +1
    b = JointTriplet(math.pi, 0.0, 0.0)  # det factor -1
    start = euler_to_rotation(solve_dk(a).solutions[0])
    result = track_path([a, b], start)
    assert result.crossed
    assert result.crossing.segment == 0


def test_track_crossing_at_segment_zero_keeps_one_orientation():
    # the start alone is reached: still a (3, 3) float64 matrix, as built
    a, b = JointTriplet(0.0, 0.0, 0.0), JointTriplet(math.pi, 0.0, 0.0)
    for e in solve_dk(a).solutions:
        result = track_path([a, b, a], euler_to_rotation(e))
        assert result.crossing == SingularityCrossing(0, "determinant sign change")
        (r,) = result.orientations
        assert r.shape == (3, 3) and r.dtype == np.float64
        assert r.tobytes() == euler_to_rotation(e).tobytes()
        assert result.eulers == (e,)


def test_track_orientations_are_independent_to_write(rng):
    # each orientation is its own (3, 3) view: writing into one leaves the
    # others, and the eulers they come from, as they were
    for path in _in_domain_paths(rng, 3):
        result = track_path(path, euler_to_rotation(solve_dk(path[0]).solutions[2]))
        k = len(result.orientations) // 2
        before = [r.copy() for r in result.orientations]
        result.orientations[k][...] = 7.0
        result.orientations[k][0, 0] = -1.0
        for i, (r, old) in enumerate(zip(result.orientations, before)):
            assert r.shape == (3, 3)
            if i != k:
                assert r.tobytes() == old.tobytes()
                assert r.tobytes() == euler_to_rotation(result.eulers[i]).tobytes()
        assert result.orientations[k][1, 1] == 7.0


def test_track_reports_self_motion_entry():
    a = JointTriplet(0.4, 0.3, math.pi / 2)
    b = JointTriplet(0.4, -0.3, math.pi / 2)  # passes through sin(theta2) = 0
    start = euler_to_rotation(solve_dk(a).solutions[0])
    result = track_path([a, b], start)
    assert result.crossed


def _q2(t1, t2, t3):
    return np.sin(t1) * np.sin(t2) * np.sin(t3) + np.cos(t1) * np.cos(t2) * np.cos(t3)


def _q2_grad(t1, t2, t3):
    s1, s2, s3 = np.sin([t1, t2, t3])
    c1, c2, c3 = np.cos([t1, t2, t3])
    return np.array(
        [
            c1 * s2 * s3 - s1 * c2 * c3,
            s1 * c2 * s3 - c1 * s2 * c3,
            s1 * s2 * c3 - c1 * c2 * s3,
        ]
    )


def _scan_q2(a, b, n=4096):
    # q2 at n evenly spaced points of the shortest-arc segment a -> b
    aa = np.array(a.as_tuple())
    d = np.array([wrap_angle(y - x) for x, y in zip(a.as_tuple(), b.as_tuple())])
    pts = aa + np.linspace(0.0, 1.0, n)[:, None] * d
    return _q2(*pts.T)


def _grazing_line():
    # q2 = 0 at (0.6, -0.9, t3*).  The line runs along the tangent direction
    # of largest curvature (max joint move 1 per unit), shifted against the
    # gradient so that q2 dips to -1.2e-4 at its vertex and is positive on
    # both sides.
    t1, t2 = 0.6, -0.9
    t3 = math.atan2(-math.cos(t1) * math.cos(t2), math.sin(t1) * math.sin(t2))
    p = np.array([t1, t2, t3])
    g = _q2_grad(*p)
    u = np.cross(g, [1.0, 0.0, 0.0])
    u /= np.linalg.norm(u)
    v = np.cross(g, u)
    v /= np.linalg.norm(v)
    best = None
    for ang in np.linspace(0.0, math.pi, 3601):
        d = math.cos(ang) * u + math.sin(ang) * v
        d /= np.abs(d).max()
        # curvature of q2 along d, by a central difference
        k = (_q2(*(p + 1e-3 * d)) + _q2(*(p - 1e-3 * d))) / 1e-6
        if best is None or k > best[0]:
            best = (k, d)
    d = best[1]
    c = p - 1.2e-4 * g / (g @ g)
    xs = np.linspace(-0.3, 0.3, 60001)
    x0 = xs[np.argmin(_q2(*(c + xs[:, None] * d).T))]
    return c + x0 * d, d


# Below ~0.0215 the endpoints of this dip are themselves negative.  At
# 0.022, 0.07 and 0.21 the dip falls between the samples of a tracker that
# samples q2 every 0.05 rad.
@pytest.mark.parametrize("half_span", [0.022, 0.03, 0.05, 0.07, 0.1, 0.15, 0.21, 0.3])
def test_track_reports_grazing_crossing(half_span):
    c, d = _grazing_line()
    a = JointTriplet(*(c - half_span * d))
    b = JointTriplet(*(c + half_span * d))
    scan = _scan_q2(a, b)
    assert scan[0] > 0.0 and scan[-1] > 0.0
    assert scan.min() == pytest.approx(-1.2e-4, rel=0.01)
    for mode in range(4):
        start = euler_to_rotation(solve_dk(a).solutions[mode])
        result = track_path([a, b], start)
        assert result.crossed
        assert result.crossing.segment == 0
        assert result.crossing.reason == "determinant sign change"


@st.composite
def segments(draw):
    # half the draws straddle the surface q2 = 0 closely (offset <= 1e-3,
    # often tangent to it); the rest are arbitrary segments up to 1.5 rad
    angle = st.floats(-math.pi, math.pi)
    t1, t2 = draw(angle), draw(angle)
    d = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    if draw(st.booleans()):
        a = np.array([t1, t2, draw(angle)])
        return JointTriplet(*a), JointTriplet(*(a + 1.5 * d))
    t3 = math.atan2(-math.cos(t1) * math.cos(t2), math.sin(t1) * math.sin(t2))
    p = np.array([t1, t2, t3 + draw(st.sampled_from([0.0, math.pi]))])
    g = _q2_grad(*p)
    if draw(st.booleans()):
        d -= (d @ g) / (g @ g) * g
    c = p + draw(st.floats(-1e-3, 1e-3)) * g
    half = draw(st.floats(1e-3, 0.5))
    return JointTriplet(*(c - half * d)), JointTriplet(*(c + half * d))


@settings(max_examples=400, deadline=None)
@given(segments())
def test_track_certificate_against_dense_scan(segment):
    a, b = segment
    dk = solve_dk(a)
    assume(dk.is_finite)
    tol = ToolConfig().singular_tol
    result = track_path([a, b], euler_to_rotation(dk.solutions[0]))
    scan = _scan_q2(a, b)
    if not result.crossed:
        assert np.all(np.abs(scan) > tol)
        assert np.all(scan > 0.0) or np.all(scan < 0.0)
    if np.any(scan > 0.0) and np.any(scan < 0.0):
        assert result.crossed
        assert result.crossing.segment == 0


def _in_domain_paths(rng, count, waypoints=8, step=0.4, margin=0.05):
    # random walks whose every segment keeps |q2| >= margin on a dense scan
    paths = []
    while len(paths) < count:
        path = [generic_joints(rng)]
        if abs(det_a_closed_form(path[0])) < 4 * margin:
            continue
        while len(path) < waypoints:
            a = path[-1]
            b = JointTriplet(*(np.array(a.as_tuple()) + rng.uniform(-step, step, 3)))
            scan = _scan_q2(a, b, 256)
            if np.all(scan >= margin) or np.all(scan <= -margin):
                path.append(b)
        paths.append(path)
    return paths


def _nearest_continuation(path, mode, step=0.01):
    # Reference: follow the start solution by re-solving at sub-steps of at
    # most `step` per joint and taking the nearest solution each time; the
    # nearest must be at most half as far as the runner-up.
    current = euler_to_rotation(solve_dk(path[0]).solutions[mode])
    index = mode
    for a, b in zip(path, path[1:]):
        base = a.as_tuple()
        d = [wrap_angle(y - x) for x, y in zip(base, b.as_tuple())]
        n = max(1, math.ceil(max(abs(x) for x in d) / step))
        for k in range(1, n + 1):
            joints = JointTriplet(*(x + k / n * dx for x, dx in zip(base, d)))
            cand = [euler_to_rotation(s) for s in solve_dk(joints).solutions]
            dists = [rotation_distance(current, m) for m in cand]
            order = sorted(range(4), key=dists.__getitem__)
            assert dists[order[1]] >= 2.0 * dists[order[0]]
            index = order[0]
            current = cand[index]
    return index, current


def test_track_index_matches_nearest_continuation(rng):
    for path in _in_domain_paths(rng, 12):
        for mode in range(4):
            start = euler_to_rotation(solve_dk(path[0]).solutions[mode])
            result = track_path(path, start)
            assert not result.crossed
            index, current = _nearest_continuation(path, mode)
            assert index == mode
            assert rotation_distance(result.orientations[-1], current) < 1e-9


def test_track_waypoints_are_exact_direct_solutions(rng, monkeypatch):
    # The spy sits on the cascade core, in modes and in dk, so it sees one
    # run per reached waypoint, path[0]'s included: the start's match hands
    # its output to path[0]'s direct solve.
    import agile_eye.dk as dk

    solves = []
    core = dk.cascade

    def counting(trig, q1, q2):
        solves.append(trig)
        return core(trig, q1, q2)

    for module in (modes, dk):
        monkeypatch.setattr(module, "cascade", counting)
    paths = _in_domain_paths(rng, 25)
    # and a path that ends at a sign change after two clean segments
    paths.append(
        [
            JointTriplet(0.0, 0.0, 0.0),
            JointTriplet(0.4, 0.1, 0.0),
            JointTriplet(0.9, 0.3, 0.0),
            JointTriplet(2.5, 0.1, 0.0),
        ]
    )
    for path in paths:
        for mode in range(4):
            start = euler_to_rotation(solve_dk(path[0]).solutions[mode])
            solves.clear()
            result = track_path(path, start)
            # one cascade per reached waypoint, none between them
            reached = path[: len(result.eulers)]
            assert solves == [joint_trig(*j.as_tuple()) for j in reached]
            for k, (r, e) in enumerate(zip(result.orientations, result.eulers)):
                assert e == solve_dk(path[k]).solutions[mode]
                assert np.array_equal(r, euler_to_rotation(e))


def test_track_per_waypoint_work(rng, monkeypatch):
    # README's cost statement: every waypoint, path[0]'s included, takes
    # one q2 (joint_factors), one run of the cascade core and one
    # one-solution solve (direct_solution).  path[0] is matched by
    # nearest_direct_solution on that same trig and cascade output, with no
    # solve_dk; no waypoint looks at a condition pair.  On these paths
    # |q2| >= 0.05 at every waypoint and L <= 0.6 per segment, so the
    # curvature bound 0.05 - 0.6**2 / 8 > singular_tol clears each whole
    # segment, with no bisection.
    import agile_eye.dk as dk

    names = ("det_factor", "joint_factors", "solve_dk", "direct_solution", "cascade")
    calls = dict.fromkeys((*names, "condition_pairs"), 0)

    def spy(module, name):
        real = getattr(module, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)

    for name in names:
        spy(modes, name)
    # joint_degeneracy reads the pairs from dk, and dk's solvers the core
    spy(dk, "condition_pairs")
    spy(dk, "cascade")
    for path in _in_domain_paths(rng, 25, step=0.2):
        for mode in range(4):
            start = euler_to_rotation(solve_dk(path[0]).solutions[mode])
            calls.update(dict.fromkeys(calls, 0))
            result = track_path(path, start)
            assert not result.crossed
            assert calls == {
                "det_factor": 0,
                "joint_factors": len(path),
                "solve_dk": 0,
                "direct_solution": len(path),
                "cascade": len(path),
                "condition_pairs": 0,
            }


def _crossing_walk(rng, waypoints, step):
    # a random walk whose last waypoint has the other sign of q2, so the
    # track must stop at a crossing somewhere
    path = [generic_joints(rng)]
    while len(path) < waypoints - 1:
        here = np.array(path[-1].as_tuple())
        path.append(JointTriplet(*(here + rng.uniform(-step, step, 3))))
    positive = det_a_closed_form(path[0]) > 0.0
    while True:
        end = random_joints(rng)
        if (det_a_closed_form(end) > 0.0) != positive:
            return path + [end]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 10),
    st.floats(0.05, 0.6),
    st.booleans(),
)
def test_track_numeric_signature_is_constant(seed, waypoints, step, crossing):
    # The numeric signs of diag(B) at every reached step equal the start
    # solution's signature (DkResult.signatures), which is what `agile
    # track` prints for each step.
    rng = np.random.default_rng(seed)
    if crossing:
        path = _crossing_walk(rng, waypoints, step)
    else:
        path = _in_domain_paths(rng, 1, waypoints=waypoints, step=step)[0]
    for mode in range(1, 5):
        start = euler_to_rotation(solve_dk(path[0]).solutions[mode - 1])
        result = track_path(path, start)
        assert result.crossed == crossing
        expected = solve_dk(path[0]).signatures[mode - 1]
        assert result.signature == expected
        for j, r in zip(path, result.orientations):
            assert working_mode_signature(j, r) == expected


def test_track_low_singular_tol_reports_trivial_only_waypoint():
    # q2 = 1e-10 at the end waypoint: above singular_tol = 1e-12, so the
    # segment is certified, but below the DK degeneracy tolerance
    t1, t2 = 0.7, -0.4
    amp = math.hypot(math.sin(t1) * math.sin(t2), math.cos(t1) * math.cos(t2))
    phase = math.atan2(math.cos(t1) * math.cos(t2), math.sin(t1) * math.sin(t2))
    b = JointTriplet(t1, t2, math.asin(1e-10 / amp) - phase)
    assert det_a_closed_form(b) == pytest.approx(1e-10, rel=1e-3)
    g = _q2_grad(*b.as_tuple())
    a = JointTriplet(*(np.array(b.as_tuple()) + 0.2 * g / np.linalg.norm(g)))
    assert np.all(_scan_q2(a, b)[:-1] > 1e-10)
    start = euler_to_rotation(solve_dk(a).solutions[0])
    result = track_path([a, b], start, ToolConfig(singular_tol=1e-12))
    assert result.crossing.segment == 0
    assert result.crossing.reason == "direct solve became trivial_only"
    assert len(result.orientations) == 1


def test_track_low_singular_tol_reports_self_motion_waypoint():
    # the end waypoint is on condition pair 1 (|sin t2|, |cos t3| = 1e-10 <
    # STRUCTURE_TOL), where q2 = 1e-10 (sin t1 + cos t1): above singular_tol
    # = 1e-12, so the segment is certified, but the direct solve degenerates
    t1 = 0.3
    b = JointTriplet(t1, 1e-10, math.pi / 2 - 1e-10)
    assert solve_dk(b).branch == "self_motion"
    assert det_a_closed_form(b) == pytest.approx(1e-10 * (math.sin(t1) + math.cos(t1)), rel=1e-3)
    g = _q2_grad(*b.as_tuple())
    a = JointTriplet(*(np.array(b.as_tuple()) + 0.2 * g / np.linalg.norm(g)))
    assert np.all(_scan_q2(a, b)[:-1] > 1e-10)
    start = euler_to_rotation(solve_dk(a).solutions[0])
    result = track_path([a, b], start, ToolConfig(singular_tol=1e-12))
    assert result.crossing.segment == 0
    assert result.crossing.reason == "direct solve became self_motion"
    assert len(result.orientations) == 1


def test_track_bisection_floor_reports_band():
    # q2 = c1 c2 on theta3 = 0: 0.504 at both ends, above singular_tol =
    # 0.5, and at most 0.5065 between them.  Neither bound certifies the
    # segment (0.404 and 0.499), and L h = 0.2 is already at or below the
    # tolerance, so the bisection stops there: the band is reported.
    t1 = math.acos(0.504 / math.cos(0.1))
    a, b = JointTriplet(t1, 0.1, 0.0), JointTriplet(t1, -0.1, 0.0)
    assert det_a_closed_form(a) == det_a_closed_form(b) == pytest.approx(0.504)
    start = euler_to_rotation(solve_dk(a).solutions[0])
    result = track_path([a, b], start, ToolConfig(singular_tol=0.5))
    assert result.crossing == SingularityCrossing(0, "determinant factor within tolerance")
    assert len(result.orientations) == 1


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_track_band_ends_of_opposite_sign_report_band(sign):
    # q2 = +-4.27e-8 at the two ends: finite solutions at both, each inside
    # the default singular_tol; the band is reported before the sign change
    t1, t2 = 1.0, -0.8
    zero = math.atan2(-math.cos(t1) * math.cos(t2), math.sin(t1) * math.sin(t2))
    a, b = (JointTriplet(t1, t2, zero + e) for e in (sign * 6e-8, -sign * 6e-8))
    qa, qb = det_a_closed_form(a), det_a_closed_form(b)
    assert qa * qb < 0.0 and max(abs(qa), abs(qb)) < ToolConfig().singular_tol
    assert solve_dk(a).branch == solve_dk(b).branch == "finite"
    start = euler_to_rotation(solve_dk(a).solutions[0])
    result = track_path([a, b], start)
    assert result.crossing == SingularityCrossing(0, "determinant factor within tolerance")


def _reference_segment_crossing(a, b, singular_tol):
    # The tracker's segment certificate as it was when every waypoint took a
    # full solve_dk: both endpoint values of q2 are computed here.
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


def _reference_track_path(path, start, cfg=ToolConfig()):
    # The tracker as it was when every waypoint took a full solve_dk.
    waypoints = [p if isinstance(p, JointTriplet) else JointTriplet(*p) for p in path]
    if not waypoints:
        raise ValueError("path must contain at least one waypoint")

    dk0 = solve_dk(waypoints[0])
    if not dk0.is_finite:
        raise StartNotASolution(
            f"first waypoint has branch {dk0.branch!r}, not finite solutions"
        )
    dists = [rotation_distance(start, euler_to_rotation(s)) for s in dk0.solutions]
    best = min(range(4), key=dists.__getitem__)
    if not dists[best] <= MATCH_TOL:  # NaN fails too
        raise StartNotASolution(
            f"start orientation is {dists[best]:.3e} rad from the nearest "
            f"direct solution (tol {MATCH_TOL:g})"
        )
    sig = dk0.signatures[best]
    eulers = [dk0.solutions[best]]
    orientations = [euler_to_rotation(eulers[0])]

    for seg in range(len(waypoints) - 1):
        b = waypoints[seg + 1]
        reason = _reference_segment_crossing(waypoints[seg], b, cfg.singular_tol)
        if reason is None:
            dk = solve_dk(b)
            if not dk.is_finite:
                reason = f"direct solve became {dk.branch}"
        if reason is not None:
            crossing = SingularityCrossing(seg, reason)
            return TrackResult(tuple(orientations), tuple(eulers), best + 1, sig, crossing)
        eulers.append(dk.solutions[best])
        orientations.append(euler_to_rotation(eulers[-1]))
    return TrackResult(tuple(orientations), tuple(eulers), best + 1, sig)


@st.composite
def tracked_paths(draw):
    # in-domain walks, walks that end across q2 = 0, free walks, segments
    # that graze the surface q2 = 0 after a step away from it, and
    # two-waypoint paths that end within 3.2e-9 of the surface (beside or
    # on a condition pair, or beside a trivial-only point)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    waypoints = draw(st.integers(2, 10))
    step = draw(st.floats(0.05, 0.6))
    kind = draw(st.sampled_from(["in_domain", "crossing", "walk", "graze", "surface"]))
    if kind == "in_domain":
        return _in_domain_paths(rng, 1, waypoints=waypoints, step=step)[0]
    if kind == "crossing":
        return _crossing_walk(rng, waypoints, step)
    if kind == "walk":
        path = [generic_joints(rng)]
        while len(path) < waypoints:
            here = np.array(path[-1].as_tuple())
            path.append(JointTriplet(*(here + rng.uniform(-step, step, 3))))
        return path
    if kind == "graze":
        # start the segment just before its closest approach to the surface
        a, b = draw(segments())
        d = np.array([wrap_angle(y - x) for x, y in zip(a.as_tuple(), b.as_tuple())])
        m = np.array(a.as_tuple()) + draw(st.floats(0.35, 0.5)) * d
        g = _q2_grad(*m)
        side = 1.0 if _q2(*m) > 0.0 else -1.0
        norm = np.linalg.norm(g)
        # where g = 0, m is an extremum of q2 (|q2| = 1, e.g. all joints 0):
        # no step leads further from the surface, so the path starts at a
        lead = m + 0.3 * side * g / norm if norm > 0.0 else np.array(a.as_tuple())
        return [JointTriplet(*lead), JointTriplet(*m), b]
    t1, t2 = rng.uniform(-math.pi, math.pi, 2)
    eps = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-11.0, -8.5))
    if draw(st.booleans()):
        b = JointTriplet(t1, eps, math.pi / 2 - draw(st.floats(-1e-9, 1e-9)))
    else:
        amp = math.hypot(math.sin(t1) * math.sin(t2), math.cos(t1) * math.cos(t2))
        phase = math.atan2(math.cos(t1) * math.cos(t2), math.sin(t1) * math.sin(t2))
        b = JointTriplet(t1, t2, math.asin(eps / amp) - phase)
    g = _q2_grad(*b.as_tuple())
    side = 1.0 if det_a_closed_form(b) > 0.0 else -1.0
    return [JointTriplet(*(np.array(b.as_tuple()) + 0.2 * side * g / np.linalg.norm(g))), b]


@settings(max_examples=150, deadline=None)
@given(tracked_paths())
def test_track_matches_full_solve_reference(path):
    assume(solve_dk(path[0]).is_finite)
    for mode in range(4):
        start = euler_to_rotation(solve_dk(path[0]).solutions[mode])
        # 1.5e-9 and 2.5e-9 sit either side of 2 STRUCTURE_TOL, below which
        # a certified end waypoint still needs the condition pairs
        for tol in (1e-7, 2.5e-9, 1.5e-9, 1e-12):
            cfg = ToolConfig(singular_tol=tol)
            got = track_path(path, start, cfg)
            want = _reference_track_path(path, start, cfg)
            assert got.eulers == want.eulers
            assert len(got.orientations) == len(want.orientations)
            assert all(np.array_equal(x, y) for x, y in zip(got.orientations, want.orientations))
            assert got.mode_id == want.mode_id == mode + 1
            assert got.signature == want.signature
            assert got.crossing == want.crossing


def test_track_segment_along_surface_is_certified_briefly(monkeypatch):
    # joint 1 moves beside the condition-pair line sin t2 = cos t3 = 0, where
    # q2 = cos t1 cos t3 stays within 3e-7 of zero (3x the tolerance) along
    # the whole segment: the Lipschitz bound alone needs ~4e6 evaluations
    import agile_eye.modes as modes

    calls = []
    det_factor = modes.det_factor

    def counting(*trig):
        calls.append(trig)
        return det_factor(*trig)

    monkeypatch.setattr(modes, "det_factor", counting)
    t3 = math.pi / 2 - 3e-7
    a, b = JointTriplet(-0.5, 0.0, t3), JointTriplet(0.5, 0.0, t3)
    assert np.all(_scan_q2(a, b) > 2.5e-7)
    result = track_path([a, b], euler_to_rotation(solve_dk(a).solutions[0]))
    assert not result.crossed
    assert len(calls) < 10_000
