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
    axis_angle_rotation,
    det_a_closed_form,
    direct_signature,
    euler_to_rotation,
    rotation_distance,
    solve_dk,
    track_path,
    trivial_orientations,
    working_mode_signature,
    wrap_angle,
)
from agile_eye.mechanism import SIGN_TABLE, b_diagonal
from agile_eye.modes import MATCH_TOL
from conftest import circ_diff, random_joints
from test_dk import FIG_SOLUTIONS, generic_joints

FIG_JOINTS = JointTriplet(-0.3, -0.7, 0.1)


def test_signature_label_roundtrip():
    sig = WorkingModeSignature(1, -1, 1)
    assert sig.label == "+-+"
    assert WorkingModeSignature.from_label("+-+") == sig
    assert sig.product == -1
    with pytest.raises(ValueError):
        WorkingModeSignature.from_label("++")
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
    for _ in range(50):
        j = generic_joints(rng)
        sig = working_mode_signature(
            j, euler_to_rotation(solve_dk(j).solutions[0])
        )
        flipped = WorkingModeSignature(-sig.s1, -sig.s2, -sig.s3)
        with pytest.raises(NoSuchMode):
            assembly_mode_for(j, flipped)


def test_assembly_mode_for_degenerate_joints():
    with pytest.raises(DegenerateJoints):
        assembly_mode_for(
            JointTriplet(0.5, 0.0, math.pi / 2), WorkingModeSignature(1, 1, 1)
        )


@settings(max_examples=400, deadline=None)
@given(*[st.floats(min_value=-math.pi, max_value=math.pi)] * 3)
def test_direct_signature_is_numeric_signature(t1, t2, t3):
    # sign(q2) * P_k against the numeric signs of diag(B) at solution k,
    # and assembly_mode_for inverts it
    j = JointTriplet(t1, t2, t3)
    dk = solve_dk(j)
    assume(dk.is_finite)
    for mode, sol in enumerate(dk.solutions, 1):
        sig = direct_signature(j, mode)
        assert sig == working_mode_signature(j, euler_to_rotation(sol))
        assert assembly_mode_for(j, sig) == sol


def test_assembly_mode_ids():
    r1 = euler_to_rotation((0.100, -0.672, -0.383))
    r4 = euler_to_rotation((0.100, 2.470, 3.525))
    assert assembly_mode_id(FIG_JOINTS, r1, tol=2e-3) == 1
    assert assembly_mode_id(FIG_JOINTS, r4, tol=2e-3) == 4
    with pytest.raises(NoMatchingSolution):
        assembly_mode_id(JointTriplet(0, 0, 0), trivial_orientations()[0])


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


def test_track_rejects_nan_start():
    with pytest.raises(StartNotASolution, match="nan rad"):
        track_path([FIG_JOINTS], euler_to_rotation((math.nan, 0.4, 0.9)))


def test_track_rejects_nan_first_waypoint():
    with pytest.raises(ValueError, match="not finite"):
        track_path([JointTriplet(math.nan, 0.0, 0.0)], np.eye(3))


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
    import agile_eye.modes as modes

    solves = []

    def counting(j):
        solves.append(j)
        return solve_dk(j)

    monkeypatch.setattr(modes, "solve_dk", counting)
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
            # one direct solve per reached waypoint, none between them
            assert solves == path[: len(result.eulers)]
            for k, (r, e) in enumerate(zip(result.orientations, result.eulers)):
                assert e == solve_dk(path[k]).solutions[mode]
                assert np.array_equal(r, euler_to_rotation(e))


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
    # The numeric signs of diag(B) at every reached step equal the start's
    # direct signature, which is what `agile track` prints for each step.
    rng = np.random.default_rng(seed)
    if crossing:
        path = _crossing_walk(rng, waypoints, step)
    else:
        path = _in_domain_paths(rng, 1, waypoints=waypoints, step=step)[0]
    for mode in range(1, 5):
        start = euler_to_rotation(solve_dk(path[0]).solutions[mode - 1])
        result = track_path(path, start)
        assert result.crossed == crossing
        expected = direct_signature(path[0], mode)
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
