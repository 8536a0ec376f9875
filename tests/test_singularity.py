import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agile_eye import (
    DenominatorDegenerate,
    JointTriplet,
    NotAssembled,
    SingularityClass,
    ToolConfig,
    b_diag_closed_form,
    classify_configuration,
    classify_joint_degeneracy,
    det_a_closed_form,
    euler_to_rotation,
    family_distance,
    jacobians,
    rotation_distance,
    self_motion_family,
    solve_dk,
    solve_ik,
    trivial_orientations,
)
from agile_eye.config import DEFAULT_CONFIG
from agile_eye.dk import FAMILY_SINGULAR_LEG, PAIR_FAMILIES, nearest_trivial
from agile_eye.mechanism import (
    STRUCTURE_TOL,
    b_diagonal,
    constraint_residuals,
    jacobian_rows,
    joint_trig,
    leg_b,
    leg_table,
)
from agile_eye.singularity import det3
from conftest import (
    axis_angle_rotation,
    circ_diff,
    intermediate_axes,
    platform_axes,
    random_joints,
    random_orientation,
)
from test_dk import generic_joints, trivial_only_joints
from test_mechanism import singular_legs


def test_jacobians_reference_configuration():
    # direct cross-product evaluation: w1 x v1 = (0,0,1) x (0,-1,0) = (1,0,0)
    pair = jacobians(JointTriplet(0, 0, 0), np.eye(3))
    np.testing.assert_allclose(pair.a, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(np.abs(pair.b_diag), [1, 1, 1], atol=1e-15)


def test_jacobians_rows_are_cross_products(rng):
    for _ in range(200):
        j, r = random_joints(rng), random_orientation(rng)
        pair = jacobians(j, r)
        ws = intermediate_axes(j)
        vs = platform_axes(r)
        for i in range(3):
            np.testing.assert_allclose(pair.a[i], np.cross(ws[i], vs[i]), atol=1e-15)
            assert pair.b_diag[i] == pytest.approx(float(pair.a[i][i]), abs=0)


def test_b_diag_vanishes_at_trivial_orientations(rng):
    for r in trivial_orientations():
        for _ in range(50):
            pair = jacobians(random_joints(rng), r)
            assert np.max(np.abs(pair.b_diag)) == 0.0


def test_det_closed_form_values():
    assert det_a_closed_form(JointTriplet(0, 0, 0)) == pytest.approx(1.0)
    assert abs(det_a_closed_form(JointTriplet(math.pi / 2, 0.0, 1.3))) < 1e-9
    with pytest.raises(ValueError):
        det_a_closed_form(JointTriplet(0, 0, 0), branch="sideways")


def test_det_closed_form_against_numeric():
    j = JointTriplet(-0.3, -0.7, 0.1)
    r = euler_to_rotation((0.100, -0.672, -0.383))
    val = det_a_closed_form(j)
    assert val == pytest.approx(0.746, abs=1e-3)
    assert det3(jacobians(j, r).a) == pytest.approx(val, abs=1e-3)


def test_det_invariance_across_solutions(rng):
    for _ in range(1000):
        j = generic_joints(rng)
        expected = det_a_closed_form(j, "nontrivial")
        dets = [
            det3(jacobians(j, euler_to_rotation(s)).a) for s in solve_dk(j).solutions
        ]
        for d in dets:
            assert abs(d - expected) < 1e-10
        trivial_expected = det_a_closed_form(j, "trivial")
        assert trivial_expected == -expected
        for r in trivial_orientations():
            assert abs(det3(jacobians(j, r).a) - trivial_expected) < 1e-10


def test_b_diag_closed_form_values():
    # home joints: solution 1 is the identity, where every B_ii is +1
    np.testing.assert_allclose(
        b_diag_closed_form(JointTriplet(0, 0, 0), mode=1), [1, 1, 1], atol=1e-15
    )
    # q2 < 0: solution 1 carries the all-negative signature
    j = JointTriplet(math.pi, 0.0, 0.0)
    np.testing.assert_allclose(b_diag_closed_form(j, mode=1), [-1, -1, -1], atol=1e-15)
    j = JointTriplet(-0.3, -0.7, 0.1)
    for mode, sol in enumerate(solve_dk(j).solutions, 1):
        got = b_diag_closed_form(j, mode)
        numeric = b_diagonal(j, euler_to_rotation(sol))
        assert np.sign(got).tolist() == np.sign(numeric).tolist()
        np.testing.assert_allclose(got, numeric, rtol=1e-10, atol=0)
    with pytest.raises(ValueError):
        b_diag_closed_form(JointTriplet(0, 0, 0), mode=5)


@pytest.mark.parametrize("mode", [1.0, 2.5])
def test_b_diag_closed_form_rejects_float_mode(mode):
    # type-checked as self_motion_family checks its id, not an index error
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        b_diag_closed_form(JointTriplet(-0.3, -0.7, 0.1), mode)


def test_b_diag_closed_form_accepts_numpy_integer_mode():
    j = JointTriplet(-0.3, -0.7, 0.1)
    got = b_diag_closed_form(j, np.int64(2))
    assert got.tolist() == b_diag_closed_form(j, 2).tolist()


angles = st.floats(min_value=-math.pi, max_value=math.pi)


@st.composite
def finite_dk_joints(draw):
    """Joints with four finite direct solutions: uniform, or a small
    offset (down to ~1e-9 in q2) off the surface q2 = 0."""
    t1, t2 = draw(angles), draw(angles)
    if draw(st.booleans()):
        t3 = draw(angles)
    else:
        amp = math.hypot(math.sin(t1) * math.sin(t2), math.cos(t1) * math.cos(t2))
        assume(amp > 1e-3)
        offset = draw(st.floats(min_value=-8.9, max_value=-1.0))
        sign = draw(st.sampled_from((-1.0, 1.0)))
        t3 = trivial_only_joints(t1, t2).theta3 + sign * 10.0**offset / amp
    j = JointTriplet(t1, t2, t3)
    assume(solve_dk(j).is_finite)
    return j


@settings(max_examples=600, deadline=None)
@given(finite_dk_joints())
def test_b_diag_closed_form_is_numeric_diag_b(j):
    # B_ii = P_k,i q2 / (d_j d_l) at direct solution k, sign exact; the
    # absolute floor covers the ~1e-15 roundoff of the numeric B near q2 = 0
    for mode, sol in enumerate(solve_dk(j).solutions, 1):
        try:
            closed = b_diag_closed_form(j, mode)
        except DenominatorDegenerate:
            assume(False)
        numeric = np.array(b_diagonal(j, euler_to_rotation(sol)))
        assert np.sign(closed).tolist() == np.sign(numeric).tolist()
        np.testing.assert_allclose(closed, numeric, rtol=1e-10, atol=1e-13)


@settings(max_examples=600, deadline=None)
@given(angles, angles, angles, st.booleans())
def test_non_cuspidal_identity(t1, t2, t3, on_surface):
    # wherever every denominator is nonzero, every B_ii is nonzero exactly
    # when q2 is, and the signature product is sign(q2) for every mode
    j = trivial_only_joints(t1, t2) if on_surface else JointTriplet(t1, t2, t3)
    q2 = det_a_closed_form(j)
    for mode in (1, 2, 3, 4):
        try:
            b = b_diag_closed_form(j, mode)
        except DenominatorDegenerate:
            return
        assert bool(np.all(b != 0.0)) == (q2 != 0.0)
        assert np.prod(np.sign(b)) == np.sign(q2)


def test_b_diag_closed_form_zero_when_det_factor_zero():
    j = trivial_only_joints(1.0, 1.0)
    got = b_diag_closed_form(j, mode=1)
    assert np.max(np.abs(got)) < 1e-9


def test_b_diag_denominator_degenerate():
    # one joint at 90 degrees from reference, another at 0/180
    with pytest.raises(DenominatorDegenerate):
        b_diag_closed_form(JointTriplet(math.pi / 2, 0.4, 0.0), mode=1)


@pytest.mark.parametrize("leg", [0, 1, 2])
def test_b_diag_closed_form_rejects_nan_joint(leg):
    joints = [0.3, -0.7, 0.1]
    joints[leg] = math.nan
    with pytest.raises(DenominatorDegenerate):
        b_diag_closed_form(JointTriplet(*joints), mode=1)


def test_b_diag_magnitudes_match_numeric(rng):
    for _ in range(1000):
        j = generic_joints(rng)
        sols = solve_dk(j).solutions
        mags = [
            np.abs(jacobians(j, euler_to_rotation(s)).b_diag) for s in sols
        ]
        for m in mags[1:]:
            np.testing.assert_allclose(m, mags[0], atol=1e-10)
        closed = np.abs(b_diag_closed_form(j, mode=1))
        np.testing.assert_allclose(mags[0], closed, atol=1e-9)


def test_family_distance_on_and_off_curve(rng):
    for fid in range(1, 7):
        t = rng.uniform(-math.pi, math.pi)
        r = self_motion_family(fid, t)
        _, d = family_distance(r, fid)
        assert d < 1e-9
    _, d = family_distance(np.eye(3), 1)
    assert d > 0.1


# Dense-scan oracle: every family sampled at SCAN_N parameters.  Each curve
# has unit speed (trace(S(s)^T S(t)) = 1 + 2 cos(s - t)), so the scan
# minimum exceeds the true minimum by at most half the spacing.
SCAN_N = 4096
_SCAN_T = np.linspace(-math.pi, math.pi, SCAN_N, endpoint=False)
_SCAN = np.array(
    [[self_motion_family(fid, t) for t in _SCAN_T] for fid in range(1, 7)]
)


def _oracle_angle(s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Geodesic angle between each rotation in s (shape (..., 3, 3)) and r.

    The angle of m = s^T r is atan2 of its sine (from the skew part) and
    its cosine (from the trace), which stays accurate at every angle; the
    arccos of the trace alone loses digits near 0 and near pi.
    """
    m = np.einsum("...ji,jk->...ik", s, r)
    sin_angle = np.linalg.norm(m - np.swapaxes(m, -1, -2), axis=(-2, -1))
    cos_angle = 0.5 * (np.trace(m, axis1=-2, axis2=-1) - 1.0)
    return np.arctan2(sin_angle / (2.0 * math.sqrt(2.0)), cos_angle)


@st.composite
def rotations(draw):
    q = np.array(
        draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    )
    n = float(np.linalg.norm(q))
    if n < 0.1:
        q, n = np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    w, x, y, z = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


@settings(max_examples=300, deadline=None)
@given(rotations())
def test_family_distance_matches_dense_scan(r):
    # The projection maximises trace(r^T S(t)); check that against the scan
    # for every input.  The angle check, with both sides measured by the
    # oracle, is limited to distances below 3 rad: closer to pi a trace
    # rounding of 1e-16 moves the angle by more than 1e-14 (by up to 1e-8
    # for float rotations within 1e-8 of pi), for any trace-based method.
    traces = np.einsum("fnij,ij->fn", _SCAN, r).max(axis=1)
    scan = _oracle_angle(_SCAN, r).min(axis=1)
    for fid in range(1, 7):
        t, d = family_distance(r, fid)
        s_t = self_motion_family(fid, t)
        assert -math.pi < t <= math.pi
        assert d == rotation_distance(r, s_t)
        assert float(np.sum(r * s_t)) >= traces[fid - 1] - 1e-14
        at_t = float(_oracle_angle(s_t, r))
        if scan[fid - 1] < 3.0:
            assert at_t <= scan[fid - 1] + 1e-14
        assert at_t >= scan[fid - 1] - math.pi / SCAN_N


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.floats(-math.pi, math.pi))
def test_family_distance_on_curve_is_exact(fid, t0):
    t, d = family_distance(self_motion_family(fid, t0), fid)
    assert d <= 1e-15
    assert circ_diff(t, t0) <= 1e-15
    assert -math.pi < t <= math.pi


def test_family_distance_equidistant_input():
    # trace(r^T S1(t)) = -1 for every t (b = c = 0): all of curve 1a lies at
    # angle pi, and the parameter returned must not depend on the call
    r = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    for t in np.linspace(-3.0, 3.0, 7):
        assert rotation_distance(r, self_motion_family(1, t)) == pytest.approx(
            math.pi, abs=1e-7
        )
    t, d = family_distance(r, 1)
    assert -math.pi < t <= math.pi
    assert d == pytest.approx(math.pi, abs=1e-7)
    assert all(family_distance(r.copy(), 1) == (t, d) for _ in range(3))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_family_distance_non_finite_entry_is_nan_without_warning(value):
    for fid in range(1, 7):
        for i in range(9):
            r = self_motion_family(fid, 0.3)
            r.flat[i] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, d = family_distance(r, fid)
            assert math.isnan(d)


@pytest.mark.parametrize("value", [1e308, -1e308])
def test_family_distance_overflowing_entries_is_nan_without_warning(value):
    # finite entries whose sums overflow read as non-finite ones do
    for fid in range(1, 7):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, d = family_distance(np.full((3, 3), value), fid)
        assert math.isnan(d)


def test_classify_regular():
    out = classify_configuration(JointTriplet(0, 0, 0), np.eye(3))
    assert out.kind == "regular"


def test_classify_self_motion():
    j = JointTriplet(0.5, 0.0, math.pi / 2)
    for t in (-2.0, 0.3, 1.1):
        out = classify_configuration(j, self_motion_family(1, t))
        assert out.kind == "self_motion"
        assert out.family_id == 1
        out = classify_configuration(j, self_motion_family(2, t))
        assert out.kind == "self_motion"
        assert out.family_id == 2


def test_classify_lockup():
    out = classify_configuration(JointTriplet(0, 0, 0), trivial_orientations()[0])
    assert out.kind == "lockup"
    assert out.trivial_id == 1


def test_classify_infinitesimal_at_trivial():
    j = trivial_only_joints(1.0, 1.0)
    out = classify_configuration(j, trivial_orientations()[1])
    assert out.kind == "infinitesimal_at_trivial"
    assert out.trivial_id == 2


def test_classify_pair_joints_at_trivial_is_self_motion():
    # trivial orientations sit on the active pair's family curves
    j = JointTriplet(0.5, 0.0, math.pi / 2)
    out = classify_configuration(j, trivial_orientations()[0])
    assert out.kind == "self_motion"
    assert out.family_id in (1, 2)


def test_det_a_vanishes_on_self_motion_curves(rng):
    # On every curve det A is zero whatever angle the free legs take, so
    # |det A| against singular_tol needs no folded-leg test beside it.
    worst = 0.0
    for _ in range(2000):
        fid = int(rng.integers(1, 7))
        r = self_motion_family(fid, rng.uniform(-math.pi, math.pi))
        ik = solve_ik(r, fill_arbitrary=True)
        assert ik.legs[FAMILY_SINGULAR_LEG[fid] - 1].arbitrary
        for j in ik.enumerated:
            angles = [
                rng.uniform(-math.pi, math.pi) if leg.arbitrary else a
                for leg, a in zip(ik.legs, j.as_tuple())
            ]
            rows = jacobian_rows(joint_trig(*angles), r)
            worst = max(worst, abs(det3(rows)))
    assert worst < 1e-14


def test_classify_near_curve_follows_singular_tol():
    # 8.6e-6 rad off curve 1a, inside the 4.5e-5 rad band where leg 1
    # reads folded (singular_legs), |det A| = 8.6e-6: regular at the
    # default singular_tol, self-motion on curve 1a at 1e-4
    r = self_motion_family(1, 0.7) @ axis_angle_rotation((0.3, 0.5, 0.8), 1e-5)
    assert singular_legs(r) == (True, False, False)
    assert 8e-6 < family_distance(r, 1)[1] < 9e-6
    configs = solve_ik(r).enumerated
    assert len(configs) == 8
    for j in configs:
        assert 8e-6 < abs(det3(jacobians(j, r).a)) < 9e-6
        assert classify_configuration(j, r).kind == "regular"
        out = classify_configuration(j, r, ToolConfig(singular_tol=1e-4))
        assert (out.kind, out.family_id) == ("self_motion", 1)


def test_classify_not_assembled():
    with pytest.raises(NotAssembled):
        classify_configuration(
            JointTriplet(0.4, 0.4, 0.4), euler_to_rotation((1.0, 0.5, -1.0))
        )


@pytest.mark.parametrize(
    "j, r",
    [
        (JointTriplet(math.nan, 0.0, 0.0), np.eye(3)),
        (JointTriplet(0.0, 0.0, 0.0), euler_to_rotation((math.nan, 0.0, 0.0))),
    ],
    ids=["nan_joint", "nan_orientation"],
)
def test_classify_non_finite_not_assembled(j, r):
    with pytest.raises(NotAssembled):
        classify_configuration(j, r)


def test_classify_regular_almost_everywhere(rng):
    non_regular = 0
    for _ in range(1000):
        r = random_orientation(rng)
        j = solve_ik(r).enumerated[0]
        if classify_configuration(j, r).kind != "regular":
            non_regular += 1
    assert non_regular == 0


def test_type2_implies_type1(rng):
    # when the det factor is ~0 the closed-form B numerators are that same
    # factor, so all diagonal magnitudes collapse (or the leg is outright
    # denominator-degenerate)
    for _ in range(200):
        t1, t2 = rng.uniform(-math.pi, math.pi, 2)
        j = trivial_only_joints(t1, t2)
        if classify_joint_degeneracy(j).kind != "trivial_only":
            continue
        assert abs(det_a_closed_form(j)) < 1e-9
        try:
            b = b_diag_closed_form(j, mode=1)
        except DenominatorDegenerate:
            continue
        assert np.max(np.abs(b)) < 1e-6


def _same_bits(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


# leg-table and trig entries: the IEEE special values and subnormals, or
# any float
_ENTRIES = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, -1e-300]
) | st.floats()


@settings(max_examples=1000, deadline=None)
@given(
    st.tuples(*[_ENTRIES] * 6),
    st.tuples(*[st.tuples(*[_ENTRIES] * 3)] * 3),
    st.tuples(*[st.floats(allow_infinity=False)] * 3),
)
def test_leg_b_is_the_diagonal_of_jacobian_rows(trig, rows, joints):
    # B_ii is entry i of row i of A bit for bit, signed zeros included
    # (a NaN's sign aside), so jacobians reads diag(B) from A
    a = jacobian_rows(trig, rows)
    b = leg_b(trig, leg_table(rows))
    assert all(map(_same_bits, b, (a[0][0], a[1][1], a[2][2])))
    j, r = JointTriplet(*joints), np.array(rows)
    assert all(map(_same_bits, jacobians(j, r).b_diag.tolist(), b_diagonal(j, r)))


def test_det3_of_float_rows_is_det3_of_array(rng):
    configs = [(random_joints(rng), random_orientation(rng)) for _ in range(2000)]
    for _ in range(500):
        r = random_orientation(rng)
        configs += [(j, r) for j in solve_ik(r).enumerated]
    configs += [(random_joints(rng), t) for t in trivial_orientations()]
    for j, r in configs:
        rows = jacobian_rows(joint_trig(*j.as_tuple()), r)
        assert _same_bits(det3(rows), det3(jacobians(j, r).a))


def _classify_before(j, r, cfg=DEFAULT_CONFIG):
    # classify_configuration as it was before the single-trig float path,
    # returning (kind, family_id, trivial_id)
    def best_family(family_ids):
        best_fid, best_d = 0, math.inf
        for fid in family_ids:
            _, d = family_distance(r, fid)
            if d < best_d:
                best_fid, best_d = fid, d
        return best_fid, best_d

    worst = float(np.max(np.abs(constraint_residuals(j, r))))
    if not worst <= cfg.residual_tol:
        raise NotAssembled(
            f"constraint residuals reach {worst:.3e} (> {cfg.residual_tol:g})"
        )
    pair = classify_joint_degeneracy(j).pair
    if pair is not None:
        fid, dist = best_family(PAIR_FAMILIES[pair])
        if dist < cfg.singular_tol:
            return "self_motion", fid, None
    trivial_id, trivial_dist = nearest_trivial(r)
    if trivial_dist >= cfg.singular_tol:
        det = det3(jacobians(j, r).a)
        if abs(det) > cfg.singular_tol and not any(singular_legs(r)):
            return "regular", None, None
        fid, fdist = best_family(range(1, 7))
        if fdist <= trivial_dist:
            return "self_motion", fid, None
    q2 = det_a_closed_form(j)
    kind = "lockup" if abs(q2) > STRUCTURE_TOL else "infinitesimal_at_trivial"
    return kind, None, trivial_id


def _classified(j, r):
    out = classify_configuration(j, r)
    return out.kind, out.family_id, out.trivial_id


def _singular_corpus(rng, per_kind):
    # exact self-motions, 1e-8 bands, lockups and infinitesimal motions
    # at trivial orientations, built as in bench/DESIGN.md, and
    # condition-pair joints at trivial orientations
    exact, band = [], []
    while len(exact) < per_kind:
        fid = int(rng.integers(1, 7))
        r = self_motion_family(fid, rng.uniform(-math.pi, math.pi))
        others = [family_distance(r, g)[1] for g in range(1, 7) if g != fid]
        if min(others) < 0.1 or nearest_trivial(r)[1] < 0.1:
            continue
        sols = solve_ik(r, fill_arbitrary=True).enumerated
        j = sols[rng.integers(len(sols))]
        pair = (fid + 1) // 2
        if classify_joint_degeneracy(j).pair != pair:
            continue
        exact.append((j, r))
        moved = list(j.as_tuple())
        k = {1: (1, 2), 2: (2, 0), 3: (0, 1)}[pair][rng.integers(2)]
        moved[k] += rng.choice([-1.0, 1.0]) * 1e-8 * rng.uniform(0.5, 2.0)
        band.append((JointTriplet(*moved), r))
    trivial = trivial_orientations()
    lockup, infinitesimal = [], []
    while len(lockup) < per_kind:
        j = generic_joints(rng)
        if abs(det_a_closed_form(j)) >= 0.05:
            lockup.append((j, trivial[rng.integers(4)]))
    while len(infinitesimal) < per_kind:
        j = trivial_only_joints(*rng.uniform(-math.pi, math.pi, 2))
        trig = joint_trig(*j.as_tuple())
        if min(abs(x) for x in trig) >= 0.05:
            infinitesimal.append((j, trivial[rng.integers(4)]))
    # condition-pair joints at trivial orientations, which lie on the curves
    pair_at_trivial = []
    for _ in range(per_kind):
        free = rng.uniform(-math.pi, math.pi)
        zero_sin = rng.choice([0.0, math.pi])
        zero_cos = rng.choice([-0.5, 0.5]) * math.pi
        j = [
            (free, zero_sin, zero_cos),
            (zero_cos, free, zero_sin),
            (zero_sin, zero_cos, free),
        ][rng.integers(3)]
        pair_at_trivial.append((JointTriplet(*j), trivial[rng.integers(4)]))
    return exact + band + lockup + infinitesimal + pair_at_trivial


def test_classify_matches_previous_body(rng):
    configs = []
    for _ in range(2500):
        r = random_orientation(rng)
        configs += [(j, r) for j in solve_ik(r).enumerated]
    assert len(configs) == 20_000
    configs += _singular_corpus(rng, 250)
    kinds = set()
    for j, r in configs:
        expected = _classify_before(j, r)
        assert _classified(j, r) == expected
        kinds.add(expected[0])
    assert kinds == {"regular", "self_motion", "lockup", "infinitesimal_at_trivial"}


@pytest.mark.parametrize("leg", [0, 1, 2])
def test_classify_nan_joint_not_assembled(leg):
    joints = [0.0, 0.0, 0.0]
    joints[leg] = math.nan
    for r in (np.eye(3),) + trivial_orientations():
        with pytest.raises(NotAssembled, match="reach nan"):
            classify_configuration(JointTriplet(*joints), r)


@pytest.mark.parametrize("entry", [(2, 1), (1, 1), (0, 2), (2, 2), (1, 0), (0, 0)])
def test_classify_nan_leg_table_entry_not_assembled(entry):
    # at the identity the other residuals are exactly 0; at the regular
    # IK solutions they are rounding-sized
    r0 = euler_to_rotation((0.100, -0.672, -0.383))
    configs = [(JointTriplet(0.0, 0.0, 0.0), np.eye(3))]
    configs += [(j, r0) for j in solve_ik(r0).enumerated]
    for j, r in configs:
        r = r.copy()
        r[entry] = math.nan
        with pytest.raises(NotAssembled, match="reach nan"):
            classify_configuration(j, r)


def test_regular_class_is_one_shared_frozen_instance(rng):
    regular = []
    for _ in range(50):
        r = random_orientation(rng)
        regular += [classify_configuration(j, r) for j in solve_ik(r).enumerated]
    assert len(regular) == 400
    assert all(out is regular[0] for out in regular)
    assert regular[0] == SingularityClass(kind="regular")
    with pytest.raises(dataclasses.FrozenInstanceError):
        regular[0].kind = "lockup"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [(0, 1), (1, 2), (2, 0)])
def test_classify_non_finite_entry_outside_leg_table_not_assembled(entry, value):
    # r01, r12 and r20 are read by no residual; the trivial-orientation
    # distance they make NaN must not fall through to a lockup
    r = np.eye(3)
    r[entry] = value
    with pytest.raises(NotAssembled, match="nearest trivial orientation is nan"):
        classify_configuration(JointTriplet(0.0, 0.0, 0.0), r)


def test_classify_overflowing_entries_outside_leg_table_not_assembled():
    # finite entries whose sums overflow take the non-finite path, unwarned
    r = self_motion_family(1, 0.4)
    r[1, 2], r[2, 0] = 1e308, -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotAssembled, match="nearest trivial orientation is nan"):
            classify_configuration(JointTriplet(0.3, 0.0, math.pi / 2), r)


def _orientation_factor(r):
    # D(R) = r00 r11 r22 + r02 r10 r21
    return r[0, 0] * r[1, 1] * r[2, 2] + r[0, 2] * r[1, 0] * r[2, 1]


@settings(max_examples=400, deadline=None)
@given(rotations())
def test_det_factor_at_ik_solutions_is_signed_orientation_factor(r):
    # q2 = pi(sigma) D / (h1 h2 h3) at IK solution sigma (product order)
    ik = solve_ik(r)
    assume(not ik.any_arbitrary)
    h1, h2, h3 = (math.hypot(num, den) for num, den in leg_table(r))
    d = _orientation_factor(r)
    for j, sig in zip(ik.enumerated, itertools.product((1, -1), repeat=3)):
        q2 = det_a_closed_form(j)
        assert abs(q2 - math.prod(sig) * d / (h1 * h2 * h3)) <= 4e-15 / (h1 * h2 * h3)


@settings(max_examples=400, deadline=None)
@given(angles, angles, angles)
def test_orientation_factor_euler_form(phi, theta, psi):
    cf, sf = math.cos(phi), math.sin(phi)
    ct, st_ = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(psi), math.sin(psi)
    form = ct * ct * ((cf * cp + st_ * sf * sp) ** 2 + ct * ct * sf * sf * sp * sp)
    assert form >= 0.0
    assert abs(_orientation_factor(euler_to_rotation((phi, theta, psi))) - form) <= 2e-15


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.floats(-math.pi, math.pi))
def test_orientation_factor_vanishes_on_self_motion_curves(fid, t):
    assert _orientation_factor(self_motion_family(fid, t)) == 0.0
