import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from agile_eye import (
    EulerZyx,
    JointTriplet,
    constraint_residuals,
    euler_to_rotation,
    solve_ik,
    trivial_orientations,
    working_mode_signature,
)
from conftest import circ_diff, intermediate_axes, random_orientation

EDGE_ANGLES = (math.pi, -math.pi, math.pi / 2, -math.pi / 2, 0.0, -0.0)
IN_RANGE = st.floats(-math.pi, math.pi, exclude_min=True)


def _bits(j):
    # the fields' bit patterns, so that -0.0 and 0.0 differ
    return struct.pack("<3d", j.theta1, j.theta2, j.theta3)


def _assert_enumerated_are_constructor_triplets(r):
    for fill in (False, True):
        for t in solve_ik(r, fill_arbitrary=fill).enumerated:
            ref = JointTriplet(*t.as_tuple())
            assert type(t) is JointTriplet
            assert _bits(t) == _bits(ref)
            assert t == ref and hash(t) == hash(ref)


# (leg, (row, column)) of each leg-table entry: (r21, r11), (r02, r22),
# (r10, r00)
LEG_TABLE_ENTRIES = [
    (1, (2, 1)), (1, (1, 1)), (2, (0, 2)), (2, (2, 2)), (3, (1, 0)), (3, (0, 0))
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("leg, entry", LEG_TABLE_ENTRIES)
def test_solve_ik_rejects_non_finite_leg_table_entry(leg, entry, value):
    # at the identity r21 = 0, so a NaN r11 once made leg 1 arbitrary, and
    # an infinite r21 gave leg 1 the angles (pi/2, -pi/2)
    for r in (np.eye(3), euler_to_rotation((0.100, -0.672, -0.383))):
        r = r.copy()
        r[entry] = value
        for fill in (False, True):
            with pytest.raises(ValueError, match=f"^leg {leg}: .* not finite"):
                solve_ik(r, fill_arbitrary=fill)


def test_leg3_identity():
    out = solve_ik(np.eye(3)).legs[2]
    assert not out.arbitrary
    assert out.angles == (0.0, math.pi)


def test_leg1_reported_angle():
    r = euler_to_rotation((0.100, -0.672, -0.383))
    out = solve_ik(r).legs[0]
    assert not out.arbitrary
    assert min(circ_diff(a, -0.3) for a in out.angles) < 1e-3
    # the two angles are antipodal
    assert circ_diff(out.angles[1], out.angles[0] + math.pi) < 1e-15


def test_legs_arbitrary_at_trivial_orientations():
    for r in trivial_orientations():
        assert all(leg.arbitrary and leg.angles is None for leg in solve_ik(r).legs)


def test_solve_ik_identity():
    result = solve_ik(np.eye(3))
    got = {j.as_tuple() for j in result.enumerated}
    expected = set(itertools.product((0.0, math.pi), repeat=3))
    assert got == expected
    assert len(result.enumerated) == 8


def test_solve_ik_reported_configuration():
    r = euler_to_rotation((0.100, -0.672, -0.383))
    result = solve_ik(r)
    assert len(result.enumerated) == 8
    best = min(
        max(circ_diff(a, b) for a, b in zip(j.as_tuple(), (-0.3, -0.7, 0.1)))
        for j in result.enumerated
    )
    assert best < 1e-3


def test_solve_ik_trivial_orientation_empty_or_filled():
    r_to3 = trivial_orientations()[2]
    result = solve_ik(r_to3)
    assert result.any_arbitrary
    assert result.enumerated == ()
    filled = solve_ik(r_to3, fill_arbitrary=True)
    assert len(filled.enumerated) == 1
    assert filled.enumerated[0].as_tuple() == (0.0, 0.0, 0.0)
    assert result.signatures is None and filled.signatures is None


def test_fill_count_matches_two_solution_legs(rng):
    # one arbitrary leg on a self-motion orientation: 2^2 filled solutions
    from agile_eye import self_motion_family

    r = self_motion_family(1, 0.8)
    result = solve_ik(r, fill_arbitrary=True)
    assert result.legs[0].arbitrary
    assert not result.legs[1].arbitrary and not result.legs[2].arbitrary
    assert len(result.enumerated) == 4
    assert result.signatures is None


def test_antipodal_intermediate_axes(rng):
    for _ in range(300):
        r = random_orientation(rng)
        result = solve_ik(r)
        for leg, out in enumerate(result.legs, 1):
            a, b = out.angles
            ja = JointTriplet(*(a if i == leg else 0.0 for i in (1, 2, 3)))
            jb = JointTriplet(*(b if i == leg else 0.0 for i in (1, 2, 3)))
            wa = intermediate_axes(ja)[leg - 1]
            wb = intermediate_axes(jb)[leg - 1]
            assert np.max(np.abs(wa + wb)) < 1e-15


def test_residual_closure(rng):
    for _ in range(300):
        r = random_orientation(rng)
        for j in solve_ik(r).enumerated:
            assert np.max(np.abs(constraint_residuals(j, r))) < 1e-10


def test_solution_count_property(rng):
    arbitrary_seen = 0
    for _ in range(10_000):
        result = solve_ik(random_orientation(rng))
        if result.any_arbitrary:
            arbitrary_seen += 1
            continue
        assert len(result.enumerated) == 8
    assert arbitrary_seen == 0


def test_product_index_is_working_mode_signature(rng):
    # enumerated[m] takes the atan2 root (+) or its antipode (-) per leg in
    # itertools.product order, and B_ii = +-hypot(num_i, den_i) there; the
    # solve names each one with the shared instance the numeric signs give
    labels = ["".join(p) for p in itertools.product("+-", repeat=3)]
    for _ in range(2000):
        r = random_orientation(rng)
        result = solve_ik(r)
        numeric = [working_mode_signature(j, r) for j in result.enumerated]
        assert [sig.label for sig in numeric] == labels
        assert len(result.signatures) == len(numeric)
        assert all(a is b for a, b in zip(result.signatures, numeric))


def test_enumerated_triplets_are_bit_identical_on_edge_grid():
    # trivial and self-motion orientations among these make arbitrary legs,
    # filled with 0.0; signed zeros reach the leg table
    for angles in itertools.product(EDGE_ANGLES, repeat=3):
        _assert_enumerated_are_constructor_triplets(euler_to_rotation(EulerZyx(*angles)))


@given(IN_RANGE, st.floats(-math.pi / 2, math.pi / 2), IN_RANGE)
def test_enumerated_triplets_are_bit_identical(phi, theta, psi):
    _assert_enumerated_are_constructor_triplets(euler_to_rotation((phi, theta, psi)))


@given(IN_RANGE, IN_RANGE, IN_RANGE)
@example(-0.0, math.pi, math.nextafter(-math.pi, 0.0))
def test_joint_triplet_from_wrapped_equals_constructor_in_range(t1, t2, t3):
    # the constructor stores a float already in (-pi, pi] as given, bit for
    # bit, so solve_ik builds its triplets with it and no second code path
    assert _bits(JointTriplet(t1, t2, t3)) == struct.pack("<3d", t1, t2, t3)


def test_arbitrary_legs_share_one_frozen_outcome():
    legs = solve_ik(trivial_orientations()[0]).legs
    assert legs[0] is legs[1] is legs[2]
    with pytest.raises(dataclasses.FrozenInstanceError):
        legs[0].arbitrary = False
