import itertools
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agile_eye import (
    EulerZyx,
    MalformedRotation,
    euler_to_rotation,
    rotation_distance,
    validate_rotation,
    wrap_angle,
)
from agile_eye import so3
from agile_eye.so3 import rotation_angle
from conftest import axis_angle_rotation, random_euler

R_TO1 = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])


def elemental_product(phi, theta, psi):
    """Independent oracle: numeric product of the elemental rotations."""
    cz, sz = math.cos(phi), math.sin(phi)
    cy, sy = math.cos(theta), math.sin(theta)
    cx, sx = math.cos(psi), math.sin(psi)
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1.0]])
    ry = np.array([[cy, 0, sy], [0, 1.0, 0], [-sy, 0, cy]])
    rx = np.array([[1.0, 0, 0], [0, cx, -sx], [0, sx, cx]])
    return rz @ ry @ rx


def test_wrap_angle_edges():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == math.pi
    assert abs(wrap_angle(2 * math.pi)) < 1e-15
    assert abs(wrap_angle(-0.3) + 0.3) < 1e-15


@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_wrap_angle_infinite_names_value(x):
    with pytest.raises(ValueError, match=f"cannot wrap angle {x!r}"):
        wrap_angle(x)
    with pytest.raises(ValueError, match="cannot wrap angle"):
        EulerZyx(0.0, x, 0.0)


def test_wrap_angle_nan_is_nan():
    assert math.isnan(wrap_angle(math.nan))


def _wrap_by_remainder(x: float) -> float:
    # the general form; wrap_angle returns angles in (-pi, pi] unchanged
    y = math.remainder(x, 2.0 * math.pi)
    return math.pi if y == -math.pi else y


def _same_bits(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


@pytest.mark.parametrize(
    "x",
    [
        math.pi,
        -math.pi,
        math.nextafter(math.pi, 0.0),
        math.nextafter(-math.pi, 0.0),
        math.nextafter(math.pi, math.inf),
        math.nextafter(-math.pi, -math.inf),
        0.0,
        -0.0,
        2.0 * math.pi,
        -2.0 * math.pi,
        math.nan,
    ],
)
def test_wrap_angle_fast_path_is_remainder_form(x):
    assert _same_bits(wrap_angle(x), _wrap_by_remainder(x))


@given(st.floats(allow_infinity=False))
def test_wrap_angle_matches_remainder_form(x):
    assert _same_bits(wrap_angle(x), _wrap_by_remainder(x))


def test_euler_identity():
    np.testing.assert_allclose(euler_to_rotation((0, 0, 0)), np.eye(3), atol=1e-15)


def test_euler_reaches_trivial_orientation():
    r = euler_to_rotation((math.pi / 2, math.pi / 2, 0.0))
    np.testing.assert_allclose(r, R_TO1, atol=1e-15)


def test_euler_matches_elemental_products(rng):
    e = (0.100, -0.672, -0.383)
    np.testing.assert_allclose(
        euler_to_rotation(e), elemental_product(*e), atol=1e-14
    )
    for _ in range(200):
        trip = rng.uniform(-math.pi, math.pi, 3)
        np.testing.assert_allclose(
            euler_to_rotation(trip), elemental_product(*trip), atol=1e-13
        )


def _nested_build(phi, theta, psi):
    """The ZYX matrix built from nested rows, written out apart from
    so3.rotation_entries: the byte-level reference."""
    cf, sf = math.cos(phi), math.sin(phi)
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(psi), math.sin(psi)
    return np.array(
        [
            [cf * ct, cf * st * sp - sf * cp, cf * st * cp + sf * sp],
            [sf * ct, sf * st * sp + cf * cp, sf * st * cp - cf * sp],
            [-st, ct * sp, ct * cp],
        ]
    )


EDGE_ANGLES = (math.pi, -math.pi, math.pi / 2, -math.pi / 2, 0.0, -0.0)


def test_euler_to_rotation_bytes_match_nested_build_at_edges():
    for phi, theta, psi in itertools.product(EDGE_ANGLES, repeat=3):
        e = EulerZyx(phi, theta, psi)  # -pi becomes pi; -0.0 stays
        for angles, want in (((phi, theta, psi), (phi, theta, psi)), (e, e.as_tuple())):
            got = euler_to_rotation(angles)
            assert got.shape == (3, 3) and got.dtype == np.float64
            assert got.tobytes() == _nested_build(*want).tobytes()


@given(*[st.floats(-10.0, 10.0)] * 3)
def test_euler_to_rotation_bytes_match_nested_build(phi, theta, psi):
    assert euler_to_rotation((phi, theta, psi)).tobytes() == _nested_build(phi, theta, psi).tobytes()
    e = EulerZyx(phi, theta, psi)
    assert euler_to_rotation(e).tobytes() == _nested_build(*e.as_tuple()).tobytes()


@given(*[st.floats(-math.pi, math.pi, exclude_min=True)] * 3)
@example(-0.0, math.pi, math.nextafter(-math.pi, 0.0))
def test_from_wrapped_equals_constructor_in_range(phi, theta, psi):
    # the constructor stores a float already in (-pi, pi] as given, bit for
    # bit, so dk's half-turn builder wraps nothing by hand
    e = EulerZyx(phi, theta, psi)
    assert all(map(_same_bits, e.as_tuple(), (phi, theta, psi)))


def test_rotation_matrix_is_orthonormal(rng):
    for _ in range(200):
        r = euler_to_rotation(rng.uniform(-math.pi, math.pi, 3))
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-10
        assert abs(np.linalg.det(r) - 1.0) < 1e-10


def test_malformed_rotation_rejected():
    with pytest.raises(MalformedRotation):
        validate_rotation(np.eye(3) * 1.01)
    with pytest.raises(MalformedRotation):
        validate_rotation(np.diag([1.0, 1.0, -1.0]))  # det -1
    with pytest.raises(MalformedRotation):
        validate_rotation(np.eye(4))
    # NaN fails every threshold check, and so does R^T R where finite
    # entries overflow it, with no numpy warning
    one_nan = np.eye(3)
    one_nan[2, 1] = math.nan
    one_huge = np.eye(3)
    one_huge[0, 2] = 1e300
    for r in (np.full((3, 3), math.nan), one_nan, 1e200 * np.eye(3), one_huge):
        with pytest.raises(MalformedRotation):
            validate_rotation(r)


def _orthonormal_defect(r):
    return float(np.max(np.abs(r.T @ r - np.eye(3))))


def _det_defect(r):
    return abs(float(np.linalg.det(r)) - 1.0)


@pytest.mark.parametrize(
    "r, defect, other, message",
    [
        # R^T R off by 2e-11 on one entry, det(R) by only 1e-11
        (np.diag([1.0 + 1e-11, 1.0, 1.0]), _orthonormal_defect, _det_defect, r"R\^T R"),
        # det(R) off by 3e-11, R^T R by only 2e-11
        (np.eye(3) * (1.0 + 1e-11), _det_defect, _orthonormal_defect, r"det\(R\)"),
    ],
    ids=["orthonormality", "determinant"],
)
def test_validate_rotation_tolerance_is_inclusive(r, defect, other, message, monkeypatch):
    # Each check accepts a defect equal to ORTHONORMAL_TOL and rejects one
    # a float below it; the matrix's other defect is smaller, so this
    # check alone decides.
    tol = defect(r)
    assert other(r) < np.nextafter(tol, 0.0)
    monkeypatch.setattr(so3, "ORTHONORMAL_TOL", tol)
    assert validate_rotation(r) is not None
    monkeypatch.setattr(so3, "ORTHONORMAL_TOL", np.nextafter(tol, 0.0))
    with pytest.raises(MalformedRotation, match=message):
        validate_rotation(r)


def test_companion_triplet_same_rotation(rng):
    for _ in range(2000):
        phi, theta, psi = rng.uniform(-math.pi, math.pi, 3)
        a = euler_to_rotation((phi, theta, psi))
        b = euler_to_rotation((phi + math.pi, -theta + math.pi, psi + math.pi))
        assert np.max(np.abs(a - b)) < 1e-12


def test_rotation_distance_values(rng):
    assert rotation_distance(np.eye(3), np.eye(3)) == 0.0
    # trace of the trivial orientation is 0, so the angle is arccos(-1/2)
    assert rotation_distance(np.eye(3), R_TO1) == pytest.approx(
        math.acos(-0.5)
    )
    r = euler_to_rotation((0.4, 0.2, -1.0))
    half_turn = r @ axis_angle_rotation([1.0, 0, 0], math.pi)
    assert rotation_distance(r, half_turn) == pytest.approx(math.pi)
    # symmetry
    a, b = euler_to_rotation(random_euler(rng)), euler_to_rotation(random_euler(rng))
    assert rotation_distance(a, b) == pytest.approx(rotation_distance(b, a))


def test_rotation_distance_accurate_near_half_turn(rng):
    # within 1e-5 rad of pi the trace alone cannot resolve the angle
    axis = np.array([0.3, -0.5, 0.8])
    for delta in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        b = axis_angle_rotation(axis, math.pi - delta)
        assert abs(rotation_distance(np.eye(3), b) - (math.pi - delta)) < 1e-14
        a = euler_to_rotation(random_euler(rng))
        assert abs(rotation_distance(a, a @ b) - (math.pi - delta)) < 1e-14


# rotation-sized entries most of the time, any float or an edge value otherwise
EDGE_FLOATS = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, math.nan, math.inf, -math.inf]),
)
SIGN_TRIPLES = [h for signs in ((1, -1), (1.0, -1.0)) for h in itertools.product(signs, repeat=3)]


@settings(max_examples=300)
@given(st.lists(EDGE_FLOATS, min_size=9, max_size=9), st.sampled_from(SIGN_TRIPLES))
def test_rotation_angle_reads_sign_flips_in_place(entries, h):
    # the angle of M diag(h) from M and h is bit for bit the angle of the
    # matrix with its columns flipped, on any entries
    m = [entries[0:3], entries[3:6], entries[6:9]]
    flipped = [[x * sign for x, sign in zip(row, h)] for row in m]
    got, want = rotation_angle(m, h), rotation_angle(flipped)
    assert struct.pack("<d", got) == struct.pack("<d", want)


def test_rotation_distance_nan_is_nan():
    r = euler_to_rotation((0.4, 0.2, -1.0))
    assert math.isnan(rotation_distance(r, np.full((3, 3), math.nan)))
    assert math.isnan(rotation_distance(r * math.nan, r))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rotation_distance_non_finite_entry_is_nan_without_warning(value):
    r = euler_to_rotation((0.4, 0.2, -1.0))
    for i in range(9):
        bad = r.copy()
        bad.flat[i] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(rotation_distance(r, bad))
            assert math.isnan(rotation_distance(bad, r))
            assert math.isnan(rotation_distance(bad, bad))
    # the numpy error state is left as it was
    with pytest.warns(RuntimeWarning):
        np.array([math.inf]) * 0.0
