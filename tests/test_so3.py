import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agile_eye import (
    EulerZyx,
    MalformedRotation,
    axis_angle_rotation,
    canonicalize_euler,
    euler_to_rotation,
    rotation_distance,
    rotation_to_euler,
    wrap_angle,
)
from conftest import random_euler

R_TO1 = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])
R_TO3 = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])


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


def test_rotation_matrix_is_orthonormal(rng):
    for _ in range(200):
        r = euler_to_rotation(rng.uniform(-math.pi, math.pi, 3))
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-10
        assert abs(np.linalg.det(r) - 1.0) < 1e-10


def test_rotation_to_euler_identity():
    fam = rotation_to_euler(np.eye(3))
    assert not fam.singular
    assert fam.euler.as_tuple() == (0.0, 0.0, 0.0)


def test_rotation_to_euler_singular_branches():
    fam = rotation_to_euler(R_TO1)
    assert fam.singular
    assert fam.theta == pytest.approx(math.pi / 2)
    assert fam.angle_combo == pytest.approx(math.pi / 2)  # phi - psi

    fam = rotation_to_euler(R_TO3)
    assert fam.singular
    assert fam.theta == pytest.approx(-math.pi / 2)
    assert fam.angle_combo == pytest.approx(math.pi / 2)  # phi + psi


def test_rotation_to_euler_roundtrip_point():
    e = EulerZyx(0.3, -0.4, 1.1)
    fam = rotation_to_euler(euler_to_rotation(e))
    assert not fam.singular
    assert fam.euler.as_tuple() == pytest.approx(e.as_tuple(), abs=1e-12)


def test_roundtrip_property(rng):
    for _ in range(10_000):
        e = random_euler(rng)
        fam = rotation_to_euler(euler_to_rotation(e))
        assert not fam.singular
        d = rotation_distance(
            euler_to_rotation(e), euler_to_rotation(fam.euler)
        )
        assert d < 1e-10


def test_malformed_rotation_rejected():
    with pytest.raises(MalformedRotation):
        rotation_to_euler(np.eye(3) * 1.01)
    with pytest.raises(MalformedRotation):
        rotation_to_euler(np.diag([1.0, 1.0, -1.0]))  # det -1
    with pytest.raises(MalformedRotation):
        rotation_to_euler(np.eye(4))
    # NaN fails every threshold check
    one_nan = np.eye(3)
    one_nan[2, 1] = math.nan
    for r in (np.full((3, 3), math.nan), one_nan):
        with pytest.raises(MalformedRotation):
            rotation_to_euler(r)


def test_canonicalize_fixed_points():
    assert canonicalize_euler(EulerZyx(0, 0, 0)).as_tuple() == (0.0, 0.0, 0.0)
    got = canonicalize_euler(EulerZyx(0, math.pi, 0))
    assert got.as_tuple() == pytest.approx((math.pi, 0.0, math.pi))


def test_canonicalize_preserves_rotation():
    e = EulerZyx(0.100, 2.470, 0.383)
    got = canonicalize_euler(e)
    assert -math.pi / 2 < got.theta <= math.pi / 2
    d = rotation_distance(euler_to_rotation(e), euler_to_rotation(got))
    assert d < 1e-12


def test_canonicalize_idempotent(rng):
    for _ in range(2000):
        e = EulerZyx(*rng.uniform(-math.pi, math.pi, 3))
        once = canonicalize_euler(e)
        twice = canonicalize_euler(once)
        assert once == twice


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


def test_rotation_to_euler_theta_range(rng):
    # decomposition always picks the cos(theta) > 0 representative
    for _ in range(500):
        fam = rotation_to_euler(
            euler_to_rotation(rng.uniform(-math.pi, math.pi, 3))
        )
        if not fam.singular:
            assert -math.pi / 2 < fam.euler.theta < math.pi / 2


def test_rotation_distance_accurate_near_half_turn(rng):
    # within 1e-5 rad of pi the trace alone cannot resolve the angle
    axis = np.array([0.3, -0.5, 0.8])
    for delta in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        b = axis_angle_rotation(axis, math.pi - delta)
        assert abs(rotation_distance(np.eye(3), b) - (math.pi - delta)) < 1e-14
        a = euler_to_rotation(random_euler(rng))
        assert abs(rotation_distance(a, a @ b) - (math.pi - delta)) < 1e-14


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
