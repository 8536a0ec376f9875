import copy
import dataclasses
import importlib
import math
import pickle
import pkgutil
import weakref

import numpy as np
import pytest

import agile_eye
import agile_eye.config
from agile_eye import (
    JointTriplet,
    constraint_residuals,
    euler_to_rotation,
    solve_ik,
    trivial_orientations,
    wrap_angle,
)
from agile_eye.mechanism import STRUCTURE_TOL, as_rows
from conftest import (
    BASE_AXES,
    intermediate_axes,
    platform_axes,
    random_joints,
    random_orientation,
)


def test_residuals_reference_configuration():
    res = constraint_residuals(JointTriplet(0, 0, 0), np.eye(3))
    assert np.max(np.abs(res)) == 0.0


def test_residuals_reported_configuration():
    # joint/orientation pair quoted to three decimals, so 1e-3 closure
    j = JointTriplet(-0.3, -0.7, 0.1)
    r = euler_to_rotation((0.100, -0.672, -0.383))
    assert np.max(np.abs(constraint_residuals(j, r))) < 1e-3


def test_residuals_vanish_at_trivial_orientations(rng):
    for r in trivial_orientations():
        for _ in range(50):
            res = constraint_residuals(random_joints(rng), r)
            assert np.max(np.abs(res)) < 1e-12


def test_residuals_are_dot_products(rng):
    for _ in range(200):
        j, r = random_joints(rng), random_orientation(rng)
        res = constraint_residuals(j, r)
        assert np.max(np.abs(res)) <= 1.0
        ws = intermediate_axes(j)
        vs = platform_axes(r)
        direct = [float(w @ v) for w, v in zip(ws, vs)]
        np.testing.assert_allclose(res, direct, atol=1e-15)


def test_residual_trig_expansions(rng):
    # expanded scalar forms of w_i . v_i; the leg-2 expansion is the
    # negative of the common textbook arrangement of that constraint
    for _ in range(10_000):
        j = random_joints(rng)
        phi, theta, psi = rng.uniform(-math.pi, math.pi, 3)
        r = euler_to_rotation((phi, theta, psi))
        t1, t2, t3 = j.as_tuple()
        res = constraint_residuals(j, r)
        f1 = math.sin(psi) * (
            math.sin(t1) * math.sin(theta) * math.sin(phi)
            - math.cos(theta) * math.cos(t1)
        ) + math.cos(psi) * math.sin(t1) * math.cos(phi)
        f2 = math.cos(psi) * (
            math.cos(t2) * math.sin(theta) * math.cos(phi)
            - math.cos(theta) * math.sin(t2)
        ) + math.sin(psi) * math.cos(t2) * math.sin(phi)
        f3 = math.sin(t3 - phi) * math.cos(theta)
        assert abs(res[0] - f1) < 1e-12
        assert abs(res[1] + f2) < 1e-12
        assert abs(res[2] - f3) < 1e-12


def _built_values():
    """One instance of each package value type, as the package builds it."""
    j = JointTriplet(-0.3, -0.7, 0.1)
    dk = agile_eye.solve_dk(j)
    r = euler_to_rotation(dk.solutions[0])
    ik = solve_ik(r)
    path = [(0.0, 0.0, 0.0), (0.4, 0.1, 0.0), (2.5, 0.1, 0.0)]  # q2 changes sign
    start = euler_to_rotation(agile_eye.solve_dk(JointTriplet(*path[0])).solutions[1])
    track = agile_eye.track_path(path, start)
    values = [
        ik.enumerated[5], dk.signatures[2], dk.solutions[3], dk, ik.legs[0], ik,
        agile_eye.classify_joint_degeneracy(JointTriplet(0.3, 0.0, math.pi / 2)),
        track.crossing, track, agile_eye.jacobians(j, r),
        agile_eye.classify_configuration(j, r),
        next(agile_eye.iter_records(agile_eye.run_sweep(8))), agile_eye.run_sweep(8),
        agile_eye.config.parse_config_text("grid_n = 9"),
    ]
    return {type(v).__name__: v for v in values}


VALUES = _built_values()

# The value types that hold arrays, with a changed value for each field.
ARRAY_CHANGES = {
    "JacobianPair": lambda x: {"a": x.a.T, "b_diag": x.b_diag + 1.0},
    "SweepResult": lambda x: {
        "grid": x.grid + 1.0,
        "summary": {**x.summary, "grid_n": 9},
        "_runs": (x._runs[0], x._runs[1] + 1),
    },
}


def _same(a, b) -> bool:
    """Equal type and contents, float bits and array bytes included."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return a.hex() == b.hex()
    return a == b


def _outcome(f):
    # a result, or the type of the exception raised (arrays compare to no bool)
    try:
        return f()
    except Exception as exc:
        return type(exc)


def test_value_types_cover_the_package_dataclasses():
    modules = [
        importlib.import_module(f"agile_eye.{m.name}")
        for m in pkgutil.iter_modules(agile_eye.__path__)
        if m.name != "__main__"  # importing it runs the CLI
    ]
    found = {
        name
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
    }
    assert found == set(VALUES)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_type_contract(name):
    # frozen slots dataclasses: no instance dict or weakref, and the
    # pickle, deepcopy, ==, hash and replace of the default layout
    x = VALUES[name]
    assert not hasattr(x, "__dict__")
    for inspect in (vars, weakref.ref):
        with pytest.raises(TypeError):
            inspect(x)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert _same(pickle.loads(pickle.dumps(x, protocol)), x)
    y = copy.deepcopy(x)
    assert y is not x and _same(y, x)

    def key(v):
        return tuple(getattr(v, f.name) for f in dataclasses.fields(v) if f.compare)

    if name in ARRAY_CHANGES:
        # equal when every field is, arrays by value, and unhashable as
        # its arrays are
        assert (x == y) is True and (x != y) is False
        assert (x == None) is False and (x != None) is True  # noqa: E711
        assert _outcome(lambda: hash(x)) is TypeError
        for field, change in ARRAY_CHANGES[name](x).items():
            other = dataclasses.replace(x, **{field: change})
            assert (x == other) is False and (x != other) is True
    else:
        assert _outcome(lambda: x == y) == _outcome(lambda: key(x) == key(y))
        assert _outcome(lambda: hash(x)) == _outcome(lambda: hash(key(x)))
    for f in dataclasses.fields(x):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, f.name, getattr(x, f.name))
    if name in ("JointTriplet", "EulerZyx"):
        first = dataclasses.fields(x)[0].name
        moved = dataclasses.replace(x, **{first: 7.0})
        assert _same(moved.as_tuple(), (wrap_angle(7.0), *x.as_tuple()[1:]))


def singular_legs(r) -> tuple[bool, bool, bool]:
    """Which legs are fully folded/extended at this orientation (an array
    or its rows): |u_i . v_i| > 1 - STRUCTURE_TOL, with u_i . v_i the
    entries r01, r12, r20.  Only the reference classifier of
    test_singularity reads it: a test on a cosine, it holds within about
    4.5e-5 rad of a leg's singular set, so the package does not use it."""
    (_, r01, _), (_, _, r12), (r20, _, _) = as_rows(r)
    lim = 1.0 - STRUCTURE_TOL
    return abs(r01) > lim, abs(r12) > lim, abs(r20) > lim


def test_singular_legs():
    # the reference above is the only one: the package exports none
    import agile_eye
    from agile_eye import mechanism

    assert not hasattr(agile_eye, "singular_legs")
    assert not hasattr(mechanism, "singular_legs")
    for r in trivial_orientations():
        assert singular_legs(r) == (True, True, True)
    assert singular_legs(np.eye(3)) == (False, False, False)
    r = euler_to_rotation((0.3, 0.1, -0.2))
    assert singular_legs(r) == (False, False, False)


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 1.0, -1.0, 1.0 - 1e-10, -(1.0 - 1e-8), 0.0]
)
@pytest.mark.parametrize("entry", [(0, 1), (1, 2), (2, 0)])
def test_singular_legs_on_rows_equals_array(entry, value):
    # u_i . v_i is r01, r12, r20; the array form once read them as
    # abs(float(r[i, j])) > 1 - STRUCTURE_TOL
    lim = 1.0 - STRUCTURE_TOL
    for r in (np.eye(3), euler_to_rotation((0.3, 0.1, -0.2)), trivial_orientations()[1]):
        r = r.copy()
        r[entry] = value
        expected = tuple(abs(float(r[e])) > lim for e in ((0, 1), (1, 2), (2, 0)))
        assert singular_legs(r) == singular_legs(r.tolist()) == expected


def test_leg_table_identities(rng):
    # the three identities of the leg table against the axis vectors
    from agile_eye.mechanism import b_diagonal, leg_table

    for _ in range(500):
        j, r = random_joints(rng), random_orientation(rng)
        table = leg_table(r)
        vs = platform_axes(r)
        for i, (num, den) in enumerate(table):
            # (num, den) are the components of -v_i across u_i = e_i
            assert sorted((num, den)) == sorted(np.delete(-vs[i], i).tolist())
        b = b_diagonal(j, r)
        for i, (u, w, v) in enumerate(zip(BASE_AXES, intermediate_axes(j), vs)):
            assert b[i] == pytest.approx(float(np.cross(w, v) @ u), abs=1e-15)
        # the IK angle zeroes the residual and has B_ii = +hypot(num, den)
        angles = [math.atan2(num, den) for num, den in table]
        at_ik = JointTriplet(*angles)
        np.testing.assert_allclose(constraint_residuals(at_ik, r), 0.0, atol=1e-15)
        np.testing.assert_allclose(
            b_diagonal(at_ik, r), [math.hypot(n, d) for n, d in table], rtol=1e-15
        )
