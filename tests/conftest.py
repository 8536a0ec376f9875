import math
from collections import Counter

import numpy as np
import pytest

from agile_eye import EulerZyx, JointTriplet, euler_to_rotation, wrap_angle

HALF_PI = math.pi / 2


@pytest.fixture
def rng():
    return np.random.default_rng(20240615)


def circ_diff(a: float, b: float) -> float:
    """Absolute angular difference on the circle."""
    return abs(wrap_angle(a - b))


def euler_matches(e: EulerZyx, expected, tol: float) -> bool:
    """Per-angle circular comparison against an (phi, theta, psi) tuple."""
    return all(circ_diff(x, y) <= tol for x, y in zip(e.as_tuple(), expected))


def random_euler(rng, theta_margin: float = 0.05) -> EulerZyx:
    """Euler triplet clear of the representation singularity."""
    return EulerZyx(
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-(HALF_PI - theta_margin), HALF_PI - theta_margin),
        rng.uniform(-math.pi, math.pi),
    )


def random_orientation(rng, theta_margin: float = 0.05) -> np.ndarray:
    return euler_to_rotation(random_euler(rng, theta_margin))


def random_joints(rng) -> JointTriplet:
    return JointTriplet(*rng.uniform(-math.pi, math.pi, 3))


def axis_angle_rotation(axis, angle: float) -> np.ndarray:
    """Rotation by `angle` about `axis` (need not be unit length), by
    Rodrigues' formula."""
    x, y, z = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    c, s = math.cos(angle), math.sin(angle)
    k = 1.0 - c
    return np.array(
        [
            [c + x * x * k, x * y * k - z * s, x * z * k + y * s],
            [y * x * k + z * s, c + y * y * k, y * z * k - x * s],
            [z * x * k - y * s, z * y * k + x * s, c + z * z * k],
        ]
    )


# Joint axes of leg i at zero joints and R = I, one row per leg: the base
# axes u_i, the intermediate axes w_i(0) and the platform axes v'_i in the
# mobile frame.
BASE_AXES = np.eye(3)
INTERMEDIATE_HOME = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
PLATFORM_HOME = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]])


def intermediate_axes(j: JointTriplet) -> list[np.ndarray]:
    """w_i = Rot(u_i, theta_i) w_i(0)."""
    return [
        axis_angle_rotation(u, t) @ w0
        for u, t, w0 in zip(BASE_AXES, j.as_tuple(), INTERMEDIATE_HOME)
    ]


def platform_axes(r: np.ndarray) -> list[np.ndarray]:
    """v_i = R v'_i, in the base frame."""
    return [r @ v0 for v0 in PLATFORM_HOME]


def count_calls(monkeypatch, name: str, modules) -> Counter:
    """Wrap `name` in each of `modules` that binds it so that its calls
    are counted; returns the counts, keyed by module name."""
    calls = Counter()
    for module in modules:
        real = getattr(module, name, None)
        if real is None:
            continue

        def counting(*args, _real=real, _module=module.__name__, **kwargs):
            calls[_module] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls
