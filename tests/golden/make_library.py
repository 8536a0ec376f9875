"""Capture the library's outputs as sha256 digests for the golden corpus.

Run from the repository root against the commit whose outputs are the
reference:

    PYTHONPATH=src python tests/golden/make_library.py > tests/golden/library.json

The joints are the 512 lattice triplets {+-pi, +-pi/2, 0, -0.0, 0.3,
-1.2}^3 and 1,000 seeded uniform ones.  Each generic triplet's four
direct solutions give three orientations each: the exact solution, the
solution rotated by 1e-7 rad about a fixed axis, and the solution scaled
by 1 + 1e-5; every other triplet gets the four trivial orientations.
Each section holds one record per call, in corpus order:

- solve_dk: per joint triplet, the branch, q2 and every solution angle;
- solve_ik: per orientation, the legs, triplets and signatures;
- assembly_mode_id: per (joints, orientation), the index or the
  exception class (the match distance is not recorded);
- classify_configuration: per (joints, orientation), the class or the
  exception class;
- track_path: per (joints, orientation), a two-waypoint path from the
  joints: every Euler angle and matrix entry, the mode, the signature and
  the crossing, or the exception class.

Floats are packed as IEEE doubles, so every bit counts (-0.0 too); text
fields are repr'd.  The file keeps each section's count and sha256, and
one sha256 per chunk of CHUNK records, so that a replay names the first
chunk that moved; it records the Python and numpy versions it was made
with.
"""

import hashlib
import itertools
import json
import math
import platform
import struct
import sys

import numpy as np

from agile_eye import (
    AgileEyeError,
    JointTriplet,
    assembly_mode_id,
    classify_configuration,
    euler_to_rotation,
    solve_dk,
    solve_ik,
    track_path,
    trivial_orientations,
)

CHUNK = 500
SEED = 20261020
LATTICE = (math.pi, -math.pi, math.pi / 2, -math.pi / 2, 0.0, -0.0, 0.3, -1.2)
# the second waypoint of each tracked path, relative to the first
STEP = (0.01, -0.02, 0.015)
AXIS = np.array([1.0, 2.0, 2.0]) / 3.0
SECTIONS = ("solve_dk", "solve_ik", "assembly_mode_id", "classify_configuration", "track_path")


def _rotation(axis, angle):
    x, y, z = axis
    c, s = math.cos(angle), math.sin(angle)
    k = 1.0 - c
    return np.array([
        [c + x * x * k, x * y * k - z * s, x * z * k + y * s],
        [y * x * k + z * s, c + y * y * k, y * z * k - x * s],
        [z * x * k - y * s, z * y * k + x * s, c + z * z * k],
    ])


TURN = _rotation(AXIS, 1e-7)


def joints():
    lattice = [JointTriplet(*t) for t in itertools.product(LATTICE, repeat=3)]
    rng = np.random.default_rng(SEED)
    return lattice + [JointTriplet(*rng.uniform(-math.pi, math.pi, 3)) for _ in range(1000)]


def _outcome(call):
    try:
        return call()
    except (AgileEyeError, ValueError) as exc:  # messages may carry distances
        return type(exc).__name__


def _floats(values):
    return struct.pack(f"<{len(values)}d", *values)


def _dk_record(dk):
    sols = () if dk.solutions is None else [a for e in dk.solutions for a in e.as_tuple()]
    head = repr((dk.branch, dk.pair, dk.families, dk.constrained)).encode()
    return head + _floats((dk.q2, *sols))


def _ik_record(ik):
    legs = [a for leg in ik.legs for a in (leg.angles or (math.nan,))]
    triplets = [a for t in ik.enumerated for a in t.as_tuple()]
    sigs = b"" if ik.signatures is None else " ".join(s.label for s in ik.signatures).encode()
    return sigs + _floats(legs) + _floats(triplets)


def _classify_record(c):
    return c.encode() if isinstance(c, str) else repr((c.kind, c.family_id, c.trivial_id)).encode()


def _track_record(t):
    if isinstance(t, str):
        return t.encode()
    crossing = None if t.crossing is None else (t.crossing.segment, t.crossing.reason)
    head = repr((t.mode_id, t.signature.label, crossing)).encode()
    angles = [a for e in t.eulers for a in e.as_tuple()]
    return head + _floats(angles) + b"".join(r.tobytes() for r in t.orientations)


def records():
    """Each section's records, in corpus order."""
    out = {name: [] for name in SECTIONS}
    for j in joints():
        dk = solve_dk(j)
        out["solve_dk"].append(_dk_record(dk))
        if dk.is_finite:
            exact = [euler_to_rotation(e) for e in dk.solutions]
            poses = [m for r in exact for m in (r, r @ TURN, r * (1.0 + 1e-5))]
        else:
            poses = trivial_orientations()
        path = [j, JointTriplet(*(a + d for a, d in zip(j.as_tuple(), STEP)))]
        for r in poses:
            out["solve_ik"].append(_ik_record(solve_ik(r)))
            out["assembly_mode_id"].append(str(_outcome(lambda: assembly_mode_id(j, r))).encode())
            out["classify_configuration"].append(
                _classify_record(_outcome(lambda: classify_configuration(j, r)))
            )
            out["track_path"].append(_track_record(_outcome(lambda: track_path(path, r))))
    return out


def _sha(lines):
    return hashlib.sha256(b"".join(line + b"\n" for line in lines)).hexdigest()


def digests():
    """{section: {"count", "sha256", "chunks"}} of the current library."""
    return {
        name: {
            "count": len(lines),
            "sha256": _sha(lines),
            "chunks": [_sha(lines[i:i + CHUNK]) for i in range(0, len(lines), CHUNK)],
        }
        for name, lines in records().items()
    }


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def capture():
    doc = {**versions(), "chunk": CHUNK, "sections": digests()}
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    capture()
