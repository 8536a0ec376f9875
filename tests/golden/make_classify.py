"""Capture `agile classify` output for the golden corpus.

Run from the repository root against the commit whose output is the
reference:

    PYTHONPATH=src python tests/golden/make_classify.py > tests/golden/classify.json

Each case stores the CLI arguments, the exit code and the exact output;
tests/test_golden.py replays the arguments and compares byte for byte.
"""

import json
import math
import sys

from click.testing import CliRunner

from agile_eye import (
    JointTriplet,
    classify_joint_degeneracy,
    euler_to_rotation,
    self_motion_family,
    solve_dk,
    solve_ik,
    trivial_orientations,
)
from agile_eye.cli import main


def _nums(values):
    return [repr(float(v)) for v in values]


def _args(joints, r, fmt=None):
    args = [] if fmt is None else ["--format", fmt]
    args += ["classify", "--joints", *_nums(joints)]
    return args + ["--matrix", *_nums(r.ravel())]


def _self_motion(fid, t):
    # joints from IK with the singular leg filled by the convention angle 0
    r = self_motion_family(fid, t)
    pair = (fid + 1) // 2
    for j in solve_ik(r, fill_arbitrary=True).enumerated:
        if classify_joint_degeneracy(j).pair == pair:
            return j.as_tuple(), r
    raise AssertionError(f"no condition-pair joints for family {fid}")


def cases():
    out = {}
    for fid in range(1, 7):
        out[f"self_motion_{fid}"] = _args(*_self_motion(fid, 0.7 + 0.4 * fid))
    # 1e-8 off a condition pair: the tolerance-band fallback decides
    for fid, k, off in ((1, 2, 1e-8), (4, 0, -1.5e-8), (5, 1, 2e-8)):
        j, r = _self_motion(fid, -0.9 + 0.3 * fid)
        j = list(j)
        j[k] += off
        out[f"band_{fid}"] = _args(j, r)
    triv = trivial_orientations()
    out["lockup"] = _args((0.3, -1.2, 2.0), triv[0])
    t1, t2 = 1.0, -0.8
    t3 = math.atan2(-math.cos(t1) * math.cos(t2), math.sin(t1) * math.sin(t2))
    out["infinitesimal_at_trivial"] = _args((t1, t2, t3), triv[1])
    out["pair_joints_at_trivial"] = _args((0.5, 0.0, math.pi / 2), triv[0])
    j = JointTriplet(-0.3, -0.7, 0.1)
    out["regular"] = _args(j.as_tuple(), euler_to_rotation(solve_dk(j).solutions[0]))
    out["self_motion_3_csv"] = _args(*_self_motion(3, -2.2), fmt="csv")
    return out


def capture():
    runner = CliRunner()
    doc = []
    for name, args in cases().items():
        res = runner.invoke(main, args, catch_exceptions=False)
        doc.append(
            {"name": name, "args": args, "exit_code": res.exit_code, "output": res.output}
        )
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    capture()
