"""Capture `agile dk`, `ik`, `jacobian` and `self-motion` output for the
golden corpus.

Run from the repository root against the commit whose output is the
reference:

    PYTHONPATH=src python tests/golden/make_kinematics.py > tests/golden/kinematics.json

Each case stores the CLI arguments, the exit code and the exact output;
tests/test_golden.py replays the arguments and compares byte for byte.
"""

import json
import math
import sys

from click.testing import CliRunner

from agile_eye import self_motion_family, trivial_orientations
from agile_eye.cli import main


def _nums(values):
    return [repr(float(v)) for v in values]


def _matrix(r):
    return ["--matrix", *_nums(r.ravel())]


def _dk(joints, fmt=None):
    args = [] if fmt is None else ["--format", fmt]
    # "--" lets negative joint values through as arguments
    return args + ["dk", "--", *_nums(joints)]


def cases():
    out = {}
    half = math.pi / 2
    out["dk_generic"] = _dk((0.3, -1.2, 2.0))
    # despite its name, q2 = +0.746 here
    out["dk_generic_negative_q2"] = _dk((-0.3, -0.7, 0.1))
    # the two remaining relative sign patterns of diag(B) at the cascade's
    # first solution: (-, -, +) and (-, +, -) against sign(q2)
    out["dk_pattern_flip_12"] = _dk((1.4, 2.4, 1.1))
    out["dk_pattern_flip_13"] = _dk((0.5, 2.4, 0.0))
    # one triplet on each condition pair, a little off the exact angles
    out["dk_pair_1"] = _dk((0.4, 0.0, half))
    out["dk_pair_2"] = _dk((-half, 0.4, math.pi))
    out["dk_pair_3"] = _dk((math.pi, -half, -2.5))
    # q2 = 0 off every condition pair: only the trivial orientations
    t1, t2 = 1.0, -0.8
    t3 = math.atan2(-math.cos(t1) * math.cos(t2), math.sin(t1) * math.sin(t2))
    out["dk_trivial_only"] = _dk((t1, t2, t3))
    # the same joints moved off q2 = 0 to q2 = 2e-9, just above the
    # degeneracy tolerance: still four finite solutions
    amp = math.hypot(math.sin(t1) * math.sin(t2), math.cos(t1) * math.cos(t2))
    out["dk_near_degenerate"] = _dk((t1, t2, t3 + 2e-9 / amp))
    out["dk_generic_csv"] = _dk((1.1, 0.25, -2.9), fmt="csv")
    out["dk_degrees"] = ["--degrees", "dk", "--", "20", "-35", "150"]

    out["ik_generic"] = ["ik", "--euler", "0.5", "-0.3", "1.1"]
    # a self-motion orientation: its singular leg is arbitrary
    sm = self_motion_family(3, 0.7)
    out["ik_arbitrary_leg"] = ["ik", *_matrix(sm)]
    out["ik_arbitrary_leg_filled"] = ["ik", "--fill-arbitrary", *_matrix(sm)]
    out["ik_trivial_filled"] = ["ik", "--fill-arbitrary", *_matrix(trivial_orientations()[2])]
    out["ik_degrees"] = ["--degrees", "ik", "--euler", "30", "-20", "60"]
    out["ik_generic_csv"] = ["--format", "csv", "ik", "--euler", "-2.0", "0.9", "0.4"]

    # signed zeros in `a` ("-0") at the home configuration
    out["jacobian_home"] = ["jacobian", "--joints", "0", "0", "0", "--euler", "0", "0", "0"]
    out["jacobian_trivial"] = [
        "jacobian", "--joints", "0.3", "-1.2", "2.0", *_matrix(trivial_orientations()[0]),
    ]
    out["jacobian_generic_csv"] = [
        "--format", "csv", "jacobian", "--joints", "0.3", "-1.2", "2.0",
        "--euler", "0.5", "-0.3", "1.1",
    ]

    out["self_motion_1"] = ["self-motion", "--family", "1", "--parameter", "0.7"]
    out["self_motion_2b_label"] = ["self-motion", "--family", "2B", "--parameter", "-2.5"]
    out["self_motion_6_degrees"] = ["--degrees", "self-motion", "--family", "6", "--parameter", "135"]
    out["self_motion_3_csv"] = ["--format", "csv", "self-motion", "--family", "3a"]
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
