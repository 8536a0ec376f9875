"""Capture `agile track` output for the golden corpus.

Run from the repository root against the commit whose output is the
reference:

    PYTHONPATH=src python tests/golden/make_track.py > tests/golden/track.json

Each case stores the path file's text, the CLI arguments (PATH stands for
the path file), the exit code and the exact output; tests/test_golden.py
writes the path file, replays the arguments and compares byte for byte.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from agile_eye import JointTriplet, solve_dk
from agile_eye.cli import main

PATH = "PATH"

FIG_JOINTS = (-0.3, -0.7, 0.1)
# A closed loop inside the q2 > 0 domain (q2 > 0.1 on every segment).
LOOP = (
    (0.3, -0.2, 0.5),
    (0.6, -0.1, 0.4),
    (0.9, -0.5, 0.8),
    (0.5, -0.4, 0.7),
    (0.3, -0.2, 0.5),
)


def _csv(points):
    return "theta1,theta2,theta3\n" + "".join(
        ",".join(repr(float(v)) for v in p) + "\n" for p in points
    )


def _start(joints, mode):
    return [repr(a) for a in solve_dk(JointTriplet(*joints)).solutions[mode - 1].as_tuple()]


def _case(points, start, fmt=None):
    args = [] if fmt is None else ["--format", fmt]
    return _csv(points), args + ["track", PATH, "--start-euler", *start]


def cases():
    out = {"constant": _case([FIG_JOINTS] * 3, _start(FIG_JOINTS, 1))}
    for mode in range(1, 5):
        out[f"loop_mode_{mode}"] = _case(LOOP, _start(LOOP[0], mode))
    out["loop_mode_2_csv"] = _case(LOOP, _start(LOOP[0], 2), fmt="csv")
    # q2 = cos t1 cos 0.1 changes sign at t1 = pi/2, inside segment 1
    crossing = ((0.0, 0.0, 0.0), (0.4, 0.1, 0.0), (2.5, 0.1, 0.0))
    out["sign_change"] = _case(crossing, _start(crossing[0], 1))
    # theta2 passes 0 with theta3 = pi/2: condition pair 1 (self-motion)
    entry = ((0.4, 0.3, math.pi / 2), (0.4, -0.3, math.pi / 2))
    out["self_motion_entry"] = _case(entry, _start(entry[0], 1))
    out["rejected_start"] = _case([FIG_JOINTS] * 2, ["1.2", "0.4", "0.9"])
    # CSV with the crossing and the mode-constant line on stderr
    out["sign_change_csv"] = _case(crossing, _start(crossing[0], 1), fmt="csv")
    out["rejected_start_csv"] = _case([FIG_JOINTS] * 2, ["1.2", "0.4", "0.9"], fmt="csv")
    return out


def run_case(runner, path_text, args, directory):
    path_file = Path(directory) / "path.csv"
    path_file.write_text(path_text)
    argv = [str(path_file) if a == PATH else a for a in args]
    return runner.invoke(main, argv, catch_exceptions=False)


def capture():
    runner = CliRunner()
    doc = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (path_text, args) in cases().items():
            res = run_case(runner, path_text, args, tmp)
            doc.append(
                {
                    "name": name,
                    "path": path_text,
                    "args": args,
                    "exit_code": res.exit_code,
                    "output": res.output,
                }
            )
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    capture()
