"""CLI output against corpora captured from earlier commits.

A CLI case is its inputs: a `name`, the CLI `args` (floats as the repr of
the double meant) and, for `agile track`, the path file's text (`path`).
Every case replays through `recapture.run`, which returns the outputs the
case keeps, compared byte for byte (see tests/golden/recapture.py).  To
add a case, append its inputs to its corpus file and rebuild; a rebuild
that changes a stored output is a golden change, declared in CHANGES.md.
From the repository root, this fills in and rewrites the outputs of every
CLI case from its stored inputs:

    PYTHONPATH=src python tests/golden/recapture.py

`agile classify` (tests/golden/classify.json):
- self_motion_1 to _6: an exact self-motion per family at parameter
  0.7 + 0.4 * family, the joints from IK with the singular leg filled by
  the convention angle 0, the matrix that family's curve;
- band_1, band_4, band_5: such joints of families 1, 4 and 5 at parameter
  -0.9 + 0.3 * family, one joint moved 1e-8, -1.5e-8 and 2e-8 off the
  condition pair, so that the tolerance band decides;
- lockup: generic joints (0.3, -1.2, 2.0) at the first trivial orientation;
- infinitesimal_at_trivial: joints with q2 = 0 off every condition pair
  (theta3 = atan2(-cos t1 cos t2, sin t1 sin t2) at t1 = 1, t2 = -0.8) at
  the second trivial orientation;
- pair_joints_at_trivial: condition-pair joints (0.5, 0, pi/2) at the
  first trivial orientation;
- regular: the README quickstart joints (-0.3, -0.7, 0.1) at their first
  direct solution;
- self_motion_3_csv (family 3 at -2.2) and lockup_csv: as CSV.

`agile dk`, `ik`, `jacobian` and `self-motion`
(tests/golden/kinematics.json):
- dk_generic: generic joints (0.3, -1.2, 2.0), q2 < 0, and
  dk_generic_positive_q2: the quickstart joints, q2 = +0.746;
- dk_pattern_flip_12 and _13: the two remaining relative sign patterns
  of diag(B) at the cascade's first solution, (-, -, +) and (-, +, -)
  against sign(q2);
- dk_pair_1 to _3: one triplet on each condition pair, a little off the
  exact angles;
- dk_trivial_only: q2 = 0 off every condition pair (the joints of
  infinitesimal_at_trivial), so only the trivial orientations;
  dk_near_degenerate: the same joints moved to q2 = 2e-9, just above the
  degeneracy tolerance, so still four finite solutions;
- dk_generic_csv, dk_degrees and dk_degrees_csv; dk_self_motion_csv and
  dk_trivial_only_csv: degenerate joints as CSV, the header line only;
- ik_generic, ik_degrees and their CSV forms; ik_arbitrary_leg: a
  self-motion orientation (family 3 at 0.7), whose singular leg is
  arbitrary, with and without --fill-arbitrary; as CSV it has no solution
  rows while a leg is arbitrary, and filled rows have empty signature
  cells; ik_trivial_filled: the third trivial orientation, filled;
- jacobian_home: signed zeros in `a` ("-0") at the home configuration;
  jacobian_trivial and jacobian_generic_csv;
- self_motion_1, self_motion_2b_label (a family by label),
  self_motion_6_degrees (the parameter echoed in degrees) and
  self_motion_3_csv.

`agile track` (tests/golden/track.json), starts given as a direct
solution of the first waypoint (repr of its Euler angles):
- constant: the quickstart joints three times, from mode 1;
- loop_mode_1 to _4: a closed loop inside the q2 > 0 domain (q2 > 0.1 on
  every segment) from each assembly mode, and loop_mode_2_csv;
- sign_change: q2 = cos t1 cos 0.1 changes sign at t1 = pi/2, inside
  segment 1; sign_change_csv puts the crossing and the mode-constant line
  on stderr;
- self_motion_entry: theta2 passes 0 with theta3 = pi/2, condition pair 1;
- rejected_start and rejected_start_csv: a start that is no direct
  solution.

`agile sweep` (tests/golden/sweep.json), RECORDS standing for a records
file; each stream is verbatim up to 64 KiB, else its sha256 and length:
- n8_records_file and n8_records_stdout_csv: n = 8 lands on 0, +-pi/2
  and pi, so walls, self-motion and trivial-only tags, to a file and to
  stdout (summary on stderr);
- n24_wide_walls: a tolerance wide enough for thick walls (component -1);
- n40_records_file, and n64_csv_records_file at tolerance 1.3e-7;
- n17_tail_table_records_file: tolerance 0.75 on an odd grid, 8 + 8
  components, so a 51-entry table of line tails;
- n13_records_stdout: tolerance 0.3, records on stdout and the JSON
  summary on stderr;
- n128_no_records, and n16_no_records_csv as CSV;
- n7_usage_error: below the smallest grid, exit 2.

The library (tests/golden/library.json): sha256 digests of solve_dk,
solve_ik, assembly_mode_id, classify_configuration and track_path on a
lattice of joints, random joints and their direct solutions, exact and
perturbed; a section that moved is named with its first moved chunk.
Its inputs are generated, so it has its own builder:

    PYTHONPATH=src python tests/golden/make_library.py > tests/golden/library.json
"""

import functools
import json
import sys
from pathlib import Path

import pytest

from agile_eye import cli, modes
from conftest import count_calls

GOLDEN = Path(__file__).parent / "golden"
LIBRARY_CORPUS = json.loads((GOLDEN / "library.json").read_text())
sys.path.insert(0, str(GOLDEN))
import make_library  # noqa: E402
import recapture  # noqa: E402

CORPORA = {corpus: recapture.load(corpus) for corpus in recapture.CORPORA}


def _replay_test(corpus):
    """A test that replays each case of a CLI corpus, one test id per case."""

    @pytest.mark.parametrize("case", CORPORA[corpus], ids=[c["name"] for c in CORPORA[corpus]])
    def test(case, tmp_path):
        got = recapture.run(case, tmp_path)
        assert got == {k: case[k] for k in got}

    return test


test_classify_output_byte_identical = _replay_test("classify")
test_kinematics_output_byte_identical = _replay_test("kinematics")
test_track_output_byte_identical = _replay_test("track")
test_sweep_output_byte_identical = _replay_test("sweep")


def test_track_solves_the_first_waypoint_once(tmp_path, monkeypatch):
    # the signature printed on each step comes from the tracker's one
    # direct solve per waypoint; the start is matched from the cascade's
    # first solution, so no waypoint takes a full solve_dk
    case = next(c for c in CORPORA["track"] if c["name"] == "loop_mode_2")
    full = count_calls(monkeypatch, "solve_dk", (cli, modes))
    one = count_calls(monkeypatch, "direct_solution", (modes,))
    assert recapture.run(case, tmp_path)["output"] == case["output"]
    assert full == {}
    assert one == {"agile_eye.modes": case["path"].count("\n") - 1}


@functools.cache
def _library_digests():
    return make_library.digests()


@pytest.mark.parametrize("section", make_library.SECTIONS)
def test_library_outputs_bit_identical(section):
    expected = LIBRARY_CORPUS["sections"][section]
    got = _library_digests()[section]
    moved = [i for i, (a, b) in enumerate(zip(got["chunks"], expected["chunks"])) if a != b]
    size = LIBRARY_CORPUS["chunk"]
    first = moved[0] * size if moved else None
    where = f"first moved chunk {moved[0]} (records {first} to {first + size - 1})" if moved else ""
    made = {k: LIBRARY_CORPUS[k] for k in ("python", "numpy")}
    assert (got["count"], got["sha256"]) == (expected["count"], expected["sha256"]), (
        f"{section}: {where}; corpus made with {made}, running {make_library.versions()}"
    )
