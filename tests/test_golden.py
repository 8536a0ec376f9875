"""CLI output against corpora captured from earlier commits.

`agile classify` (tests/golden/classify.json): one exact self-motion per
family, 1e-8 tolerance-band configurations, a lockup, an infinitesimal
motion at a trivial orientation, condition-pair joints at a trivial
orientation, a regular pose, and CSV documents for a self-motion and a
lockup.

`agile track` (tests/golden/track.json): a constant path, a closed
in-domain loop from each of the four assembly modes, the same loop as
CSV, a determinant sign change, a self-motion entry, and a rejected
start; the sign change and the rejected start also as CSV.

`agile dk`, `ik`, `jacobian` and `self-motion`
(tests/golden/kinematics.json): generic joints, each condition pair,
trivial-only joints, an orientation with an arbitrary leg with and
without --fill-arbitrary, the home and a trivial Jacobian (whose `a`
prints signed zeros), self-motion curves by id and by label, with
--degrees and as CSV.  CSV cases cover generic `dk` and `ik`, their
--degrees forms, degenerate `dk` joints and an unfilled arbitrary leg
(header only), and a filled one (empty signature cells).

`agile sweep` (tests/golden/sweep.json): records at n = 8 to a file and
to stdout (summary on stderr), a tolerance wide enough for thick walls
(component id -1), n = 40 and a CSV n = 64 run whose records are kept as
sha256 and length, an n = 128 summary without records, the same as CSV
at n = 16, and n = 7 (usage error).

The library (tests/golden/library.json): sha256 digests of solve_dk,
solve_ik, assembly_mode_id, classify_configuration and track_path on a
lattice of joints, random joints and their direct solutions, exact and
perturbed (tests/golden/make_library.py); a section that moved is named
with its first moved chunk.

Rebuild a corpus from the repository root with

    PYTHONPATH=src python tests/golden/make_classify.py > tests/golden/classify.json
    PYTHONPATH=src python tests/golden/make_track.py > tests/golden/track.json
    PYTHONPATH=src python tests/golden/make_sweep.py > tests/golden/sweep.json
    PYTHONPATH=src python tests/golden/make_kinematics.py > tests/golden/kinematics.json
    PYTHONPATH=src python tests/golden/make_library.py > tests/golden/library.json
"""

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from agile_eye import cli, modes
from agile_eye.cli import main
from conftest import count_calls

GOLDEN = Path(__file__).parent / "golden"
CORPUS = json.loads((GOLDEN / "classify.json").read_text())
TRACK_CORPUS = json.loads((GOLDEN / "track.json").read_text())
SWEEP_CORPUS = json.loads((GOLDEN / "sweep.json").read_text())
KINEMATICS_CORPUS = json.loads((GOLDEN / "kinematics.json").read_text())
LIBRARY_CORPUS = json.loads((GOLDEN / "library.json").read_text())
sys.path.insert(0, str(GOLDEN))
import make_library  # noqa: E402


@pytest.mark.parametrize("case", CORPUS, ids=[c["name"] for c in CORPUS])
def test_classify_output_byte_identical(case):
    result = CliRunner().invoke(main, case["args"], catch_exceptions=False)
    assert result.exit_code == case["exit_code"]
    assert result.output == case["output"]


@pytest.mark.parametrize(
    "case", KINEMATICS_CORPUS, ids=[c["name"] for c in KINEMATICS_CORPUS]
)
def test_kinematics_output_byte_identical(case):
    result = CliRunner().invoke(main, case["args"], catch_exceptions=False)
    assert result.exit_code == case["exit_code"]
    assert result.output == case["output"]


@pytest.mark.parametrize("case", TRACK_CORPUS, ids=[c["name"] for c in TRACK_CORPUS])
def test_track_output_byte_identical(case, tmp_path):
    path_file = tmp_path / "path.csv"
    path_file.write_text(case["path"])
    args = [str(path_file) if a == "PATH" else a for a in case["args"]]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == case["exit_code"]
    assert result.output == case["output"]


def test_track_solves_the_first_waypoint_once(tmp_path, monkeypatch):
    # the signature printed on each step comes from the tracker's one
    # direct solve per waypoint; the start is matched from the cascade's
    # first solution, so no waypoint takes a full solve_dk
    case = next(c for c in TRACK_CORPUS if c["name"] == "loop_mode_2")
    path_file = tmp_path / "path.csv"
    path_file.write_text(case["path"])
    args = [str(path_file) if a == "PATH" else a for a in case["args"]]
    full = count_calls(monkeypatch, "solve_dk", (cli, modes))
    one = count_calls(monkeypatch, "direct_solution", (modes,))
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.output == case["output"]
    assert full == {}
    assert one == {"agile_eye.modes": case["path"].count("\n") - 1}


def _assert_stream(data: bytes, expected):
    if isinstance(expected, str):
        assert data.decode() == expected
    else:
        assert len(data) == expected["bytes"]
        assert hashlib.sha256(data).hexdigest() == expected["sha256"]


@pytest.mark.parametrize("case", SWEEP_CORPUS, ids=[c["name"] for c in SWEEP_CORPUS])
def test_sweep_output_byte_identical(case, tmp_path):
    records = tmp_path / "records.csv"
    args = [str(records) if a == "RECORDS" else a for a in case["args"]]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == case["exit_code"]
    _assert_stream(result.stdout_bytes, case["stdout"])
    _assert_stream(result.stderr_bytes, case["stderr"])
    if case["records"] is None:
        assert not records.exists()
    else:
        _assert_stream(records.read_bytes(), case["records"])


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
