"""CLI output against corpora captured from earlier commits.

`agile classify` (tests/golden/classify.json): one exact self-motion per
family, 1e-8 tolerance-band configurations, a lockup, an infinitesimal
motion at a trivial orientation, condition-pair joints at a trivial
orientation, a regular pose, and one CSV document.

`agile track` (tests/golden/track.json): a constant path, a closed
in-domain loop from each of the four assembly modes, the same loop as
CSV, a determinant sign change, a self-motion entry, and a rejected
start.

Rebuild either corpus from the repository root with

    PYTHONPATH=src python tests/golden/make_classify.py > tests/golden/classify.json
    PYTHONPATH=src python tests/golden/make_track.py > tests/golden/track.json
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from agile_eye.cli import main

GOLDEN = Path(__file__).parent / "golden"
CORPUS = json.loads((GOLDEN / "classify.json").read_text())
TRACK_CORPUS = json.loads((GOLDEN / "track.json").read_text())


@pytest.mark.parametrize("case", CORPUS, ids=[c["name"] for c in CORPUS])
def test_classify_output_byte_identical(case):
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
