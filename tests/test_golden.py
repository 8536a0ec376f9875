"""`agile classify` output against a corpus captured from an earlier
commit (tests/golden/make_classify.py rebuilds it): one exact self-motion
per family, 1e-8 tolerance-band configurations, a lockup, an
infinitesimal motion at a trivial orientation, condition-pair joints at a
trivial orientation, a regular pose, and one CSV document."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from agile_eye.cli import main

CORPUS = json.loads((Path(__file__).parent / "golden" / "classify.json").read_text())


@pytest.mark.parametrize("case", CORPUS, ids=[c["name"] for c in CORPUS])
def test_classify_output_byte_identical(case):
    result = CliRunner().invoke(main, case["args"], catch_exceptions=False)
    assert result.exit_code == case["exit_code"]
    assert result.output == case["output"]
