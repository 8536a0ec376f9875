"""Replay a CLI golden case, and recapture every CLI corpus's outputs.

A case is its inputs: a `name`, the CLI `args` and, for `agile track`, the
path file's text (`path`).  In `args`, PATH stands for that path file and
RECORDS for a records file in the same directory.  `run` invokes the CLI on
a case and returns the output fields the case keeps: `exit_code` and the
exact `output`, or, for `agile sweep`, `exit_code` and the `stdout`,
`stderr` and `records` streams (records None when no file was written),
each verbatim up to 64 KiB and as its sha256 and length beyond.
tests/test_golden.py replays every case through `run`.

Run from the repository root, against the commit whose output is the
reference, to rewrite the outputs of every case from its stored inputs:

    PYTHONPATH=src python tests/golden/recapture.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

from click.testing import CliRunner

from agile_eye.cli import main

GOLDEN = Path(__file__).parent
CORPORA = ("classify", "kinematics", "track", "sweep")
# Streams longer than this are stored as a digest.
VERBATIM_LIMIT = 64 * 1024


def _stored(data: bytes):
    """Verbatim text, or a digest for long streams."""
    if len(data) <= VERBATIM_LIMIT:
        return data.decode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run(case: dict, directory) -> dict:
    """The output fields of one case, its files written in `directory`."""
    path, records = Path(directory) / "path.csv", Path(directory) / "records.csv"
    if "path" in case:
        path.write_text(case["path"])
    records.unlink(missing_ok=True)
    files = {"PATH": str(path), "RECORDS": str(records)}
    argv = [files.get(a, a) for a in case["args"]]
    res = CliRunner().invoke(main, argv, catch_exceptions=False)
    if "sweep" not in case["args"]:
        return {"exit_code": res.exit_code, "output": res.output}
    return {
        "exit_code": res.exit_code,
        "stdout": _stored(res.stdout_bytes),
        "stderr": _stored(res.stderr_bytes),
        "records": _stored(records.read_bytes()) if records.exists() else None,
    }


def load(corpus: str) -> list:
    return json.loads((GOLDEN / f"{corpus}.json").read_text())


def recapture() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for corpus in CORPORA:
            cases = load(corpus)
            for case in cases:
                case.update(run(case, tmp))
            (GOLDEN / f"{corpus}.json").write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    recapture()
