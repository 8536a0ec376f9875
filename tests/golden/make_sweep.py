"""Capture `agile sweep` output for the golden corpus.

Run from the repository root against the commit whose output is the
reference:

    PYTHONPATH=src python tests/golden/make_sweep.py > tests/golden/sweep.json

Each case stores the CLI arguments (RECORDS stands for the records file),
the exit code, and stdout, stderr and the records file.  Each stream is
kept verbatim when small, otherwise as {"sha256", "bytes"} of its UTF-8
bytes; tests/test_golden.py replays the arguments and compares byte for
byte.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from agile_eye.cli import main

RECORDS = "RECORDS"
# Streams longer than this are stored as a digest.
VERBATIM_LIMIT = 64 * 1024


def cases():
    return {
        # n = 8 lands on 0, ±pi/2 and pi: walls, self-motion and
        # trivial-only tags, all stored verbatim
        "n8_records_file": ["sweep", "--grid-n", "8", "--records-out", RECORDS],
        "n8_records_stdout_csv": ["--format", "csv", "sweep", "--grid-n", "8"],
        "n24_wide_walls": [
            "--tol-singular", "0.2", "sweep", "--grid-n", "24", "--records-out", RECORDS,
        ],
        "n40_records_file": ["sweep", "--grid-n", "40", "--records-out", RECORDS],
        "n64_csv_records_file": [
            "--format", "csv", "--tol-singular", "1.3e-7",
            "sweep", "--grid-n", "64", "--records-out", RECORDS,
        ],
        "n128_no_records": ["sweep", "--grid-n", "128", "--no-records"],
    }


def stored(data: bytes):
    """Verbatim text, or a digest for long streams."""
    if len(data) <= VERBATIM_LIMIT:
        return data.decode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run_case(runner, args, directory):
    """(result, records bytes or None) of one case."""
    records = Path(directory) / "records.csv"
    records.unlink(missing_ok=True)
    argv = [str(records) if a == RECORDS else a for a in args]
    res = runner.invoke(main, argv, catch_exceptions=False)
    return res, (records.read_bytes() if records.exists() else None)


def capture():
    runner = CliRunner()
    doc = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in cases().items():
            res, records = run_case(runner, args, tmp)
            doc.append(
                {
                    "name": name,
                    "args": args,
                    "exit_code": res.exit_code,
                    "stdout": stored(res.stdout_bytes),
                    "stderr": stored(res.stderr_bytes),
                    "records": None if records is None else stored(records),
                }
            )
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    capture()
