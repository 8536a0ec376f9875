import json
import math
import struct
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from agile_eye import cli
from agile_eye.cli import main

R_TO1_FLAT = ["0", "-1", "0", "0", "0", "1", "-1", "0", "0"]


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def test_ik_identity(runner):
    result = invoke(runner, ["ik", "--euler", "0", "0", "0"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["schema_version"] == "1"
    assert doc["solution_count"] == 8
    joints = {tuple(round(v, 6) for v in s["joints"]) for s in doc["solutions"]}
    assert (0.0, 0.0, 0.0) in joints


def test_ik_reported_orientation(runner):
    result = invoke(runner, ["ik", "--euler", "0.100", "-0.672", "-0.383"])
    doc = json.loads(result.output)
    assert doc["solution_count"] == 8
    best = min(
        max(abs(s["joints"][k] - t) for k, t in enumerate((-0.3, -0.7, 0.1)))
        for s in doc["solutions"]
    )
    assert best < 1e-3


def test_ik_trivial_matrix_all_arbitrary(runner):
    result = invoke(runner, ["ik", "--matrix", *R_TO1_FLAT])
    doc = json.loads(result.output)
    assert all(leg["arbitrary"] for leg in doc["legs"])
    assert doc["solution_count"] == 0


def test_ik_parse_failures(runner):
    result = runner.invoke(main, ["ik"])
    assert result.exit_code == 2
    result = runner.invoke(
        main, ["ik", "--euler", "0", "0", "0", "--matrix", *R_TO1_FLAT]
    )
    assert result.exit_code == 2
    bad = ["1", "0", "0", "0", "1", "0", "0", "0", "2"]
    result = runner.invoke(main, ["ik", "--matrix", *bad])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "matrix",
    [
        ["1e200", "0", "0", "0", "1e200", "0", "0", "0", "1e200"],
        ["1", "0", "0", "0", "1", "0", "0", "0", "1e300"],
    ],
)
def test_ik_overflowing_matrix_is_clean_usage_error(runner, matrix):
    # finite entries whose products overflow: the usage error alone, with
    # no numpy warning on stderr
    result = runner.invoke(main, ["ik", "--matrix", *matrix])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(
        "\nError: invalid rotation matrix: R^T R deviates from identity by inf\n"
    )
    assert "Warning" not in result.stderr


def test_ik_degrees_flag(runner):
    result = invoke(runner, ["--degrees", "ik", "--euler", "90", "90", "0"])
    doc = json.loads(result.output)
    assert all(leg["arbitrary"] for leg in doc["legs"])


def test_dk_reported_joints(runner):
    result = invoke(runner, ["dk", "--", "-0.3", "-0.7", "0.1"])
    doc = json.loads(result.output)
    assert doc["branch"] == "finite"
    assert len(doc["trivial"]) == 4
    expected = [
        (0.100, -0.672, -0.383),
        (0.100, -0.672, 2.759),
        (0.100, 2.470, 0.383),
        (0.100, 2.470, 3.525),
    ]
    for sol, exp in zip(doc["solutions"], expected):
        for got, want in zip(sol["euler"], exp):
            delta = abs(math.remainder(got - want, 2 * math.pi))
            assert delta < 1e-3
    assert [s["mode_id"] for s in doc["solutions"]] == [1, 2, 3, 4]


def test_dk_reference(runner):
    result = invoke(runner, ["dk", "0", "0", "0"])
    doc = json.loads(result.output)
    eulers = [tuple(round(v, 9) for v in s["euler"]) for s in doc["solutions"]]
    pi = round(math.pi, 9)
    assert eulers == [
        (0.0, 0.0, 0.0),
        (0.0, 0.0, pi),
        (0.0, pi, 0.0),
        (0.0, pi, pi),
    ]


def test_dk_self_motion(runner):
    result = invoke(runner, ["dk", "0.5", "0", "1.5707963267948966"])
    doc = json.loads(result.output)
    assert doc["branch"] == "self_motion"
    assert doc["pair"] == 1
    assert doc["family_labels"] == ["1a", "1b"]


def test_jacobian_command(runner):
    result = invoke(
        runner, ["jacobian", "--joints", "0", "0", "0", "--euler", "0", "0", "0"]
    )
    doc = json.loads(result.output)
    assert doc["det_a"] == pytest.approx(1.0)
    assert doc["det_a_closed_form_nontrivial"] == pytest.approx(1.0)
    np.testing.assert_allclose(doc["a"], np.eye(3), atol=1e-15)


def test_classify_command(runner):
    result = invoke(
        runner, ["classify", "--joints", "0", "0", "0", "--euler", "0", "0", "0"]
    )
    doc = json.loads(result.output)
    assert doc["kind"] == "regular"

    result = invoke(
        runner, ["classify", "--joints", "0", "0", "0", "--matrix", *R_TO1_FLAT]
    )
    doc = json.loads(result.output)
    assert doc["kind"] == "lockup"
    assert doc["trivial_id"] == 1

    result = runner.invoke(
        main,
        ["classify", "--joints", "0.4", "0.4", "0.4", "--euler", "1.0", "0.5", "-1.0"],
    )
    assert result.exit_code == 3


@pytest.mark.parametrize(
    "args",
    [
        ["--joints", "nan", "0", "0", "--euler", "0", "0", "0"],
        ["--joints", "0", "0", "0", "--euler", "nan", "0", "0"],
    ],
    ids=["nan_joint", "nan_euler"],
)
def test_classify_non_finite_exit_code(runner, args):
    result = runner.invoke(main, ["classify", *args])
    assert result.exit_code == 3
    assert "not assembled" in result.output


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", ["--joints", "--euler", "--matrix"])
def test_classify_non_finite_input_is_not_assembled(runner, option, value):
    # README: classify reports any non-finite input as not assembled (exit 3)
    given = {"--joints": ["0", "0", "0"], "--euler": ["0", "0", "0"], "--matrix": R_TO1_FLAT}
    args = ["classify"]
    for name in ("--joints", "--matrix" if option == "--matrix" else "--euler"):
        values = given[name]
        args += [name, value, *values[1:]] if name == option else [name, *values]
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert f"not assembled: {option}: non-finite value {value}" in result.output


def test_classify_self_motion_config(runner):
    result = invoke(
        runner,
        [
            "classify",
            "--joints",
            "0.5",
            "0",
            "1.5707963267948966",
            "--matrix",
            *R_TO1_FLAT,
        ],
    )
    doc = json.loads(result.output)
    assert doc["kind"] == "self_motion"


def test_self_motion_command(runner):
    result = invoke(runner, ["self-motion", "--family", "1a", "--parameter", "0"])
    doc = json.loads(result.output)
    assert doc["family_id"] == 1
    assert doc["variant"] == "folded"
    np.testing.assert_allclose(doc["matrix"], [[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    result = invoke(runner, ["self-motion", "--family", "6"])
    doc = json.loads(result.output)
    assert doc["family_label"] == "3b"
    result = runner.invoke(main, ["self-motion", "--family", "9"])
    assert result.exit_code == 2


@pytest.mark.parametrize("degrees", [135.0, -90.0, 30.0])
def test_self_motion_parameter_echoed_in_degrees(runner, degrees):
    # --degrees converts at the I/O boundary both ways, the echoed parameter too
    args = ["self-motion", "--family", "6", "--parameter"]
    doc = json.loads(invoke(runner, ["--degrees", *args, repr(degrees)]).output)
    assert doc["parameter"] == math.degrees(math.radians(degrees))
    in_radians = json.loads(invoke(runner, [*args, repr(math.radians(degrees))]).output)
    assert in_radians["parameter"] == math.radians(degrees)
    assert doc["matrix"] == in_radians["matrix"]


@pytest.mark.parametrize("family", ["\u00b2", "\u0663", "0", "9", "7z", "1c", ""])
def test_self_motion_unknown_family_is_usage_error(runner, family):
    # "\u00b2" (superscript two) and "\u0663" (Arabic-Indic three) are
    # digits to str.isdigit but not family names
    result = runner.invoke(main, ["self-motion", "--family", family])
    assert result.exit_code == 2
    assert f"Error: unknown self-motion family {family!r}" in result.output


@pytest.mark.parametrize("fid, label", enumerate(["1a", "1b", "2a", "2b", "3a", "3b"], 1))
def test_self_motion_family_spellings_agree(runner, fid, label):
    # ids and labels, in any case and with surrounding spaces, name one curve
    args = ["self-motion", "--parameter", "0.7", "--family"]
    expected = invoke(runner, [*args, label]).output
    assert json.loads(expected)["family_id"] == fid
    for spelling in (str(fid), f" {fid} ", label.upper(), f"\t{label.upper()} "):
        assert invoke(runner, [*args, spelling]).output == expected


def test_track_constant_path(runner, tmp_path):
    from agile_eye import JointTriplet, solve_dk

    path = tmp_path / "path.csv"
    path.write_text(
        "theta1,theta2,theta3\n-0.3,-0.7,0.1\n-0.3,-0.7,0.1\n"
    )
    start = solve_dk(JointTriplet(-0.3, -0.7, 0.1)).solutions[0]
    result = invoke(
        runner,
        ["track", str(path), "--start-euler", *(repr(a) for a in start.as_tuple())],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["mode_constant"] is True
    assert doc["crossing"] is None
    assert len(doc["steps"]) == 2
    assert doc["steps"][0]["mode_id"] == 1


def test_track_csv_output(runner, tmp_path):
    from agile_eye import JointTriplet, solve_dk

    path = tmp_path / "path.csv"
    path.write_text("theta1,theta2,theta3\n0.2,0.1,-0.1\n0.3,0.1,-0.1\n")
    start = solve_dk(JointTriplet(0.2, 0.1, -0.1)).solutions[0]
    result = invoke(
        runner,
        [
            "--format",
            "csv",
            "track",
            str(path),
            "--start-euler",
            *(repr(a) for a in start.as_tuple()),
        ],
    )
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "step,phi,theta,psi,mode_id,signature"
    assert len(lines) == 3
    assert "mode constant: true" in result.stderr


def test_track_crossing_exit_code(runner, tmp_path):
    path = tmp_path / "path.csv"
    path.write_text("theta1,theta2,theta3\n0,0,0\n3.14159,0,0\n")
    result = runner.invoke(
        main, ["track", str(path), "--start-euler", "0", "0", "0"]
    )
    assert result.exit_code == 5


def test_track_bad_start_exit_code(runner, tmp_path):
    path = tmp_path / "path.csv"
    path.write_text("theta1,theta2,theta3\n0,0,0\n0.1,0,0\n")
    result = runner.invoke(
        main, ["track", str(path), "--start-euler", "1.2", "0.4", "0.9"]
    )
    assert result.exit_code == 4


def test_track_bad_header_exit_code(runner, tmp_path):
    path = tmp_path / "path.csv"
    path.write_text("a,b,c\n0,0,0\n")
    result = runner.invoke(
        main, ["track", str(path), "--start-euler", "0", "0", "0"]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("row", ["nan,-0.2,0.5", "0.3,inf,0.5", "0.3,-0.2,-inf"])
def test_track_non_finite_row_exit_code(runner, tmp_path, row):
    path = tmp_path / "path.csv"
    path.write_text(f"theta1,theta2,theta3\n0.3,-0.2,0.5\n{row}\n")
    result = runner.invoke(
        main, ["track", str(path), "--start-euler", "0", "0", "0"]
    )
    assert result.exit_code == 2
    assert f"{path}:3: non-finite joint angle" in result.output


OVERSIZED = "field larger than field limit (131072)"


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("", "", "empty path file"),
        ("theta1,theta2,theta3\n", "", "no waypoints"),
        ("theta1,theta2,theta3\n\n , ,\n", "", "no waypoints"),
        ("theta1,theta2,theta3\n0,0\n", ":2", "expected 3 columns"),
        ("theta1,theta2,theta3\n0,0,0\n0,0,0,0\n", ":3", "expected 3 columns"),
        ("theta1,theta2,theta3\n0,0,0\n\n0,abc,0\n", ":4", "could not convert"),
        (f"theta1,theta2,theta3\n0,0,0\n0,{'0' * 131073},0\n", ":3", OVERSIZED),
        (f"theta1,theta2,{'t' * 131073}\n0,0,0\n", ":1", OVERSIZED),
        ('theta1,theta2,theta3\n"0\n",0,0\n0,abc,0\n', ":4", "could not convert"),
        ('theta1,theta2,theta3\n0,0,0\n"0\n",0\n', ":3", "expected 3 columns"),
    ],
    ids=[
        "empty", "header_only", "blank_rows_only", "two_columns", "four_columns", "text_cell",
        "oversized_row_field", "oversized_header_field", "after_multiline_field",
        "multiline_field",
    ],
)
def test_track_bad_path_file_is_usage_error(runner, tmp_path, text, where, message):
    # a row's line number is the physical line it starts on: it counts the
    # header, any skipped blank rows and the lines of a quoted field
    path = tmp_path / "path.csv"
    path.write_text(text)
    result = runner.invoke(main, ["track", str(path), "--start-euler", "0", "0", "0"])
    assert result.exit_code == 2
    assert f"Error: {path}{where}: {message}" in result.output


@pytest.mark.parametrize(
    "data",
    [b"theta1,theta2,theta3\n0.3,-0.2,\xff\n", b"theta1,the\xffta2,theta3\n0.3,-0.2,0.5\n"],
    ids=["row", "header"],
)
def test_track_path_file_not_utf8_is_usage_error(runner, tmp_path, data):
    path = tmp_path / "path.csv"
    path.write_bytes(data)
    result = runner.invoke(main, ["track", str(path), "--start-euler", "0", "0", "0"])
    assert result.exit_code == 2
    assert f"Error: {path}: 'utf-8' codec can't decode byte 0xff" in result.output


def test_track_skips_blank_path_rows(runner, tmp_path):
    from agile_eye import JointTriplet, solve_dk

    path = tmp_path / "path.csv"
    start = solve_dk(JointTriplet(-0.3, -0.7, 0.1)).solutions[0]
    # a UTF-8 byte order mark, as spreadsheet "CSV UTF-8" exports write, is not header text
    for bom in ("", "\ufeff"):
        text = "theta1,theta2,theta3\n\n-0.3,-0.7,0.1\n , ,\n-0.3,-0.7,0.1\n\n"
        path.write_text(bom + text, encoding="utf-8")
        result = invoke(
            runner,
            ["track", str(path), "--start-euler", *(repr(a) for a in start.as_tuple())],
        )
        assert result.exit_code == 0
        assert [s["step"] for s in json.loads(result.output)["steps"]] == [0, 1]


def test_track_degrees_path_rows_match_radians(runner, tmp_path):
    # path rows are converted to radians before JointTriplet wraps them
    from agile_eye import JointTriplet, solve_dk

    rows = [(10.0, 20.0, 30.0), (11.0, 21.0, 31.0)]
    start = solve_dk(JointTriplet(*map(math.radians, rows[0]))).solutions[0]

    def track(flags, rows, start):
        path = tmp_path / "path.csv"
        lines = [",".join(map(repr, row)) for row in rows]
        path.write_text("\n".join(["theta1,theta2,theta3", *lines]) + "\n")
        args = [*flags, "track", str(path), "--start-euler", *map(repr, start)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        return json.loads(result.output)["steps"]

    in_radians = track([], [tuple(map(math.radians, row)) for row in rows], start.as_tuple())
    in_degrees = track(["--degrees"], rows, map(math.degrees, start.as_tuple()))
    assert len(in_degrees) == len(in_radians) == 2
    for deg, rad in zip(in_degrees, in_radians):
        assert (deg["mode_id"], deg["signature"]) == (rad["mode_id"], rad["signature"])
        for key in ("joints", "euler"):
            expected = [math.degrees(a) for a in rad[key]]
            np.testing.assert_allclose(deg[key], expected, rtol=0, atol=1e-12)


def test_sweep_summary_and_records(runner, tmp_path):
    records = tmp_path / "records.csv"
    result = invoke(
        runner, ["sweep", "--grid-n", "8", "--records-out", str(records)]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["grid_n"] == 8
    assert doc["components_positive"] >= 1
    assert doc["components_negative"] >= 1
    lines = records.read_text().splitlines()
    assert lines[0] == "theta1,theta2,theta3,det_a,degeneracy,component_id"
    assert len(lines) == 8**3 + 1

    # byte determinism
    records2 = tmp_path / "records2.csv"
    result2 = invoke(
        runner, ["sweep", "--grid-n", "8", "--records-out", str(records2)]
    )
    assert result2.output == result.output
    assert records.read_bytes() == records2.read_bytes()


def test_sweep_records_out_with_no_records_is_usage_error(runner, tmp_path):
    records = tmp_path / "records.csv"
    result = runner.invoke(
        main, ["sweep", "--grid-n", "8", "--records-out", str(records), "--no-records"]
    )
    assert result.exit_code == 2
    assert "mutually exclusive" in result.output
    assert not records.exists()


def test_sweep_records_out_in_missing_directory_is_usage_error(runner, tmp_path, monkeypatch):
    # the file is opened before the sweep runs
    records = tmp_path / "missing" / "records.csv"
    sweeps = []
    monkeypatch.setattr(cli, "run_sweep", lambda *args: sweeps.append(args))
    result = runner.invoke(main, ["sweep", "--grid-n", "8", "--records-out", str(records)])
    assert result.exit_code == 2
    assert f"Error: --records-out: [Errno 2] No such file or directory: '{records}'" in result.output
    assert sweeps == []


def test_sweep_grid_too_small(runner):
    result = runner.invoke(main, ["sweep", "--grid-n", "4"])
    assert result.exit_code == 2


def test_config_file_and_flag_override(runner, tmp_path):
    cfg = tmp_path / "agile.cfg"
    cfg.write_text("grid_n = 8\nresidual_tol = 1e-5  # loose\n")
    env = {"AGILE_CONFIG": str(cfg)}
    result = invoke(runner, ["sweep", "--no-records"], env=env)
    doc = json.loads(result.output)
    assert doc["grid_n"] == 8
    # flag overrides file
    result = invoke(runner, ["sweep", "--no-records", "--grid-n", "10"], env=env)
    doc = json.loads(result.output)
    assert doc["grid_n"] == 10
    # malformed file is a usage error
    cfg.write_text("nonsense = 1\n")
    result = runner.invoke(main, ["sweep", "--no-records"], env=env)
    assert result.exit_code == 2


def test_tolerance_flag_threads_through(runner):
    # a configuration that misses assembly at the default tolerance but
    # passes once the residual tolerance is loosened
    args = ["classify", "--joints", "0.001", "0", "0", "--euler", "0", "0", "0"]
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    result = invoke(runner, ["--tol-residual", "0.01", *args])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["kind"] == "regular"


def test_json_floats_roundtrip(runner):
    result = invoke(runner, ["dk", "--", "-0.3", "-0.7", "0.1"])
    doc = json.loads(result.output)
    from agile_eye import JointTriplet, solve_dk

    sols = solve_dk(JointTriplet(-0.3, -0.7, 0.1)).solutions
    for got, exact in zip(doc["solutions"], sols):
        assert tuple(got["euler"]) == exact.as_tuple()


# every string the CLI prints is a fixed label, so no control characters
_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs")))
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**64), 2**64)
    | st.floats(allow_nan=False, allow_infinity=False) | _TEXT,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(_TEXT, kids),
)


def _exact(value):
    """`value` with dicts as ("dict", item list), sequences as lists and
    numbers as their double's bytes, so that == is bitwise and ordered."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float)):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return ("dict", [(k, _exact(v)) for k, v in value.items()])
    return [_exact(v) for v in value]


@given(_VALUES)
def test_json_writer_round_trips(value):
    # .17g prints integral floats as integers (-0.0 as "-0"), so parse every
    # number as a float; the key order is kept, -0.0 included
    parsed = json.loads(cli._json(value), parse_int=float)
    assert _exact(parsed) == _exact(value)


@pytest.mark.parametrize("value", [np.int64(1), np.zeros(2), {"a": [np.int64(1)]}])
def test_json_writer_takes_no_numpy_value(value):
    with pytest.raises(TypeError):
        cli._json(value)


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "agile_eye", "ik", "--euler", "0", "0", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["solution_count"] == 8


def test_cli_module_runs_as_script():
    # python -m agile_eye.cli runs the same command group
    proc = subprocess.run(
        [sys.executable, "-m", "agile_eye.cli", "sweep", "--grid-n", "8", "--no-records"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema_version"] == "1"


def test_csv_format_dk(runner):
    result = invoke(runner, ["--format", "csv", "dk", "--", "-0.3", "-0.7", "0.1"])
    lines = result.output.strip().splitlines()
    assert lines[0] == "mode_id,phi,theta,psi,signature"
    assert len(lines) == 5


@pytest.mark.parametrize(
    "args,named",
    [
        (["dk", "nan", "0", "0"], "JOINTS: non-finite value nan"),
        (["dk", "--", "0", "-inf", "0"], "JOINTS: non-finite value -inf"),
        (["ik", "--euler", "inf", "0", "0"], "--euler: non-finite value inf"),
        (
            ["ik", "--matrix", "1", "0", "0", "0", "1", "0", "0", "0", "nan"],
            "--matrix: non-finite value nan",
        ),
        (
            ["jacobian", "--joints", "nan", "0", "0", "--euler", "0", "0", "0"],
            "--joints: non-finite value nan",
        ),
        (
            ["jacobian", "--joints", "0", "0", "0", "--euler", "inf", "0", "0"],
            "--euler: non-finite value inf",
        ),
        (
            ["jacobian", "--joints", "0", "0", "0", "--matrix", "1", "0", "0", "0",
             "1", "0", "0", "0", "-inf"],
            "--matrix: non-finite value -inf",
        ),
        (
            ["self-motion", "--family", "1", "--parameter", "nan"],
            "--parameter: non-finite value nan",
        ),
        (
            ["--degrees", "self-motion", "--family", "2a", "--parameter", "inf"],
            "--parameter: non-finite value inf",
        ),
    ],
)
def test_non_finite_query_is_usage_error(runner, args, named):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert named in result.output


@pytest.mark.parametrize(
    "start,named",
    [
        (["--start-euler", "nan", "0", "0"], "--start-euler: non-finite value nan"),
        (
            ["--start-matrix", "1", "0", "0", "0", "inf", "0", "0", "0", "1"],
            "--start-matrix: non-finite value inf",
        ),
    ],
)
def test_track_non_finite_start_is_usage_error(runner, tmp_path, start, named):
    path = tmp_path / "path.csv"
    path.write_text("theta1,theta2,theta3\n0.3,-0.2,0.5\n0.4,-0.2,0.5\n")
    result = runner.invoke(main, ["track", str(path), *start])
    assert result.exit_code == 2
    assert named in result.output


@pytest.mark.parametrize("flag", ["--tol-singular", "--tol-residual"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_flag_is_usage_error(runner, flag, value):
    args = [flag, value, "sweep", "--grid-n", "8", "--no-records"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "must be positive and finite" in result.output


@pytest.mark.parametrize("key", ["singular_tol", "residual_tol"])
def test_non_finite_tolerance_in_config_file_is_usage_error(runner, tmp_path, key):
    cfg = tmp_path / "agile.cfg"
    cfg.write_text(f"{key} = nan\n")
    result = runner.invoke(
        main, ["sweep", "--grid-n", "8", "--no-records"], env={"AGILE_CONFIG": str(cfg)}
    )
    assert result.exit_code == 2
    assert f"bad config file: {key} must be positive and finite" in result.output


def test_config_file_skips_comments_and_blank_lines(runner, tmp_path):
    cfg = tmp_path / "agile.cfg"
    cfg.write_text("# tolerances\n\n   \n  # grid_n = 4\ngrid_n = 8\n")
    result = invoke(runner, ["sweep", "--no-records"], env={"AGILE_CONFIG": str(cfg)})
    assert json.loads(result.output)["grid_n"] == 8


def test_config_file_output_format_csv(runner, tmp_path):
    cfg = tmp_path / "agile.cfg"
    cfg.write_text("output_format = csv\n")
    result = invoke(runner, ["dk", "--", "-0.3", "-0.7", "0.1"], env={"AGILE_CONFIG": str(cfg)})
    lines = result.output.splitlines()
    assert lines[0] == "mode_id,phi,theta,psi,signature"
    assert len(lines) == 5


@pytest.mark.parametrize(
    "text, message",
    [
        ("grid_n = 8\ngrid_n 16\n", "config line 2: expected 'key = value'"),
        ("grid_n = 4\n", "grid_n must be at least 8"),
        ("output_format = xml\n", "output_format must be 'json' or 'csv'"),
        ("grid_n = 8.5\n", "config line 1: invalid literal for int() with base 10: '8.5'"),
        ("grid_n = 16\nsingular_tol = abc\n", "config line 2: could not convert string to float: 'abc'"),
    ],
    ids=["no_equals", "grid_n", "output_format", "int_value", "float_value"],
)
def test_bad_config_file_line_is_usage_error(runner, tmp_path, text, message):
    cfg = tmp_path / "agile.cfg"
    cfg.write_text(text)
    result = runner.invoke(main, ["sweep", "--no-records"], env={"AGILE_CONFIG": str(cfg)})
    assert result.exit_code == 2
    assert f"bad config file: {message}" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["ik", "--euler", "0", "0", "0"],
        ["dk", "--", "0.5", "1e-6", "1.5707953"],
        ["jacobian", "--joints", "0", "0", "0", "--euler", "0", "0", "0"],
        ["classify", "--joints", "0.5", "1e-6", "1.5707953", "--euler", "0", "0", "0"],
        ["self-motion", "--family", "1a"],
        ["track", "PATH", "--start-euler", "0", "0", "0"],
        ["sweep", "--grid-n", "8", "--no-records"],
    ],
    ids=lambda args: args[0],
)
def test_structure_tol_config_key_is_usage_error(runner, tmp_path, args):
    # structural identities use the constant mechanism.STRUCTURE_TOL; a
    # config file that tries to set it is rejected by every command, so
    # `dk` and `classify` cannot disagree on a joint triplet's degeneracy
    path = tmp_path / "path.csv"
    path.write_text("theta1,theta2,theta3\n0,0,0\n")
    cfg = tmp_path / "agile.cfg"
    cfg.write_text("structure_tol = 1e-4\n")
    args = [str(path) if a == "PATH" else a for a in args]
    result = runner.invoke(main, args, env={"AGILE_CONFIG": str(cfg)})
    assert result.exit_code == 2
    assert "bad config file: config line 1: unknown key 'structure_tol'" in result.output


@pytest.mark.parametrize(
    "start", [[], ["--start-euler", "0", "0", "0", "--start-matrix", *R_TO1_FLAT]]
)
def test_track_start_usage_names_track_options(runner, tmp_path, start):
    path = tmp_path / "path.csv"
    path.write_text("theta1,theta2,theta3\n0,0,0\n")
    result = runner.invoke(main, ["track", str(path), *start])
    assert result.exit_code == 2
    assert "provide exactly one of --start-euler or --start-matrix" in result.output


def test_signatures_match_numeric_diag_b(runner, rng, tmp_path):
    # the sign-table signatures of `dk`, `ik` and `track` against the
    # numeric signs of diag(B) at each reported configuration
    from agile_eye import (
        JointTriplet,
        euler_to_rotation,
        solve_dk,
        working_mode_signature,
    )

    for _ in range(40):
        j = JointTriplet(*rng.uniform(-math.pi, math.pi, 3))
        args = ["dk", "--", *(repr(t) for t in j.as_tuple())]
        for sol in json.loads(invoke(runner, args).output)["solutions"]:
            r = euler_to_rotation(sol["euler"])
            assert sol["signature"] == working_mode_signature(j, r).label
        r = euler_to_rotation(rng.uniform(-1.5, 1.5, 3))
        args = ["ik", "--matrix", *(repr(x) for x in r.ravel().tolist())]
        for sol in json.loads(invoke(runner, args).output)["solutions"]:
            jk = JointTriplet(*sol["joints"])
            assert sol["signature"] == working_mode_signature(jk, r).label
    path = tmp_path / "path.csv"
    path.write_text("theta1,theta2,theta3\n0.2,0.1,-0.1\n0.3,0.1,-0.1\n")
    waypoints = [JointTriplet(0.2, 0.1, -0.1), JointTriplet(0.3, 0.1, -0.1)]
    for mode, start in enumerate(solve_dk(waypoints[0]).solutions, 1):
        args = ["track", str(path), "--start-euler", *(repr(a) for a in start.as_tuple())]
        steps = json.loads(invoke(runner, args).output)["steps"]
        assert len(steps) == 2
        for step, jk in zip(steps, waypoints):
            assert step["mode_id"] == mode
            r = euler_to_rotation(step["euler"])
            assert step["signature"] == working_mode_signature(jk, r).label
