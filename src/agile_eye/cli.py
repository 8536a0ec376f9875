"""Command-line front end: single-query solvers, sweeps, and tracking.

All angles are radians unless --degrees is given, which converts at the
I/O boundary only.  JSON output carries a schema_version field and floats
printed with 17 significant digits, so identical inputs produce
byte-identical documents.

Exit codes: 2 parse/usage errors, 3 not-assembled, 4 start-not-a-solution,
5 singularity crossing during tracking.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import sys
from dataclasses import replace
from operator import itemgetter

import click
import numpy as np

from .config import load_config
from .dk import (
    FAMILY_LABELS,
    FAMILY_SINGULAR_LEG,
    classify_joint_degeneracy,
    self_motion_family,
    solve_dk,
)
from .exceptions import (
    MalformedRotation,
    NotAssembled,
    StartNotASolution,
    UnknownFamily,
)
from .ik import solve_ik
from .mechanism import JointTriplet, constraint_residuals
from .modes import direct_signature, track_path
from .singularity import (
    classify_configuration,
    det3,
    det_a_closed_form,
    jacobians,
)
from .so3 import euler_to_rotation, validate_rotation
# bench/tracing.py patches cli.run_sweep and cli.iter_records, so both
# names stay here; the CLI itself writes records a slab at a time
# (_record_slabs).
from .sweep import DEGENERACY_TAGS, iter_records, run_sweep  # noqa: F401

EXIT_NOT_ASSEMBLED = 3
EXIT_START_NOT_A_SOLUTION = 4
EXIT_SINGULARITY_CROSSING = 5

SCHEMA_VERSION = "1"


def _fmt(x: float) -> str:
    """Float with 17 significant digits (lossless double round-trip)."""
    return format(float(x), ".17g")


def _json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, .17g floats."""
    out = io.StringIO()
    _write_json(obj, out)
    return out.getvalue()


def _write_json(obj, out) -> None:
    if obj is None:
        out.write("null")
    elif obj is True:
        out.write("true")
    elif obj is False:
        out.write("false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(_fmt(obj))
    elif isinstance(obj, str):
        out.write('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        out.write("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.write(", ")
            out.write(f'"{k}": ')
            _write_json(v, out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, v in enumerate(obj):
            if i:
                out.write(", ")
            _write_json(v, out)
        out.write("]")
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), out)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _cell(x) -> str:
    """One CSV cell: floats through _fmt, None empty, anything else str."""
    if isinstance(x, (float, np.floating)):
        return _fmt(x)
    return "" if x is None else str(x)


def _emit(cfg, doc, header: str, rows, err: bool = False) -> None:
    """Print `doc` as JSON or, in CSV mode, `header` and one line per row."""
    if cfg.output_format == "csv":
        text = "\n".join([header, *(",".join(map(_cell, row)) for row in rows)])
    else:
        text = _json(doc)
    click.echo(text, err=err)


def _angles_out(values, degrees: bool):
    conv = math.degrees if degrees else float
    return [conv(v) for v in values]


class NonFiniteInput(click.UsageError):
    """A NaN or infinite number on the command line (or in a path file)."""


def _require_finite(name: str, values) -> None:
    """NonFiniteInput naming the first non-finite value given for `name`."""
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteInput(f"{name}: non-finite value {v!r}")


def _angles_in(name: str, values, degrees: bool):
    """The finite angles given for `name`, in radians, ready to wrap."""
    _require_finite(name, values)
    conv = math.radians if degrees else float
    return tuple(conv(v) for v in values)


def _matrix_rows(r: np.ndarray):
    return [[float(x) for x in row] for row in r]


def _parse_orientation(euler, matrix, degrees: bool, prefix: str = "") -> np.ndarray:
    """Rotation from the --{prefix}euler or --{prefix}matrix values."""
    if (euler is None or len(euler) == 0) == (matrix is None or len(matrix) == 0):
        raise click.UsageError(f"provide exactly one of --{prefix}euler or --{prefix}matrix")
    if euler:
        return euler_to_rotation(_angles_in(f"--{prefix}euler", euler, degrees))
    _require_finite(f"--{prefix}matrix", matrix)
    try:
        return validate_rotation(np.array(matrix, dtype=float).reshape(3, 3))
    except MalformedRotation as exc:
        raise click.UsageError(f"invalid rotation matrix: {exc}") from exc


@click.group()
@click.option("--tol-residual", type=float, default=None, help="Assembly residual tolerance.")
@click.option("--tol-singular", type=float, default=None, help="Singularity detection tolerance.")
@click.option(
    "--format",
    "output_format",
    type=click.Choice(["json", "csv"]),
    default=None,
    help="Output format (default json).",
)
@click.option("--degrees", is_flag=True, help="Angles in degrees at the I/O boundary.")
@click.pass_context
def main(ctx, tol_residual, tol_singular, output_format, degrees):
    """Kinematics toolkit for the orthogonal 3-RRR spherical wrist.

    Reads defaults from the file named by $AGILE_CONFIG (key = value
    lines mirroring the tolerance settings); command-line flags override.
    """
    try:
        cfg = load_config()
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"bad config file: {exc}") from exc
    overrides = {}
    if tol_residual is not None:
        overrides["residual_tol"] = tol_residual
    if tol_singular is not None:
        overrides["singular_tol"] = tol_singular
    if output_format is not None:
        overrides["output_format"] = output_format
    if overrides:
        try:
            cfg = replace(cfg, **overrides).validate()
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
    ctx.obj = {"cfg": cfg, "degrees": degrees}


@main.command()
@click.option("--euler", nargs=3, type=float, help="Orientation as phi theta psi.")
@click.option("--matrix", nargs=9, type=float, help="Orientation as 9 row-major entries.")
@click.option("--fill-arbitrary", is_flag=True, help="Fill arbitrary legs with angle 0.")
@click.pass_context
def ik(ctx, euler, matrix, fill_arbitrary):
    """Inverse kinematics: up to 8 joint solutions for an orientation."""
    cfg, degrees = ctx.obj["cfg"], ctx.obj["degrees"]
    r = _parse_orientation(euler, matrix, degrees)
    result = solve_ik(r, fill_arbitrary=fill_arbitrary)
    # B_ii = +hypot(num_i, den_i) at the atan2 root, - at its antipode (0 if filled)
    signs = itertools.product("+-", repeat=3)
    labels = itertools.repeat(None) if result.any_arbitrary else map("".join, signs)
    solutions = [
        {"joints": _angles_out(j.as_tuple(), degrees), "signature": label}
        for j, label in zip(result.enumerated, labels)
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "ik",
        "orientation": _matrix_rows(r),
        "legs": [
            {
                "leg": i + 1,
                "arbitrary": leg.arbitrary,
                "angles": None
                if leg.arbitrary
                else _angles_out(leg.angles, degrees),
            }
            for i, leg in enumerate(result.legs)
        ],
        "solution_count": len(solutions),
        "solutions": solutions,
    }
    rows = ([*s["joints"], s["signature"]] for s in solutions)
    _emit(cfg, doc, "theta1,theta2,theta3,signature", rows)


@main.command()
@click.argument("joints", nargs=3, type=float)
@click.pass_context
def dk(ctx, joints):
    """Direct kinematics for one joint triplet (radians; use -- before
    negative values)."""
    cfg, degrees = ctx.obj["cfg"], ctx.obj["degrees"]
    j = JointTriplet(*_angles_in("JOINTS", joints, degrees))
    result = solve_dk(j)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "dk",
        "joints": _angles_out(j.as_tuple(), degrees),
        "branch": result.branch,
        "trivial": [_matrix_rows(m) for m in result.trivial],
    }
    if result.is_finite:
        doc["solutions"] = []
        for mode_id, sol in enumerate(result.solutions, 1):
            doc["solutions"].append(
                {
                    "mode_id": mode_id,
                    "euler": _angles_out(sol.as_tuple(), degrees),
                    "signature": direct_signature(j, mode_id).label,
                }
            )
    elif result.branch == "self_motion":
        doc["pair"] = result.pair
        doc["families"] = list(result.families)
        doc["family_labels"] = [FAMILY_LABELS[f - 1] for f in result.families]
        doc["constrained"] = result.constrained
    rows = ([s["mode_id"], *s["euler"], s["signature"]] for s in doc.get("solutions", []))
    _emit(cfg, doc, "mode_id,phi,theta,psi,signature", rows)


@main.command()
@click.option("--joints", nargs=3, type=float, required=True)
@click.option("--euler", nargs=3, type=float)
@click.option("--matrix", nargs=9, type=float)
@click.pass_context
def jacobian(ctx, joints, euler, matrix):
    """Numeric Jacobians A and diag(B) plus determinant cross-checks."""
    cfg, degrees = ctx.obj["cfg"], ctx.obj["degrees"]
    j = JointTriplet(*_angles_in("--joints", joints, degrees))
    r = _parse_orientation(euler, matrix, degrees)
    pair = jacobians(j, r)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "jacobian",
        "joints": _angles_out(j.as_tuple(), degrees),
        "a": _matrix_rows(pair.a),
        "b_diag": [float(x) for x in pair.b_diag],
        "det_a": det3(pair.a),
        "det_a_closed_form_nontrivial": det_a_closed_form(j, "nontrivial"),
        "residuals": [float(x) for x in constraint_residuals(j, r)],
    }
    rows = [(k, doc[k]) for k in ("det_a", "det_a_closed_form_nontrivial")]
    rows += [(f"b{i}{i}", b) for i, b in enumerate(doc["b_diag"], 1)]
    _emit(cfg, doc, "key,value", rows)


@main.command()
@click.option("--joints", nargs=3, type=float, required=True)
@click.option("--euler", nargs=3, type=float)
@click.option("--matrix", nargs=9, type=float)
@click.pass_context
def classify(ctx, joints, euler, matrix):
    """Singularity class of an assembled configuration."""
    cfg, degrees = ctx.obj["cfg"], ctx.obj["degrees"]
    try:
        j = JointTriplet(*_angles_in("--joints", joints, degrees))
        r = _parse_orientation(euler, matrix, degrees)
        result = classify_configuration(j, r, cfg)
    except (NonFiniteInput, NotAssembled) as exc:
        click.echo(f"not assembled: {exc}", err=True)
        sys.exit(EXIT_NOT_ASSEMBLED)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "classify",
        "kind": result.kind,
        "family_id": result.family_id,
        "family_label": None
        if result.family_id is None
        else FAMILY_LABELS[result.family_id - 1],
        "trivial_id": result.trivial_id,
        "det_a": det3(jacobians(j, r).a),
        "det_factor": det_a_closed_form(j, "nontrivial"),
        "joint_degeneracy": classify_joint_degeneracy(j).kind,
        "residuals": [float(x) for x in constraint_residuals(j, r)],
    }
    _emit(cfg, doc, "key,value", [(k, doc[k]) for k in ("kind", "det_a", "det_factor")])


@main.command("self-motion")
@click.option("--family", required=True, help="Family id 1..6 or label 1a..3b.")
@click.option("--parameter", type=float, default=0.0, help="Free angle on the curve.")
@click.pass_context
def self_motion(ctx, family, parameter):
    """Orientation on one of the six self-motion curves."""
    cfg, degrees = ctx.obj["cfg"], ctx.obj["degrees"]
    label = family.strip().lower()
    (t,) = _angles_in("--parameter", [parameter], degrees)
    try:
        r = self_motion_family(int(label) if label.isdigit() else label, t)
    except UnknownFamily as exc:
        raise click.UsageError(str(exc)) from exc
    fid_num = int(label) if label.isdigit() else FAMILY_LABELS.index(label) + 1
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "self_motion",
        "family_id": fid_num,
        "family_label": FAMILY_LABELS[fid_num - 1],
        "parameter": float(t),
        "singular_leg": FAMILY_SINGULAR_LEG[fid_num],
        "variant": "folded" if fid_num % 2 == 1 else "extended",
        "matrix": _matrix_rows(r),
    }
    header = "r11,r12,r13,r21,r22,r23,r31,r32,r33"
    _emit(cfg, doc, header, [[x for row in doc["matrix"] for x in row]])


def _read_path_file(path_file: str, degrees: bool) -> list[JointTriplet]:
    with open(path_file, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise click.UsageError(f"{path_file}: empty path file") from None
        if [h.strip() for h in header] != ["theta1", "theta2", "theta3"]:
            raise click.UsageError(
                f"{path_file}: expected header 'theta1,theta2,theta3'"
            )
        waypoints = []
        for lineno, row in enumerate(reader, 2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise click.UsageError(f"{path_file}:{lineno}: expected 3 columns")
            try:
                values = [float(c) for c in row]
            except ValueError as exc:
                raise click.UsageError(f"{path_file}:{lineno}: {exc}") from exc
            name = f"{path_file}:{lineno}: non-finite joint angle"
            waypoints.append(JointTriplet(*_angles_in(name, values, degrees)))
    if not waypoints:
        raise click.UsageError(f"{path_file}: no waypoints")
    return waypoints


@main.command()
@click.argument("path_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--start-euler", nargs=3, type=float)
@click.option("--start-matrix", nargs=9, type=float)
@click.pass_context
def track(ctx, path_file, start_euler, start_matrix):
    """Track the assembly mode along a joint path (CSV with header
    theta1,theta2,theta3)."""
    cfg, degrees = ctx.obj["cfg"], ctx.obj["degrees"]
    waypoints = _read_path_file(path_file, degrees)
    start = _parse_orientation(start_euler, start_matrix, degrees, prefix="start-")
    try:
        result = track_path(waypoints, start, cfg)
    except StartNotASolution as exc:
        click.echo(f"start orientation rejected: {exc}", err=True)
        sys.exit(EXIT_START_NOT_A_SOLUTION)
    # Each reached segment is certified to keep sign(q2), and a step's
    # signature is sign(q2) * SIGN_TABLE[mode_id - 1], so one signature holds
    # for the whole track; mode_constant stays in the schema, always true.
    sig = direct_signature(waypoints[0], result.mode_id).label
    steps = [
        {
            "step": k,
            "joints": _angles_out(jk.as_tuple(), degrees),
            "euler": _angles_out(e.as_tuple(), degrees),
            "mode_id": result.mode_id,
            "signature": sig,
        }
        for k, (jk, e) in enumerate(zip(waypoints, result.eulers))
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "track",
        "steps": steps,
        "mode_constant": True,
        "crossing": None
        if result.crossing is None
        else {"segment": result.crossing.segment, "reason": result.crossing.reason},
    }
    rows = ([s["step"], *s["euler"], s["mode_id"], s["signature"]] for s in steps)
    _emit(cfg, doc, "step,phi,theta,psi,mode_id,signature", rows)
    if cfg.output_format == "csv":
        click.echo("mode constant: true", err=True)
    if result.crossing is not None:
        click.echo(
            f"singularity crossing at segment {result.crossing.segment}: "
            f"{result.crossing.reason}",
            err=True,
        )
        sys.exit(EXIT_SINGULARITY_CROSSING)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-d array, sorted: np.unique by one sort
    and one compare (np.unique itself is several times slower here)."""
    s = np.sort(values)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def _record_slabs(result):
    """The sweep's CSV record lines, one theta1-slab (n^2 lines) per string,
    in the scan order of iter_records.

    det_a is printed as two parts: a sign, "-" where np.signbit is set (so
    -0.0 keeps its sign; NaN never has one), and a magnitude from one table
    per grid of the distinct |det_a| bit patterns, each formatted once.
    The table merges the per-slab distinct bits, so no n^3-sized sorted
    copy or index array is made; each slab finds its entries in it by
    np.searchsorted.  Degeneracy and component id are one integer key
    into a table of line tails (component ids run from 0, -1 on walls).
    Each slab is five parts per record (theta1; theta2 and theta3; sign;
    magnitude; tail), gathered at C level into one list and joined once.
    """
    grid = [_fmt(v) for v in result.grid]
    n_tags = len(DEGENERACY_TAGS)
    heads = [f"{g2},{g3}," for g2 in grid for g3 in grid]
    table_bits = _distinct(
        np.concatenate(
            [_distinct(np.abs(det).view(np.int64).ravel()) for det in result.det_a]
        )
    )
    table = [_fmt(v) for v in table_bits.view(np.float64).tolist()]
    tails = [
        f",{DEGENERACY_TAGS[k % n_tags]},{k // n_tags - 1}\n"
        for k in range((int(result.component_id.max()) + 2) * n_tags)
    ]
    signs = ("", "-")
    parts = [""] * (5 * len(heads))
    parts[1::5] = heads
    for g1, det, deg, comp in zip(
        grid, result.det_a, result.degeneracy, result.component_id
    ):
        mag = np.abs(det).view(np.int64).ravel()
        # searchsorted runs about twice as fast on sorted queries
        order = mag.argsort()
        mag_idx = np.empty_like(order)
        mag_idx[order] = table_bits.searchsorted(mag[order])
        sign = np.signbit(det) & ~np.isnan(det)
        tail_idx = (comp.ravel() + 1) * n_tags + deg.ravel()
        parts[0::5] = [f"{g1},"] * len(heads)
        parts[2::5] = itemgetter(*sign.ravel().tolist())(signs)
        parts[3::5] = itemgetter(*mag_idx.tolist())(table)
        parts[4::5] = itemgetter(*tail_idx.tolist())(tails)
        yield "".join(parts)


@main.command()
@click.option("--grid-n", type=int, default=None, help="Grid points per joint axis.")
@click.option(
    "--records-out",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write per-cell records CSV here (default: stream to stdout).",
)
@click.option("--no-records", is_flag=True, help="Summary only; skip the record stream.")
@click.pass_context
def sweep(ctx, grid_n, records_out, no_records):
    """Joint-space sweep with det-sign flood fill on the wrapped grid.

    Records go to --records-out (or stdout if omitted); the summary goes
    to stdout, or to stderr when records already use stdout.
    """
    cfg = ctx.obj["cfg"]
    try:
        result = run_sweep(grid_n, cfg)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc

    def write_records(out):
        out.write("theta1,theta2,theta3,det_a,degeneracy,component_id\n")
        out.writelines(_record_slabs(result))

    records_on_stdout = records_out is None and not no_records
    if records_on_stdout:
        write_records(sys.stdout)
    elif not no_records:
        with open(records_out, "w") as fh:
            write_records(fh)
    summary = result.summary
    keys = ("grid_n", "components_positive", "components_negative",
            "singular_cell_fraction", "wall_cell_fraction")
    rows = [(k, summary[k]) for k in keys]
    _emit(cfg, summary, "key,value", rows, err=records_on_stdout)


if __name__ == "__main__":
    main()
