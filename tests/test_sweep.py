import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from agile_eye import (
    JointTriplet,
    ToolConfig,
    classify_joint_degeneracy,
    det_a_closed_form,
    iter_records,
    joint_grid,
    run_sweep,
)
from agile_eye.cli import _fmt, _record_slabs, main
from agile_eye.mechanism import STRUCTURE_TOL
from agile_eye.sweep import SweepResult


def test_joint_grid_interval():
    g = joint_grid(16)
    assert len(g) == 16
    assert g[-1] == math.pi
    assert g[0] > -math.pi
    assert np.all(np.diff(g) > 0)
    assert 0.0 in g  # multiples of four hit the special angles exactly


def test_det_values_match_closed_form():
    # every cell, bit for bit (signed zeros included)
    for n in (8, 37):
        result = run_sweep(n)
        g = result.grid.tolist()
        expected = np.array(
            [[[det_a_closed_form(JointTriplet(a, b, c)) for c in g] for b in g] for a in g]
        )
        assert np.array_equal(result.det_a.view(np.int64), expected.view(np.int64))


def test_degeneracy_tags_match_classifier():
    result = run_sweep(16)
    g = result.grid
    tags = ("generic", "self_motion", "trivial_only")
    hits = {t: 0 for t in tags}
    for i1 in range(16):
        for i2 in range(16):
            for i3 in range(16):
                tag = tags[result.degeneracy[i1, i2, i3]]
                expected = classify_joint_degeneracy(
                    JointTriplet(g[i1], g[i2], g[i3])
                ).kind
                assert tag == expected
                hits[tag] += 1
    # a grid divisible by 4 lands exactly on degenerate joints
    assert hits["self_motion"] > 0
    assert hits["trivial_only"] > 0


def test_components_and_walls():
    result = run_sweep(16)
    comp = result.component_id
    det = result.det_a
    wall = np.abs(det) <= 1e-7
    assert np.all(comp[wall] == -1)
    assert np.all(comp[~wall] >= 0)
    labels = np.unique(comp[comp >= 0])
    assert labels.tolist() == list(range(len(labels)))
    # neighbors of equal sign share a component (sampled)
    rng = np.random.default_rng(3)
    for _ in range(500):
        i1, i2, i3 = rng.integers(0, 16, 3)
        if wall[i1, i2, i3]:
            continue
        for axis, delta in ((0, 1), (1, 1), (2, 1)):
            idx = [i1, i2, i3]
            idx[axis] = (idx[axis] + delta) % 16
            n1, n2, n3 = idx
            if wall[n1, n2, n3]:
                continue
            if np.sign(det[n1, n2, n3]) == np.sign(det[i1, i2, i3]):
                assert comp[n1, n2, n3] == comp[i1, i2, i3]


def test_component_counts_stable_small():
    a = run_sweep(16).summary
    b = run_sweep(24).summary
    assert a["components_positive"] == b["components_positive"]
    assert a["components_negative"] == b["components_negative"]


def test_singular_fraction_shrinks():
    a = run_sweep(16).summary["singular_cell_fraction"]
    b = run_sweep(32).summary["singular_cell_fraction"]
    assert 0 < b < a


def test_records_iteration_order_and_content():
    result = run_sweep(8)
    records = list(iter_records(result))
    assert len(records) == 8**3
    g = result.grid
    assert records[0].theta1 == g[0] and records[0].theta3 == g[0]
    assert records[1].theta3 == g[1]  # theta3 varies fastest
    assert records[-1].theta1 == g[-1]
    for rec in records[:20]:
        assert rec.degeneracy in ("generic", "self_motion", "trivial_only")


def test_sweep_deterministic():
    a = run_sweep(12)
    b = run_sweep(12)
    np.testing.assert_array_equal(a.det_a, b.det_a)
    np.testing.assert_array_equal(a.component_id, b.component_id)
    assert a.summary == b.summary


def test_package_import_does_not_load_scipy():
    # scipy.ndimage is needed only by run_sweep's labelling
    import agile_eye

    src = os.path.dirname(os.path.dirname(agile_eye.__file__))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, agile_eye, agile_eye.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _meshgrid_components(mask):
    """Torus labelling as first written: scipy labels, then a union-find
    over every face pair in turn."""
    from scipy import ndimage

    labels, nlab = ndimage.label(mask)
    if nlab == 0:
        return labels
    parent = list(range(nlab + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for axis in range(3):
        lo = np.take(labels, 0, axis=axis).ravel()
        hi = np.take(labels, -1, axis=axis).ravel()
        both = (lo > 0) & (hi > 0)
        for a, b in zip(lo[both], hi[both]):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    roots = np.array([find(x) for x in range(nlab + 1)])
    return roots[labels]


def _meshgrid_sweep(n, cfg):
    """Reference sweep on full 3-d meshgrid arrays: det_a, degeneracy,
    component ids and summary, written the direct way."""
    g = joint_grid(n)
    t1, t2, t3 = np.meshgrid(g, g, g, indexing="ij")
    s1, c1 = np.sin(t1), np.cos(t1)
    s2, c2 = np.sin(t2), np.cos(t2)
    s3, c3 = np.sin(t3), np.cos(t3)
    det = s1 * s2 * s3 + c1 * c2 * c3

    st = STRUCTURE_TOL
    pair = (
        ((np.abs(s2) < st) & (np.abs(c3) < st))
        | ((np.abs(s3) < st) & (np.abs(c1) < st))
        | ((np.abs(s1) < st) & (np.abs(c2) < st))
    )
    degeneracy = np.zeros(det.shape, dtype=np.uint8)
    degeneracy[(np.abs(det) <= st) & ~pair] = 2
    degeneracy[pair] = 1

    wall = np.abs(det) <= cfg.singular_tol
    component = np.full(det.shape, -1, dtype=np.int64)
    pos = _meshgrid_components((det > 0.0) & ~wall)
    neg = _meshgrid_components((det < 0.0) & ~wall)
    n_pos_raw = int(pos.max())
    combined = np.where(pos > 0, pos, 0) + np.where(neg > 0, neg + n_pos_raw, 0)
    flat = combined.ravel()
    labels, first = np.unique(flat[flat > 0], return_index=True)
    order = labels[np.argsort(first)]
    remap = np.zeros(int(combined.max()) + 1, dtype=np.int64)
    remap[order] = np.arange(len(order))
    component[combined > 0] = remap[combined[combined > 0]]

    sign_code = np.where(wall, 0, np.sign(det)).astype(np.int8)
    singular = wall.copy()
    for axis in range(3):
        singular |= sign_code != np.roll(sign_code, 1, axis=axis)
        singular |= sign_code != np.roll(sign_code, -1, axis=axis)
    summary = {
        "schema_version": "1",
        "grid_n": n,
        "components_positive": len(np.unique(component[(det > 0.0) & (component >= 0)])),
        "components_negative": len(np.unique(component[(det < 0.0) & (component >= 0)])),
        "singular_cell_fraction": float(singular.mean()),
        "wall_cell_fraction": float(wall.mean()),
        "degeneracy_counts": {
            tag: int(np.count_nonzero(degeneracy == i))
            for i, tag in enumerate(("generic", "self_motion", "trivial_only"))
        },
    }
    return det, degeneracy, component, summary


@pytest.mark.parametrize(
    "n,singular_tol",
    [(8, 1e-7), (37, 1e-7), (64, 1e-7), (24, 0.9), (37, 0.7), (8, 2.0)],
)
def test_sweep_bitwise_equal_to_meshgrid_reference(n, singular_tol):
    cfg = ToolConfig(singular_tol=singular_tol)
    result = run_sweep(n, cfg)
    det, degeneracy, component, summary = _meshgrid_sweep(n, cfg)
    assert result.det_a.shape == (n, n, n)
    np.testing.assert_array_equal(result.det_a.view(np.int64), det.view(np.int64))
    np.testing.assert_array_equal(result.degeneracy, degeneracy)
    assert result.component_id.dtype == component.dtype
    np.testing.assert_array_equal(result.component_id, component)
    assert result.summary == summary


def _record_line(rec):
    return (
        f"{_fmt(rec.theta1)},{_fmt(rec.theta2)},{_fmt(rec.theta3)},"
        f"{_fmt(rec.det_a)},{rec.degeneracy},{rec.component_id}"
    )


@pytest.mark.parametrize(
    "n,tol_args",
    [
        (8, []),
        (12, ["--tol-singular", "0.2"]),
        (9, []),
        (13, []),
        (33, []),
        (40, []),
        (13, ["--tol-singular", "0.5"]),
    ],
)
def test_cli_records_match_iter_records(n, tol_args, tmp_path):
    out = tmp_path / "records.csv"
    res = CliRunner().invoke(
        main,
        [*tol_args, "sweep", "--grid-n", str(n), "--records-out", str(out)],
        catch_exceptions=False,
    )
    assert res.exit_code == 0
    cfg = ToolConfig(singular_tol=float(tol_args[1]) if tol_args else 1e-7)
    records = list(iter_records(run_sweep(n, cfg)))
    lines = out.read_text().split("\n")
    assert lines[0] == "theta1,theta2,theta3,det_a,degeneracy,component_id"
    assert lines[-1] == ""
    assert len(lines) == len(records) + 2
    for line, rec in zip(lines[1:], records):
        assert line == _record_line(rec)
    # Grids with n divisible by 4 hold the exact zeros of q2 (joint values
    # 0 and pi/2); the odd ones keep clear of the default tolerance.
    walls = n % 4 == 0 or bool(tol_args)
    assert any(rec.component_id == -1 for rec in records) == walls


def test_record_slabs_signed_values():
    # -0.0 and 0.0 must not share a string, nor may -x and x, within one
    # slab or across slabs; the magnitude table also meets the extremes.
    tiny = 5e-324  # smallest subnormal
    big = sys.float_info.max
    det = np.array(
        [
            [[0.0, -0.0, 0.0], [1.5, -1.5, 1.5], [tiny, -tiny, 2.0**-1070]],
            [[-0.0, 0.0, -0.0], [-1.5, 2.5, -2.5], [big, -big, 1e-300]],
            [[-tiny, -big, 1.5], [math.inf, -math.inf, math.nan], [-math.nan, -0.0, 0.1]],
        ]
    )
    degeneracy = np.arange(27, dtype=np.uint8).reshape(3, 3, 3) % 3
    component = (np.arange(27, dtype=np.int64).reshape(3, 3, 3) % 5) - 1
    result = SweepResult(
        grid=np.array([-1.0, 0.25, math.pi]),
        det_a=det,
        degeneracy=degeneracy,
        component_id=component,
        summary={},
    )
    text = "".join(_record_slabs(result))
    expected = "".join(_record_line(rec) + "\n" for rec in iter_records(result))
    assert text == expected
    assert ",-0,generic," in text and ",0,generic," in text
    assert ",-1.5," in text and ",1.5," in text
