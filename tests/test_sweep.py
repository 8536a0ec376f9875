import math
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from agile_eye import (
    JointTriplet,
    ToolConfig,
    classify_joint_degeneracy,
    det_a_closed_form,
    iter_records,
    joint_grid,
    run_sweep,
)
from agile_eye import sweep as sweep_module
from agile_eye.cli import _fmt, _record_slabs, main
from agile_eye.mechanism import STRUCTURE_TOL, det_factor


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


def test_package_import_does_not_load_scipy(tmp_path):
    # scipy is a test dependency only: neither the import nor a sweep,
    # with or without records, may load it.
    import agile_eye

    src = os.path.dirname(os.path.dirname(agile_eye.__file__))
    sweep = "from agile_eye.cli import main; main({}, standalone_mode=False); "
    records = str(tmp_path / "records.csv")
    for run in (
        "import agile_eye, agile_eye.cli; ",
        sweep.format(["sweep", "--grid-n", "8", "--records-out", records]),
        sweep.format(["sweep", "--grid-n", "8", "--no-records"]),
    ):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; " + run + "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", run
    assert len(open(records).read().splitlines()) == 8**3 + 1


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


def _reference_ids(code):
    """Component ids of an int8 sign code: each sign labelled by scipy
    with the periodic union-find, numbered from 0 in scan order of each
    component's first cell, -1 on the 0 cells."""
    pos = _meshgrid_components(code > 0)
    neg = _meshgrid_components(code < 0)
    n_pos_raw = int(pos.max())
    combined = np.where(pos > 0, pos, 0) + np.where(neg > 0, neg + n_pos_raw, 0)
    flat = combined.ravel()
    labels, first = np.unique(flat[flat > 0], return_index=True)
    order = labels[np.argsort(first)]
    remap = np.zeros(int(combined.max()) + 1, dtype=np.int64)
    remap[order] = np.arange(len(order))
    component = np.full(code.shape, -1, dtype=np.int64)
    component[combined > 0] = remap[combined[combined > 0]]
    return component


def test_sweep_result_holds_no_writable_state():
    # a write into a returned array changes no later read, not even of
    # degeneracy, which is built from det_a; the stored grid and runs are
    # read-only
    fresh = run_sweep(8)
    result = run_sweep(8)
    result.det_a[...] = 0.0
    result.degeneracy[...] = 0
    result.component_id[...] = 7
    for name in ("det_a", "degeneracy", "component_id"):
        np.testing.assert_array_equal(getattr(result, name), getattr(fresh, name))
    for array in (result.grid, *result._runs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_sweep_result_equality():
    # by value, arrays included; unhashable as its arrays are
    a, b = run_sweep(8), run_sweep(8)
    assert a == b and not a != b
    assert a != run_sweep(9)
    assert a != run_sweep(8, ToolConfig(singular_tol=0.5))
    assert a != "sweep"
    with pytest.raises(TypeError):
        hash(a)


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
    sign_code = np.where(wall, 0, np.sign(det)).astype(np.int8)
    component = _reference_ids(sign_code)
    singular = wall.copy()
    for axis in range(3):
        singular |= sign_code != np.roll(sign_code, 1, axis=axis)
        singular |= sign_code != np.roll(sign_code, -1, axis=axis)
    summary = {
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


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=8, max_value=48),
    st.floats(min_value=math.log(1e-300), max_value=math.log(2.0)).map(math.exp),
)
def test_sweep_equal_to_meshgrid_reference_property(n, singular_tol):
    cfg = ToolConfig(singular_tol=singular_tol)
    result = run_sweep(n, cfg)
    det, degeneracy, component, summary = _meshgrid_sweep(n, cfg)
    assert result.summary == summary
    # plain Python numbers, not numpy scalars
    kinds = {k: type(v) for k, v in result.summary.items()}
    assert kinds == {k: type(v) for k, v in summary.items()}
    assert {type(v) for v in result.summary["degeneracy_counts"].values()} == {int}
    # each fraction is its cell count over n^3, correctly rounded
    for key in ("singular_cell_fraction", "wall_cell_fraction"):
        fraction = result.summary[key]
        assert fraction == round(fraction * n**3) / n**3
    # a line's code changes at most four times around the circle
    assert len(result._runs[0]) <= 5 * n * n
    np.testing.assert_array_equal(result.det_a.view(np.int64), det.view(np.int64))
    np.testing.assert_array_equal(result.degeneracy, degeneracy)
    first = result.component_id
    assert first.dtype == np.int64
    np.testing.assert_array_equal(first, component)
    # each read builds a new array
    again = result.component_id
    assert again is not first
    np.testing.assert_array_equal(again, first)


def _reference_runs(code, component):
    """(length, root) per axis-3 run of an int8 sign code, from reference
    component ids: a run starts at each line start and wherever the code
    changes along the line; its root is the first run of its component,
    -1 on walls."""
    n = code.shape[0]
    lines = code.reshape(-1, n)
    new = np.ones(lines.shape, dtype=bool)
    new[:, 1:] = lines[:, 1:] != lines[:, :-1]
    start = np.flatnonzero(new)
    ids = component.reshape(-1)[start]
    labels, first = np.unique(ids, return_index=True)
    root = np.where(ids < 0, -1, first[np.searchsorted(labels, ids)])
    return np.diff(start, append=code.size), root


@pytest.mark.parametrize("singular_tol", [1e-7, 0.3, 0.9])
@pytest.mark.parametrize(
    "n, slabs",
    [(11, 1), (13, 2), (14, 3), (12, None), (16, 3)],
    ids=["one_slab", "two_slabs_odd_n", "three_slabs", "whole_grid", "three_slabs_exact_zeros"],
)
def test_sweep_chunk_edges_equal_to_meshgrid_reference(n, slabs, singular_tol, monkeypatch):
    # Chunks of one slab (every n >= 182 at the default size), two slabs
    # of an odd grid (the last chunk holds one), three slabs, and the
    # whole grid: the singular count carries slab 0 and the previous
    # chunk's last slab from chunk to chunk.  The degeneracy array is
    # built in the same chunks; n = 16 holds exact zeros of q2.
    monkeypatch.setattr(sweep_module, "_CHUNK_CELLS", n**2 * slabs if slabs else n**3)
    cfg = ToolConfig(singular_tol=singular_tol)
    result = run_sweep(n, cfg)
    det, degeneracy, component, summary = _meshgrid_sweep(n, cfg)
    assert result.summary == summary
    np.testing.assert_array_equal(result.degeneracy, degeneracy)
    code = np.where(np.abs(det) <= singular_tol, 0, np.sign(det)).astype(np.int8)
    for got, expected in zip(result._runs, _reference_runs(code, component), strict=True):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


def _run_labels(code):
    """Component ids, per-run roots and run start cells of an int8 sign
    code by the package's run labelling, as run_sweep uses it."""
    n = code.shape[0]
    start = sweep_module._line_starts(code.reshape(-1, n))
    root = sweep_module._component_roots(start, code.reshape(-1)[start], n)
    runs = (np.diff(start, append=code.size), root)
    return sweep_module._number_components(runs).reshape(code.shape), root, start


@st.composite
def sign_codes(draw):
    """Arbitrary sign codes: cubes of `block` cells drawn at random
    densities, shifted by a random wrap.  They hold many runs per line,
    runs across the k = n - 1 -> 0 wrap and components that meet only
    across a wrap face, which the sinusoid never produces."""
    n = draw(st.integers(min_value=8, max_value=20))
    block = draw(st.integers(min_value=1, max_value=4))
    p_wall = draw(st.floats(min_value=0.0, max_value=1.0))
    p_pos = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = -(-n // block)
    wall = rng.random((m, m, m)) < p_wall
    sign = np.where(rng.random((m, m, m)) < p_pos, 1, -1)
    coarse = np.where(wall, 0, sign).astype(np.int8)
    code = coarse.repeat(block, 0).repeat(block, 1).repeat(block, 2)[:n, :n, :n]
    return np.roll(code, tuple(rng.integers(0, n, 3)), axis=(0, 1, 2))


@settings(max_examples=150, deadline=None)
@given(sign_codes())
def test_run_labels_equal_to_scipy_periodic_reference(code):
    ids, root, start = _run_labels(code)
    expected = _reference_ids(code)
    assert ids.dtype == expected.dtype
    np.testing.assert_array_equal(ids, expected)
    # one root per component
    n_components = int(expected.max()) + 1
    assert np.count_nonzero(root == np.arange(len(root))) == n_components
    # each live run's root is the smallest run index of its component, by
    # the reference ids (_number_components and the summary's is_root
    # read this rule); wall runs get -1
    length, expected_root = _reference_runs(code, expected)
    np.testing.assert_array_equal(np.diff(start, append=code.size), length)
    np.testing.assert_array_equal(root, expected_root)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_run_labels_join_across_each_wrap_face(axis):
    # Two +1 cells on opposite faces, walls everywhere else, are one
    # component, joined only across the wrap; two -1 cells one cell short
    # of the faces stay two.
    n = 9
    code = np.zeros((n, n, n), dtype=np.int8)
    for sign, (lo, hi), at in ((1, (0, n - 1), 2), (-1, (1, n - 2), 5)):
        for k in (lo, hi):
            cell = [at, at, at]
            cell[axis] = k
            code[tuple(cell)] = sign
    ids, *_ = _run_labels(code)
    np.testing.assert_array_equal(ids, _reference_ids(code))
    assert sorted(np.unique(ids).tolist()) == [-1, 0, 1, 2]


def _traced_peak(fn):
    """The traced (tracemalloc) peak in bytes of one call of fn, after a
    warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_sweep_peak_memory_per_cell():
    # Summary-only, run_sweep holds one chunk's code and singular flags,
    # the run starts and codes, and one neighbour relation's union-find
    # pairs at a time; no n^3 array.  The traced peak after a warm-up call
    # stays at or below 3.5 B per cell at n=128 (2.6 measured; an n^3
    # sign code and singular mask read 4.9) and 2.0 at n=256 (1.3
    # measured; 3.25 with the n^3 arrays).
    cfg = ToolConfig(singular_tol=1e-7)
    for n, bound in ((128, 3.5), (256, 2.0)):
        per_cell = _traced_peak(lambda: run_sweep(n, cfg)) / n**3
        assert per_cell <= bound, f"run_sweep({n}) traced peak {per_cell:.2f} B/cell, above {bound}"


@pytest.mark.parametrize("n", [8, 40, 48, 128])
def test_det_a_read_equals_broadcast_formula(n):
    # det_a is filled chunk by chunk (n = 40: two chunks; 48: a short last
    # chunk; 128: two slabs a chunk), bit for bit the formula broadcast
    # over the whole grid
    result = run_sweep(n)
    det = result.det_a
    expected = det_factor(*sweep_module._trig(result.grid))
    assert det.shape == (n, n, n) and det.dtype == np.float64
    np.testing.assert_array_equal(det.view(np.int64), expected.view(np.int64))


def test_det_a_read_peak_memory():
    # A read holds its array and one chunk's temporaries: at or below
    # 1.25 times the array at n=128 (1.06 measured; the broadcast formula
    # read 2.0, its two n^3 products held together).
    result = run_sweep(128)
    nbytes = 8 * 128**3
    peak = _traced_peak(lambda: result.det_a)
    assert peak <= 1.25 * nbytes, f"det_a read traced peak {peak / nbytes:.2f} x its array"


def test_record_slabs_peak_memory_per_cell():
    # The records path holds det_a (8 B/cell), component_id (8) and
    # degeneracy (1), the magnitude and tail tables, and one slab's parts.
    # Its traced peak after a warm-up was 24.8 B/cell at n=64 and 22.3 at
    # n=128 with the per-part slice emitter; the bounds allow 1.2 B/cell
    # more (the column-gather emitter reads 25.1 and 22.5).  A signed
    # magnitude table, one "-"-prefixed string per entry, read 27.7 and
    # 25.2, and fails.
    for n, bound in ((64, 26.0), (128, 23.5)):
        peak = _traced_peak(lambda: deque(_record_slabs(run_sweep(n)), maxlen=0))
        per_cell = peak / n**3
        assert per_cell <= bound, f"_record_slabs({n}) traced peak {per_cell:.2f} B/cell, above {bound}"


def test_run_sweep_rejects_bad_grid_and_tolerance():
    with pytest.raises(TypeError):
        run_sweep(8.5)
    with pytest.raises(TypeError):
        run_sweep(16.0)
    grid_n = run_sweep(np.int64(8)).summary["grid_n"]
    assert grid_n == 8 and type(grid_n) is int
    for tol in (0.0, -1e-7, math.nan, math.inf):
        with pytest.raises(ValueError, match="singular_tol"):
            run_sweep(8, ToolConfig(singular_tol=tol))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_no_records_never_numbers_components(fmt, monkeypatch):
    def refuse(runs):
        raise AssertionError("component ids numbered for a summary-only sweep")

    monkeypatch.setattr(sweep_module, "_number_components", refuse)
    res = CliRunner().invoke(
        main, ["--format", fmt, "sweep", "--grid-n", "12", "--no-records"]
    )
    assert res.exit_code == 0, res.output
    assert "components_positive" in res.output


def test_cli_records_number_components_once(monkeypatch, tmp_path):
    calls = []
    number = sweep_module._number_components

    def counted(runs):
        calls.append(runs)
        return number(runs)

    monkeypatch.setattr(sweep_module, "_number_components", counted)
    out = tmp_path / "records.csv"
    res = CliRunner().invoke(
        main, ["sweep", "--grid-n", "12", "--records-out", str(out)]
    )
    assert res.exit_code == 0, res.output
    assert len(calls) == 1
    assert len(out.read_text().splitlines()) == 12**3 + 1


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
    # stands in for a SweepResult with these arrays
    result = SimpleNamespace(
        grid=np.array([-1.0, 0.25, math.pi]),
        det_a=det,
        degeneracy=degeneracy,
        component_id=component,
    )
    text = "".join(_record_slabs(result))
    expected = "".join(_record_line(rec) + "\n" for rec in iter_records(result))
    assert text == expected
    assert ",-0,generic," in text and ",0,generic," in text
    assert ",-1.5," in text and ",1.5," in text


# Determinants that stress the sign and the magnitude table: signed zeros
# and infinities, NaN with the sign bit set, subnormals and the extremes.
_EDGE_DETS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
    2.0**-1070, sys.float_info.min, sys.float_info.max, -sys.float_info.max, 1.5, -1.5,
]


@st.composite
def record_arrays(draw):
    """A stand-in for a SweepResult of n = 1 to 5 with drawn arrays."""
    n = draw(st.integers(min_value=1, max_value=5))
    cells = n**3

    def cube(elements, dtype):
        values = draw(st.lists(elements, min_size=cells, max_size=cells))
        return np.array(values, dtype=dtype).reshape((n,) * 3)

    det = cube(st.sampled_from(_EDGE_DETS) | st.floats(), np.float64)
    if n > 1:
        # one magnitude with both signs, in the first and the last slab
        k = draw(st.integers(min_value=0, max_value=n * n - 1))
        det[-1].flat[k] = -det[0].flat[k]
    return SimpleNamespace(
        grid=np.array(draw(st.lists(st.floats(), min_size=n, max_size=n))),
        det_a=det,
        degeneracy=cube(st.integers(min_value=0, max_value=2), np.uint8),
        component_id=cube(st.integers(min_value=-1, max_value=2 * cells), np.int64),
    )


@settings(max_examples=200, deadline=None)
@given(record_arrays())
def test_record_slabs_equal_to_iter_records_property(result):
    text = "".join(_record_slabs(result))
    expected = "".join(_record_line(rec) + "\n" for rec in iter_records(result))
    assert text == expected
