"""Independent recomputation of `agile sweep` output.

Grid, determinant factor, degeneracy tags, wall cells, sign components on
the wrapped grid and the summary are rebuilt here with numpy and
scipy.sparse.csgraph (a graph of equal-sign face neighbours), not with
the package's scipy.ndimage labelling plus union-find.  Component ids are
made canonical the way the README documents them: contiguous from 0 in
scan order of first occurrence, -1 on walls.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

STRUCTURE_TOL = 1e-9  # the package default; the benchmark never changes it
TAGS = ("generic", "self_motion", "trivial_only")
HEADER = b"theta1,theta2,theta3,det_a,degeneracy,component_id"


def grid(n: int) -> np.ndarray:
    """n evenly spaced joint values in (-pi, pi], endpoint included."""
    return -math.pi + 2.0 * math.pi * np.arange(1, n + 1, dtype=float) / n


def expected(n: int, singular_tol: float) -> dict:
    g = grid(n)
    s, c = np.sin(g), np.cos(g)
    ax = (np.s_[:, None, None], np.s_[None, :, None], np.s_[None, None, :])
    det = s[ax[0]] * s[ax[1]] * s[ax[2]] + c[ax[0]] * c[ax[1]] * c[ax[2]]
    small_s, small_c = np.abs(s) < STRUCTURE_TOL, np.abs(c) < STRUCTURE_TOL
    pair = (
        (small_s[ax[1]] & small_c[ax[2]])
        | (small_s[ax[2]] & small_c[ax[0]])
        | (small_s[ax[0]] & small_c[ax[1]])
    )
    tag = np.where(pair, 1, np.where(np.abs(det) <= STRUCTURE_TOL, 2, 0)).astype(np.int8)
    wall = np.abs(det) <= singular_tol
    code = np.where(wall, 0, np.sign(det)).astype(np.int8)

    # Equal-sign face neighbours (with wraparound) are joined.
    idx = np.arange(n**3, dtype=np.int32).reshape(n, n, n)
    rows, cols = [], []
    for axis in range(3):
        nb = np.roll(idx, -1, axis=axis)
        same = (code != 0) & (code == np.roll(code, -1, axis=axis))
        rows.append(idx[same])
        cols.append(nb[same])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    graph = coo_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n**3, n**3)
    ).tocsr()
    del rows, cols
    _, raw = connected_components(graph, directed=False)
    del graph
    flat_wall = wall.ravel()
    raw = np.where(flat_wall, -1, raw)
    labels, first = np.unique(raw[~flat_wall], return_index=True)
    order = labels[np.argsort(first)]
    remap = np.full(raw.max() + 1 if len(labels) else 1, -1, dtype=np.int64)
    remap[order] = np.arange(len(order))
    comp = np.where(flat_wall, -1, remap[np.maximum(raw, 0)]).reshape(n, n, n)

    singular = wall.copy()
    for axis in range(3):
        for shift in (1, -1):
            singular |= code != np.roll(code, shift, axis=axis)
    summary = {
        "grid_n": n,
        "components_positive": len(np.unique(comp[code > 0])),
        "components_negative": len(np.unique(comp[code < 0])),
        "singular_cell_fraction": float(np.count_nonzero(singular)) / n**3,
        "wall_cell_fraction": float(np.count_nonzero(wall)) / n**3,
        "degeneracy_counts": {t: int(np.count_nonzero(tag == i)) for i, t in enumerate(TAGS)},
    }
    return {"n": n, "grid": g, "det": det, "tag": tag, "comp": comp, "summary": summary}


def _is_canonical_float(text: bytes) -> bool:
    # the CLI prints floats with 17 significant digits
    return format(float(text), ".17g").encode() == text


def check_records(data: bytes, oracle: dict, spot) -> str | None:
    """Every line in scan order with the right values; spot lines byte-exact
    in their non-float fields and canonical in their float fields."""
    n = oracle["n"]
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if not lines or lines[0] != HEADER:
        return "records header missing or wrong"
    body = lines[1:]
    if len(body) != n**3:
        return f"{len(body)} records, expected {n**3}"
    try:
        cols = np.array([ln.split(b",") for ln in body])
        if cols.shape != (n**3, 6):
            return "records do not all have 6 columns"
        num = cols[:, :4].astype(float)
        comp = cols[:, 5].astype(np.int64)
    except ValueError as exc:
        return f"unparsable record: {exc}"
    g = oracle["grid"]
    i1, i2, i3 = np.unravel_index(np.arange(n**3), (n, n, n))
    for k, ii in enumerate((i1, i2, i3)):
        if np.max(np.abs(num[:, k] - g[ii])) > 1e-15:
            return f"theta{k + 1} column is not the grid in scan order"
    if np.max(np.abs(num[:, 3] - oracle["det"].ravel())) > 1e-12:
        return "det_a column differs from s1 s2 s3 + c1 c2 c3"
    tags = np.array([t.encode() for t in TAGS])[oracle["tag"].ravel()]
    bad = np.flatnonzero(cols[:, 4] != tags)
    if len(bad):
        return f"record {bad[0]}: degeneracy {cols[bad[0], 4]!r}"
    bad = np.flatnonzero(comp != oracle["comp"].ravel())
    if len(bad):
        return f"record {bad[0]}: component_id {comp[bad[0]]} != {oracle['comp'].ravel()[bad[0]]}"
    for k in spot:
        fields = body[k].split(b",")
        if not all(_is_canonical_float(f) for f in fields[:4]):
            return f"record {k}: float not printed with 17 significant digits"
        want = [TAGS[oracle["tag"].ravel()[k]].encode(), str(oracle["comp"].ravel()[k]).encode()]
        if fields[4:] != want:
            return f"record {k}: {body[k]!r}"
    return None


def check_summary(text: str, oracle: dict, fmt: str) -> str | None:
    want = oracle["summary"]
    if fmt == "json":
        try:
            got = json.loads(text)
        except ValueError:
            return "summary is not JSON"
        if got.get("schema_version") != "1":
            return "summary schema_version is not '1'"
        keys = want.keys()
    else:
        rows = [ln.split(",", 1) for ln in text.strip().splitlines()]
        if not rows or rows[0] != ["key", "value"]:
            return "CSV summary header missing"
        got = {k: (float(v) if "fraction" in k else int(v)) for k, v in rows[1:]}
        keys = [k for k in want if k != "degeneracy_counts"]
    for key in keys:
        a, b = got.get(key), want[key]
        if isinstance(b, float):
            if not isinstance(a, (int, float)) or abs(a - b) > 1e-12:
                return f"summary {key} = {a}, expected {b}"
        elif a != b:
            return f"summary {key} = {a}, expected {b}"
    return None
