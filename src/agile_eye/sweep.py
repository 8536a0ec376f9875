"""Joint-space sweep: determinant-factor sign regions on the 3-torus.

The grid covers (-pi, pi]^3 with grid_n points per axis.  Cells are
flood-filled into connected components through face neighbors of equal
determinant sign, with wraparound on every axis; cells where the
determinant factor is within the singular tolerance act as walls and get
component id -1.  The summary additionally reports the fraction of
"singular" cells: walls plus any cell with a differently-signed wrapped
neighbor, a proxy for the zero surface whose measure shrinks like
1/grid_n.

run_sweep computes up front what the summary needs: the determinant, the
degeneracy tags, the walls, the torus labelling of each sign (whose
roots count the components) and the singular fraction.  The per-cell
component ids, numbered in scan order, are built from the kept labels
the first time SweepResult.component_id is read, so a summary-only
caller never pays for them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .config import DEFAULT_CONFIG, ToolConfig
from .mechanism import STRUCTURE_TOL, condition_pairs, det_factor

DEGENERACY_TAGS = ("generic", "self_motion", "trivial_only")


@dataclass(frozen=True)
class SweepRecord:
    """One grid cell of the sweep."""

    theta1: float
    theta2: float
    theta3: float
    det_a: float
    degeneracy: str
    component_id: int


@dataclass(frozen=True)
class SweepResult:
    """Dense sweep output; arrays are indexed [i1, i2, i3].

    grid, det_a, degeneracy and summary are computed by run_sweep.
    component_id is numbered from the labels in _labels on first access
    and cached; the labels are dropped once it is built.
    """

    grid: np.ndarray  # shape (n,): the per-axis joint values
    det_a: np.ndarray  # shape (n, n, n)
    degeneracy: np.ndarray  # shape (n, n, n), uint8 index into DEGENERACY_TAGS
    summary: dict
    # [pos labels, neg labels, pos roots, neg roots] until numbered
    _labels: list = field(default_factory=list, repr=False, compare=False)

    @cached_property
    def component_id(self) -> np.ndarray:
        """Shape (n, n, n) int64: torus components of equal det sign,
        numbered from 0 in scan order of their first cell, -1 on walls."""
        return _number_components(self._labels)


def joint_grid(grid_n: int) -> np.ndarray:
    """grid_n evenly spaced joint values in (-pi, pi], endpoint included."""
    k = np.arange(1, grid_n + 1, dtype=float)
    return -math.pi + 2.0 * math.pi * k / grid_n


def _periodic_components(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label connected True-regions of a 3-d mask on the torus.

    Returns (labels, roots): scipy's open-boundary labels (>= 1 inside the
    mask, 0 outside) and, per label, the smallest label of its torus
    component, found by a union-find pass over the label pairs that touch
    across opposite faces.
    """
    # Imported here so that importing the package does not load scipy.
    from scipy import ndimage

    labels, nlab = ndimage.label(mask)
    parent = list(range(nlab + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    keys = []
    for axis in range(3):
        lo = np.take(labels, 0, axis=axis).ravel().astype(np.int64)
        hi = np.take(labels, -1, axis=axis).ravel()
        both = (lo > 0) & (hi > 0)
        keys.append(lo[both] * (nlab + 1) + hi[both])
    # Each root is the smallest label of its set, whatever the merge order,
    # so every distinct face pair needs one union only.
    for key in np.unique(np.concatenate(keys)).tolist():
        ra, rb = find(key // (nlab + 1)), find(key % (nlab + 1))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return labels, np.array([find(x) for x in range(nlab + 1)], dtype=np.int64)


def _first_cells(labels: np.ndarray) -> np.ndarray:
    """Flat index of the first cell in scan order of each label 1..max
    (entry 0 unused): the first hit in the top plane of its bounding box."""
    from scipy import ndimage

    _, n2, n3 = labels.shape
    boxes = ndimage.find_objects(labels)
    first = np.zeros(len(boxes) + 1, dtype=np.int64)
    for lab, box in enumerate(boxes, 1):
        top = labels[box][0]
        i2, i3 = divmod(int(np.argmax(top == lab)), top.shape[1])
        first[lab] = (box[0].start * n2 + box[1].start + i2) * n3 + box[2].start + i3
    return first


def _number_components(parts: list) -> np.ndarray:
    """Per-cell component ids from [pos labels, neg labels, pos roots, neg
    roots]: the torus components numbered from 0 in scan order of their
    first cell, -1 on walls.  Empties the list and overwrites the label
    arrays, so that each is freed as soon as it is used."""
    pos, neg, pos_roots, neg_roots = parts
    parts.clear()
    # Negative labels and roots are shifted past the positive ones, so that
    # both sides share one label array.
    n_pos = len(pos_roots) - 1
    neg[neg > 0] += n_pos
    labels = pos
    labels += neg
    del neg
    roots = np.concatenate([pos_roots, neg_roots[1:] + n_pos])
    set_first = np.full(len(roots), labels.size, dtype=np.int64)
    np.minimum.at(set_first, roots[1:], _first_cells(labels)[1:])
    sets = np.unique(roots[1:])
    rank = np.zeros(len(roots), dtype=np.int64)
    rank[sets[np.argsort(set_first[sets])]] = np.arange(len(sets))
    lut = rank[roots]
    lut[0] = -1  # walls
    return lut[labels]


def run_sweep(grid_n: int | None = None, cfg: ToolConfig = DEFAULT_CONFIG) -> SweepResult:
    """Evaluate the determinant factor over the joint grid, label the sign
    components and summarise.  Deterministic for fixed grid_n and
    tolerances.  The per-cell component ids are numbered on first access
    to the result's component_id."""
    n = operator.index(cfg.grid_n if grid_n is None else grid_n)
    if n < 8:
        raise ValueError("grid_n must be at least 8")
    cfg.validate()
    g = joint_grid(n)
    # Every factor depends on one joint, so 1-d sines and cosines broadcast
    # along axes 0, 1, 2 into the shared joint-space formulas.
    s, c = np.sin(g), np.cos(g)
    axes = (np.s_[:, None, None], np.s_[None, :, None], np.s_[None, None, :])
    trig = [v[ax] for ax in axes for v in (s, c)]
    det = det_factor(*trig)

    pair1, pair2, pair3 = condition_pairs(*trig)
    pair = pair1 | pair2 | pair3
    abs_det = np.abs(det)
    degeneracy = np.zeros(det.shape, dtype=np.uint8)
    degeneracy[abs_det <= STRUCTURE_TOL] = 2
    degeneracy[pair] = 1

    tol = cfg.singular_tol
    wall = abs_det <= tol
    del abs_det, pair
    # tol is validated positive and finite, so these are (det > 0) & ~wall
    # and (det < 0) & ~wall for every float, NaN included.
    pos_mask = det > tol
    neg_mask = det < -tol
    pos, pos_roots = _periodic_components(pos_mask)
    neg, neg_roots = _periodic_components(neg_mask)

    # Only inequality of neighbours matters: walls 0, positive 1, negative -1.
    # A cell is singular when it differs from either wrapped neighbour along
    # some axis: compare the adjacent planes, then the wrap plane.
    code = pos_mask.view(np.int8) - neg_mask.view(np.int8)
    del pos_mask, neg_mask
    singular = wall.copy()
    for axis in range(3):
        lead = (slice(None),) * axis
        for a, b in ((np.s_[1:], np.s_[:-1]), (0, -1)):
            hi, lo = lead + (a,), lead + (b,)
            step = code[hi] != code[lo]
            singular[hi] |= step
            singular[lo] |= step

    summary = {
        "schema_version": "1",
        "grid_n": n,
        "components_positive": len(np.unique(pos_roots[1:])),
        "components_negative": len(np.unique(neg_roots[1:])),
        "singular_cell_fraction": float(singular.mean()),
        "wall_cell_fraction": float(wall.mean()),
        "degeneracy_counts": {
            DEGENERACY_TAGS[i]: int(np.count_nonzero(degeneracy == i))
            for i in range(3)
        },
    }
    return SweepResult(
        grid=g,
        det_a=det,
        degeneracy=degeneracy,
        summary=summary,
        _labels=[pos, neg, pos_roots, neg_roots],
    )


def iter_records(result: SweepResult) -> Iterator[SweepRecord]:
    """Records in lexicographic (theta1, theta2, theta3) scan order."""
    g = result.grid
    n = len(g)
    det = result.det_a
    deg = result.degeneracy
    comp = result.component_id
    for i1 in range(n):
        for i2 in range(n):
            for i3 in range(n):
                yield SweepRecord(
                    theta1=float(g[i1]),
                    theta2=float(g[i2]),
                    theta3=float(g[i3]),
                    det_a=float(det[i1, i2, i3]),
                    degeneracy=DEGENERACY_TAGS[deg[i1, i2, i3]],
                    component_id=int(comp[i1, i2, i3]),
                )
