"""Joint-space sweep: determinant-factor sign regions on the 3-torus.

The grid covers (-pi, pi]^3 with grid_n points per axis.  Cells are
flood-filled into connected components through face neighbors of equal
determinant sign, with wraparound on every axis; cells where the
determinant factor is within the singular tolerance act as walls and get
component id -1.  The summary additionally reports the fraction of
"singular" cells: walls plus any cell with a differently-signed wrapped
neighbor, a proxy for the zero surface whose measure shrinks like
1/grid_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import DEFAULT_CONFIG, ToolConfig

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
    """Dense sweep output; arrays are indexed [i1, i2, i3]."""

    grid: np.ndarray  # shape (n,): the per-axis joint values
    det_a: np.ndarray  # shape (n, n, n)
    degeneracy: np.ndarray  # shape (n, n, n), uint8 index into DEGENERACY_TAGS
    component_id: np.ndarray  # shape (n, n, n), -1 on walls
    summary: dict


def joint_grid(grid_n: int) -> np.ndarray:
    """grid_n evenly spaced joint values in (-pi, pi], endpoint included."""
    k = np.arange(1, grid_n + 1, dtype=float)
    return -math.pi + 2.0 * math.pi * k / grid_n


def _periodic_components(mask: np.ndarray) -> np.ndarray:
    """Label connected True-regions of a 3-d mask on the torus.

    Returns an int array with labels >= 1 inside the mask, 0 outside.
    scipy labels with open boundaries; labels touching opposite faces are
    then merged with a union-find pass.
    """
    # Imported here so that importing the package does not load scipy.
    from scipy import ndimage

    labels, nlab = ndimage.label(mask)
    if nlab == 0:
        return labels
    parent = list(range(nlab + 1))

    def find(x: int) -> int:
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


def run_sweep(grid_n: int | None = None, cfg: ToolConfig = DEFAULT_CONFIG) -> SweepResult:
    """Evaluate the determinant factor over the joint grid and label the
    sign components.  Deterministic for fixed grid_n and tolerances."""
    n = cfg.grid_n if grid_n is None else grid_n
    if n < 8:
        raise ValueError("grid_n must be at least 8")
    g = joint_grid(n)
    t1, t2, t3 = np.meshgrid(g, g, g, indexing="ij")
    s1, c1 = np.sin(t1), np.cos(t1)
    s2, c2 = np.sin(t2), np.cos(t2)
    s3, c3 = np.sin(t3), np.cos(t3)
    det = s1 * s2 * s3 + c1 * c2 * c3

    st = cfg.structure_tol
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
    pos = _periodic_components((det > 0.0) & ~wall)
    neg = _periodic_components((det < 0.0) & ~wall)
    n_pos_raw = int(pos.max())
    combined = np.where(pos > 0, pos, 0) + np.where(neg > 0, neg + n_pos_raw, 0)

    # Relabel contiguous from 0 in scan order of first occurrence.
    flat = combined.ravel()
    labels, first = np.unique(flat[flat > 0], return_index=True)
    order = labels[np.argsort(first)]
    remap = np.zeros(int(combined.max()) + 1, dtype=np.int64)
    remap[order] = np.arange(len(order))
    component[combined > 0] = remap[combined[combined > 0]]

    components_positive = len(
        np.unique(component[(det > 0.0) & (component >= 0)])
    )
    components_negative = len(
        np.unique(component[(det < 0.0) & (component >= 0)])
    )

    sign_code = np.where(wall, 0, np.sign(det)).astype(np.int8)
    singular = wall.copy()
    for axis in range(3):
        singular |= sign_code != np.roll(sign_code, 1, axis=axis)
        singular |= sign_code != np.roll(sign_code, -1, axis=axis)

    summary = {
        "schema_version": "1",
        "grid_n": n,
        "components_positive": components_positive,
        "components_negative": components_negative,
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
        component_id=component,
        summary=summary,
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
