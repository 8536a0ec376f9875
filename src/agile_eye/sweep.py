"""Joint-space sweep: determinant-factor sign regions on the 3-torus.

The grid covers (-pi, pi]^3 with grid_n points per axis.  Each cell gets
a sign code: +1 or -1 where the determinant factor is beyond the
singular tolerance, 0 where it is within it.  Cells of equal nonzero
code that share a face, with wraparound on every axis, form one
connected component; the 0 cells act as walls and get component id -1.
The summary additionally reports the fraction of "singular" cells:
walls plus any cell with a differently-coded wrapped neighbour, a proxy
for the zero surface whose measure shrinks like 1/grid_n.

Components are labelled by runs, not cells (run-based labelling, He,
Chao and Suzuki, IEEE TIP 2008, with the periodic merging of Hoshen and
Kopelman, Phys. Rev. B 14, 1976).  A run is a maximal stretch of equal
code along an axis-3 line, and a new one starts at the start of each
line.  Along a line q2 = rho sin(theta3 + alpha), so a line holds a few
runs, not grid_n cells.  Runs of equal nonzero code in two lines that
are neighbours along axis 1 or 2 (with wrap) touch when one run's start
lies inside the other; the first and last run of a line touch across
the theta3 wrap.  A union-find in numpy joins those pairs one relation
at a time (the theta3 wrap, then the lines at i1 + 1, i1 - 1, i2 + 1
and i2 - 1), so it never holds more than one relation's pairs, and
leaves each set rooted at its first run in scan order.

run_sweep evaluates the sign code a few theta1 slabs at a time and
keeps only each chunk's run starts and their codes; the wall and
singular cells are counted inside the chunk loop, carrying over only
slab 0 (for the theta1 wrap) and the slab before the current chunk.  It
returns the grid, the summary and the runs, read-only, and holds no n^3
array.  Each read of det_a, degeneracy or component_id builds a new
array from them, so a summary-only caller never builds one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .config import DEFAULT_CONFIG, ToolConfig
from .mechanism import STRUCTURE_TOL, condition_pairs, det_factor

DEGENERACY_TAGS = ("generic", "self_motion", "trivial_only")

# Cells per evaluation chunk (whole theta1 slabs, at least one): 256 kB
# of floats, so the chunk's det, code, singular flags and comparison
# temporaries stay in cache.  From n = 182 on, a chunk is one slab.
_CHUNK_CELLS = 1 << 15

# Neighbouring cells inside a chunk: adjacent along each axis, and across
# the theta2 and theta3 wraps.  The theta1 wrap joins different chunks.
_CHUNK_FACES = (
    (np.s_[1:], np.s_[:-1]),
    (np.s_[:, 1:], np.s_[:, :-1]),
    (np.s_[:, 0], np.s_[:, -1]),
    (np.s_[:, :, 1:], np.s_[:, :, :-1]),
    (np.s_[:, :, 0], np.s_[:, :, -1]),
)


@dataclass(frozen=True, slots=True)
class SweepRecord:
    """One grid cell of the sweep."""

    theta1: float
    theta2: float
    theta3: float
    det_a: float
    degeneracy: str
    component_id: int


@dataclass(frozen=True, slots=True, eq=False)
class SweepResult:
    """Dense sweep output; arrays are indexed [i1, i2, i3].

    grid, summary and the runs are computed by run_sweep.  Each read of
    det_a, degeneracy or component_id builds a new array from them.  Two
    results are equal when their summaries are and their grids and runs
    hold equal arrays; like its arrays, a result is unhashable.
    """

    grid: np.ndarray  # shape (n,): the per-axis joint values
    summary: dict
    # (length, root) per axis-3 run in scan order; root is the index of
    # the first run of its component, -1 on walls
    _runs: tuple = field(repr=False)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.summary == other.summary and all(
            map(np.array_equal, (self.grid, *self._runs), (other.grid, *other._runs))
        )

    __hash__ = None

    @property
    def det_a(self) -> np.ndarray:
        """Shape (n, n, n) float64: the determinant factor q2."""
        n = len(self.grid)
        det_a = np.empty((n,) * 3)
        # by run_sweep's chunks: one chunk's temporaries, not the array's
        for a, det in _det_chunks(_trig(self.grid), n):
            det_a[a : a + len(det)] = det
        return det_a

    @property
    def degeneracy(self) -> np.ndarray:
        """Shape (n, n, n) uint8, an index into DEGENERACY_TAGS."""
        n = len(self.grid)
        trig = _trig(self.grid)
        degeneracy = np.zeros((n,) * 3, dtype=np.uint8)
        # det_a by chunks, as run_sweep reads it: no n^3 float array
        for a, det in _det_chunks(trig, n):
            degeneracy[a : a + len(det)][(det <= STRUCTURE_TOL) & (det >= -STRUCTURE_TOL)] = 2
        degeneracy.reshape(-1)[_pair_cells(trig, n)] = 1
        return degeneracy

    @property
    def component_id(self) -> np.ndarray:
        """Shape (n, n, n) int64: torus components of equal det sign,
        numbered from 0 in scan order of their first cell, -1 on walls."""
        return _number_components(self._runs).reshape((len(self.grid),) * 3)


def joint_grid(grid_n: int) -> np.ndarray:
    """grid_n evenly spaced joint values in (-pi, pi], endpoint included."""
    k = np.arange(1, grid_n + 1, dtype=float)
    return -math.pi + 2.0 * math.pi * k / grid_n


def _trig(g: np.ndarray) -> list:
    """s1, c1, s2, c2, s3, c3 of the grid, along axes 0, 1, 2: every
    factor depends on one joint, so these broadcast into the shared
    joint-space formulas."""
    s, c = np.sin(g), np.cos(g)
    axes = (np.s_[:, None, None], np.s_[None, :, None], np.s_[None, None, :])
    return [v[ax] for ax in axes for v in (s, c)]


def _det_chunks(trig: list, n: int) -> Iterator[tuple]:
    """(a, det) per chunk of whole theta1 slabs from slab a on: the
    determinant factor evaluated _CHUNK_CELLS cells (at least one slab)
    at a time, bit for bit its values on the whole grid."""
    step = max(1, _CHUNK_CELLS // n**2)
    for a in range(0, n, step):
        yield a, det_factor(trig[0][a : a + step], trig[1][a : a + step], *trig[2:])


def _pair_cells(trig: list, n: int) -> np.ndarray:
    """Sorted flat indices of the cells where a condition pair holds.
    Each pair mask is 2-d, free along the axis where its size is 1."""
    cells = []
    for mask in condition_pairs(*trig):
        axis = mask.shape.index(1)
        base = np.ravel_multi_index(np.nonzero(mask), (n, n, n))
        cells.append((base[:, None] + np.arange(n) * n ** (2 - axis)).ravel())
    return np.unique(np.concatenate(cells))


def _line_starts(lines: np.ndarray) -> np.ndarray:
    """Flat indices of the run starts in a (lines, n) code array: the
    start of each line and wherever the code changes along it."""
    new = np.empty(lines.shape, dtype=bool)
    new[:, 0] = True
    np.not_equal(lines[:, 1:], lines[:, :-1], out=new[:, 1:])
    return np.flatnonzero(new)


def _component_roots(start: np.ndarray, code: np.ndarray, n: int) -> np.ndarray:
    """Per run, the index of the first run of its torus component, or -1
    on wall runs.  start holds the runs' flat start cells in scan order
    and code their sign codes."""
    root = np.arange(len(start))
    # Across the theta3 wrap: a line's last run to its first.
    first = np.flatnonzero(start % n == 0)
    last = np.append(first[1:], len(start)) - 1
    wrap = (last != first) & (code[first] == code[last]) & (code[first] != 0)
    root = _join(root, first[wrap], last[wrap])
    live = np.flatnonzero(code)
    cell = start[live]
    i2 = cell // n % n
    # Each live run's start cell moved to a neighbouring line, one
    # relation at a time; the run of that line holding the moved cell is
    # the last to start at or before it (each line's first run starts at
    # k = 0, so it is in that line).
    for d in (n * n, -n * n, 1, -1):
        if abs(d) > 1:  # along i1, wrapping over the whole grid
            moved = (cell + d) % n**3
        else:  # along i2, wrapping within its theta1 slab
            moved = cell + ((i2 + d) % n - i2) * n
        hit = np.searchsorted(start, moved, side="right") - 1
        del moved  # hold one relation's arrays at a time
        same = code[hit] == code[live]
        root = _join(root, live[same], hit[same])
    root[code == 0] = -1
    return root


def _join(root: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The union-find array root, which it may update in place, with each
    pair (u, v) joined.  root must point every run at its root; so does
    the result.  Each larger root is hooked under the smaller, then
    pointers jump until stable; a set's smallest run is never hooked, so
    it stays the set's root."""
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            return root
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def _number_components(runs: tuple) -> np.ndarray:
    """Flat per-cell component ids from (length, root) per run: the roots
    ranked in scan order (the runs already are), -1 on walls."""
    length, root = runs
    rank = np.cumsum(root == np.arange(len(root))) - 1
    ids = rank[root]
    ids[root < 0] = -1
    return np.repeat(ids, length)


def _mark_differ(x: tuple, y: tuple) -> None:
    """Flag as singular the cells of two neighbouring (code, singular)
    views whose codes differ."""
    (code_x, singular_x), (code_y, singular_y) = x, y
    differ = code_x != code_y
    singular_x |= differ
    singular_y |= differ


def run_sweep(grid_n: int | None = None, cfg: ToolConfig = DEFAULT_CONFIG) -> SweepResult:
    """Evaluate the determinant factor's sign over the joint grid, label
    the sign components and summarise.  Deterministic for fixed grid_n
    and tolerances.  The grid and the runs are returned read-only; each
    read of the result's det_a, degeneracy or component_id builds it.

    An explicit grid_n overrides cfg.grid_n and is checked by ToolConfig:
    a float raises TypeError, a value below 8 ValueError."""
    if grid_n is not None:
        cfg = replace(cfg, grid_n=grid_n)
    n = cfg.grid_n
    g = joint_grid(n)
    trig = _trig(g)
    tol = cfg.singular_tol

    # Sign code: 1 above tol, -1 below -tol, 0 on walls.  ToolConfig holds
    # tol positive and finite, so 0 is exactly |det| <= tol on the grid's
    # (finite) values.  A cell is singular when it is a wall or differs
    # from either wrapped neighbour along some axis.  Each chunk's cells
    # are compared within the chunk, then with the chunk before it; a
    # slab is counted once both theta1 neighbours are compared, so only
    # slab 0 (head, for the theta1 wrap) and the previous chunk's last
    # slab (tail) are carried over.
    near_zero = n_wall = n_singular = 0  # near_zero: |det| <= STRUCTURE_TOL
    starts, run_codes = [], []
    head = tail = None  # (code, singular) of one slab
    for a, det in _det_chunks(trig, n):
        near_zero += int(np.count_nonzero(np.abs(det) <= STRUCTURE_TOL))
        code = np.subtract((det > tol).view(np.int8), (det < -tol).view(np.int8))
        singular = code == 0
        n_wall += int(np.count_nonzero(singular))
        for hi, lo in _CHUNK_FACES:
            _mark_differ((code[hi], singular[hi]), (code[lo], singular[lo]))
        if tail is None:
            head = code[0], singular[0]
        else:
            _mark_differ(tail, (code[0], singular[0]))
            if a > 1:  # else the tail is slab 0, counted at the end
                n_singular += int(np.count_nonzero(tail[1]))
        n_singular += int(np.count_nonzero(singular[1 if a == 0 else 0 : -1]))
        tail = code[-1], singular[-1]
        local = _line_starts(code.reshape(-1, n))
        starts.append(local + a * n * n)
        run_codes.append(code.reshape(-1)[local])
    _mark_differ(tail, head)
    n_singular += int(np.count_nonzero(head[1])) + int(np.count_nonzero(tail[1]))
    start = np.concatenate(starts)
    run_code = np.concatenate(run_codes)
    # Free the last chunk, the carried slabs and the per-chunk lists
    # before labelling.
    del det, code, singular, head, tail, starts, run_codes

    # Degeneracy counts: a condition pair wins over |det| <= STRUCTURE_TOL.
    # The pair cells are few; det_factor on their gathered sines and
    # cosines is the same float expression, so the same bits.
    pair = _pair_cells(trig, n)
    s, c = trig[0].ravel(), trig[1].ravel()
    i1, i2, i3 = np.unravel_index(pair, (n, n, n))
    pair_det = det_factor(s[i1], c[i1], s[i2], c[i2], s[i3], c[i3])
    trivial = near_zero - int(np.count_nonzero(np.abs(pair_det) <= STRUCTURE_TOL))

    root = _component_roots(start, run_code, n)
    is_root = root == np.arange(len(root))
    cells = n**3
    summary = {
        "grid_n": n,
        "components_positive": int(np.count_nonzero(is_root & (run_code > 0))),
        "components_negative": int(np.count_nonzero(is_root & (run_code < 0))),
        "singular_cell_fraction": n_singular / cells,
        "wall_cell_fraction": n_wall / cells,
        "degeneracy_counts": dict(
            zip(DEGENERACY_TAGS, (cells - len(pair) - trivial, len(pair), trivial))
        ),
    }
    runs = (np.diff(start, append=cells), root)
    for array in (g, *runs):
        array.flags.writeable = False
    return SweepResult(grid=g, summary=summary, _runs=runs)


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
