"""2D bbox-overlap spatial join — the PBSM (partition-based spatial
merge) shape: both rectangle sets shuffle ONCE into grid cells, each
cell joins locally, and a pair that two rects co-cover in several cells
is reported exactly once via the canonical-reference-point rule (the
cell containing (max(xmin_a, xmin_b), max(ymin_a, ymin_b)) — a point
every overlapping pair shares, so the dedup needs no second exchange).

Scale shape: the cell grid is fixed (grid_n x grid_n over the box-side
extent) and cells pack into coarse prime-modulus partitions, so the
exchange fan-out is O(cells covered), never O(pairs); the per-partition
kernel is one sort + searchsorted range expansion + a vectorized
predicate — no per-cell Python. Duplication factor is bounded by
boxes-per-cell cover (perimeter cells), the standard PBSM trade.

Reference role: the reference ships bbox accessors per shape
(src/record/polygon.rs bbox; tests/read_tests.rs bbox asserts) but no
join; this operator is the engine's grid-partitioned rectangle join
over those decoded bboxes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..raydata import ray_data
from .combine import by_partition
from .relational import _match_ranges

GRID_N = 64
PARTS = 251           # prime (CLAUDE.md partition-modulus rule)


def _grid_of(boxes: np.ndarray, grid_n: int):
    """(x0, y0, cw, ch) spanning the box side — min/max + one division,
    merge-order-free."""
    x0 = float(boxes[:, 0].min())
    y0 = float(boxes[:, 1].min())
    cw = (float(boxes[:, 2].max()) - x0) / grid_n
    ch = (float(boxes[:, 3].max()) - y0) / grid_n
    return x0, y0, cw, ch


def _cell_idx(v: np.ndarray, o: float, s: float, grid_n: int) -> np.ndarray:
    """Clipped grid index of coordinate v — the ONE formula used for both
    cover enumeration and the canonical reference point, so the canonical
    cell is always one of the covered cells."""
    return np.clip(np.floor((v - o) / s).astype(np.int64), 0, grid_n - 1)


def bbox_overlap_join(rects, boxes: pa.Table, *, id_col: str,
                      box_id_col: str = "geom_id", grid_n: int = GRID_N,
                      parts: int = PARTS):
    """rects (Dataset: id_col, xmin, ymin, xmax, ymax — streams) JOIN
    boxes (same columns with box_id_col) on closed-interval rectangle
    overlap. Output: (id_col, box_id_col, overlap_area) — the area is a
    single LEAST/GREATEST-difference product, bit-exact vs SQL."""
    bx = np.column_stack([np.asarray(boxes[c], np.float64)
                          for c in ("xmin", "ymin", "xmax", "ymax")])
    x0, y0, cw, ch = _grid_of(bx, grid_n)

    def cover(batch: pa.Table, side: int, idc: str) -> pa.Table:
        xmin = np.asarray(batch["xmin"], np.float64)
        ymin = np.asarray(batch["ymin"], np.float64)
        xmax = np.asarray(batch["xmax"], np.float64)
        ymax = np.asarray(batch["ymax"], np.float64)
        ids = np.asarray(batch[idc], np.int64)
        ix0 = _cell_idx(xmin, x0, cw, grid_n)
        ix1 = _cell_idx(xmax, x0, cw, grid_n)
        iy0 = _cell_idx(ymin, y0, ch, grid_n)
        iy1 = _cell_idx(ymax, y0, ch, grid_n)
        nx = ix1 - ix0 + 1
        cnt = nx * (iy1 - iy0 + 1)
        total = int(cnt.sum())
        starts = np.cumsum(cnt) - cnt
        offs = np.arange(total, dtype=np.int64) - np.repeat(starts, cnt)
        nx_r = np.repeat(nx, cnt)
        di = offs % nx_r
        dj = offs // nx_r
        rsel = np.repeat(np.arange(len(ids)), cnt)
        cell = (np.repeat(iy0, cnt) + dj) * grid_n + np.repeat(ix0, cnt) + di
        return pa.table({
            "cell": pa.array(cell, pa.int64()),
            "__side": pa.array(np.full(total, side, np.int64)),
            "id": pa.array(ids[rsel], pa.int64()),
            "xmin": pa.array(xmin[rsel], pa.float64()),
            "ymin": pa.array(ymin[rsel], pa.float64()),
            "xmax": pa.array(xmax[rsel], pa.float64()),
            "ymax": pa.array(ymax[rsel], pa.float64()),
        })

    tagged_r = rects.map_batches(lambda b: cover(b, 0, id_col),
                                 batch_format="pyarrow")
    # the box side is a Dataset too (the scale path: at 100 TB neither
    # side broadcasts); here it enters from the driver-materialized
    # decode, already tiny
    tagged_b = (ray_data().from_arrow(boxes)
                .map_batches(lambda b: cover(b, 1, box_id_col),
                             batch_format="pyarrow"))

    def local(part: pa.Table) -> pa.Table:
        side = np.asarray(part["__side"], np.int64)
        cells = np.asarray(part["cell"], np.int64)
        a_idx = np.nonzero(side == 0)[0]
        b_idx = np.nonzero(side == 1)[0]
        bc = cells[b_idx]
        order = np.argsort(bc, kind="stable")
        bc, b_idx = bc[order], b_idx[order]
        empty = pa.table({
            id_col: pa.array([], pa.int64()),
            box_id_col: pa.array([], pa.int64()),
            "overlap_area": pa.array([], pa.float64())})
        if len(a_idx) == 0 or len(b_idx) == 0:
            return empty
        ac = cells[a_idx]
        lo = np.searchsorted(bc, ac, "left")
        hi = np.searchsorted(bc, ac, "right")
        counts = hi - lo
        asel = a_idx[np.repeat(np.arange(len(ac)), counts)]
        bsel = b_idx[_match_ranges(lo, counts)]
        if len(asel) == 0:
            return empty
        col = {c: np.asarray(part[c], np.float64)
               for c in ("xmin", "ymin", "xmax", "ymax")}
        gxmin = np.maximum(col["xmin"][asel], col["xmin"][bsel])
        gymin = np.maximum(col["ymin"][asel], col["ymin"][bsel])
        lxmax = np.minimum(col["xmax"][asel], col["xmax"][bsel])
        lymax = np.minimum(col["ymax"][asel], col["ymax"][bsel])
        overlap = (gxmin <= lxmax) & (gymin <= lymax)
        canon = (_cell_idx(gymin, y0, ch, grid_n) * grid_n
                 + _cell_idx(gxmin, x0, cw, grid_n))
        keep = overlap & (canon == cells[asel])
        ids = np.asarray(part["id"], np.int64)
        return pa.table({
            id_col: pa.array(ids[asel[keep]], pa.int64()),
            box_id_col: pa.array(ids[bsel[keep]], pa.int64()),
            "overlap_area": pa.array(
                (lxmax[keep] - gxmin[keep]) * (lymax[keep] - gymin[keep]),
                pa.float64()),
        })

    return by_partition([tagged_r, tagged_b], "cell", local, parts=parts)
