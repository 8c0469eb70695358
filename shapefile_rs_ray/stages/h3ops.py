"""Distributed H3 hierarchy set-operations over Datasets.

compact_by_group: per-group h3 compaction (replace complete sibling sets
by their parent, repeatedly) where the grouping key is a polygon / zone
id. The cell SET of one group must fit in a worker's heap (bounded by
the group's geographic area over the cell area — a polygon, not the
corpus), so the distributed shape is the engine's standard coarse
prime-modulus partition + a vectorized per-group kernel, never a
per-distinct-key groupby.

center_in_polygon: the shared candidate filter behind the H3
polyfill-style queries and the raster burn (cell-center even-odd test of
each candidate against its own polygon), a task map whose one PIPIndex
over the polygon set each worker process builds once.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import h3
from .broadcast import map_side, put_side
from .combine import by_partition


class CenterInPolygon:
    """The polygon side of `center_in_polygon`, built once per process:
    one PIPIndex over the whole polygon set (an int->polygon list or
    dict). A call tests each candidate row (poly_id:int64, cell:any,
    clat, clng) against its own polygon (`PIPIndex.contains_pairs`); the
    cell column passes through pyarrow take, so any dtype works. Output
    rows, sorted by poly_id (stable): (poly_id if keep_poly_id, cell,
    geom_id, poly_idx)."""

    def __init__(self, polys, keep_poly_id: bool = False):
        from ..geometry.pip import PIPIndex
        items = sorted(polys.items() if isinstance(polys, dict)
                       else enumerate(polys), key=lambda kv: kv[0])
        self.ids = np.array([i for i, _ in items], np.int64)
        self.index = PIPIndex([p for _, p in items])
        self.keep = keep_poly_id

    def __call__(self, batch: pa.Table) -> pa.Table:
        pid = np.asarray(batch["poly_id"], np.int64)
        order = np.argsort(pid, kind="stable")
        pos = np.searchsorted(self.ids, pid[order])
        inside = self.index.contains_pairs(
            np.asarray(batch["clng"], np.float64)[order],
            np.asarray(batch["clat"], np.float64)[order], pos)
        sel, pos = order[inside], pos[inside]
        cols: dict[str, pa.Array] = {}
        if self.keep:
            cols["poly_id"] = pa.array(pid[sel], pa.int64())
        cols["cell"] = batch["cell"].combine_chunks().take(
            pa.array(sel, pa.int64()))
        cols["geom_id"] = pa.array(self.index.geom_ids[pos], pa.int64())
        cols["poly_idx"] = pa.array(self.index.poly_idx[pos], pa.int64())
        return pa.table(cols)


def center_in_polygon(ds, polys, *, keep_poly_id: bool = False):
    """Exact even-odd center-in-polygon filter over candidate rows, a task
    map fused with the maps before it (`broadcast.map_side`)."""
    return map_side(ds, "center_in_polygon", CenterInPolygon,
                    put_side(polys), keep_poly_id=keep_poly_id)


def compact_by_group(ds, *, id_col: str = "poly_id",
                     cell_col: str = "cell",
                     carry_cols: tuple[str, ...] = (),
                     parts: int = 251):
    """ds: Dataset with an int64 group id, int64 H3 cells (duplicate-free
    within a group), and optional carry columns constant per group.

    Returns Dataset(id_col, *carry_cols, cell, res) — the compacted cell
    set per group (h3 compactCells semantics, pentagon-aware).
    """

    def merge(part: pa.Table) -> pa.Table:
        gid = np.asarray(part[id_col], np.int64)
        cells = np.asarray(part[cell_col], np.int64)
        order = np.argsort(gid, kind="stable")
        gid, cells = gid[order], cells[order]
        carry = {c: np.asarray(part[c])[order] for c in carry_cols}
        uniq, starts = np.unique(gid, return_index=True)
        bounds = np.append(starts, len(gid))
        out_gid, out_cell = [], []
        out_carry: dict[str, list] = {c: [] for c in carry_cols}
        for g, b0, b1 in zip(uniq.tolist(), bounds[:-1].tolist(),
                             bounds[1:].tolist()):
            comp = h3.compact(np.unique(cells[b0:b1]))
            out_gid.append(np.full(len(comp), g, np.int64))
            out_cell.append(comp)
            for c in carry_cols:
                out_carry[c].append(np.full(len(comp), carry[c][b0]))
        cell_arr = (np.concatenate(out_cell) if out_cell
                    else np.empty(0, np.int64))
        cols = {id_col: pa.array(
            np.concatenate(out_gid) if out_gid else np.empty(0, np.int64),
            pa.int64())}
        for c in carry_cols:
            cols[c] = pa.array(np.concatenate(out_carry[c]) if out_carry[c]
                               else np.empty(0, np.int64))
        cols[cell_col] = pa.array(cell_arr, pa.int64())
        cols["res"] = pa.array(h3.get_resolution(cell_arr), pa.int64())
        return pa.table(cols)

    return by_partition(ds, id_col, merge, parts=parts)
