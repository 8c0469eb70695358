"""Distributed H3 hierarchy set-operations over Datasets.

compact_by_group: per-group h3 compaction (replace complete sibling sets
by their parent, repeatedly) where the grouping key is a polygon / zone
id. The cell SET of one group must fit in a worker's heap (bounded by
the group's geographic area over the cell area — a polygon, not the
corpus), so the distributed shape is the engine's standard coarse
prime-modulus partition + a vectorized per-group kernel, never a
per-distinct-key groupby.

CenterInPolygon: the shared actor-pool candidate filter behind the H3
polyfill-style queries (cell-center even-odd test against one polygon
at a time, candidates sorted by polygon within the batch).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import h3
from .combine import by_partition


class CenterInPolygon:
    """Actor-pool stage: exact even-odd center-in-polygon over candidate
    batches (poly_id:int64, cell:any, clat, clng). The polygon set is
    ray.put once and fetched in __init__ (an int->polygon list or dict);
    the cell column passes through pyarrow take, so any dtype works.
    Output: (poly_id if keep_poly_id, cell, geom_id, poly_idx)."""

    def __init__(self, polys_ref, keep_poly_id: bool = False):
        import ray
        self.polys = ray.get(polys_ref)
        self.keep = keep_poly_id

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..geometry.pip import PIPIndex
        pid = np.asarray(batch["poly_id"], np.int64)
        order = np.argsort(pid, kind="stable")
        pid = pid[order]
        lat = np.asarray(batch["clat"], np.float64)[order]
        lng = np.asarray(batch["clng"], np.float64)[order]
        cell = batch["cell"].combine_chunks().take(
            pa.array(order, pa.int64()))
        starts = np.unique(pid, return_index=True)[1]
        bounds = np.append(starts, len(pid))
        keep_idx, geoms, pidxs = [], [], []
        for b0, b1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            poly = self.polys[int(pid[b0])]
            idx = PIPIndex([poly])
            inside, _ = idx.query(lng[b0:b1], lat[b0:b1])
            q = np.asarray(inside, np.int64)
            keep_idx.append(b0 + q)
            geoms.append(np.full(len(q), poly.geom_id, np.int64))
            pidxs.append(np.full(len(q), poly.poly_idx, np.int64))
        sel = (np.concatenate(keep_idx) if keep_idx
               else np.empty(0, np.int64))
        cols: dict[str, pa.Array] = {}
        if self.keep:
            cols["poly_id"] = pa.array(pid[sel], pa.int64())
        cols["cell"] = cell.take(pa.array(sel, pa.int64()))
        cols["geom_id"] = pa.array(
            np.concatenate(geoms) if geoms else np.empty(0, np.int64),
            pa.int64())
        cols["poly_idx"] = pa.array(
            np.concatenate(pidxs) if pidxs else np.empty(0, np.int64),
            pa.int64())
        return pa.table(cols)


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
