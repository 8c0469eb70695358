"""kNN stage (J3 in SURVEY.md §2.6): each page -> its k nearest sites.

A task map (`broadcast.map_side`): the site set is broadcast once
(`ray.put`), each worker process builds a grid-bucketed spatial index once
(the per-cell "kd-tree" of the north star — buckets are the cells,
candidates come from expanding neighbor rings), and batches are answered
with vectorized numpy. For small site sets (< `brute_threshold`) the stage
uses exact blockwise brute force — same result, fewer branches.

Distances are planar squared euclidean on (lon, lat), computed as
``(dx*dx + dy*dy)`` in f64 — the identical expression the DuckDB oracle
uses, ties broken by site_id ascending (deterministic under ties).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .broadcast import map_side, part_fn, put_side
from .combine import by_partition


class GridKnnIndex:
    """Uniform-grid bucket index over sites with expanding-ring search.

    Queries are answered per CELL-GROUP, not per row: a batch is lexsorted
    by its query cell, each distinct cell runs ONE expanding-ring candidate
    gather (Python cost scales with distinct cells x ring cells, never with
    rows), and all of the cell's queries score the shared candidate set with
    one vectorized (rows x candidates) distance block. Exact: the ring stops
    only when the ring boundary's minimum possible separation from anywhere
    in the cell exceeds every query's current kth-best distance.
    """

    def __init__(self, lon: np.ndarray, lat: np.ndarray, site_ids: np.ndarray,
                 cell_size: float):
        self.lon = np.asarray(lon, np.float64)
        self.lat = np.asarray(lat, np.float64)
        self.ids = np.asarray(site_ids, np.int64)
        self.cs = float(cell_size)
        gx = np.floor(self.lon / self.cs).astype(np.int64)
        gy = np.floor(self.lat / self.cs).astype(np.int64)
        key = gx * 1_000_003 + gy
        order = np.argsort(key, kind="stable")
        self.sorted_keys = key[order]
        self.order = order
        self.max_ring = int(max(gx.max() - gx.min(),
                                gy.max() - gy.min())) + 2 if len(gx) else 1

    def _bucket(self, gx: int, gy: int) -> np.ndarray:
        key = gx * 1_000_003 + gy
        lo = np.searchsorted(self.sorted_keys, key, "left")
        hi = np.searchsorted(self.sorted_keys, key, "right")
        return self.order[lo:hi]

    def _ring_cells(self, gx: int, gy: int, ring: int):
        if ring == 0:
            yield (gx, gy)
            return
        for dx in range(-ring, ring + 1):
            yield (gx + dx, gy - ring)
            yield (gx + dx, gy + ring)
        for dy in range(-ring + 1, ring):
            yield (gx - ring, gy + dy)
            yield (gx + ring, gy + dy)

    def _cell_group(self, x: np.ndarray, y: np.ndarray, gx: int, gy: int,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
        """All queries (x, y) share grid cell (gx, gy); returns (m, k)
        site-index rows + (m, k) d2, ties (d2 asc, site_id asc)."""
        n_sites = len(self.ids)
        kk = min(k, n_sites)

        def score(have: np.ndarray):
            # candidates sorted by id once -> stable argsort on d2 breaks
            # exact-distance ties by ascending site_id
            cand = have[np.argsort(self.ids[have], kind="stable")]
            dx = x[:, None] - self.lon[cand][None, :]
            dy = y[:, None] - self.lat[cand][None, :]
            d2 = dx * dx + dy * dy
            return cand, d2

        parts: list[np.ndarray] = []
        have = np.empty(0, np.int64)
        ring = 0
        while True:
            new = [self._bucket(cx, cy)
                   for cx, cy in self._ring_cells(gx, gy, ring)]
            if new:
                parts.extend(new)
                have = np.concatenate(parts)
            if len(have) >= kk:
                cand, d2 = score(have)
                worst = np.sqrt(
                    np.partition(d2, kk - 1, axis=1)[:, kk - 1].max())
                # a site outside Chebyshev ring r is >= r*cs from anywhere
                # in cell (gx, gy)
                if ring * self.cs >= worst or len(have) == n_sites:
                    sel = np.argsort(d2, axis=1, kind="stable")[:, :kk]
                    return cand[sel], np.take_along_axis(d2, sel, axis=1)
            ring += 1
            if ring > self.max_ring:
                # numerical-degeneracy fallback: score EVERY site once and
                # return directly — re-entering the gather loop would stack
                # ring buckets on top of the full set and duplicate sites
                cand, d2 = score(np.arange(n_sites))
                sel = np.argsort(d2, axis=1, kind="stable")[:, :kk]
                return cand[sel], np.take_along_axis(d2, sel, axis=1)

    def query_batch(self, x: np.ndarray, y: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
        """(n,) queries -> ((n, kk) site indices, (n, kk) d2)."""
        n = len(x)
        kk = min(k, len(self.ids))
        out_idx = np.empty((n, kk), np.int64)
        out_d2 = np.empty((n, kk), np.float64)
        qx = np.floor(x / self.cs).astype(np.int64)
        qy = np.floor(y / self.cs).astype(np.int64)
        # group on the (qx, qy) PAIR (lexsort + two-column run detection):
        # a packed/hashed scalar key could collide and silently hand a
        # query group the wrong ring origin, breaking the exact-stop bound
        order = np.lexsort((qy, qx))
        xs, ys = qx[order], qy[order]
        new = np.empty(n, bool)
        new[0:1] = True
        new[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
        starts = np.nonzero(new)[0]
        bounds = np.append(starts, n)
        for s, e in zip(bounds[:-1], bounds[1:]):
            rows = order[s:e]
            idx, d2 = self._cell_group(x[rows], y[rows],
                                       int(qx[rows[0]]), int(qy[rows[0]]), k)
            out_idx[rows] = idx
            out_d2[rows] = d2
        return out_idx, out_d2


class KnnStage:
    """The site side of `knn_join`, built once per process: k nearest
    sites per page row.

    Output columns: keep_cols + rank (1-based), site_id, dist2.
    """

    def __init__(self, sites, k: int = 3, keep_cols=("page_id",),
                 lon_col="lon", lat_col="lat", brute_threshold: int = 10_000,
                 block: int = 2048):
        sid, slon, slat = sites
        # id-sorted site arrays: a stable argsort on d2 then breaks exact
        # distance ties by ascending site_id (the oracle's ROW_NUMBER order)
        order = np.argsort(np.asarray(sid), kind="stable")
        self.site_ids = np.asarray(sid, np.int64)[order]
        self.slon = np.asarray(slon, np.float64)[order]
        self.slat = np.asarray(slat, np.float64)[order]
        self.k = k
        self.keep_cols = list(keep_cols)
        self.lon_col, self.lat_col = lon_col, lat_col
        self.block = block
        self.brute = len(self.site_ids) <= brute_threshold
        if not self.brute:
            span = max(self.slon.max() - self.slon.min(),
                       self.slat.max() - self.slat.min())
            cell = span / max(np.sqrt(len(self.site_ids)), 1.0)
            self.grid = GridKnnIndex(self.slon, self.slat, self.site_ids, cell)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch[self.lon_col], np.float64)
        lat = np.asarray(batch[self.lat_col], np.float64)
        n = len(lon)
        k = min(self.k, len(self.site_ids))
        nn_sites = np.empty((n, k), np.int64)
        nn_d2 = np.empty((n, k), np.float64)
        if self.brute:
            for s in range(0, n, self.block):
                e = min(s + self.block, n)
                dx = lon[s:e, None] - self.slon[None, :]
                dy = lat[s:e, None] - self.slat[None, :]
                d2 = dx * dx + dy * dy
                # sites are id-sorted, so one stable argsort on d2 gives
                # (distance asc, site_id asc) including boundary ties that
                # argpartition-then-sort would break arbitrarily
                sel = np.argsort(d2, axis=1, kind="stable")[:, :k]
                nn_sites[s:e] = self.site_ids[sel]
                nn_d2[s:e] = np.take_along_axis(d2, sel, axis=1)
        else:
            idx, d2 = self.grid.query_batch(lon, lat, k)
            nn_sites[:] = self.site_ids[idx]
            nn_d2[:] = d2
        take = pa.array(np.repeat(np.arange(n), k))
        out = {c: pc.take(batch[c], take) for c in self.keep_cols}
        out["rank"] = pa.array(np.tile(np.arange(1, k + 1), n), pa.int64())
        out["site_id"] = pa.array(nn_sites.ravel(), pa.int64())
        out["dist2"] = pa.array(nn_d2.ravel(), pa.float64())
        return pa.table(out)


def knn_join(ds, sites: tuple[np.ndarray, np.ndarray, np.ndarray], *,
             k: int = 3, keep_cols=("page_id",)):
    """kNN map stage: a task map fused with the maps before it
    (`broadcast.map_side`). Each worker process builds the `KnnStage`
    once (an id-sorted site table, plus a GridKnnIndex past its brute
    threshold) and answers every batch from it."""
    return map_side(ds, "knn_batch", KnnStage, put_side(sites),
                    k=k, keep_cols=tuple(keep_cols))


CELL_PARTS = 251   # prime (CLAUDE.md partition-modulus rule)


def knn_join_cellpart(ds, sites: tuple[np.ndarray, np.ndarray, np.ndarray],
                      *, k: int = 3, zoom: int = 6,
                      keep_cols=("page_id",), lon_col="lon", lat_col="lat",
                      parts: int = CELL_PARTS):
    """J3 scale path: kNN as a groupby-by-cell shuffle.

    The doc side shuffles ONCE into `parts` coarse cell-hash partitions
    (cell % prime — NOT one group per distinct cell: partition count is
    fixed and scale-free, each partition holds many whole cells and is
    processed by one task). Per cell run inside a partition, candidate
    sites come from expanding square rings of neighbor cells around the
    run's cell until >= k candidates exist AND the ring's minimum
    possible distance exceeds the worst kth-candidate bound for every
    corner of the cell (so the answer is exact, not approximate). The
    per-run search is the same vectorized brute kernel over the candidate
    subset. Output is identical to the broadcast knn_join.

    Partitioning assumption: the site set is visible to every group (tiny,
    broadcast); what shuffles is the doc side — the pattern that matters
    when docs >> memory and sites are per-cell shardable.
    """
    from ..functions.cells import grid_cell

    site_ids, slon, slat = sites
    s_cell = grid_cell(slon, slat, zoom)
    side = (np.asarray(site_ids, np.int64), np.asarray(slon),
            np.asarray(slat), np.asarray(s_cell, np.int64))

    def add_cell(batch: pa.Table) -> pa.Table:
        c = grid_cell(np.asarray(batch[lon_col], np.float64),
                      np.asarray(batch[lat_col], np.float64), zoom)
        return batch.append_column("__cell", pa.array(c, pa.int64()))

    knn = part_fn("cell_knn", CellKnn, put_side(side), k=k, zoom=zoom,
                  keep_cols=tuple(keep_cols), lon_col=lon_col,
                  lat_col=lat_col)
    return by_partition(ds.map_batches(add_cell, batch_format="pyarrow"),
                        "__cell", knn, parts=parts)


class CellKnn:
    """`knn_join_cellpart`'s per-partition kNN, built once per worker
    process from the broadcast site side (ids, lon, lat, cell) by
    `broadcast.part_fn`."""

    def __init__(self, side, *, k, zoom, keep_cols, lon_col, lat_col):
        self.ids, self.slon, self.slat, self.scell = side
        self.k, self.keep_cols = k, keep_cols
        self.lon_col, self.lat_col = lon_col, lat_col
        self.z2 = 1 << zoom
        self.sx = self.scell // self.z2
        self.sy = self.scell % self.z2
        self.cell_w = 360.0 / self.z2
        self.cell_h = 180.0 / self.z2

    def __call__(self, part: pa.Table) -> pa.Table:
        """One partition = many whole cells: sort by cell, run the
        per-cell ring kernel on each run, concat."""
        cells = np.asarray(part["__cell"], np.int64)
        order = np.argsort(cells, kind="stable")
        sorted_cells = cells[order]
        new = np.empty(len(cells), bool)
        new[0:1] = True
        new[1:] = sorted_cells[1:] != sorted_cells[:-1]
        starts = np.nonzero(new)[0]
        bounds = np.append(starts, len(cells))
        outs = []
        for s, e in zip(bounds[:-1], bounds[1:]):
            rows = order[s:e]
            outs.append(self._one_cell(
                part.take(pa.array(rows)), int(sorted_cells[s])))
        if not outs:
            z = pa.array([], pa.int64())
            out = {c: pc.take(part[c], pa.array([], pa.int64()))
                   for c in self.keep_cols}
            out.update({"rank": z, "site_id": z,
                        "dist2": pa.array([], pa.float64())})
            return pa.table(out)
        return pa.concat_tables(outs)

    def _one_cell(self, group: pa.Table, cell: int) -> pa.Table:
        k, z2 = self.k, self.z2
        cx, cy = cell // z2, cell % z2
        ring = 0
        while True:
            m = (np.abs(self.sx - cx) <= ring) & (np.abs(self.sy - cy) <= ring)
            cand = np.nonzero(m)[0]
            if len(cand) >= min(k, len(self.ids)):
                # safe-stop: a site outside ring r is at least
                # (r) * min(cell_w, cell_h) away from anywhere in the
                # cell; stop when that exceeds the worst kth distance
                lon = np.asarray(group[self.lon_col], np.float64)
                lat = np.asarray(group[self.lat_col], np.float64)
                dx = lon[:, None] - self.slon[cand][None, :]
                dy = lat[:, None] - self.slat[cand][None, :]
                d2 = dx * dx + dy * dy
                kk = min(k, len(cand))
                worst = np.sqrt(np.partition(d2, kk - 1, axis=1)[:, kk - 1].max())
                if (ring * min(self.cell_w, self.cell_h) >= worst
                        or len(cand) == len(self.ids)):
                    break
            ring += 1
            if ring > 2 * z2:
                cand = np.arange(len(self.ids))
                lon = np.asarray(group[self.lon_col], np.float64)
                lat = np.asarray(group[self.lat_col], np.float64)
                dx = lon[:, None] - self.slon[cand][None, :]
                dy = lat[:, None] - self.slat[cand][None, :]
                d2 = dx * dx + dy * dy
                break
        kk = min(k, len(cand))
        cand_order = np.argsort(self.ids[cand], kind="stable")
        cand = cand[cand_order]
        d2 = d2[:, cand_order]
        sel = np.argsort(d2, axis=1, kind="stable")[:, :kk]
        pid = self.ids[cand][sel]
        pd2 = np.take_along_axis(d2, sel, axis=1)
        n = group.num_rows
        take = pa.array(np.repeat(np.arange(n), kk))
        out = {c: pc.take(group[c], take) for c in self.keep_cols}
        out["rank"] = pa.array(np.tile(np.arange(1, kk + 1), n), pa.int64())
        out["site_id"] = pa.array(pid.ravel(), pa.int64())
        out["dist2"] = pa.array(pd2.ravel(), pa.float64())
        return pa.table(out)


class NearestPolygon:
    """The edge side of `nearest_polygon_join`, built once per process:
    for every point, the nearest polygon of a broadcast polygon set by
    squared point-to-edge distance (planar lon/lat, consistent with the
    PIP kernel's geometry), tie-broken to the smallest poly_id.

    Small-side broadcast pattern: the edge table ships ONCE via ray.put;
    __init__ derives edge vectors / length² and the per-poly reduceat
    bounds. __call__ chunks the point rows so the (chunk × edges)
    distance matrix stays ~15 MB. The float expression
    tree — ex = x2-x1, t = clip(dot/len², 0, 1), q = x1 + t·ex,
    d² = (p-q)² — is mirrored operation-for-operation by the SQL oracle
    (pipelines/oracles.py:nearest_polygon_sql), so d2 is bit-exact.
    At a large polygon corpus the scale path is the engine's cell
    partitioning (replicate edges to nearby cells); broadcast is the
    exact, zero-shuffle default for bounded polygon sets.
    """

    def __init__(self, e: dict, chunk: int = 512):
        order = np.argsort(e["poly_id"], kind="stable")
        self.pid = e["poly_id"][order]
        self.x1 = e["x1"][order]
        self.y1 = e["y1"][order]
        self.ex = (e["x2"] - e["x1"])[order]
        self.ey = (e["y2"] - e["y1"])[order]
        self.len2 = self.ex * self.ex + self.ey * self.ey
        self.safe_len2 = np.where(self.len2 > 0, self.len2, 1.0)
        self.degen = self.len2 <= 0
        self.upid, self.starts = np.unique(self.pid, return_index=True)
        self.chunk = chunk

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch["lon"], np.float64)
        lat = np.asarray(batch["lat"], np.float64)
        n = len(lon)
        best_poly = np.empty(n, np.int64)
        best_d2 = np.empty(n, np.float64)
        for s in range(0, n, self.chunk):
            L = lon[s:s + self.chunk][:, None]
            A = lat[s:s + self.chunk][:, None]
            px = L - self.x1[None, :]
            py = A - self.y1[None, :]
            dot = px * self.ex + py * self.ey
            t = np.clip(dot / self.safe_len2, 0.0, 1.0)
            t[:, self.degen] = 0.0
            dx = L - (self.x1 + t * self.ex)
            dy = A - (self.y1 + t * self.ey)
            d2 = dx * dx + dy * dy
            md2 = np.minimum.reduceat(d2, self.starts, axis=1)
            arg = np.argmin(md2, axis=1)        # first min = min poly_id
            best_poly[s:s + self.chunk] = self.upid[arg]
            best_d2[s:s + self.chunk] = md2[np.arange(len(arg)), arg]
        return pa.table({
            "page_id": batch["page_id"],
            "nearest_poly": pa.array(best_poly, pa.int64()),
            "d2": pa.array(best_d2, pa.float64()),
        })


def nearest_polygon_join(pages, edges: dict):
    """pages (streams) x broadcast polygon edge set -> per page the
    nearest polygon + squared distance, a task map fused with the maps
    before it. `edges` is the edge_table dict (poly_id, x1, y1, x2, y2)
    already restricted to the wanted polygons."""
    return map_side(pages, "nearest_polygon", NearestPolygon,
                    put_side(edges))
