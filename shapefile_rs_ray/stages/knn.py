"""kNN stage (J3 in SURVEY.md §2.6): each page -> its k nearest sites.

One kernel, `KnnStage`, serves both plans: `knn_join` maps it over the
pages (`broadcast.map_side`), `knn_join_cellpart` calls it once per
partition of an exchange on the page's cell (`broadcast.part_fn`). The
sites are put once; each worker process builds the stage once: exact
blockwise brute force up to `brute_threshold` sites, else a
`GridKnnIndex` (the per-cell "kd-tree" of the north star: buckets are
cells, candidates come from expanding rings, a ring bound stops exactly).

The grid holds about `SITES_PER_CELL` sites per cell, because it runs one
Python ring search per occupied query cell of a batch: cells of ~1 site
(`span / sqrt(n)`) meant about one search per page. 30k pages and sites
uniform in one box, k=3, Ray at 2 logical CPUs on 1 core, ~1 vs ~64
sites per cell: `knn_join` 1.8 vs 0.8 s at 20k sites, 1.9 vs 1.3 s at
10^5; `knn_join_cellpart` 1.6 vs 0.9 s at 10^5.

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

# rows per distance block: a brute chunk, or one grid group's slice
BLOCK = 2048
# mean sites per grid cell that `KnnStage` sizes its grid for
SITES_PER_CELL = 64


def nearest(d2: np.ndarray, kk: int) -> np.ndarray:
    """Each row's first `kk` columns in (d2, column) order, as a stable
    argsort's `[:, :kk]`, without sorting whole rows: select by the kth
    value, ties at it going to the lower columns, then sort `kk` per row."""
    m, c = d2.shape
    if c > kk > 0:
        kth = np.partition(d2, kk - 1, axis=1)[:, kk - 1, None]
        take = d2 < kth
        eq = d2 == kth
        take |= eq & (np.cumsum(eq, axis=1)
                      <= kk - take.sum(axis=1, keepdims=True))
        # short only for a row with fewer than kk non-NaN values
        if np.count_nonzero(take) == m * kk:
            cols = np.nonzero(take)[1].reshape(m, kk)
            sel = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1,
                             kind="stable")
            return np.take_along_axis(cols, sel, axis=1)
    return np.argsort(d2, axis=1, kind="stable")[:, :kk]


class GridKnnIndex:
    """Uniform-grid bucket index over sites with expanding-ring search,
    answered per query CELL-GROUP: a batch is lexsorted by query cell, and
    each cell runs ONE ring gather per `BLOCK` of its rows, scored with one
    (rows x candidates) distance block. Exact: the ring stops only when
    its minimum possible separation from anywhere in the cell exceeds
    every query's current kth-best distance."""

    def __init__(self, lon: np.ndarray, lat: np.ndarray, site_ids: np.ndarray,
                 cell_size: float):
        self.lon = np.asarray(lon, np.float64)
        self.lat = np.asarray(lat, np.float64)
        self.ids = np.asarray(site_ids, np.int64)
        self.cs = float(cell_size)
        gx = np.floor(self.lon / self.cs).astype(np.int64)
        gy = np.floor(self.lat / self.cs).astype(np.int64)
        key = gx * 1_000_003 + gy
        self.order = np.argsort(key, kind="stable")
        self.sorted_keys = key[self.order]
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
        parts: list[np.ndarray] = []
        ring = 0
        while True:
            if ring > self.max_ring:
                # numerical-degeneracy fallback: every site, once
                have = np.arange(n_sites)
            else:
                parts.extend(self._bucket(cx, cy)
                             for cx, cy in self._ring_cells(gx, gy, ring))
                have = np.concatenate(parts)
            # ring 0 can stop only at distance 0: not worth a score
            if len(have) >= kk and (ring or len(have) == n_sites):
                # candidates in id order, so (d2, column) order breaks
                # exact-distance ties by ascending site_id
                cand = have[np.argsort(self.ids[have], kind="stable")]
                dx = x[:, None] - self.lon[cand][None, :]
                dy = y[:, None] - self.lat[cand][None, :]
                d2 = dx * dx + dy * dy
                sel = nearest(d2, kk)
                top = np.take_along_axis(d2, sel, axis=1)
                # a site outside Chebyshev ring r is >= r*cs from anywhere
                # in cell (gx, gy)
                if (ring * self.cs >= np.sqrt(top.max(initial=0.0))
                        or len(have) == n_sites):
                    return cand[sel], top
            ring += 1

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
        new = np.ones(n, bool)
        new[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
        bounds = np.append(np.nonzero(new)[0], n)
        for s, e in zip(bounds[:-1], bounds[1:]):
            # a cell's run goes BLOCK rows at a time, so no distance block
            # exceeds BLOCK x candidates
            for b in range(s, e, BLOCK):
                rows = order[b:min(b + BLOCK, e)]
                out_idx[rows], out_d2[rows] = self._cell_group(
                    x[rows], y[rows], int(xs[b]), int(ys[b]), k)
        return out_idx, out_d2


class KnnStage:
    """The site side of both kNN plans, built once per process: k nearest
    sites per page row, in row order. Brute force up to `brute_threshold`
    sites, where it is faster: one call over 30k uniform pages on 1 core
    took 0.06 vs 0.07 s (brute vs grid) at 64 sites, 0.21 vs 0.23 s at
    256, 0.26-0.30 vs 0.25-0.28 s at 320, 0.9 vs 0.5 s at 1k.

    Output columns: keep_cols + rank (1-based), site_id, dist2.
    """

    def __init__(self, sites, k: int = 3, keep_cols=("page_id",),
                 lon_col="lon", lat_col="lat", brute_threshold: int = 256):
        sid, slon, slat = sites
        # id-sorted site arrays: (d2, column) order then breaks exact
        # distance ties by ascending site_id (the oracle's ROW_NUMBER order)
        order = np.argsort(np.asarray(sid), kind="stable")
        self.site_ids = np.asarray(sid, np.int64)[order]
        self.slon = np.asarray(slon, np.float64)[order]
        self.slat = np.asarray(slat, np.float64)[order]
        self.k = k
        self.keep_cols = list(keep_cols)
        self.lon_col, self.lat_col = lon_col, lat_col
        self.brute = len(self.site_ids) <= brute_threshold
        if not self.brute:
            span = max(self.slon.max() - self.slon.min(),
                       self.slat.max() - self.slat.min())
            per_side = np.sqrt(len(self.site_ids) / SITES_PER_CELL)
            # sites on one point: any positive cell size is exact
            cell = (span or 1.0) / max(per_side, 1.0)
            self.grid = GridKnnIndex(self.slon, self.slat, self.site_ids, cell)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch[self.lon_col], np.float64)
        lat = np.asarray(batch[self.lat_col], np.float64)
        n = len(lon)
        k = min(self.k, len(self.site_ids))
        nn_sites = np.empty((n, k), np.int64)
        nn_d2 = np.empty((n, k), np.float64)
        if self.brute:
            for s in range(0, n, BLOCK):
                e = min(s + BLOCK, n)
                dx = lon[s:e, None] - self.slon[None, :]
                dy = lat[s:e, None] - self.slat[None, :]
                d2 = dx * dx + dy * dy
                # sites are id-sorted, so (d2, column) order is
                # (distance asc, site_id asc), boundary ties included
                sel = nearest(d2, k)
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
    once and answers every batch from it."""
    return map_side(ds, "knn_batch", KnnStage, put_side(sites),
                    k=k, keep_cols=tuple(keep_cols))


CELL_PARTS = 251   # prime (CLAUDE.md partition-modulus rule)


def knn_join_cellpart(ds, sites: tuple[np.ndarray, np.ndarray, np.ndarray],
                      *, k: int = 3, zoom: int = 6,
                      keep_cols=("page_id",), lon_col="lon", lat_col="lat",
                      parts: int = CELL_PARTS):
    """J3 scale path: ONE `by_partition` exchange of the pages on their
    zoom `zoom` grid cell into `parts` partitions (cell % prime: a fixed,
    scale-free count of whole-cell partitions), each answered by the
    `KnnStage` that `knn_join` maps (`broadcast.part_fn`), so the rows
    equal `knn_join`'s. The exchange stays because it groups pages by
    cell: a partition's pages fill few of the stage's grid cells (at 10^5
    sites, module docstring: 1.2k ring searches over 13 partitions, 5.5k
    over `knn_join`'s 8 batches; 0.9 vs 1.3 s), and the doc side is what
    shuffles when docs >> memory.
    """
    from ..functions.cells import grid_cell

    def add_cell(batch: pa.Table) -> pa.Table:
        c = grid_cell(np.asarray(batch[lon_col], np.float64),
                      np.asarray(batch[lat_col], np.float64), zoom)
        return batch.append_column("__cell", pa.array(c, pa.int64()))

    knn = part_fn("cell_knn", KnnStage, put_side(sites), k=k,
                  keep_cols=tuple(keep_cols), lon_col=lon_col,
                  lat_col=lat_col)
    return by_partition(ds.map_batches(add_cell, batch_format="pyarrow"),
                        "__cell", knn, parts=parts)


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
