"""Point-in-polygon join stages (J1/J2 in SURVEY.md §2.6).

Two scalable realizations of the reference's nested-loop example
(examples/geotype-example/src/main.rs:16-38), both with identical output:

J1 `broadcast_pip_join` — broadcast join: the polygon side (small:
    decoded shapefile fixtures) is decoded + grouped ONCE on the driver
    and joined by `pip_batch`, a `broadcast.map_side` task map that Ray
    Data fuses into the maps before it (page synthesis, text stats, grid
    cells), so probe pages never cross the object store. Each Ray worker
    process builds the immutable PIPIndex (candidate grid, label raster,
    y-strips; `PipJoin`) on its first batch and keeps it, keyed by the
    side's content digest (`stages/broadcast.py`). A driver-put PIPIndex
    measured slower and larger in peak memory than a per-worker build
    (~0.2 s for ~1k lakes of ~250 edges, paid once per process). No
    shuffle at all — the right default when the polygon side
    fits in memory (even 10M polygons is ~GBs; Common-Crawl-scale doc
    sides never are).

J2 `cell_partitioned_pip` — shuffle join for a polygon side too big to
    broadcast: both sides get a grid-cell key (docs: point cell; polygons:
    bbox cell cover), hot cells are salted into sub-keys from a cheap
    count pre-pass, and one `combine.by_partition` exchange on the
    cell_salt key hands each coarse partition (many whole cell_salt
    groups) to one local join, `CellJoin`, called in the exchange's merge
    tasks: each worker process builds the polygon side and its per-cell
    PIPIndex cache once (`broadcast.part_fn`), with no actor pool.
    Documented partitioning assumption: a polygon appears in every cell
    its bbox covers, so each (doc-cell) group sees every polygon that
    could contain its docs; results are deduped by construction since a
    doc belongs to exactly one cell.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import cells as cells_mod
from ..geometry.pip import PIPIndex
from ..geometry.rings import (SimplePolygon, group_multipatch_rings,
                              group_rings)
from ..geometry.shp import MULTIPATCH, read_shp
from .broadcast import Side, map_side, part_fn, put_side
from .combine import by_partition, combine_by_key


def load_polygons(paths: list[str] | str,
                  strict: bool = False) -> list[SimplePolygon]:
    """Decode + ring-group shapefile polygon fixtures on the driver (small
    side). Multiple files get geom_id offsets of 1_000_000 per file.
    Multipatch files go through the role-aware patch grouping
    (multipatch.rs:358-402); with the default strict=False, strip/fan
    patches skip their shape instead of raising."""
    if isinstance(paths, str):
        paths = [paths]
    out: list[SimplePolygon] = []
    for fi, p in enumerate(paths):
        _, st = read_shp(p)
        group = (group_multipatch_rings if st.shape_type == MULTIPATCH
                 else group_rings)
        for sp in group(st, strict=strict):
            sp.geom_id = sp.geom_id + fi * 1_000_000
            out.append(sp)
    return out


class PipJoin:
    """J1's side as `broadcast.map_side` builds it once per process: the
    PIPIndex over the polygons. A call joins one probe batch: grid
    candidate pairs -> label lookup or exact even-odd refine -> matched
    rows (`keep_cols` + geom_id, poly_idx)."""

    def __init__(self, polys: list[SimplePolygon],
                 keep_cols=("page_id", "url")):
        self.index = PIPIndex(polys)
        self.keep_cols = keep_cols

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch["lon"], np.float64)
        lat = np.asarray(batch["lat"], np.float64)
        pt, poly = self.index.query(lon, lat)
        idx = pa.array(pt)
        out = {c: pc.take(batch[c], idx) for c in self.keep_cols}
        out["geom_id"] = pa.array(self.index.geom_ids[poly], pa.int64())
        out["poly_idx"] = pa.array(self.index.poly_idx[poly], pa.int64())
        return pa.table(out)


def broadcast_pip_join(ds, polys: list[SimplePolygon] | Side,
                       *, keep_cols=("page_id", "url"), concurrency=None):
    """ds (with lon/lat) x polys -> joined Dataset, one task
    `map_batches(pip_batch)` that Ray Data fuses into the maps before it.
    `polys` is the polygon list or a `broadcast.put_side` of it (plans
    that share a broadcast side put it once).

    `concurrency` is accepted and unused: Ray Data fuses task maps only
    when their concurrency is equal, so forwarding a caller's pool size
    would split the join from the upstream maps and send every page
    through the object store."""
    side = polys if isinstance(polys, Side) else put_side(polys)
    return map_side(ds, "pip_batch", PipJoin, side,
                    keep_cols=tuple(keep_cols))


# --------------------------------------------------------------------------
# J2: cell-partitioned shuffle join with skew salting
# --------------------------------------------------------------------------


def cell_counts(ds, zoom: int, lon_col="lon", lat_col="lat", cell_fn=None):
    """Exact per-cell page counts through `combine_by_key` — occupied-cell
    count grows with the corpus at high zooms, so a per-distinct-cell
    groupby is the measured-pathological shape. Returns Dataset(cell, n).
    `cell_fn(lon, lat) -> int64` overrides the quadkey tiling (H3 path)."""

    def cell_of(batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch[lon_col], np.float64)
        lat = np.asarray(batch[lat_col], np.float64)
        c = (cell_fn(lon, lat) if cell_fn is not None
             else cells_mod.grid_cell(lon, lat, zoom))
        return pa.table({"cell": pa.array(c, pa.int64())})

    return combine_by_key(ds.map_batches(cell_of, batch_format="pyarrow"),
                          "cell", {"n": ("cell", "count")})


def detect_hot_cells(ds, zoom: int, threshold: int,
                     lon_col="lon", lat_col="lat",
                     cell_fn=None) -> dict[int, int]:
    """Cheap pre-pass: exact cell counts -> {hot_cell: n_salts}. n_salts
    scales with the overflow factor, so a cell with 50x the threshold gets
    ~50 sub-keys. Only the (rare) above-threshold rows reach the driver."""
    agg = cell_counts(ds, zoom, lon_col=lon_col, lat_col=lat_col,
                      cell_fn=cell_fn)
    hot = {}
    for row in agg.filter(expr=f"n > {threshold}").take_all():
        # the shuffle key packs the salt into 10 bits -> hard cap 1024
        hot[int(row["cell"])] = min(
            1024, max(2, int(np.ceil(row["n"] / threshold))))
    return hot


class CellJoin:
    """J2's per-partition join, built once per worker process from the
    broadcast side (polygons, {cell: polygon indices}) by
    `broadcast.part_fn`. One call = one shuffle partition = many whole
    cell_salt groups; a per-cell PIPIndex cache persists across the calls
    and tasks the process runs."""

    def __init__(self, side, *, keep_cols, lon_col, lat_col):
        self.polys, self.cmap = side
        self.keep_cols = keep_cols
        self.lon_col, self.lat_col = lon_col, lat_col
        self.sub_indexes: dict[int, PIPIndex] = {}

    def _join_cell(self, cell: int, group: pa.Table):
        cand = self.cmap.get(cell, [])
        if not cand:
            return None
        idx = self.sub_indexes.get(cell)
        if idx is None:
            idx = PIPIndex([self.polys[i] for i in cand])
            if len(self.sub_indexes) > 4096:   # LRU-ish cap
                self.sub_indexes.clear()
            self.sub_indexes[cell] = idx
        lon = np.asarray(group[self.lon_col], np.float64)
        lat = np.asarray(group[self.lat_col], np.float64)
        pt, poly = idx.query(lon, lat)
        out = {c: pc.take(group[c], pa.array(pt)) for c in self.keep_cols}
        out["geom_id"] = pa.array(idx.geom_ids[poly], pa.int64())
        out["poly_idx"] = pa.array(idx.poly_idx[poly], pa.int64())
        return pa.table(out)

    def __call__(self, part: pa.Table) -> pa.Table:
        keys = np.asarray(part["cell_salt"], np.int64)
        order = np.argsort(keys, kind="stable")
        part = part.take(pa.array(order))
        keys = keys[order]
        _, starts = np.unique(keys, return_index=True)
        bounds = np.append(starts, len(keys))
        outs = []
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            cell = int(keys[b0]) // 1024
            res = self._join_cell(cell, part.slice(b0, b1 - b0))
            if res is not None and res.num_rows:
                outs.append(res)
        if not outs:
            empty = {c: part[c].slice(0, 0) for c in self.keep_cols}
            empty["geom_id"] = pa.array([], pa.int64())
            empty["poly_idx"] = pa.array([], pa.int64())
            return pa.table(empty)
        return pa.concat_tables(outs)


def _cell_shuffle_pip(ds, polys, *, cell_fn, cover_pairs, hot,
                      keep_cols, lon_col, lat_col, id_col):
    """Shared core of the cell-partitioned PIP joins (quadkey + H3): add
    (cell, salt) shuffle keys with hot-cell salting, ONE coarse
    prime-modulus shuffle, per-partition many-cell local joins
    (`CellJoin`, with a per-process PIPIndex cache per cell).
    `cell_fn(lon, lat) -> int64` must leave 10 headroom bits for the salt
    packing (quadkey keys and mode/res-stripped H3 keys both do)."""
    poly_idx, cover_cells = cover_pairs
    cell_to_polys: dict[int, list[int]] = {}
    for pi, cc in zip(poly_idx.tolist(), cover_cells.tolist()):
        cell_to_polys.setdefault(cc, []).append(pi)
    join = part_fn("cell_join", CellJoin, put_side((polys, cell_to_polys)),
                   keep_cols=tuple(keep_cols), lon_col=lon_col,
                   lat_col=lat_col)

    def add_cell(batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch[lon_col], np.float64)
        lat = np.asarray(batch[lat_col], np.float64)
        cell = cell_fn(lon, lat)
        salt = np.zeros(len(cell), np.int64)
        if hot:
            # any stable per-row value works as salt; fall back to row index
            ids = (np.asarray(batch[id_col], np.int64)
                   if id_col in batch.column_names
                   else np.arange(len(cell), dtype=np.int64))
            for hc, ns in hot.items():
                m = cell == hc
                salt[m] = ids[m] % ns
        key = cell * 1024 + salt  # cell_salt shuffle key (<=1024 salts)
        return batch.append_column("cell_salt", pa.array(key, pa.int64()))

    # coarse shuffle partitions: one fn call per ~1/251st of the key
    # space, per-cell joins delimited locally (a call per CELL pays a
    # scheduler round-trip per mostly-tiny cell). 251 is prime: a
    # power-of-two modulus would cancel against the *1024 packing and
    # collapse every salt-0 row into one partition.
    return by_partition(ds.map_batches(add_cell, batch_format="pyarrow"),
                        "cell_salt", join, parts=251)


def cell_partitioned_pip(ds, polys: list[SimplePolygon], *, zoom: int = 7,
                         keep_cols=("page_id", "url"),
                         hot_threshold: int = 50_000,
                         presample: float = 1.0,
                         pre_ds=None, pre_fraction: float = 1.0,
                         lon_col="lon", lat_col="lat",
                         id_col="page_id"):
    """Shuffle-based PIP join: one `by_partition` exchange on the
    cell [+salt] key, then a local join per cell_salt group.

    The polygon side is replicated to every cell its bbox covers (cell cover on
    the driver, broadcast as {cell: poly_idx list}); the doc side shuffles
    once by its point cell. Output rows match broadcast_pip_join exactly.
    """

    def cell_fn(lon, lat):
        return cells_mod.grid_cell(lon, lat, zoom)

    boxes = np.vstack([p.bbox for p in polys])
    cover_pairs = cells_mod.cover_bboxes(boxes, zoom)

    # skew pre-pass; hot-cell detection only tunes the salting —
    # correctness never depends on it — so a sketch suffices (what a
    # 100 TB run would do). Two sketch shapes:
    #  * pre_ds + pre_fraction: a CHEAPER dataset the caller can produce
    #    for ~pre_fraction of the rows (e.g. a reduced synthesis
    #    replication) — random_sample(ds) would still execute the full
    #    upstream and only then drop rows, paying a whole extra pass.
    #  * presample < 1: a seeded post-hoc sample of ds (fallback).
    # n_salts = ceil(count/threshold) is scale-free: sketch counts against
    # the proportionally scaled threshold estimate the same salt counts.
    if pre_ds is None:
        pre_ds = ds if presample >= 1.0 else ds.random_sample(presample,
                                                              seed=7)
        pre_fraction = presample
    pre_threshold = max(1, int(hot_threshold * pre_fraction))
    hot = detect_hot_cells(pre_ds, zoom, pre_threshold,
                           lon_col=lon_col, lat_col=lat_col)

    return _cell_shuffle_pip(ds, polys, cell_fn=cell_fn,
                             cover_pairs=cover_pairs, hot=hot,
                             keep_cols=keep_cols, lon_col=lon_col,
                             lat_col=lat_col, id_col=id_col)


def h3_partitioned_pip(ds, polys: list[SimplePolygon], *, res: int = 4,
                       keep_cols=("page_id", "url"),
                       hot_threshold: int = 50_000,
                       pre_ds=None, pre_fraction: float = 1.0,
                       lon_col="lon", lat_col="lat", id_col="page_id"):
    """cell_partitioned_pip with the bit-compatible H3 tiling as the
    shuffle key (the north star's "groupby-by-cell shuffles" with H3):
    polygon side replicated to its conservative H3 bbox cover
    (functions/h3.cover_bboxes — superset, exact PIP filters the rest),
    doc side shuffled once by its point's H3 cell, hot cells salted.
    Output rows match broadcast_pip_join / cell_partitioned_pip exactly.

    Shuffle-key packing: H3 ids occupy bit 59, so the cell key drops the
    constant mode/res bits (cell & (2^52-1) is unique at fixed res),
    leaving the 10 salt bits inside int64.
    """
    from ..functions import h3 as h3_mod

    MASK52 = (1 << 52) - 1

    def cell_fn(lon, lat):
        return h3_mod.encode_vec(lat, lon, res) & MASK52

    boxes = np.vstack([p.bbox for p in polys])
    poly_idx, cover_cells = h3_mod.cover_bboxes(boxes, res)
    cover_pairs = (poly_idx, cover_cells & MASK52)

    if pre_ds is None:
        pre_ds = ds
        pre_fraction = 1.0
    pre_threshold = max(1, int(hot_threshold * pre_fraction))
    hot = detect_hot_cells(pre_ds, 0, pre_threshold, lon_col=lon_col,
                           lat_col=lat_col, cell_fn=cell_fn)

    return _cell_shuffle_pip(ds, polys, cell_fn=cell_fn,
                             cover_pairs=cover_pairs, hot=hot,
                             keep_cols=keep_cols, lon_col=lon_col,
                             lat_col=lat_col, id_col=id_col)
