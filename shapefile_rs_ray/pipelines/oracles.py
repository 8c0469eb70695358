"""DuckDB-oracle support: golden parquets + SQL builders.

The driver's correctness harness runs each queries() pipeline AND the
matching oracle_sql() string side by side. What SQL cannot restate
sanely (polygon geometry, the scalar codec and text twins, the H3
encoder) is a golden parquet under ORACLE_DIR, and every golden goes
through one cache, `golden(name, key, build)`. The key names the inputs
the golden is built from: the realpath, size and mtime of the lakes
files or of the corpus, plus the builder's parameters. A file is reused
iff the JSON key stamped in its schema metadata equals that key; an
id-derived golden stamped with a coverage count `n` also serves any
smaller `n`. Otherwise `build()` runs, and its table is written to a
per-process tmp file and renamed into place, so concurrent callers never
see a partial file. The lakes edge and bbox tables come from the
golden-tested decoder, and the oracle SQL ray-casts with the EXACT
expression the engine's numpy kernel uses (geometry/pip.py), so
agreement is bit-level.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions import synth
from ..geometry.rings import edge_table
from ..raydata import block_refs
from ..stages.pip_join import load_polygons

ORACLE_DIR = "/tmp/graft_oracle"
# the shapefile fixtures checked in under tests/data (scripts/make_fixtures.py)
FIXTURE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "tests", "data")
LAKES = os.path.join(FIXTURE_DIR, "ne_10m_lakes_north_america.shp")

H3_RESOLUTIONS = (4, 5, 6, 7, 8, 9)
H3_RING_RES = 7
H3_RING_STEP = 20           # every 20th page gets its ring in the query
H3_POLYFILL_RES = 5
H3_COMPACT_RES = 7          # polyfill res the compaction starts from
H3_COMPACT_TOPK = 10        # largest lakes by bbox area (area DESC, poly_id)
RASTER_W = 4096             # raster grid width / height (pixels)
RASTER_H = 4096
RASTER_TOPK = 25            # lakes burned into the raster (area DESC)
RASTER_TILE_ROWS = 256      # vectorize row-band tile height
RASTER_REGIONS = f"raster_regions_w{RASTER_W}_k{RASTER_TOPK}"
DP_EPS = 0.01               # simplify_lakes Douglas-Peucker tolerance (deg)
Y4M_SAMPLES = 4             # frames the y4m twin samples per stream
HEX_RESOLUTIONS = (4, 5, 6, 7, 8, 9)    # cells_multi hex tilings
S2_LEVELS = (8, 12)                     # cells_multi S2 levels
SIMHASH_MAX_HAMMING = 3
CMS_D, CMS_W = 4, 1024      # cms_users Count-Min rows x columns

_KEY = b"golden_key"


def golden_path(name: str) -> str:
    """Golden parquet `name`, under ORACLE_DIR as it is at call time."""
    return os.path.join(ORACLE_DIR, f"{name}.parquet")


def _read(name: str) -> str:
    """SQL table function over golden `name`."""
    return f"read_parquet('{golden_path(name)}')"


def _write(path: str, tbl: pa.Table) -> None:
    """Atomic write: a per-process tmp file, renamed into place."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)


def _covers(have: dict, want: dict) -> bool:
    """A stamped key serves a wanted one iff the two are equal, except
    that a stamped coverage count `n` serves any smaller wanted `n`."""
    have, want = dict(have), dict(want)
    hn, wn = have.pop("n", None), want.pop("n", None)
    return have == want and (hn == wn or (None not in (hn, wn) and hn >= wn))


def golden(name: str, key: dict, build: Callable[[], pa.Table]) -> str:
    """The one golden cache: the path of golden `name`, reused iff its
    stamped key covers `key` (see `_covers`), else built by `build()`,
    stamped with `key` and written atomically."""
    path = golden_path(name)
    want = json.loads(json.dumps(key))
    if os.path.exists(path):
        stamp = (pq.read_schema(path).metadata or {}).get(_KEY)
        if stamp is not None and _covers(json.loads(stamp), want):
            return path
    tbl = build()
    md = {**(tbl.schema.metadata or {}), _KEY: json.dumps(want).encode()}
    _write(path, tbl.replace_schema_metadata(md))
    return path


def _file_id(path: str) -> list:
    st = os.stat(path)
    return [os.path.realpath(path), st.st_size, st.st_mtime_ns]


def lakes_key(**params) -> dict:
    """Key of a golden built from LAKES: its .shp and .shx as they are
    now, plus the builder's parameters."""
    return {"shp": _file_id(LAKES),
            "shx": _file_id(os.path.splitext(LAKES)[0] + ".shx"), **params}


def corpus_key(sf_dir: str, **params) -> dict:
    """Key of a golden built from an sf corpus: the dir's realpath and
    its documents.parquet as it is now, plus the builder's parameters."""
    return {"sf": os.path.realpath(sf_dir),
            "docs": _file_id(os.path.join(sf_dir, "documents.parquet")),
            **params}


def _fan_out(n: int, step: int, chunk) -> pa.Table:
    """chunk(start, stop) over [0, n) in `step`-sized Ray tasks,
    concatenated in order (Ray is up when queries() callables run)."""
    import ray

    @ray.remote
    def _task(start: int, stop: int) -> pa.Table:
        return chunk(start, stop)

    return pa.concat_tables(ray.get([_task.remote(s, min(s + step, n))
                                     for s in range(0, n, step)]))


def ensure_artifacts() -> None:
    """The polygon edge/bbox tables, the S2 Hilbert lookup table and the
    single-node decode golden for decode_lakes: four goldens, each keyed
    on the lakes files (the lookup on nothing: it is the public S2
    scheme), so repointing LAKES rebuilds them; each is written
    atomically, so concurrent callers are safe."""
    from ..functions.cells import _LOOKUP_POS
    from ..sources.shapefile import geometry_summary, read_shapefile_table

    def edges() -> pa.Table:
        et = edge_table(load_polygons(LAKES))
        return pa.table({k: pa.array(v) for k, v in et.items()})

    def boxes() -> pa.Table:
        polys = load_polygons(LAKES)
        return pa.table({
            "poly_id": pa.array(np.arange(len(polys), dtype=np.int64)),
            "geom_id": pa.array([p.geom_id for p in polys], pa.int64()),
            "poly_idx": pa.array([p.poly_idx for p in polys], pa.int64()),
            "xmin": pa.array([p.bbox[0] for p in polys], pa.float64()),
            "ymin": pa.array([p.bbox[1] for p in polys], pa.float64()),
            "xmax": pa.array([p.bbox[2] for p in polys], pa.float64()),
            "ymax": pa.array([p.bbox[3] for p in polys], pa.float64()),
        })

    key = lakes_key()
    golden("lakes_edges", key, edges)
    golden("lakes_boxes", key, boxes)
    golden("s2_lookup", {}, lambda: pa.table({
        "idx": pa.array(np.arange(len(_LOOKUP_POS), dtype=np.int64)),
        "val": pa.array(_LOOKUP_POS, pa.int64()),
    }))
    # decode_lakes golden: the whole-file SINGLE-NODE decode (the path the
    # reference's read_tests assert against), summarized with the same
    # projection the Ray datasource query uses — the driver's hash compare
    # then verifies the distributed split/assembly path record-for-record
    golden("lakes_summary", key, lambda: geometry_summary(
        read_shapefile_table(LAKES, with_attrs=False)))


def ensure_lakes_vertices() -> str:
    """The lake_measures oracle golden: every vertex of the SINGLE-NODE
    whole-file decode as (geom_id, part_idx, vtx_idx, x, y) — the decoder
    is byte-golden-tested in pytest, so the driver's hash compare of the
    quantized measures covers the distributed decode + measure path
    against an independent single-node expansion."""
    from ..geometry.schema import explode_xy
    from ..sources.shapefile import read_shapefile_table

    def build() -> pa.Table:
        ex = explode_xy(read_shapefile_table(LAKES, with_attrs=False))
        return pa.table({
            "geom_id": pa.array(ex["pt_geom"], pa.int64()),
            "part_idx": pa.array(ex["pt_part"], pa.int64()),
            "vtx_idx": pa.array(ex["vtx_idx"], pa.int64()),
            "x": pa.array(ex["x"], pa.float64()),
            "y": pa.array(ex["y"], pa.float64()),
        })

    return golden("lakes_vertices", lakes_key(), build)


def ensure_dp_golden() -> str:
    """The simplify_lakes golden: kept vertices of the RECURSIVE SCALAR
    Douglas-Peucker twin (stages/simplify.dp_keep_scalar) at DP_EPS over
    the single-node decode — independent control flow from the
    distributed iterative kernel, same comparison contract."""
    from ..geometry.schema import explode_xy
    from ..sources.shapefile import read_shapefile_table
    from ..stages.simplify import dp_keep_scalar

    def build() -> pa.Table:
        ex = explode_xy(read_shapefile_table(LAKES, with_attrs=False))
        rows = {"geom_id": [], "part_idx": [], "vtx_idx": [], "x": [],
                "y": []}
        for p in range(len(ex["lens_pts"])):
            s, e = int(ex["pt_cum"][p]), int(ex["pt_cum"][p + 1])
            xs = ex["x"][s:e].tolist()
            ys = ex["y"][s:e].tolist()
            keep = dp_keep_scalar(xs, ys, DP_EPS)
            for v, kept in enumerate(keep):
                if kept:
                    rows["geom_id"].append(int(ex["part_geom"][p]))
                    rows["part_idx"].append(int(ex["part_idx"][p]))
                    rows["vtx_idx"].append(v)
                    rows["x"].append(xs[v])
                    rows["y"].append(ys[v])
        return pa.table({
            "geom_id": pa.array(rows["geom_id"], pa.int64()),
            "part_idx": pa.array(rows["part_idx"], pa.int64()),
            "vtx_idx": pa.array(rows["vtx_idx"], pa.int64()),
            "x": pa.array(rows["x"], pa.float64()),
            "y": pa.array(rows["y"], pa.float64()),
        })

    return golden("lakes_dp_golden", lakes_key(eps=DP_EPS), build)


def ensure_h3_golden(n_pages: int) -> str:
    """The H3 oracle golden: (page_id, h3_r4..h3_r9 hex) for every page
    id < n_pages, computed by the SCALAR encoder
    (functions/h3.encode_scalar) over the deterministic page geocodes —
    independent control flow from the vectorized production kernel, so the
    driver's hash compare is a real cross-implementation check. Scalar
    encodes are slow, so the generation fans out over Ray tasks. Keyed on
    functions/h3.IMPL_TAG (a golden from an older inverse must not mix old
    center floats with new engine output) and on n_pages."""
    from ..functions import h3 as h3_mod

    def chunk(start: int, stop: int) -> pa.Table:
        from ..functions import h3 as h3mod
        ids = np.arange(start, stop, dtype=np.int64)
        lon, lat = synth.geocode(ids)
        cols: dict = {"page_id": pa.array(ids, pa.int64())}
        for res in H3_RESOLUTIONS:
            cols[f"h3_r{res}"] = pa.array(
                [format(h3mod.encode_scalar(la, lo, res), "x")
                 for la, lo in zip(lat, lon)], pa.string())
        return pa.table(cols)

    return golden("h3_golden", {"impl": h3_mod.IMPL_TAG, "n": n_pages},
                  lambda: _fan_out(n_pages, 20000, chunk))


def ensure_h3_ring_golden(n_pages: int) -> str:
    """Golden for the h3_ring query: (page_id, ring_cell hex) for every
    sampled page (page_id % H3_RING_STEP == 0), computed by the SCALAR
    ring twin (functions/h3.grid_disk_scalar — independent control flow
    from the vectorized grid traversal). Ray-task fan-out, keyed like
    ensure_h3_golden."""
    from ..functions import h3 as h3_mod
    need = (n_pages + H3_RING_STEP - 1) // H3_RING_STEP

    def chunk(start: int, stop: int) -> pa.Table:
        from ..functions import h3 as h3mod
        ids = np.arange(start, stop, dtype=np.int64) * H3_RING_STEP
        ids = ids[ids < n_pages]
        lon, lat = synth.geocode(ids)
        out_ids, out_cells = [], []
        for pid, lo, la in zip(ids.tolist(), lon.tolist(), lat.tolist()):
            for cell in h3mod.grid_disk_scalar(la, lo, H3_RING_RES):
                out_ids.append(pid)
                out_cells.append(format(cell, "x"))
        return pa.table({"page_id": pa.array(out_ids, pa.int64()),
                         "ring_cell": pa.array(out_cells, pa.string())})

    return golden("h3_ring_golden", {"impl": h3_mod.IMPL_TAG, "n": n_pages},
                  lambda: _fan_out(need, 4000, chunk))


def ensure_h3_polyfill_centers() -> str:
    """Golden for h3_polyfill: one row (cell hex, clat, clng) per distinct
    H3 cell in the lakes' bbox covers at H3_POLYFILL_RES. Centers come
    from the verified inverse (functions/h3.cell_to_latlng — re-encode
    round-trip pytest-asserted); the center-in-polygon DECISION is then
    recomputed fully in SQL by the same ray-cast expression the engine
    uses, so the oracle independently checks the PIP decision."""
    from ..functions import h3 as h3_mod

    def build() -> pa.Table:
        polys = load_polygons(LAKES)
        boxes = np.vstack([p.bbox for p in polys])
        _, cover = h3_mod.cover_bboxes(boxes, H3_POLYFILL_RES)
        cells = np.unique(cover)
        clat, clng = h3_mod.cell_to_latlng(cells)
        return pa.table({"cell": pa.array(h3_mod.to_hex(cells), pa.string()),
                         "clat": pa.array(clat, pa.float64()),
                         "clng": pa.array(clng, pa.float64())})

    return golden("h3_polyfill_centers",
                  lakes_key(impl=h3_mod.IMPL_TAG, res=H3_POLYFILL_RES), build)


def h3_polyfill_sql() -> str:
    """h3_polyfill oracle: golden cell centers x bbox prefilter + the
    EXACT even-odd crossing expression from pip_join_sql — the polygon
    membership decision is recomputed in SQL end-to-end."""
    return f"""
WITH centers AS (SELECT * FROM {_read("h3_polyfill_centers")}),
cand AS (
  SELECT c.cell, c.clat, c.clng, b.poly_id, b.geom_id, b.poly_idx
  FROM centers c
  JOIN {_read("lakes_boxes")} b
    ON c.clng >= b.xmin AND c.clng <= b.xmax
   AND c.clat >= b.ymin AND c.clat <= b.ymax),
crossed AS (
  SELECT c.cell, c.geom_id, c.poly_idx,
         SUM(CASE WHEN (e.y1 > c.clat) <> (e.y2 > c.clat)
                   AND c.clng < (e.x2 - e.x1) * (c.clat - e.y1) / (e.y2 - e.y1) + e.x1
                  THEN 1 ELSE 0 END) AS crossings
  FROM cand c
  JOIN {_read("lakes_edges")} e ON e.poly_id = c.poly_id
  GROUP BY c.cell, c.geom_id, c.poly_idx)
SELECT cell, geom_id, poly_idx FROM crossed WHERE crossings % 2 = 1
"""


def top_lakes_bboxes(k: int | None = None) -> np.ndarray:
    """Positional poly indices of the k (default H3_COMPACT_TOPK)
    largest lakes by bbox area, ordered (area DESC, poly_id ASC) — the
    same f64 product the oracle's ORDER BY computes, so both sides
    select identical polygons."""
    polys = load_polygons(LAKES)
    boxes = np.vstack([p.bbox for p in polys])
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    order = np.lexsort((np.arange(len(polys)), -area))
    return order[:(H3_COMPACT_TOPK if k is None else k)]


def clip_tile_box() -> tuple[float, float, float, float]:
    """The clip_lakes tile (xmin, ymin, xmax, ymax): the bbox around the
    `top_lakes_bboxes()` lakes, so it follows the corpus and cuts some of
    its edges. The engine and the SQL twin both clip to it."""
    boxes = np.vstack([p.bbox for p in load_polygons(LAKES)])
    sel = boxes[top_lakes_bboxes()]
    return (float(sel[:, 0].min()), float(sel[:, 1].min()),
            float(sel[:, 2].max()), float(sel[:, 3].max()))


def ensure_h3_compact_centers() -> str:
    """Golden for h3_compact: (cell BIGINT, clat, clng) per distinct cell
    in the top-K lakes' bbox covers at H3_COMPACT_RES, centers from the
    verified inverse. Only the center coordinates are golden — candidate
    selection, the center-in-polygon decision, and the full multi-level
    compaction are recomputed in SQL."""
    from ..functions import h3 as h3_mod

    def build() -> pa.Table:
        polys = load_polygons(LAKES)
        sel = top_lakes_bboxes()
        boxes = np.vstack([polys[i].bbox for i in sel])
        _, cover = h3_mod.cover_bboxes(boxes, H3_COMPACT_RES)
        cells = np.unique(cover)
        clat, clng = h3_mod.cell_to_latlng(cells)
        return pa.table({"cell": pa.array(cells, pa.int64()),
                         "clat": pa.array(clat, pa.float64()),
                         "clng": pa.array(clng, pa.float64())})

    return golden("h3_compact_centers",
                  lakes_key(impl=h3_mod.IMPL_TAG, res=H3_COMPACT_RES,
                            k=H3_COMPACT_TOPK), build)


def h3_compact_sql() -> str:
    """h3_compact oracle: polyfill at H3_COMPACT_RES of the top-K lakes
    (candidates + PIP decision recomputed in SQL as in h3_polyfill_sql),
    then the FULL compactCells algorithm restated in SQL — one unrolled
    level per resolution (complete sibling sets collapse to their parent;
    pentagon parents need 6 children, hexagons 7), all in BIGINT bit ops
    on the H3 index layout (res field bits 52-55, digit r at bits
    3*(15-r), base cell bits 45-51)."""
    from ..functions import h3 as h3_mod
    pents = ",".join(str(b) for b in h3_mod.PENTAGON_BCS)

    def parent(col: str, r: int) -> str:
        # child at res r -> parent at res r-1: rewrite res field, digit r -> 7
        return (f"(({col} & ~(CAST(15 AS BIGINT) << 52)) | "
                f"(CAST({r - 1} AS BIGINT) << 52) | "
                f"(CAST(7 AS BIGINT) << {3 * (15 - r)}))")

    def is_pent(col: str, q: int) -> str:
        # pentagon at res q: pentagon base cell AND digits 1..q all zero
        digit_mask = (1 << (3 * q)) - 1
        return (f"((({col} >> 45) & 127) IN ({pents}) AND "
                f"(({col} >> {3 * (15 - q)}) & {digit_mask}) = 0)")

    # MATERIALIZED is load-bearing: each s{r-1} references s{r} three
    # times; inlining would expand the base PIP query 3^7 times.
    levels = []
    for r in range(H3_COMPACT_RES, 0, -1):
        levels.append(f"""
comp{r} AS MATERIALIZED (
  SELECT poly_id, geom_id, poly_idx, p AS cell FROM (
    SELECT t.poly_id, t.geom_id, t.poly_idx, {parent('t.cell', r)} AS p
    FROM s{r} t WHERE ((t.cell >> 52) & 15) = {r})
  GROUP BY poly_id, geom_id, poly_idx, p
  HAVING count(*) = (CASE WHEN {is_pent('p', r - 1)} THEN 6 ELSE 7 END)),
s{r - 1} AS MATERIALIZED (
  SELECT t.poly_id, t.geom_id, t.poly_idx, t.cell
  FROM s{r} t LEFT JOIN comp{r} c
    ON c.poly_id = t.poly_id
   AND ((t.cell >> 52) & 15) = {r}
   AND c.cell = {parent('t.cell', r)}
  WHERE c.cell IS NULL
  UNION ALL SELECT poly_id, geom_id, poly_idx, cell FROM comp{r})""")
    return f"""
WITH centers AS (SELECT * FROM {_read("h3_compact_centers")}),
sel AS (
  SELECT poly_id, geom_id, poly_idx, xmin, ymin, xmax, ymax
  FROM {_read("lakes_boxes")}
  ORDER BY (xmax - xmin) * (ymax - ymin) DESC, poly_id
  LIMIT {H3_COMPACT_TOPK}),
cand AS (
  SELECT c.cell, c.clat, c.clng, b.poly_id, b.geom_id, b.poly_idx
  FROM centers c
  JOIN sel b
    ON c.clng >= b.xmin AND c.clng <= b.xmax
   AND c.clat >= b.ymin AND c.clat <= b.ymax),
crossed AS (
  SELECT c.cell, c.poly_id, c.geom_id, c.poly_idx,
         SUM(CASE WHEN (e.y1 > c.clat) <> (e.y2 > c.clat)
                   AND c.clng < (e.x2 - e.x1) * (c.clat - e.y1) / (e.y2 - e.y1) + e.x1
                  THEN 1 ELSE 0 END) AS crossings
  FROM cand c
  JOIN {_read("lakes_edges")} e ON e.poly_id = c.poly_id
  GROUP BY c.cell, c.poly_id, c.geom_id, c.poly_idx),
s{H3_COMPACT_RES} AS MATERIALIZED (
  SELECT poly_id, geom_id, poly_idx, cell FROM crossed
  WHERE crossings % 2 = 1),{",".join(levels)}
SELECT geom_id, poly_idx, cell, ((cell >> 52) & 15) AS res FROM s0
"""


def _raster_zone_ctes() -> str:
    """Shared CTE chain computing the zone raster ENTIRELY in SQL:
    top-K lake selection, grid parameters (min/max + one division —
    merge-order-free), per-axis pixel-center generation against each
    polygon's bbox (generate_series; DuckDB has no lateral series, so
    the x and y axes are filtered independently and equi-joined on
    poly_id), the engine's exact even-odd crossing expression over the
    shared edge table, and min-zone resolution per pixel. Ends with
    zones(pix, ix, iy, zone)."""
    center = ("g.{o}0 + (CAST(t.i AS DOUBLE) + 0.5) * g.d{a}")
    return f"""
sel AS (
  SELECT poly_id, geom_id, xmin, ymin, xmax, ymax
  FROM {_read("lakes_boxes")}
  ORDER BY (xmax - xmin) * (ymax - ymin) DESC, poly_id
  LIMIT {RASTER_TOPK}),
grid AS (
  SELECT min(xmin) AS x0, min(ymin) AS y0,
         (max(xmax) - min(xmin)) / {RASTER_W} AS dx,
         (max(ymax) - min(ymin)) / {RASTER_H} AS dy
  FROM sel),
xs AS (
  SELECT b.poly_id, t.i AS ix, {center.format(o='x', a='x')} AS cx
  FROM sel b, grid g, generate_series(0, {RASTER_W - 1}) t(i)
  WHERE {center.format(o='x', a='x')} >= b.xmin
    AND {center.format(o='x', a='x')} <= b.xmax),
ys AS (
  SELECT b.poly_id, t.i AS iy, {center.format(o='y', a='y')} AS cy
  FROM sel b, grid g, generate_series(0, {RASTER_H - 1}) t(i)
  WHERE {center.format(o='y', a='y')} >= b.ymin
    AND {center.format(o='y', a='y')} <= b.ymax),
rcand AS (
  SELECT x.poly_id, s.geom_id, x.ix, y.iy, x.cx, y.cy,
         y.iy * {RASTER_W} + x.ix AS pix
  FROM xs x
  JOIN ys y ON y.poly_id = x.poly_id
  JOIN sel s ON s.poly_id = x.poly_id),
rcross AS (
  SELECT c.pix, c.ix, c.iy, c.poly_id, c.geom_id,
         SUM(CASE WHEN (e.y1 > c.cy) <> (e.y2 > c.cy)
                   AND c.cx < (e.x2 - e.x1) * (c.cy - e.y1) / (e.y2 - e.y1) + e.x1
                  THEN 1 ELSE 0 END) AS crossings
  FROM rcand c JOIN {_read("lakes_edges")} e ON e.poly_id = c.poly_id
  GROUP BY c.pix, c.ix, c.iy, c.poly_id, c.geom_id),
zones AS (
  SELECT pix, min(ix) AS ix, min(iy) AS iy, min(geom_id) AS zone
  FROM rcross WHERE crossings % 2 = 1
  GROUP BY pix)"""


def rasterize_zones_sql() -> str:
    """rasterize_zones oracle: the full raster recomputed in SQL — no
    golden inputs at all."""
    return f"WITH {_raster_zone_ctes()}\nSELECT pix, ix, iy, zone FROM zones"


def focal_stats_sql() -> str:
    """focal_stats oracle: 3x3 neighborhood restated as a 9-offset equi
    self-join (hash-joinable, unlike a BETWEEN band join) over the same
    fully-SQL raster CTEs; COUNT + integer SUM are merge-order-free."""
    return f"""WITH {_raster_zone_ctes()},
offs(dx, dy) AS (VALUES (-1,-1),(-1,0),(-1,1),(0,-1),(0,0),(0,1),
                        (1,-1),(1,0),(1,1))
SELECT a.pix,
       CAST(COUNT(*) AS BIGINT) AS n_nb,
       CAST(SUM(b.zone) AS BIGINT) AS sum_nb
FROM zones a
CROSS JOIN offs o
JOIN zones b ON b.ix = a.ix + o.dx AND b.iy = a.iy + o.dy
GROUP BY a.pix"""


def ensure_raster_regions() -> str:
    """Golden for vectorize_regions, keyed on the lakes and the raster
    size (see _raster_regions_table)."""
    return golden(RASTER_REGIONS,
                  lakes_key(w=RASTER_W, h=RASTER_H, k=RASTER_TOPK),
                  _raster_regions_table)


def _raster_regions_table() -> pa.Table:
    """(pix, region_id) from a single-node ascending-pixel BFS flood
    fill — algorithmically independent of the distributed tile-merge
    union-find (the iteration order makes each BFS seed the component's
    min pixel, matching the engine's label convention). Zone membership
    is NOT golden: the oracle recomputes the raster fully in SQL (CTEs
    shared with rasterize_zones) and joins this table only for the
    region label, so a membership disagreement breaks the join counts
    loudly."""
    from collections import deque

    from ..geometry.pip import PIPIndex
    from ..stages.raster import pixel_candidates
    polys = load_polygons(LAKES)
    sel = top_lakes_bboxes(RASTER_TOPK)
    cand = pixel_candidates(polys, sel, RASTER_W, RASTER_H)
    pid = np.asarray(cand["poly_id"], np.int64)
    pix = np.asarray(cand["cell"], np.int64)
    lat = np.asarray(cand["clat"], np.float64)
    lng = np.asarray(cand["clng"], np.float64)
    hits_pix, hits_zone = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for i in sel:
        m = np.nonzero(pid == int(i))[0]
        inside, _ = PIPIndex([polys[int(i)]]).query(lng[m], lat[m])
        hits_pix.append(pix[m[inside]])
        hits_zone.append(np.full(len(inside), polys[int(i)].geom_id,
                                 np.int64))
    hp, hz = np.concatenate(hits_pix), np.concatenate(hits_zone)
    order = np.lexsort((hz, hp))
    hp, hz = hp[order], hz[order]
    upix, starts = np.unique(hp, return_index=True)
    zmap = dict(zip(upix.tolist(), hz[starts].tolist()))
    region: dict[int, int] = {}
    w = RASTER_W
    for p in upix.tolist():                       # ascending pixel ids
        if p in region:
            continue
        region[p] = p
        dq = deque([p])
        while dq:
            q = dq.popleft()
            z = zmap[q]
            for nb in ((q - 1) if q % w else None,
                       (q + 1) if (q + 1) % w else None,
                       q - w, q + w):
                if (nb is not None and nb not in region
                        and zmap.get(nb) == z):
                    region[nb] = p
                    dq.append(nb)
    return pa.table({
        "pix": pa.array(np.fromiter(region.keys(), np.int64, len(region)),
                        pa.int64()),
        "region_id": pa.array(
            np.fromiter(region.values(), np.int64, len(region)), pa.int64()),
    })


def vectorize_regions_sql() -> str:
    """vectorize_regions oracle: SQL-recomputed raster joined to the
    BFS golden only for the region label; all stats aggregate in SQL."""
    return f"""
WITH {_raster_zone_ctes()}
SELECT g.region_id, min(z.zone) AS zone, count(*) AS n_pixels,
       min(z.ix) AS ix_min, min(z.iy) AS iy_min,
       max(z.ix) AS ix_max, max(z.iy) AS iy_max
FROM zones z JOIN {_read(RASTER_REGIONS)} g ON g.pix = z.pix
GROUP BY g.region_id
"""


PAGES_CTE = f"pages AS ({synth.webpages_sql()})"


def pip_join_sql() -> str:
    """Bbox prefilter (the grid index's role) + even-odd crossing count
    with the engine's exact edge expression."""
    return f"""
WITH {PAGES_CTE},
cand AS (
  SELECT p.page_id, p.url, p.lon, p.lat, b.poly_id, b.geom_id, b.poly_idx
  FROM pages p
  JOIN {_read("lakes_boxes")} b
    ON p.lon >= b.xmin AND p.lon <= b.xmax
   AND p.lat >= b.ymin AND p.lat <= b.ymax),
crossed AS (
  SELECT c.page_id, c.url, c.geom_id, c.poly_idx,
         SUM(CASE WHEN (e.y1 > c.lat) <> (e.y2 > c.lat)
                   AND c.lon < (e.x2 - e.x1) * (c.lat - e.y1) / (e.y2 - e.y1) + e.x1
                  THEN 1 ELSE 0 END) AS crossings
  FROM cand c
  JOIN {_read("lakes_edges")} e ON e.poly_id = c.poly_id
  GROUP BY c.page_id, c.url, c.geom_id, c.poly_idx)
SELECT page_id, url, geom_id, poly_idx
FROM crossed WHERE crossings % 2 = 1
"""


def nearest_polygon_sql() -> str:
    """Brute-force nearest polygon by squared point-to-edge distance over
    the RASTER_TOPK largest lakes — the SQL restates the engine's
    NearestPolygon float expression tree operation-for-operation (ex = x2-x1,
    t = clip(dot/len2, 0, 1), q = x1 + t*ex, d2 = (p-q)^2, degenerate
    edges pinned to t = 0), so MIN(d2) and the min-poly_id tie-break are
    bit-exact."""
    t_expr = ("CASE WHEN ex * ex + ey * ey > CAST('0.0' AS DOUBLE) THEN "
              "LEAST(GREATEST(((p.lon - x1) * ex + (p.lat - y1) * ey)"
              " / (ex * ex + ey * ey), CAST('0.0' AS DOUBLE)),"
              " CAST('1.0' AS DOUBLE)) ELSE CAST('0.0' AS DOUBLE) END")
    return f"""
WITH {PAGES_CTE},
sel AS (
  SELECT poly_id FROM {_read("lakes_boxes")}
  ORDER BY (xmax - xmin) * (ymax - ymin) DESC, poly_id
  LIMIT {RASTER_TOPK}),
ed AS (
  SELECT e.poly_id, e.x1, e.y1,
         e.x2 - e.x1 AS ex, e.y2 - e.y1 AS ey
  FROM {_read("lakes_edges")} e JOIN sel USING (poly_id)),
tt AS (
  SELECT p.page_id, ed.poly_id, p.lon, p.lat, x1, y1, ex, ey,
         {t_expr} AS t
  FROM pages p CROSS JOIN ed),
dd AS (
  SELECT page_id, poly_id,
         (lon - (x1 + t * ex)) * (lon - (x1 + t * ex))
         + (lat - (y1 + t * ey)) * (lat - (y1 + t * ey)) AS d2
  FROM tt),
pp AS (SELECT page_id, poly_id, MIN(d2) AS d2 FROM dd GROUP BY 1, 2),
best AS (SELECT page_id, MIN(d2) AS d2 FROM pp GROUP BY 1)
SELECT pp.page_id, MIN(pp.poly_id) AS nearest_poly, best.d2
FROM pp JOIN best ON pp.page_id = best.page_id AND pp.d2 = best.d2
GROUP BY pp.page_id, best.d2
"""


def cells_multi_sql() -> str:
    """Full oracle for the cells_multi tiling query: quadkey grid (shared
    grid_cell_sql), bit-exact S2 cell ids, and the hex tiling.

    The S2 path reproduces geometry/cells.py s2_cell operation-for-operation
    in f64 (measured bit parity on this host: numpy sin/cos/sqrt == DuckDB's
    libm calls on every gate value; radians as an explicit multiply by the
    same constant numpy uses). The Hilbert stage is 8 chained joins against
    the 1024-entry lookup parquet; the 64-bit accumulate runs in HUGEINT
    with integer `//` (a DOUBLE division would lose low bits) and wraps to
    the engine's int64 view at the end.
    """
    from ..functions.cells import grid_cell_sql, hex_cell_sql

    D = "CAST('{}' AS DOUBLE)".format
    RAD = D("0.017453292519943295")       # numpy's deg2rad constant
    max_size = D("1073741824.0")          # 2^30 as the f64 numpy multiplies by

    # Hilbert accumulation: 8 chained lookup joins, k = 7..0
    ctes = [f"""
h8 AS (SELECT page_id, lon, lat, face, i, j,
       face & 1 AS bits, CAST(0 AS HUGEINT) AS n FROM b6)"""]
    for k in range(7, -1, -1):
        prev = f"h{k + 1}"
        ctes.append(f"""
h{k} AS (SELECT t.page_id, t.lon, t.lat, t.face, t.i, t.j,
       L.val AS bits,
       t.n + CAST(L.val >> 2 AS HUGEINT)
             * CAST('{1 << (8 * k)}' AS HUGEINT) AS n
       FROM {prev} t JOIN {_read("s2_lookup")} L
         ON L.idx = (t.bits & 3) + (((t.i >> {4 * k}) & 15) * 64)
                    + (((t.j >> {4 * k}) & 15) * 4))""")

    def snap(level: int) -> str:
        """cell & ~(lsb-1) | lsb on the HUGEINT cell == ((q//2)*2+1)*lsb
        with q = cell // lsb (the | only SETS the lsb bit; a + would
        carry when q is odd)."""
        lsb = 1 << (2 * (30 - level))
        q = f"(cell30 // CAST('{lsb}' AS HUGEINT))"
        v = f"(({q} // 2 * 2 + 1) * CAST('{lsb}' AS HUGEINT))"
        # wrap unsigned 64 -> the engine's .view(int64)
        return (f"CAST(CASE WHEN {v} >= CAST('{1 << 63}' AS HUGEINT) "
                f"THEN {v} - CAST('{1 << 64}' AS HUGEINT) ELSE {v} END "
                f"AS BIGINT)")

    hex_cols = ", ".join(
        f"{hex_cell_sql('lon', 'lat', r)} AS hex_r{r}"
        for r in HEX_RESOLUTIONS)
    s2_cols = ", ".join(f"{snap(lv)} AS s2_l{lv}" for lv in S2_LEVELS)
    # H3 columns come from the scalar-encoder golden (ensure_h3_golden);
    # there is no sane pure-SQL restatement of the icosahedral encode
    h3_cols = ", ".join(f"g.h3_r{r}" for r in H3_RESOLUTIONS)

    return f"""
WITH {PAGES_CTE},
b0 AS (SELECT page_id, lon, lat,
       lon * {RAD} AS lonr, lat * {RAD} AS latr FROM pages),
b1 AS (SELECT *, cos(lonr) * cos(latr) AS x,
       sin(lonr) * cos(latr) AS y, sin(latr) AS z FROM b0),
b2 AS (SELECT *,
       CASE WHEN ABS(x) >= ABS(y)
            THEN CASE WHEN ABS(x) >= ABS(z) THEN 0 ELSE 2 END
            ELSE CASE WHEN ABS(y) >= ABS(z) THEN 1 ELSE 2 END END AS f0
       FROM b1),
b3 AS (SELECT *, f0 + CASE WHEN
       (CASE f0 WHEN 0 THEN x WHEN 1 THEN y ELSE z END) < 0
       THEN 3 ELSE 0 END AS face FROM b2),
b4 AS (SELECT *,
       CASE face WHEN 0 THEN y/x WHEN 1 THEN -x/y WHEN 2 THEN -x/z
                 WHEN 3 THEN z/x WHEN 4 THEN z/y ELSE -y/z END AS u,
       CASE face WHEN 0 THEN z/x WHEN 1 THEN z/y WHEN 2 THEN -y/z
                 WHEN 3 THEN y/x WHEN 4 THEN -x/y ELSE -x/z END AS v
       FROM b3),
b5 AS (SELECT *,
       CASE WHEN u >= 0 THEN {D('0.5')} * sqrt({D('1.0')} + {D('3.0')} * u)
            ELSE {D('1.0')} - {D('0.5')} * sqrt({D('1.0')} - {D('3.0')} * u)
            END AS su,
       CASE WHEN v >= 0 THEN {D('0.5')} * sqrt({D('1.0')} + {D('3.0')} * v)
            ELSE {D('1.0')} - {D('0.5')} * sqrt({D('1.0')} - {D('3.0')} * v)
            END AS sv
       FROM b4),
b6 AS (SELECT *,
       LEAST(GREATEST(CAST(TRUNC(su * {max_size}) AS BIGINT), 0),
             1073741823) AS i,
       LEAST(GREATEST(CAST(TRUNC(sv * {max_size}) AS BIGINT), 0),
             1073741823) AS j
       FROM b5),
{",".join(ctes)},
cells AS (SELECT page_id, lon, lat,
          CAST(face AS HUGEINT) * CAST('{1 << 61}' AS HUGEINT)
            + n * 2 + 1 AS cell30 FROM h0)
SELECT cells.page_id,
       {grid_cell_sql('lon', 'lat', 12)} AS cell_z12,
       {s2_cols},
       {hex_cols},
       {h3_cols}
FROM cells
JOIN {_read("h3_golden")} g ON g.page_id = cells.page_id
"""


def h3_ring_sql() -> str:
    """h3_ring oracle: the scalar-twin golden restricted to this scale's
    pages (the golden may cover a larger corpus)."""
    return f"""
WITH {PAGES_CTE}
SELECT p.page_id, g.ring_cell
FROM pages p
JOIN {_read("h3_ring_golden")} g ON g.page_id = p.page_id
WHERE p.page_id % {H3_RING_STEP} = 0
"""


def _crc32_table() -> list[int]:
    tbl = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ (0xEDB88320 if c & 1 else 0)
        tbl.append(c)
    return tbl


def _splitmix_sql(var: str) -> str:
    """HUGEINT restatement of functions/hashing.splitmix64 over a
    non-negative BIGINT column — split multiplication so no 64x64
    product overflows signed int128 (the simhash oracle's verified
    technique). Returns an expression in [0, 2^64)."""
    C1, M1, M2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    P32, P64 = 1 << 32, 1 << 64
    H = "CAST('{}' AS HUGEINT)".format

    def mulmod(z: str, m: int) -> str:
        return (f"((({z}) % {H(P32)} * {H(m)} "
                f"+ (({z}) // {H(P32)} * {H(m)}) % {H(P32)} * {H(P32)}) "
                f"% {H(P64)})")

    z0 = f"((CAST({var} AS HUGEINT) + {H(C1)}) % {H(P64)})"
    z1 = mulmod(f"xor({z0}, {z0} // {H(1 << 30)})", M1)
    z2 = mulmod(f"xor({z1}, {z1} // {H(1 << 27)})", M2)
    return f"xor({z2}, {z2} // {H(1 << 31)})"


def hll_users_sql() -> str:
    """hll_users oracle: the HyperLogLog register table recomputed
    entirely in SQL — splitmix64 over user_id in HUGEINT (the same
    split-multiplication restatement the simhash oracle uses), register
    = hv % 64, rank = 59 - bit_length(hv // 64) via an exact 58-arm
    integer CASE chain (no float log2), MAX per register. MAX is
    merge-order-free, so engine == oracle bit-exactly."""
    H = "CAST('{}' AS HUGEINT)".format
    hv = _splitmix_sql("user_id")
    rank = "CASE " + " ".join(
        f"WHEN (hv // 64) >= {H(1 << (58 - r))} THEN {r}"
        for r in range(1, 59)) + " ELSE 59 END"
    return f"""
WITH h AS (SELECT {hv} AS hv FROM events),
r AS (SELECT CAST(hv % 64 AS BIGINT) AS register,
             ({rank}) AS rank
      FROM h)
SELECT register, CAST(MAX(rank) AS BIGINT) AS max_rank
FROM r GROUP BY register
"""


def hll_window_users_sql(window_s: int) -> str:
    """hll_window_users oracle: the grouped register table — identical
    splitmix/rank arithmetic, grouped by the tumbling window index (the
    divisor derives from the SAME window_s as the engine; `//` truncation
    == the engine's floor-division only for ts >= 0, which the engine
    enforces)."""
    H = "CAST('{}' AS HUGEINT)".format
    hv = _splitmix_sql("user_id")
    rank = "CASE " + " ".join(
        f"WHEN (hv // 64) >= {H(1 << (58 - r))} THEN {r}"
        for r in range(1, 59)) + " ELSE 59 END"
    return f"""
WITH h AS (SELECT epoch_us(ts) // {window_s * 1_000_000} AS win, {hv} AS hv
           FROM events),
r AS (SELECT win, CAST(hv % 64 AS BIGINT) AS register,
             ({rank}) AS rank
      FROM h)
SELECT CAST(win AS BIGINT) AS "window", register,
       CAST(MAX(rank) AS BIGINT) AS max_rank
FROM r GROUP BY win, register
"""


def window_distinct_sql(window_s: int) -> str:
    """window_distinct oracle: exact COUNT(DISTINCT) per tumbling window
    (divisor derived from the engine's window_s; ts >= 0 enforced
    engine-side so `//` truncation == numpy floor-division)."""
    return f"""
SELECT CAST(epoch_us(ts) // {window_s * 1_000_000} AS BIGINT) AS window,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY 1
"""


def sample_pages_sql(keep_ppm: int) -> str:
    """sample_pages oracle: the identical splitmix64 Bernoulli predicate
    over page_id."""
    return f"""
WITH {PAGES_CTE}
SELECT page_id, lang FROM pages
WHERE {_splitmix_sql("page_id")} % 1000000 < {keep_ppm}
"""


def stratified_sample_sql(ppm_by_stratum: dict, default_ppm: int) -> str:
    """stratified_sample oracle: identical splitmix predicate, with the
    per-language threshold as a CASE on the stratum column."""
    arms = " ".join(f"WHEN '{s}' THEN {p}"
                    for s, p in sorted(ppm_by_stratum.items()))
    return f"""
WITH {PAGES_CTE}
SELECT page_id, lang FROM pages
WHERE {_splitmix_sql("page_id")} % 1000000
      < CASE lang {arms} ELSE {default_ppm} END
"""


def simhash_pairs_sql() -> str:
    """Full oracle for simhash_pairs: recompute the 64-bit SimHash of every
    distinct text IN SQL — crc32 per word occurrence via a lambda fold over
    its codepoints (words are [a-z0-9]+, so codepoint == utf-8 byte),
    splitmix64 in HUGEINT with split multiplication (a 64x64 product
    overflows signed 128), per-bit majority vote, unsigned wrap to the
    engine's int64 view — then ALL page pairs at hamming <= 3.

    Engine == oracle is exact, not probabilistic: 4x16-bit band blocking
    catches every pair with hamming <= 3 by pigeonhole (3 differing bits
    cannot touch all 4 bands), and the verify inside the engine is the
    same popcount.
    """
    tbl_sql = "[" + ", ".join(map(str, _crc32_table())) + "]"
    # constants from functions/hashing.py simhash64 (splitmix64 mixing)
    C1, M1, M2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    P32, P64 = 1 << 32, 1 << 64
    H = "CAST('{}' AS HUGEINT)".format

    crc = (f"xor(list_reduce(list_prepend(4294967295, "
           f"list_transform(range(1, length(word) + 1), "
           f"i -> unicode(substr(word, i, 1)))), "
           f"(acc, c) -> xor(acc >> 8, ({tbl_sql})[(xor(acc, c) % 256) + 1])"
           f"), 4294967295)")

    def mulmod(z: str, m: int) -> str:
        """(z * m) mod 2^64 without overflowing signed int128."""
        return (f"((({z}) % {H(P32)} * {H(m)} "
                f"+ (({z}) // {H(P32)} * {H(m)}) % {H(P32)} * {H(P32)}) "
                f"% {H(P64)})")

    z0 = f"((CAST(c AS HUGEINT) + {H(C1)}) % {H(P64)})"
    z1 = mulmod(f"xor({z0}, {z0} // {H(1 << 30)})", M1)
    z2 = mulmod(f"xor({z1}, {z1} // {H(1 << 27)})", M2)
    wh = f"xor({z2}, {z2} // {H(1 << 31)})"

    bit_sums = ", ".join(
        f"SUM(CASE WHEN wh // {H(1 << b)} % 2 = 1 THEN 1 ELSE -1 END) AS s{b}"
        for b in range(64))
    acc = " + ".join(
        f"CASE WHEN s{b} > 0 THEN {H(1 << b)} ELSE {H(0)} END"
        for b in range(64))
    wrap = (f"CAST(CASE WHEN hs >= {H(1 << 63)} THEN hs - {H(1 << 64)} "
            f"ELSE hs END AS BIGINT)")

    return f"""
WITH {PAGES_CTE},
d AS (SELECT text, MIN(page_id) AS gid FROM pages GROUP BY text),
w AS (SELECT gid, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word
      FROM d),
wc AS (SELECT gid, {crc} AS c FROM w),
wh AS (SELECT gid, {wh} AS wh FROM wc),
bits AS (SELECT gid, {bit_sums} FROM wh GROUP BY gid),
sh0 AS (SELECT gid, {acc} AS hs FROM bits),
sh AS (SELECT d.gid, d.text, COALESCE({wrap}, 0) AS simhash
       FROM d LEFT JOIN sh0 ON d.gid = sh0.gid),
fam AS (SELECT a.text AS ta, b.text AS tb,
               bit_count(xor(a.simhash, b.simhash)) AS hamming
        FROM sh a JOIN sh b ON a.gid < b.gid
        WHERE bit_count(xor(a.simhash, b.simhash)) <= {SIMHASH_MAX_HAMMING}),
cross_pairs AS (SELECT least(pa.page_id, pb.page_id) AS id_a,
                       greatest(pa.page_id, pb.page_id) AS id_b,
                       CAST(fam.hamming AS BIGINT) AS hamming
                FROM fam JOIN pages pa ON pa.text = fam.ta
                         JOIN pages pb ON pb.text = fam.tb),
clone_pairs AS (SELECT a.page_id AS id_a, b.page_id AS id_b,
                       CAST(0 AS BIGINT) AS hamming
                FROM pages a JOIN pages b
                  ON a.text = b.text AND a.page_id < b.page_id)
SELECT CAST(id_a AS BIGINT) AS id_a, CAST(id_b AS BIGINT) AS id_b,
       MIN(hamming) AS hamming
FROM (SELECT * FROM cross_pairs UNION ALL SELECT * FROM clone_pairs)
GROUP BY id_a, id_b
"""


def fingerprints_sql() -> str:
    """Full oracle for the winnowing fingerprint query: recompute
    functions/text.py doc_fingerprints in SQL per DISTINCT text (the corpus
    is ASCII, so codepoint == utf-8 byte) and join back to pages. Same
    uint64-wraparound polynomial k-gram hashes (HUGEINT % 2^64), the same
    32-wide window minima (list slice + list_aggregate 'min'), distinct
    minima xor-folded with the same splitmix constant, and the FNV-1a
    short-text branch."""
    H = "CAST('{}' AS HUGEINT)".format
    P64 = 1 << 64
    # constants from functions/text.py (_FP_K=16, _FP_WIN=32, _FP_BASE)
    powers = [1] * 16
    for c in range(14, -1, -1):
        powers[c] = (powers[c + 1] * 1000003) % P64
    terms = " + ".join(f"b[j+{c}] * {H(powers[c])}" for c in range(16))
    kh = f"(({terms}) % {H(P64)}) % {H(1 << 61)}"
    fnv = (f"list_reduce(list_prepend({H(14695981039346656037)}, b), "
           f"(acc, c) -> (xor(acc, CAST(c AS HUGEINT)) * 1099511628211) "
           f"% {H(P64)})")
    fold = (f"list_reduce(list_prepend({H(0)}, mins), "
            f"(acc, m) -> xor(acc, (m * {H(0x9E3779B97F4A7C15)}) "
            f"% {H(P64)}))")
    return f"""
WITH {PAGES_CTE},
d AS (SELECT DISTINCT text FROM pages),
t1 AS (SELECT text, list_transform(range(1, length(text) + 1),
                                   i -> unicode(substr(text, i, 1))) AS b,
       length(text) AS nb FROM d),
kg AS (SELECT text, b, nb,
       CASE WHEN nb >= 16
            THEN list_transform(range(1, nb - 15 + 1), j -> {kh})
            ELSE NULL END AS h FROM t1),
mn AS (SELECT text, b, nb, h,
       CASE WHEN nb < 16 THEN NULL
            WHEN nb - 15 <= 32 THEN [list_aggregate(h, 'min')]
            ELSE list_distinct(list_transform(
                 range(1, nb - 15 - 31 + 1),
                 w -> list_aggregate(h[w:w+31], 'min')))
       END AS mins FROM kg),
fp AS (SELECT text,
       CAST((CASE WHEN nb < 16 THEN {fnv} % {H(1 << 62)}
             ELSE {fold} % {H(1 << 62)} END) AS BIGINT) AS fingerprint
       FROM mn)
SELECT p.page_id, fp.fingerprint
FROM pages p JOIN fp ON p.text = fp.text
"""


def bbox_join_sql() -> str:
    """bbox_join oracle: closed-interval rectangle overlap restated as an
    inequality join over the decoded-box parquet; the half-width
    expressions and the LEAST/GREATEST area product mirror the engine's
    numpy ops one-for-one."""
    rw = "(CAST('0.02' AS DOUBLE) + (page_id % 7) * CAST('0.01' AS DOUBLE))"
    rh = "(CAST('0.02' AS DOUBLE) + (page_id % 5) * CAST('0.01' AS DOUBLE))"
    return f"""
WITH {PAGES_CTE},
r AS (
  SELECT page_id,
         lon - {rw} AS xmin, lat - {rh} AS ymin,
         lon + {rw} AS xmax, lat + {rh} AS ymax
  FROM pages)
SELECT r.page_id, b.poly_id,
       (LEAST(r.xmax, b.xmax) - GREATEST(r.xmin, b.xmin))
     * (LEAST(r.ymax, b.ymax) - GREATEST(r.ymin, b.ymin)) AS overlap_area
FROM r JOIN {_read("lakes_boxes")} b
  ON r.xmin <= b.xmax AND b.xmin <= r.xmax
 AND r.ymin <= b.ymax AND b.ymin <= r.ymax
"""


def zonal_sql() -> str:
    return f"""
WITH {PAGES_CTE},
cand AS (
  SELECT p.page_id, length(p.text) AS n_chars, p.lon, p.lat,
         b.poly_id, b.geom_id
  FROM pages p
  JOIN {_read("lakes_boxes")} b
    ON p.lon >= b.xmin AND p.lon <= b.xmax
   AND p.lat >= b.ymin AND p.lat <= b.ymax),
crossed AS (
  SELECT c.page_id, c.n_chars, c.geom_id, c.poly_id,
         SUM(CASE WHEN (e.y1 > c.lat) <> (e.y2 > c.lat)
                   AND c.lon < (e.x2 - e.x1) * (c.lat - e.y1) / (e.y2 - e.y1) + e.x1
                  THEN 1 ELSE 0 END) AS crossings
  FROM cand c
  JOIN {_read("lakes_edges")} e ON e.poly_id = c.poly_id
  GROUP BY c.page_id, c.n_chars, c.geom_id, c.poly_id),
hits AS (SELECT * FROM crossed WHERE crossings % 2 = 1)
SELECT geom_id, CAST(COUNT(*) AS BIGINT) AS n_pages,
       CAST(SUM(n_chars) AS BIGINT) AS sum_measure
FROM hits GROUP BY geom_id
"""


def cms_users_sql() -> str:
    """cms_users oracle: one UNION ALL arm per Count-Min hash row,
    identical row-seeded splitmix (hash_r(x) = splitmix64(x*CMS_D + r))
    and modulus, integer COUNT merge (order-free)."""
    arms = []
    for r in range(CMS_D):
        hv = _splitmix_sql(f"(user_id * {CMS_D} + {r})")
        arms.append(
            f"SELECT {r} AS row, CAST(({hv}) % {CMS_W} AS BIGINT) AS col "
            f"FROM events")
    u = " UNION ALL ".join(arms)
    return (f"SELECT row, col, CAST(COUNT(*) AS BIGINT) AS n "
            f"FROM ({u}) GROUP BY row, col")


# ---------------------------------------------------------------------------
# ANN consistency goldens (VERDICT-r3 #4: no more `no_oracle` gate rows)
# ---------------------------------------------------------------------------

def write_ann_pairs_golden(res, name: str):
    """Materialize an ANN consistency result (vec_id, rank, nn_id, dot_q,
    na_q, nb_q) and write its PAIR LIST (ids only) as the oracle golden
    `name`, on every call (the pairs are the engine's own output).
    The harness runs the Ray query before its oracle, so the oracle can
    join the golden pairs against the embeddings table and independently
    recompute each pair's quantized cosine components; the engine's
    emitted dot_q/na_q/nb_q values are what the hash compare verifies.
    Returns the materialized dataset (so the query callable hands the
    driver an already-executed result)."""
    import ray
    mat = res.materialize()
    tbls = [ray.get(r) for r in block_refs(mat)]
    tbls = [t for t in tbls if t.num_rows]
    if tbls:
        tbl = pa.concat_tables(tbls)
    else:
        tbl = pa.table({"vec_id": pa.array([], pa.int64()),
                        "rank": pa.array([], pa.int64()),
                        "nn_id": pa.array([], pa.int64())})
    _write(golden_path(name), tbl.select(["vec_id", "rank", "nn_id"]))
    return mat


def ann_consistency_sql(name: str) -> str:
    """Oracle twin of stages/ann.py PairConsistency: q(x) = floor(x * 2^20)
    per component (float->double widening and power-of-two multiply are
    exact, so FLOOR matches numpy bit-for-bit), then pure BIGINT sums."""
    return f"""
WITH g AS (SELECT vec_id, "rank", nn_id FROM {_read(name)}),
e AS (SELECT vec_id,
             list_transform(CAST(embedding AS DOUBLE[]),
                            x -> CAST(FLOOR(x * CAST('1048576.0' AS DOUBLE))
                                      AS BIGINT)) AS q
      FROM embeddings)
SELECT g.vec_id, g."rank" AS "rank", g.nn_id,
       CAST(list_sum(list_transform(list_zip(a.q, b.q),
                                    p -> p[1] * p[2])) AS BIGINT) AS dot_q,
       CAST(list_sum(list_transform(a.q, x -> x * x)) AS BIGINT) AS na_q,
       CAST(list_sum(list_transform(b.q, x -> x * x)) AS BIGINT) AS nb_q
FROM g JOIN e a ON g.vec_id = a.vec_id
       JOIN e b ON g.nn_id = b.vec_id"""


# ---------------------------------------------------------------------------
# Codec goldens: scalar twins of the decode stages, written by _ensure_golden
# ---------------------------------------------------------------------------


def _ensure_golden(name: str, n_docs: int, rows_fn, names) -> str:
    """The golden `name` for doc ids [0, n_docs): rows_fn(doc_id) -> that
    doc's rows, one int64 column per name. Keyed on the doc count (rows
    per doc vary for the frame samplers); oracle SQL semi-joins the
    golden to the sf's documents, so a larger golden is reused."""
    def chunk(start: int, stop: int) -> pa.Table:
        rows = [r for did in range(start, stop) for r in rows_fn(did)]
        return pa.table({nm: pa.array([r[i] for r in rows], pa.int64())
                         for i, nm in enumerate(names)})

    return golden(name, {"n": n_docs}, lambda: _fan_out(n_docs, 100, chunk))


def _one_row(row_fn):
    """rows_fn for a twin that returns one row of values per doc."""
    return lambda doc_id: [(doc_id, *row_fn(doc_id))]


def _wav_scalar_row(doc_id: int) -> tuple:
    """Independent scalar twin of WavDecodeStage over synth_wav_bytes:
    struct-module parse, pure-Python loops — no numpy, no shared control
    flow with the vectorized production decoder."""
    import struct
    from ..stages.multimodal import synth_wav_bytes
    p = synth_wav_bytes(doc_id)
    assert p[:4] == b"RIFF" and p[8:12] == b"WAVE"
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(p):
        cid, sz = p[pos:pos + 4], struct.unpack("<I", p[pos + 4:pos + 8])[0]
        body = p[pos + 8:pos + 8 + sz]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + sz + (sz & 1)
    _, n_ch, rate = struct.unpack("<HHI", fmt[:8])
    sum_abs = sum_sq = peak = 0
    n_samples = len(data) // 2
    for s in struct.iter_unpack("<h", data):
        a = abs(s[0])
        sum_abs += a
        sum_sq += a * a
        peak = max(peak, a)
    return rate, n_ch, n_samples, sum_abs, sum_sq, peak


def _bmp_scalar_row(doc_id: int) -> tuple:
    """Independent scalar twin of BmpDecodeStage over synth_bmp_bytes:
    byte-offset arithmetic + per-pixel Python loops."""
    import struct
    from ..stages.multimodal import BmpDecodeStage, synth_bmp_bytes
    p = synth_bmp_bytes(doc_id)
    assert p[:2] == b"BM"
    off = struct.unpack("<I", p[10:14])[0]
    w = struct.unpack("<i", p[18:22])[0]
    h = struct.unpack("<i", p[22:26])[0]
    stride = (w * 3 + 3) & ~3
    sums = [0, 0, 0]

    def px(x: int, y: int) -> tuple:
        row_off = off + (h - 1 - y) * stride      # bottom-up
        b0 = row_off + x * 3
        return p[b0 + 2], p[b0 + 1], p[b0]        # BGR -> RGB

    for y in range(h):
        for x in range(w):
            r, g, bch = px(x, y)
            sums[0] += r
            sums[1] += g
            sums[2] += bch
    t = BmpDecodeStage.THUMB
    thumb = 0
    for yi in range(t):
        for xi in range(t):
            thumb += sum(px((xi * w) // t, (yi * h) // t))
    return w, h, sums[0], sums[1], sums[2], thumb


def ensure_wkb_golden() -> str:
    """wkb_export golden, keyed on the lakes (see _wkb_table)."""
    return golden("wkb_export", lakes_key(), _wkb_table)


def _wkb_table() -> pa.Table:
    """Per-ring rows (geom_id, poly_idx, ring_idx,
    n_pts, sxq, syq, wkb_len, wkb_crc) computed by a PURE-PYTHON twin —
    struct.pack WKB assembly over the lakes vertex golden with scalar
    shoelace role classification, scalar ring closure, and the same
    Outer-starts/Inner-attaches grouping — no numpy, no shared code with
    geometry/wkb.py. wkb_crc matches only if the twin's byte stream is
    IDENTICAL to the engine's."""
    import struct
    import zlib
    vt = pq.read_table(ensure_lakes_vertices())
    gids = vt["geom_id"].to_pylist()
    parts = vt["part_idx"].to_pylist()
    xs = vt["x"].to_pylist()
    ys = vt["y"].to_pylist()
    # group vertices -> (geom, part) rings, file order (golden is ordered)
    rings: dict[int, list[list[tuple]]] = {}
    for g, p, x, y in zip(gids, parts, xs, ys):
        rp = rings.setdefault(g, [])
        if p == len(rp):
            rp.append([])
        rp[p].append((x, y))
    rows = {k: [] for k in ("geom_id", "poly_idx", "ring_idx", "n_pts",
                            "sxq", "syq", "wkb_len", "wkb_crc")}
    for g in sorted(rings):
        polys: list[list[list[tuple]]] = []
        cur: list[list[tuple]] | None = None
        for ring in rings[g]:
            # scalar shoelace twin of shp.ring_winding_is_inner
            area = 0.0
            for i in range(len(ring) - 1):
                area += (ring[i + 1][0] - ring[i][0]) \
                    * (ring[i + 1][1] + ring[i][1])
            inner = (area / 2.0) < 0.0 and len(ring) >= 2
            if ring and ring[0] != ring[-1]:
                ring = ring + [ring[0]]    # scalar close_ring
            if not inner:
                if cur is not None:
                    polys.append(cur)
                cur = [ring]
            else:
                if cur is None:
                    continue               # non-strict orphan skip
                cur.append(ring)
        if cur is not None:
            polys.append(cur)
        wkb = b"\x01" + struct.pack("<II", 6, len(polys))
        for rs in polys:
            wkb += b"\x01" + struct.pack("<II", 3, len(rs))
            for ring in rs:
                wkb += struct.pack("<I", len(ring))
                for (x, y) in ring:
                    wkb += struct.pack("<dd", x, y)
        ln, crc = len(wkb), zlib.crc32(wkb)
        for pi, rs in enumerate(polys):
            for ri, ring in enumerate(rs):
                sxq = syq = 0
                for (x, y) in ring:
                    sxq += int(math.floor(x * 1048576.0))
                    syq += int(math.floor(y * 1048576.0))
                rows["geom_id"].append(g)
                rows["poly_idx"].append(pi)
                rows["ring_idx"].append(ri)
                rows["n_pts"].append(len(ring))
                rows["sxq"].append(sxq)
                rows["syq"].append(syq)
                rows["wkb_len"].append(ln)
                rows["wkb_crc"].append(crc)
    return pa.table({k: pa.array(v, pa.int64()) for k, v in rows.items()})


def _png_scalar_row(doc_id: int) -> tuple:
    """Independent scalar twin of PngDecodeStage over synth_png_bytes:
    struct-module chunk walk, zlib inflate, then a PURE-PYTHON per-byte
    scanline defilter (spec pseudocode transliterated: Recon(x) =
    Filt(x) + predictor, mod 256) — no numpy, no shared control flow
    with the vectorized production decoder."""
    import struct
    import zlib
    from ..stages.multimodal import PngDecodeStage, synth_png_bytes
    p = synth_png_bytes(doc_id)
    assert p[:8] == b"\x89PNG\r\n\x1a\n"
    pos, idat, w, h = 8, b"", 0, 0
    while pos + 8 <= len(p):
        ln = struct.unpack(">I", p[pos:pos + 4])[0]
        typ = p[pos + 4:pos + 8]
        body = p[pos + 8:pos + 8 + ln]
        if typ == b"IHDR":
            w, h = struct.unpack(">II", body[:8])
            assert body[8:13] == bytes([8, 2, 0, 0, 0])
        elif typ == b"IDAT":
            idat += body
        elif typ == b"IEND":
            break
        pos += 12 + ln
    raw = zlib.decompress(idat)
    stride = w * 3

    def paeth(a: int, b: int, c: int) -> int:
        pp = a + b - c
        da, db, dc = abs(pp - a), abs(pp - b), abs(pp - c)
        if da <= db and da <= dc:
            return a
        if db <= dc:
            return b
        return c

    prior = [0] * stride
    pixels = []
    off = 0
    for _yy in range(h):
        ft = raw[off]
        off += 1
        rec = [0] * stride
        for xx in range(stride):
            rv = raw[off + xx]
            left = rec[xx - 3] if xx >= 3 else 0
            up = prior[xx]
            ul = prior[xx - 3] if xx >= 3 else 0
            if ft == 0:
                v = rv
            elif ft == 1:
                v = (rv + left) & 0xFF
            elif ft == 2:
                v = (rv + up) & 0xFF
            elif ft == 3:
                v = (rv + (left + up) // 2) & 0xFF
            else:
                v = (rv + paeth(left, up, ul)) & 0xFF
            rec[xx] = v
        off += stride
        pixels.append(rec)
        prior = rec
    sums = [0, 0, 0]
    for row in pixels:
        for xx in range(0, stride, 3):
            sums[0] += row[xx]
            sums[1] += row[xx + 1]
            sums[2] += row[xx + 2]
    t = PngDecodeStage.THUMB
    thumb = 0
    for yi in range(t):
        for xi in range(t):
            row = pixels[(yi * h) // t]
            xx = ((xi * w) // t) * 3
            thumb += row[xx] + row[xx + 1] + row[xx + 2]
    return w, h, sums[0], sums[1], sums[2], thumb


def _jpeg_scalar_px(p: bytes):
    """Independent pure-Python baseline-JPEG decode of one payload ->
    (w, h, rgb_at): marker walk, bit-by-bit Huffman decode,
    per-coefficient dequantize/de-zigzag, triple-loop integer IDCT over
    a basis matrix re-derived from math.cos, and the fixed-point colour
    ints — no numpy, no shared control flow with the vectorized decoder.
    The integer-IDCT determinism contract (order-free int64 dot
    products) is what makes twins built on this bit-exact. Shared by the
    jpeg_decode and avi_frames golden twins."""
    import math
    assert p[:2] == b"\xff\xd8"
    zig = [0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
           12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
           35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
           58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63]
    pos = 2
    quant: dict[int, list[int]] = {}
    hdc: dict[int, dict] = {}
    hac: dict[int, dict] = {}
    h = w = 0
    comps: list[tuple[int, int]] = []       # (id, tq)
    scan: list[tuple[int, int, int]] = []
    data = b""
    while pos + 4 <= len(p):
        assert p[pos] == 0xFF
        marker = p[pos + 1]
        if marker == 0xD9:
            break
        ln = (p[pos + 2] << 8) | p[pos + 3]
        body = p[pos + 4:pos + 2 + ln]
        if marker == 0xDB:
            off = 0
            while off < len(body):
                tq = body[off] & 15
                nat = [0] * 64
                for i in range(64):
                    nat[zig[i]] = body[off + 1 + i]
                quant[tq] = nat
                off += 65
        elif marker == 0xC0:
            h = (body[1] << 8) | body[2]
            w = (body[3] << 8) | body[4]
            nc = body[5]
            for c in range(nc):
                comps.append((body[6 + 3 * c], body[8 + 3 * c]))
        elif marker == 0xC4:
            off = 0
            while off < len(body):
                tc_th = body[off]
                bits = list(body[off + 1:off + 17])
                nv = sum(bits)
                vals = list(body[off + 17:off + 17 + nv])
                table = {}
                code, k = 0, 0
                for lnn in range(1, 17):
                    for _ in range(bits[lnn - 1]):
                        table[(lnn, code)] = vals[k]
                        code += 1
                        k += 1
                    code <<= 1
                (hdc if tc_th >> 4 == 0 else hac)[tc_th & 15] = table
                off += 17 + nv
        elif marker == 0xDA:
            ns = body[0]
            for c in range(ns):
                cid, tabs = body[1 + 2 * c], body[2 + 2 * c]
                idx = next(i for i, (q, _) in enumerate(comps) if q == cid)
                scan.append((idx, tabs >> 4, tabs & 15))
            raw = bytearray()
            q = pos + 2 + ln
            while q < len(p):
                bb = p[q]
                if bb == 0xFF:
                    if q + 1 < len(p) and p[q + 1] == 0x00:
                        raw.append(0xFF)
                        q += 2
                        continue
                    break
                raw.append(bb)
                q += 1
            data = bytes(raw)
            break
        pos += 2 + ln

    bitpos = 0

    def bit() -> int:
        nonlocal bitpos
        byte = data[bitpos >> 3]
        v = (byte >> (7 - (bitpos & 7))) & 1
        bitpos += 1
        return v

    def huff(table: dict) -> int:
        code = 0
        for lnn in range(1, 17):
            code = (code << 1) | bit()
            if (lnn, code) in table:
                return table[(lnn, code)]
        raise ValueError("bad huffman code")

    def receive_extend(s: int) -> int:
        v = 0
        for _ in range(s):
            v = (v << 1) | bit()
        return v if s == 0 or v >= (1 << (s - 1)) else v - (1 << s) + 1

    h8, w8 = (h + 7) & ~7, (w + 7) & ~7
    n_mcu = (h8 // 8) * (w8 // 8)
    coefs = [[[0] * 64 for _ in range(n_mcu)] for _ in comps]
    pred = [0] * len(comps)
    for m in range(n_mcu):
        for ci, tdc, tac in scan:
            row = coefs[ci][m]
            s = huff(hdc[tdc])
            pred[ci] += receive_extend(s) if s else 0
            row[0] = pred[ci]
            k = 1
            while k < 64:
                rs = huff(hac[tac])
                if rs == 0:
                    break
                run, s = rs >> 4, rs & 15
                if s == 0:
                    k += 16
                    continue
                k += run
                row[k] = receive_extend(s)
                k += 1

    # basis matrix re-derived independently
    B = [[0] * 64 for _ in range(64)]
    for yy in range(8):
        for xx in range(8):
            for v in range(8):
                for u in range(8):
                    cu = 1.0 / math.sqrt(2.0) if u == 0 else 1.0
                    cv = 1.0 / math.sqrt(2.0) if v == 0 else 1.0
                    val = (cu * cv / 4.0
                           * math.cos((2 * xx + 1) * u * math.pi / 16.0)
                           * math.cos((2 * yy + 1) * v * math.pi / 16.0))
                    B[yy * 8 + xx][v * 8 + u] = round(val * (1 << 20))

    bx = w8 // 8
    planes = []
    for ci, (_, tq) in enumerate(comps):
        qt = quant[tq]
        plane = [[0] * w8 for _ in range(h8)]
        for m in range(n_mcu):
            deq = [0] * 64
            for i in range(64):
                deq[zig[i]] = coefs[ci][m][i] * qt[zig[i]]
            my, mx = divmod(m, bx)
            for pp in range(64):
                acc = 0
                Bp = B[pp]
                for k in range(64):
                    acc += Bp[k] * deq[k]
                px = ((acc + (1 << 19)) >> 20) + 128
                px = 0 if px < 0 else 255 if px > 255 else px
                plane[my * 8 + pp // 8][mx * 8 + pp % 8] = px
        planes.append(plane)

    def rgb_at(xx: int, yy: int) -> tuple:
        Y = planes[0][yy][xx]
        cb = planes[1][yy][xx] - 128
        cr = planes[2][yy][xx] - 128
        r = Y + ((91881 * cr + 32768) >> 16)
        g = Y - ((22554 * cb + 46802 * cr + 32768) >> 16)
        b = Y + ((116130 * cb + 32768) >> 16)
        clip = (lambda t: 0 if t < 0 else 255 if t > 255 else t)
        return clip(r), clip(g), clip(b)

    return w, h, rgb_at


def _jpeg_scalar_row(doc_id: int) -> tuple:
    """jpeg_decode golden row: the independent _jpeg_scalar_px decode of
    synth_jpeg_bytes(doc_id), reduced to channel sums + the thumbnail."""
    from ..stages.jpeg import JpegDecodeStage, synth_jpeg_bytes
    w, h, rgb_at = _jpeg_scalar_px(synth_jpeg_bytes(doc_id))
    sums = [0, 0, 0]
    for yy in range(h):
        for xx in range(w):
            r, g, b = rgb_at(xx, yy)
            sums[0] += r
            sums[1] += g
            sums[2] += b
    t = JpegDecodeStage.THUMB
    thumb = 0
    for yi in range(t):
        for xi in range(t):
            thumb += sum(rgb_at((xi * w) // t, (yi * h) // t))
    return w, h, sums[0], sums[1], sums[2], thumb


# ---------------------------------------------------------------------------
# bigram-LM score golden (round 4: the CCNet/KenLM quality-scoring role)
# ---------------------------------------------------------------------------


def ensure_lm_golden(sf_dir: str) -> str:
    """lm_score golden, keyed on the corpus (see _lm_table)."""
    return golden("lm_score", corpus_key(sf_dir), lambda: _lm_table(sf_dir))


def _lm_table(sf_dir: str) -> pa.Table:
    """Independent scalar twin of stages/lm.lm_score: Python re
    tokenization + collections.Counter counts + dict lookups (no shared
    numpy lookup machinery). The per-doc float64 prob array is built in
    the same token order and reduced with np.sum — elementwise-identical
    arrays reduce bit-identically, so the gate hash compare is exact."""
    import re as _re
    from collections import Counter
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    wre = _re.compile(r"[a-z0-9]+")
    token_lists = [wre.findall(t.lower())
                   for t in docs["text"].to_pylist()]
    uni: Counter = Counter()
    bi: Counter = Counter()
    for ws in token_lists:
        uni.update(ws)
        bi.update(f"{a} {b}" for a, b in zip(ws, ws[1:]))
    V = float(len(uni))
    ids, nbs, lps, avgs = [], [], [], []
    for did, ws in zip(docs["doc_id"].to_pylist(), token_lists):
        probs = np.array(
            [(bi[f"{a} {b}"] + 1.0) / (uni[a] + V)
             for a, b in zip(ws, ws[1:])], np.float64)
        nb = len(probs)
        lp = float(np.sum(np.log(probs))) if nb else 0.0
        ids.append(did)
        nbs.append(nb)
        lps.append(lp)
        avgs.append(lp / nb if nb else 0.0)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "n_bigrams": pa.array(nbs, pa.int64()),
        "logprob": pa.array(lps, pa.float64()),
        "avg_logprob": pa.array(avgs, pa.float64())})


def _y4m_scalar_rows(doc_id: int) -> list:
    """Independent scalar twin of Y4mDecodeStage over synth_y4m_bytes:
    byte-offset frame location + Python sum over the raw luma slice (no
    numpy in the per-frame math)."""
    from ..stages.multimodal import synth_y4m_bytes
    p = synth_y4m_bytes(doc_id)
    nl = p.index(b"\x0a")
    w = h = 0
    fn, fd = 25, 1
    for tok in p[10:nl].split(b" "):
        if tok[:1] == b"W":
            w = int(tok[1:])
        elif tok[:1] == b"H":
            h = int(tok[1:])
        elif tok[:1] == b"F":
            fn, fd = (int(x) for x in tok[1:].split(b":"))
    fb = w * h + 2 * ((w // 2) * (h // 2))
    stride = 6 + fb                     # b"FRAME\n" + planes
    n = (len(p) - (nl + 1)) // stride
    take = min(Y4M_SAMPLES, n)
    rows = []
    for j in range(take):
        fi = (j * n) // take
        off = nl + 1 + fi * stride + 6
        rows.append((doc_id, j, fi, fi * 1000 * fd // fn, n,
                     sum(p[off:off + w * h])))
    return rows


def _phash_scalar_row(doc_id: int) -> tuple:
    """Independent scalar twin of `multimodal.phash_batch` over
    synth_phash_bmp_bytes: byte-offset BMP parse, per-pixel integer
    luma, scalar nearest-neighbor 32x32 sample, pure-Python-int 2D DCT against a basis
    re-derived from math.cos/math.sqrt with the engine's exact float op
    sequence (Python ints are arbitrary precision, so the matmul is
    exact a fortiori), lower-median AC threshold — no numpy, no shared
    control flow with stages/multimodal.phash64."""
    import math
    import struct
    from ..stages.multimodal import synth_phash_bmp_bytes
    p = synth_phash_bmp_bytes(doc_id)
    assert p[:2] == b"BM"
    off = struct.unpack("<I", p[10:14])[0]
    w = struct.unpack("<i", p[18:22])[0]
    h = struct.unpack("<i", p[22:26])[0]
    stride = (w * 3 + 3) & ~3

    def luma(x: int, y: int) -> int:
        b0 = off + (h - 1 - y) * stride + x * 3   # bottom-up, BGR
        return (p[b0 + 2] * 77 + p[b0 + 1] * 150 + p[b0] * 29) >> 8

    grid = [[luma((xi * w) // 32, (yi * h) // 32)
             for xi in range(32)] for yi in range(32)]
    dq = []
    for k in range(32):
        s = math.sqrt(1.0 / 32.0) if k == 0 else math.sqrt(2.0 / 32.0)
        dq.append([math.floor(
            math.cos(math.pi * (2 * n + 1) * k / 64.0) * s * (1 << 20)
            + 0.5) for n in range(32)])
    # T = Dq @ G @ Dq^T, exact python ints
    dg = [[sum(dq[k][y] * grid[y][x] for y in range(32))
           for x in range(32)] for k in range(8)]
    blk = [sum(dg[k][x] * dq[l][x] for x in range(32))
           for k in range(8) for l in range(8)]
    med = sorted(blk[1:])[31]
    hv = 0
    for b in range(64):
        if blk[b] > med:
            hv |= 1 << b
    if hv >= 1 << 63:
        hv -= 1 << 64
    return (hv,)


def ensure_phash_golden(n_docs: int) -> str:
    return _ensure_golden("phash_neardup", n_docs,
                          _one_row(_phash_scalar_row), ("doc_id", "phash"))


def _gif_scalar_row(doc_id: int) -> tuple:
    """Independent scalar twin of GifDecodeStage over synth_gif_bytes:
    byte-offset walk, a from-scratch scalar LZW decoder (dict-of-lists,
    no shared code with the engine's table machinery), per-pass
    de-interlace bookkeeping, per-pixel palette lookups."""
    from ..stages.multimodal import GifDecodeStage, synth_gif_bytes
    p = synth_gif_bytes(doc_id)
    assert p[:6] in (b"GIF87a", b"GIF89a")
    pos = 13
    n_colors = 2 << (p[10] & 7)
    pal = [(p[pos + 3 * i], p[pos + 3 * i + 1], p[pos + 3 * i + 2])
           for i in range(n_colors)]
    pos += 3 * n_colors
    while p[pos] == 0x21:
        pos += 2
        while p[pos] != 0:
            pos += 1 + p[pos]
        pos += 1
    assert p[pos] == 0x2C
    w = p[pos + 5] | (p[pos + 6] << 8)
    h = p[pos + 7] | (p[pos + 8] << 8)
    interlaced = bool(p[pos + 9] & 0x40)
    pos += 10
    minc = p[pos]
    pos += 1
    data = bytearray()
    while p[pos] != 0:
        ln = p[pos]
        data += p[pos + 1:pos + 1 + ln]
        pos += 1 + ln

    # scalar LZW: codes as index lists
    clear, eoi = 1 << minc, (1 << minc) + 1
    dicts = {i: [i] for i in range(1 << minc)}
    nxt, width = eoi + 1, minc + 1
    bitpos = 0
    out: list[int] = []
    prev = None
    while len(out) < w * h:
        code = 0
        for b in range(width):
            byte = data[(bitpos + b) >> 3]
            code |= ((byte >> ((bitpos + b) & 7)) & 1) << b
        bitpos += width
        if code == clear:
            dicts = {i: [i] for i in range(1 << minc)}
            nxt, width = eoi + 1, minc + 1
            prev = None
            continue
        if code == eoi:
            break
        if prev is None:
            entry = dicts[code]
        elif code in dicts:
            entry = dicts[code]
        elif code == nxt:
            entry = prev + prev[:1]
        else:
            raise ValueError("twin: bad LZW code")
        if prev is not None:
            dicts[nxt] = prev + entry[:1]
            nxt += 1
            if nxt == (1 << width) and width < 12:
                width += 1
        out.extend(entry)
        prev = entry

    rows = [out[y * w:(y + 1) * w] for y in range(h)]
    if interlaced:
        disp = [None] * h
        k = 0
        for start, step in ((0, 8), (4, 8), (2, 4), (1, 2)):
            for y in range(start, h, step):
                disp[y] = rows[k]
                k += 1
        rows = disp
    sums = [0, 0, 0]
    for y in range(h):
        for x in range(w):
            r, g, b = pal[rows[y][x]]
            sums[0] += r
            sums[1] += g
            sums[2] += b
    t = GifDecodeStage.THUMB
    thumb = 0
    for yi in range(t):
        for xi in range(t):
            thumb += sum(pal[rows[(yi * h) // t][(xi * w) // t]])
    return w, h, sums[0], sums[1], sums[2], thumb


# the twin's own copy of the public IMA tables (a Python list literal,
# independent of the numpy arrays the vectorized decoder indexes)
_ADPCM_STEPS = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17,
    19, 21, 23, 25, 28, 31, 34, 37, 41, 45,
    50, 55, 60, 66, 73, 80, 88, 97, 107, 118,
    130, 143, 157, 173, 190, 209, 230, 253, 279, 307,
    337, 371, 408, 449, 494, 544, 598, 658, 724, 796,
    876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358,
    5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899,
    15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767]
_ADPCM_IDX = [-1, -1, -1, -1, 2, 4, 6, 8]


def _adpcm_scalar_row(doc_id: int) -> tuple:
    """Independent scalar twin of AdpcmDecodeStage over
    synth_adpcm_bytes: struct-module RIFF walk, per-nibble pure-Python
    IMA reconstruction — no numpy, no shared control flow with the
    block-vectorized production decoder (multimodal._parse_adpcm_wav)."""
    import struct
    from ..stages.multimodal import synth_adpcm_bytes
    p = synth_adpcm_bytes(doc_id)
    assert p[:4] == b"RIFF" and p[8:12] == b"WAVE"
    pos, fmt, data, fact = 12, None, None, None
    while pos + 8 <= len(p):
        cid, sz = p[pos:pos + 4], struct.unpack("<I", p[pos + 4:pos + 8])[0]
        body = p[pos + 8:pos + 8 + sz]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        elif cid == b"fact":
            fact = body
        pos += 8 + sz + (sz & 1)
    audio_fmt, n_ch, rate = struct.unpack("<HHI", fmt[:8])
    block_align = struct.unpack("<H", fmt[12:14])[0]
    assert audio_fmt == 0x11 and n_ch == 1
    n_frames = struct.unpack("<I", fact[:4])[0]
    samples = []
    for b0 in range(0, len(data), block_align):
        pred = struct.unpack("<h", data[b0:b0 + 2])[0]
        index = data[b0 + 2]
        samples.append(pred)
        for k in range(b0 + 4, b0 + block_align):
            byte = data[k]
            for nib in (byte & 0x0F, byte >> 4):
                step = _ADPCM_STEPS[index]
                diff = step >> 3
                if nib & 4:
                    diff += step
                if nib & 2:
                    diff += step >> 1
                if nib & 1:
                    diff += step >> 2
                pred = pred - diff if nib & 8 else pred + diff
                pred = max(-32768, min(32767, pred))
                index = max(0, min(88, index + _ADPCM_IDX[nib & 7]))
                samples.append(pred)
    samples = samples[:n_frames]
    sum_abs = sum_sq = peak = 0
    for s in samples:
        a = abs(s)
        sum_abs += a
        sum_sq += a * a
        peak = max(peak, a)
    return rate, 1, len(samples), sum_abs, sum_sq, peak


def _flac_scalar_row(doc_id: int) -> tuple:
    """The FLAC twin's stats for synth_flac_bytes(doc_id)."""
    from ..stages.flac import synth_flac_bytes
    return _flac_scalar_stats(synth_flac_bytes(doc_id))


def _flac_scalar_stats(p: bytes) -> tuple:
    """Independent scalar twin of FlacDecodeStage over one FLAC stream:
    its own byte-walking bit reader (per-byte accumulator, not a big
    int), bitwise CRC-8/CRC-16 (no tables), sequential per-sample
    predictor loops (no cumsum), and its own UTF-8 / header decode — no
    numpy, no control flow shared with stages/flac.parse_flac."""
    import hashlib
    assert p[:4] == b"fLaC"

    def crc8b(buf):
        c = 0
        for b in buf:
            c ^= b
            for _ in range(8):
                c = ((c << 1) ^ 0x07) & 0xFF if c & 0x80 else (c << 1) & 0xFF
        return c

    def crc16b(buf):
        c = 0
        for b in buf:
            c ^= b << 8
            for _ in range(8):
                c = ((c << 1) ^ 0x8005) & 0xFFFF if c & 0x8000 \
                    else (c << 1) & 0xFFFF
        return c

    class RD:
        def __init__(self, data, start=0):
            self.d, self.i, self.acc, self.n = data, start, 0, 0

        def bits(self, k):
            while self.n < k:
                self.acc = (self.acc << 8) | self.d[self.i]
                self.i += 1
                self.n += 8
            self.n -= k
            v = (self.acc >> self.n) & ((1 << k) - 1)
            self.acc &= (1 << self.n) - 1
            return v

        def sbits(self, k):
            v = self.bits(k)
            return v - (1 << k) if v >> (k - 1) else v

        def unary(self):
            q = 0
            while self.bits(1) == 0:
                q += 1
            return q

        def align(self):
            self.acc, self.n = 0, 0

    # metadata walk
    pos = 4
    si = None
    while True:
        hdr = p[pos]
        ln = int.from_bytes(p[pos + 1:pos + 4], "big")
        if hdr & 0x7F == 0:
            si = p[pos + 4:pos + 4 + ln]
        pos += 4 + ln
        if hdr & 0x80:
            break
    v = int.from_bytes(si[10:18], "big")
    sr_si, ch_si = v >> 44, ((v >> 41) & 7) + 1
    bps_si, total = ((v >> 36) & 0x1F) + 1, v & ((1 << 36) - 1)
    md5_want = si[18:34]

    def subframe(rd, bs, bps):
        assert rd.bits(1) == 0
        typ = rd.bits(6)
        wasted = 0
        if rd.bits(1):
            wasted = 1 + rd.unary()
            bps -= wasted
        if typ == 0:
            x = [rd.sbits(bps)] * bs
        elif typ == 1:
            x = [rd.sbits(bps) for _ in range(bs)]
        elif 8 <= typ <= 12 or typ >= 32:
            if typ >= 32:
                order = (typ & 0x1F) + 1
                x = [rd.sbits(bps) for _ in range(order)]
                prec = rd.bits(4) + 1
                shift = rd.bits(5)
                coefs = [rd.sbits(prec) for _ in range(order)]
            else:
                order = typ & 7
                x = [rd.sbits(bps) for _ in range(order)]
                coefs, shift = {0: [], 1: [1], 2: [2, -1], 3: [3, -3, 1],
                                4: [4, -6, 4, -1]}[order], 0
            method = rd.bits(2)
            pbits, escape = (4, 0xF) if method == 0 else (5, 0x1F)
            porder = rd.bits(4)
            res = []
            for part in range(1 << porder):
                cnt = (bs >> porder) - (order if part == 0 else 0)
                k = rd.bits(pbits)
                for _ in range(cnt):
                    if k == escape:
                        raise AssertionError("twin: escape unexpected")
                    u = (rd.unary() << k) | rd.bits(k)
                    res.append((u >> 1) ^ -(u & 1))
            for i in range(order, bs):
                pred = 0
                for j, c in enumerate(coefs):
                    pred += c * x[i - 1 - j]
                x.append(res[i - order] + (pred >> shift))
        else:
            raise AssertionError(f"twin: subframe type {typ}")
        return [s << wasted for s in x] if wasted else x

    rates = {1: 88200, 2: 176400, 3: 192000, 4: 8000, 5: 16000, 6: 22050,
             7: 24000, 8: 32000, 9: 44100, 10: 48000, 11: 96000}
    stream = []
    while pos < len(p):
        rd = RD(p, pos)
        assert rd.bits(14) == 0b11111111111110
        rd.bits(2)
        bs_code, sr_code = rd.bits(4), rd.bits(4)
        chan, bps_code = rd.bits(4), rd.bits(3)
        rd.bits(1)
        b0 = rd.bits(8)                     # UTF-8 coded frame number
        if b0 >= 0x80:
            k = 0
            m = 0x80
            while b0 & m:
                k += 1
                m >>= 1
            for _ in range(k - 1):
                rd.bits(8)
        if bs_code == 6:
            bs = rd.bits(8) + 1
        elif bs_code == 7:
            bs = rd.bits(16) + 1
        elif bs_code == 1:
            bs = 192
        elif 2 <= bs_code <= 5:
            bs = 576 << (bs_code - 2)
        else:
            bs = 256 << (bs_code - 8)
        if sr_code == 0:
            sr = sr_si
        elif sr_code == 12:             # kHz in the next 8 bits
            sr = rd.bits(8) * 1000
        elif sr_code == 13:             # Hz in the next 16 bits
            sr = rd.bits(16)
        elif sr_code == 14:             # tens of Hz in the next 16 bits
            sr = rd.bits(16) * 10
        else:
            sr = rates[sr_code]
        assert crc8b(p[pos:rd.i]) == rd.bits(8)
        bps = bps_si if bps_code == 0 else \
            {1: 8, 2: 12, 4: 16, 5: 20, 6: 24, 7: 32}[bps_code]
        assert sr == sr_si
        if chan <= 7:
            cols = [subframe(rd, bs, bps) for _ in range(chan + 1)]
        elif chan == 8:
            left = subframe(rd, bs, bps)
            side = subframe(rd, bs, bps + 1)
            cols = [left, [l - s for l, s in zip(left, side)]]
        elif chan == 9:
            side = subframe(rd, bs, bps + 1)
            right = subframe(rd, bs, bps)
            cols = [[r + s for r, s in zip(right, side)], right]
        else:
            mid = subframe(rd, bs, bps)
            side = subframe(rd, bs, bps + 1)
            cols = []
            l = [((m << 1 | (s & 1)) + s) >> 1 for m, s in zip(mid, side)]
            r = [((m << 1 | (s & 1)) - s) >> 1 for m, s in zip(mid, side)]
            cols = [l, r]
        rd.align()
        assert crc16b(p[pos:rd.i]) == int.from_bytes(p[rd.i:rd.i + 2],
                                                     "big")
        pos = rd.i + 2
        for i in range(bs):
            stream.append(tuple(c[i] for c in cols))
    assert len(stream) == total
    raw = b"".join(s.to_bytes(2, "little", signed=True)
                   for row in stream for s in row)
    assert hashlib.md5(raw).digest() == md5_want
    sum_abs = sum_sq = peak = 0
    for row in stream:
        for s in row:
            a = abs(s)
            sum_abs += a
            sum_sq += a * a
            peak = max(peak, a)
    return sr_si, ch_si, len(stream), sum_abs, sum_sq, peak


def _avi_scalar_rows(doc_id: int) -> list:
    """Independent scalar twin of AviFrameSampleStage over
    synth_avi_bytes: its OWN sequential RIFF/LIST walk (no idx1 use, no
    shared parser) + the pure-Python _jpeg_scalar_px decode of each
    sampled frame."""
    import struct
    from ..stages.avi import synth_avi_bytes
    p = synth_avi_bytes(doc_id)
    assert p[:4] == b"RIFF" and p[8:12] == b"AVI "
    w = h = rate = scale = total = None
    frames = []

    def walk(lo: int, hi: int):
        nonlocal w, h, rate, scale, total
        pos = lo
        while pos + 8 <= hi:
            cc = p[pos:pos + 4]
            ln = struct.unpack("<I", p[pos + 4:pos + 8])[0]
            if cc == b"LIST":
                walk(pos + 12, pos + 8 + ln)
            elif cc == b"avih":
                total = struct.unpack("<I", p[pos + 24:pos + 28])[0]
                w, h = struct.unpack("<II", p[pos + 40:pos + 48])
            elif cc == b"strh":
                scale, rate = struct.unpack("<II", p[pos + 28:pos + 36])
            elif cc == b"00dc":
                frames.append(p[pos + 8:pos + 8 + ln])
            pos += 8 + ln + (ln & 1)

    walk(12, 8 + struct.unpack("<I", p[4:8])[0])
    assert len(frames) == total
    rows = []
    take = min(4, total)
    for j in range(take):
        fi = (j * total) // take
        fw, fh, rgb_at = _jpeg_scalar_px(frames[fi])
        assert (fw, fh) == (w, h)
        rs = gs = bs = 0
        for yy in range(fh):
            for xx in range(fw):
                r, g, b = rgb_at(xx, yy)
                rs += r
                gs += g
                bs += b
        rows.append((doc_id, j, fi, fi * 1000 * scale // rate, total,
                     rs, gs, bs))
    return rows


def _mp3_scalar_row(doc_id: int) -> tuple:
    """Independent scalar twin of Mp3MetaStage over synth_mp3_bytes: its
    own header bit-slicing and its own transcription of the public
    bitrate/samplerate/samples-per-frame tables (no import of the
    stage's tables or walk)."""
    from ..stages.mp3 import synth_mp3_bytes
    p = synth_mp3_bytes(doc_id)
    br_v1 = {3: (None, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192,
                 224, 256, 320),
             2: (None, 32, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224,
                 256, 320, 384),
             1: (None, 32, 64, 96, 128, 160, 192, 224, 256, 288, 320,
                 352, 384, 416, 448)}
    br_v2 = {3: (None, 8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128,
                 144, 160),
             2: (None, 8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128,
                 144, 160),
             1: (None, 32, 48, 56, 64, 80, 96, 112, 128, 144, 160, 176,
                 192, 224, 256)}
    rates = {3: (44100, 48000, 32000), 2: (22050, 24000, 16000),
             0: (11025, 12000, 8000)}
    pos, id3v2 = 0, 0
    if p[0:3] == b"ID3":
        sz = ((p[6] & 0x7F) * 2097152 + (p[7] & 0x7F) * 16384
              + (p[8] & 0x7F) * 128 + (p[9] & 0x7F))
        pos = 10 + sz + (10 if p[5] & 0x10 else 0)
        id3v2 = 1
    end, id3v1 = len(p), 0
    if end - pos >= 128 and p[end - 128:end - 125] == b"TAG":
        end -= 128
        id3v1 = 1
    fmt = None
    frames = abytes = 0
    brs = set()
    while pos < end:
        assert p[pos] == 0xFF and p[pos + 1] >= 0xE0
        vb = (p[pos + 1] >> 3) & 3
        lyr = 4 - ((p[pos + 1] >> 1) & 3)
        bi = p[pos + 2] >> 4
        sr = rates[vb][(p[pos + 2] >> 2) & 3]
        pad = (p[pos + 2] >> 1) & 1
        ch = 1 if (p[pos + 3] >> 6) & 3 == 3 else 2
        br = (br_v1 if vb == 3 else br_v2)[lyr][bi]
        # spf table: Layer I = 384 everywhere; Layer II = 1152;
        # Layer III = 1152 (MPEG-1) / 576 (MPEG-2/2.5)
        if lyr == 1:
            spf = 384
        elif lyr == 2:
            spf = 1152
        else:
            spf = 1152 if vb == 3 else 576
        if fmt is None:
            fmt = (vb, lyr, sr, ch, spf)
        assert fmt == (vb, lyr, sr, ch, spf)
        if lyr == 1:                 # Layer I: 4-byte slots
            ln = (12 * br * 1000 // sr + pad) * 4
        else:
            ln = spf // 8 * br * 1000 // sr + pad
        frames += 1
        abytes += ln
        brs.add(br)
        pos += ln
    assert pos == end
    vb, lyr, sr, ch, spf = fmt
    return ({3: 1, 2: 2, 0: 25}[vb], lyr, sr, ch, frames, abytes,
            frames * spf * 1000 // sr, abytes * 8 * sr // (frames * spf),
            int(len(brs) > 1), id3v2, id3v1)


BPE_MERGES = 12


def ensure_bpe_golden(sf_dir: str) -> str:
    """bpe_merges golden, keyed on the corpus (see _bpe_table)."""
    return golden("bpe_merges", corpus_key(sf_dir, merges=BPE_MERGES),
                  lambda: _bpe_table(sf_dir))


def _bpe_table(sf_dir: str) -> pa.Table:
    """Independent reference BPE (Sennrich 2016) over the documents
    corpus: pq.read_table + re + collections.Counter + its OWN
    tuple-rewrite merge loop — no import of stages/bpe machinery."""
    import re as _re
    from collections import Counter
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                         columns=["text"])
    wc: Counter = Counter()
    for t in docs["text"].to_pylist():
        wc.update(_re.findall("[a-z0-9]+", t.lower()))
    vocab = {}
    for w, c in wc.items():
        syms = tuple(w[:-1]) + (w[-1] + "</w>",)
        vocab[syms] = vocab.get(syms, 0) + c
    rows = []
    for rank in range(BPE_MERGES):
        pc_: Counter = Counter()
        for syms, c in vocab.items():
            for i in range(len(syms) - 1):
                pc_[(syms[i], syms[i + 1])] += c
        if not pc_:
            break
        (l, r), c = min(pc_.items(),
                        key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        rows.append((rank, l, r, c))
        new_vocab: dict = {}
        lr = l + r
        for syms, cnt in vocab.items():
            out = []
            i = 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == l
                        and syms[i + 1] == r):
                    out.append(lr)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            t = tuple(out)
            new_vocab[t] = new_vocab.get(t, 0) + cnt
        vocab = new_vocab
    return pa.table({
        "rank": pa.array([r[0] for r in rows], pa.int64()),
        "left": pa.array([r[1] for r in rows], pa.string()),
        "right": pa.array([r[2] for r in rows], pa.string()),
        "pair_count": pa.array([r[3] for r in rows], pa.int64()),
    })


def ensure_bpe_encode_golden(sf_dir: str) -> str:
    """bpe_encode golden, keyed on the corpus (see _bpe_encode_table)."""
    return golden("bpe_encode", corpus_key(sf_dir, merges=BPE_MERGES),
                  lambda: _bpe_encode_table(sf_dir))


def _bpe_encode_table(sf_dir: str) -> pa.Table:
    """Independent tokenizer-apply twin: reads the (already verified)
    merge table of ensure_bpe_golden and re-encodes every document with
    its OWN rank-priority loop (index-scan + slice rewrite, no import of
    stages/bpe), emitting (doc_id, n_words, n_tokens, token_crc_sum)."""
    import re as _re
    import zlib as _zlib
    m = pq.read_table(ensure_bpe_golden(sf_dir))
    ranks = {(l, r): k for k, l, r in zip(m["rank"].to_pylist(),
                                          m["left"].to_pylist(),
                                          m["right"].to_pylist())}
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    cache: dict = {}

    def enc(w: str):
        got = cache.get(w)
        if got is not None:
            return got
        syms = list(w)
        syms[-1] = syms[-1] + "</w>"
        while True:
            best_rank, best_i = None, None
            for i in range(len(syms) - 1):
                rk = ranks.get((syms[i], syms[i + 1]))
                if rk is not None and (best_rank is None
                                       or rk < best_rank):
                    best_rank, best_i = rk, i
            if best_rank is None:
                break
            # apply THIS pair everywhere, greedy left-to-right
            a, b = syms[best_i], syms[best_i + 1]
            out = []
            i = 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == a
                        and syms[i + 1] == b):
                    out.append(a + b)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
        got = (len(syms),
               sum(_zlib.crc32(t.encode("utf-8")) for t in syms))
        cache[w] = got
        return got

    ids, nw, nt, cs = [], [], [], []
    for did, t in zip(docs["doc_id"].to_pylist(),
                      docs["text"].to_pylist()):
        words = _re.findall("[a-z0-9]+", t.lower())
        tt = tc = 0
        for w in words:
            a, b = enc(w)
            tt += a
            tc += b
        ids.append(did)
        nw.append(len(words))
        nt.append(tt)
        cs.append(tc)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "n_words": pa.array(nw, pa.int64()),
        "n_tokens": pa.array(nt, pa.int64()),
        "token_crc_sum": pa.array(cs, pa.int64()),
    })


def ensure_lzw_golden(sf_dir: str) -> str:
    """compress_ratio golden, keyed on the corpus (see _lzw_table)."""
    return golden("compress_ratio", corpus_key(sf_dir),
                  lambda: _lzw_table(sf_dir))


def _lzw_table(sf_dir: str) -> pa.Table:
    """Independent compression-ratio twin: its OWN LZW compressor with a
    (prefix_code, byte)->code dictionary (the engine's keys on byte
    strings) and its own bit packer — identical output LENGTHS iff both
    implement the same greedy algorithm, code-width growth and 4096
    reset, which is exactly what the gate checks."""
    def lzw_len(data: bytes) -> int:
        clear, eoi = 256, 257
        bits = 0                        # total bits emitted

        def fresh():
            return {}, 258, 9

        table, next_code, width = fresh()
        bits += width                   # leading CLEAR
        cur = None
        for b in data:
            if cur is None:
                cur = b
                continue
            hit = table.get((cur, b))
            if hit is not None:
                cur = hit
                continue
            bits += width
            table[(cur, b)] = next_code
            next_code += 1
            if next_code == (1 << width) + 1 and width < 12:
                width += 1
            elif next_code >= 4096:
                bits += width           # CLEAR emitted at old width
                table, next_code, width = fresh()
            cur = b
        if cur is not None:
            bits += width
        bits += width                   # EOI
        return (bits + 7) // 8

    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    ids, nr, nc, pm = [], [], [], []
    for did, t in zip(docs["doc_id"].to_pylist(),
                      docs["text"].to_pylist()):
        b = t.encode("utf-8")
        c = lzw_len(b)
        ids.append(did)
        nr.append(len(b))
        nc.append(c)
        pm.append(c * 1000 // len(b) if b else 0)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "n_raw": pa.array(nr, pa.int64()),
        "n_lzw": pa.array(nc, pa.int64()),
        "ratio_pm": pa.array(pm, pa.int64()),
    })
