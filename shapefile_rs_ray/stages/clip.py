"""Liang-Barsky edge clipping against a tile bbox — what a tiling
engine does to every geometry before rendering/serving a tile: keep,
per ring edge, the sub-segment inside the tile window.

Distribution: pure per-record vectorized map over the shapefile
datasource's geometry blocks (no shuffle; edge math is row-local).

Bit-exactness design (why the DuckDB twin can hash-match):
  - the parametric ts are plain IEEE divisions ((bound - x1) / dx),
    identical expressions on both sides;
  - t0/t1 are MAX/MIN selections over those ts — selection, not
    arithmetic, so ANY evaluation order yields the same bits
    (GREATEST/LEAST in SQL vs chained np.maximum/np.minimum here);
  - an axis-parallel edge (d == 0) never divides: it either rejects
    (outside that slab) or leaves the slab bounds alone — the same
    CASE on both sides;
  - clipped endpoints are x1 + t*dx / y1 + t*dy, identical mult-add.

Per edge the result is (t0, t1) in [0, 1] with t0 <= t1 iff some part
of the edge lies in the box; degenerate edges (dx == dy == 0) keep
only if the point itself is inside.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def clip_edges(batch: pa.Table, *, box) -> pa.Table:
    """Geometry block -> clipped edge table (geom_id, part_idx, edge_idx,
    t0, t1, cx1, cy1, cx2, cy2) for every ring edge intersecting `box`
    (xmin, ymin, xmax, ymax); zero rows, typed as `_empty()`, when none
    does."""
    from ..geometry.schema import explode_xy
    xmin, ymin, xmax, ymax = (float(v) for v in box)
    ex = explode_xy(batch)
    x, y, pt_cum = ex["x"], ex["y"], ex["pt_cum"]
    n = len(x)
    if n < 2:
        return _empty()
    x1, y1 = x[:-1], y[:-1]
    x2, y2 = x[1:], y[1:]
    dx = x2 - x1
    dy = y2 - y1
    # edges crossing part boundaries are not real ring edges; a leading
    # EMPTY part puts 0 in bounds, and 0 - 1 would wrap to real[-1] and
    # silently drop the batch's last genuine edge — exclude it
    real = np.ones(n - 1, bool)
    bounds = pt_cum[1:-1]
    real[bounds[(bounds > 0) & (bounds <= n - 1)] - 1] = False

    with np.errstate(divide="ignore", invalid="ignore"):
        tl = (xmin - x1) / dx
        tr = (xmax - x1) / dx
        tb = (ymin - y1) / dy
        tt = (ymax - y1) / dy
    zero = np.zeros(n - 1)
    one = np.ones(n - 1)
    t0 = np.maximum(
        np.maximum(np.where(dx > 0, tl, zero), np.where(dx < 0, tr, zero)),
        np.maximum(np.where(dy > 0, tb, zero), np.where(dy < 0, tt, zero)))
    t0 = np.maximum(t0, zero)
    t1 = np.minimum(
        np.minimum(np.where(dx < 0, tl, one), np.where(dx > 0, tr, one)),
        np.minimum(np.where(dy < 0, tb, one), np.where(dy > 0, tt, one)))
    t1 = np.minimum(t1, one)
    # axis-parallel edges outside their slab reject outright
    reject = ((dx == 0.0) & ((x1 < xmin) | (x1 > xmax))) | \
             ((dy == 0.0) & ((y1 < ymin) | (y1 > ymax)))
    keep = real & ~reject & (t0 <= t1)

    k = np.nonzero(keep)[0]
    t0k, t1k = t0[k], t1[k]
    cx1 = x1[k] + t0k * dx[k]
    cy1 = y1[k] + t0k * dy[k]
    cx2 = x1[k] + t1k * dx[k]
    cy2 = y1[k] + t1k * dy[k]
    edge_idx = ex["vtx_idx"][:-1][k]
    return pa.table({
        "geom_id": pa.array(ex["pt_geom"][:-1][k], pa.int64()),
        "part_idx": pa.array(ex["pt_part"][:-1][k], pa.int64()),
        "edge_idx": pa.array(edge_idx, pa.int64()),
        "t0": pa.array(t0k, pa.float64()),
        "t1": pa.array(t1k, pa.float64()),
        "cx1": pa.array(cx1, pa.float64()),
        "cy1": pa.array(cy1, pa.float64()),
        "cx2": pa.array(cx2, pa.float64()),
        "cy2": pa.array(cy2, pa.float64()),
    })


def _empty() -> pa.Table:
    f = pa.array([], pa.float64())
    i = pa.array([], pa.int64())
    return pa.table({"geom_id": i, "part_idx": i, "edge_idx": i,
                     "t0": f, "t1": f, "cx1": f, "cy1": f,
                     "cx2": f, "cy2": f})


def clip_edges_sql(vertices_pq: str, *, box) -> str:
    """DuckDB twin over the vertex golden: identical divisions, identical
    MAX/MIN selections (GREATEST/LEAST), identical CASEs."""
    from ..functions.synth import _lit
    xmin, ymin, xmax, ymax = (_lit(float(v)) for v in box)
    return f"""
WITH v AS (SELECT * FROM read_parquet('{vertices_pq}')),
e AS (SELECT v1.geom_id, v1.part_idx, v1.vtx_idx AS edge_idx,
             v1.x AS x1, v1.y AS y1,
             v2.x - v1.x AS dx, v2.y - v1.y AS dy
      FROM v v1
      JOIN v v2 ON v2.geom_id = v1.geom_id AND v2.part_idx = v1.part_idx
               AND v2.vtx_idx = v1.vtx_idx + 1),
t AS (SELECT *,
        GREATEST(
          GREATEST(CASE WHEN dx > 0 THEN ({xmin} - x1) / dx ELSE 0 END,
                   CASE WHEN dx < 0 THEN ({xmax} - x1) / dx ELSE 0 END),
          GREATEST(CASE WHEN dy > 0 THEN ({ymin} - y1) / dy ELSE 0 END,
                   CASE WHEN dy < 0 THEN ({ymax} - y1) / dy ELSE 0 END),
          CAST(0 AS DOUBLE)) AS t0,
        LEAST(
          LEAST(CASE WHEN dx < 0 THEN ({xmin} - x1) / dx ELSE 1 END,
                CASE WHEN dx > 0 THEN ({xmax} - x1) / dx ELSE 1 END),
          LEAST(CASE WHEN dy < 0 THEN ({ymin} - y1) / dy ELSE 1 END,
                CASE WHEN dy > 0 THEN ({ymax} - y1) / dy ELSE 1 END),
          CAST(1 AS DOUBLE)) AS t1
      FROM e
      WHERE NOT ((dx = 0 AND (x1 < {xmin} OR x1 > {xmax}))
                 OR (dy = 0 AND (y1 < {ymin} OR y1 > {ymax}))))
SELECT geom_id, part_idx, edge_idx, t0, t1,
       x1 + t0 * dx AS cx1, y1 + t0 * dy AS cy1,
       x1 + t1 * dx AS cx2, y1 + t1 * dy AS cy2
FROM t WHERE t0 <= t1
"""
