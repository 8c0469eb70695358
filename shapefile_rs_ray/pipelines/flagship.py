"""The flagship pipeline (north star end-to-end): Common-Crawl-style pages
-> text stats -> grid-cell tiling -> broadcast point-in-polygon join (grid +
y-strip index) against the shapefile-decoded lake polygons -> resumable
partitioned output with lineage manifests -> zonal aggregates.

The streaming plan is map_batches over Arrow, and the lineage write is
one plain Ray task per partition; the only materialized artifacts are the
(small) polygon side, the zonal aggregate, and the partitioned parquet
output.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions import cells as cells_mod
from ..functions import synth
from ..functions.text import token_stats
from ..raydata import ray_data
from ..sources.webpages import pages_in_range, read_webpages
from ..stages.broadcast import map_units, put_side
from ..stages.combine import combine_by_key
from ..stages.pip_join import PipJoin, broadcast_pip_join, load_polygons
from ..state.lineage import (PARTITION_SIZE, PartitionWriter,
                             pending_partitions, read_partitions, write_rows)
from .oracles import LAKES

GRID_ZOOM = 12
JOIN_COLS = ("page_id", "url", "text", "lang", "cell", "n_chars",
             "is_quality")


def add_grid_cell(batch: pa.Table, zoom: int = GRID_ZOOM) -> pa.Table:
    cell = cells_mod.grid_cell(np.asarray(batch["lon"], np.float64),
                               np.asarray(batch["lat"], np.float64), zoom)
    return batch.append_column("cell", pa.array(cell, pa.int64()))


def flagship(sf_dir: str, *, out_dir: str | None = None, repl: int | None = None,
             concurrency=None, polygons: str = LAKES):
    """Returns the lazy Dataset of all joined rows.

    Without `out_dir` it is the streaming plan: page synthesis, text
    stats, grid cells and the PIP join, one fused task map
    (`stages/pip_join.py`). With `out_dir`, `write_lineage` first writes
    the joined rows of every pending lineage partition, one plain Ray
    task per partition and no Ray Data operator, and the result is
    a lazy read of all the completed partitions' `data.parquet` files,
    without their `__p` column: the same rows, read back, not a second
    join plan. `concurrency` is accepted and unused, as in
    `broadcast_pip_join`: forwarding it would split that fusion.
    """
    if out_dir is not None:
        repl = synth.REPL if repl is None else repl
        write_lineage(sf_dir, out_dir, repl=repl, polygons=polygons)
        joined = read_partitions(out_dir)
        if joined is None:      # no page joined: typed, and empty
            none = pages_in_range(sf_dir, 0, 0, repl)
            join = PipJoin(load_polygons(polygons), keep_cols=JOIN_COLS)
            joined = ray_data().from_arrow(
                join(add_grid_cell(token_stats(none))))
        return joined
    kwargs = {} if repl is None else {"repl": repl}
    polys = put_side(load_polygons(polygons))
    pages = read_webpages(sf_dir, with_html=False, **kwargs)
    pages = pages.map_batches(token_stats, batch_format="pyarrow")
    pages = pages.map_batches(add_grid_cell, batch_format="pyarrow")
    return broadcast_pip_join(pages, polys, keep_cols=JOIN_COLS)


def write_lineage(sf_dir: str, out_dir: str, *, repl: int = synth.REPL,
                  polygons: str = LAKES):
    """Write the joined rows of every lineage partition of `out_dir` that
    is not completed; returns the materialized manifest Dataset (part,
    rows, skipped), or None when no partition is pending.

    The driver reads `doc_id` alone and plans one unit per pending
    partition (`lineage.pending_partitions`), so a full resume reads and
    synthesizes nothing. Each unit is one plain Ray task
    (`broadcast.map_units`, one per logical CPU at a time): its pages
    (`pages_in_range`), text stats, grid cells, the cached PIP join and
    the partition's write. The manifest is their rows in partition order.
    A partition with no joined row gets a done marker with `rows: 0` and
    no data file (`PartitionWriter.mark_empty`), so a resume plans it no
    more.
    """
    doc_ids = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id"])["doc_id"]
    parts = pending_partitions(doc_ids, repl, out_dir)
    if not len(parts):
        return None

    def write_unit(part: int, join: PipJoin) -> pa.Table:
        pages = pages_in_range(sf_dir, part * PARTITION_SIZE,
                               (part + 1) * PARTITION_SIZE, repl)
        rows = join(add_grid_cell(token_stats(pages)))
        writer = PartitionWriter(out_dir)
        return (write_rows(rows, writer) if rows.num_rows
                else writer.mark_empty(part))

    rows = map_units([int(p) for p in parts], "lineage_unit", PipJoin,
                     put_side(load_polygons(polygons)), write_unit,
                     keep_cols=JOIN_COLS)
    return ray_data().from_arrow(pa.concat_tables(rows))


PYRAMID_ZOOMS = (4, 6, 8, 10, 12)


def tile_pyramid(pages, *, zooms=PYRAMID_ZOOMS):
    """Tile-pyramid page counts: (zoom, cx, cy, n_pages) for every zoom in
    `zooms` — the pre-aggregation a tile server reads per zoom level.

    Parent derivation is PURE INTEGER: each page gets its zoom-12 cell
    once (the engine/oracle-shared grid_cell expression), every coarser
    tile is (ix >> d, iy >> d) of that base — so the pyramid nests
    EXACTLY and the SQL twin is integer arithmetic over the same base
    cell, no re-derivation from floats per level.

    Shape: every page emits one packed (zoom, cx, cy) key per zoom, and
    `combine_by_key` counts them — never a per-distinct-tile groupby."""
    max_zoom = max(zooms)
    side = 1 << max_zoom

    def tile_keys(batch: pa.Table) -> pa.Table:
        base = cells_mod.grid_cell(np.asarray(batch["lon"], np.float64),
                                   np.asarray(batch["lat"], np.float64),
                                   max_zoom)
        ix = base // side
        iy = base % side
        keys = []
        for z in zooms:
            d = max_zoom - z
            keys.append((np.int64(z) << np.int64(48))
                        | ((ix >> d) << np.int64(24)) | (iy >> d))
        return pa.table({"pk": pa.array(np.concatenate(keys), pa.int64())})

    def unpack(batch: pa.Table) -> pa.Table:
        pk = np.asarray(batch["pk"], np.int64)
        return pa.table({
            "zoom": pa.array(pk >> np.int64(48), pa.int64()),
            "cx": pa.array((pk >> np.int64(24)) & np.int64(0xFFFFFF),
                           pa.int64()),
            "cy": pa.array(pk & np.int64(0xFFFFFF), pa.int64()),
            "n_pages": batch["n_pages"],
        })

    counts = combine_by_key(pages.map_batches(tile_keys,
                                              batch_format="pyarrow"),
                            "pk", {"n_pages": ("pk", "count")})
    return counts.map_batches(unpack, batch_format="pyarrow")
