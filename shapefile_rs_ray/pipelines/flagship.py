"""The flagship pipeline (north star end-to-end): Common-Crawl-style pages
-> text stats -> grid-cell tiling -> broadcast point-in-polygon join (grid +
y-strip index) against the shapefile-decoded lake polygons -> resumable
partitioned output with lineage manifests -> zonal aggregates.

Every stage is a streaming map_batches over Arrow; the only materialized
artifacts are the (small) polygon side, the zonal aggregate, and the
partitioned parquet output.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import cells as cells_mod
from ..functions.text import token_stats
from ..sources.webpages import read_webpages
from ..stages.broadcast import put_side
from ..stages.combine import combine_by_key
from ..stages.pip_join import broadcast_pip_join, load_polygons
from ..state.lineage import drop_completed, write_partitioned
from .oracles import LAKES

GRID_ZOOM = 12


def add_grid_cell(batch: pa.Table, zoom: int = GRID_ZOOM) -> pa.Table:
    cell = cells_mod.grid_cell(np.asarray(batch["lon"], np.float64),
                               np.asarray(batch["lat"], np.float64), zoom)
    return batch.append_column("cell", pa.array(cell, pa.int64()))


def flagship(sf_dir: str, *, out_dir: str | None = None, repl: int | None = None,
             concurrency=None, polygons: str = LAKES):
    """Returns the lazy Dataset of all joined rows.

    With `out_dir`, the joined rows are also written as resumable keyed
    partitions (state/lineage.py) and the write manifest is consumed. The
    plan that writes drops completed partitions at the page source, so a
    resume computes text stats and the join for the pending pages only,
    and a full resume writes through no exchange. The returned Dataset
    does not filter: it is every joined row either way.

    The polygons are put once per call, with their digest, and both plans
    share them; the PIP join is a task map fused into the page synthesis,
    text and grid maps (`stages/pip_join.py`). `concurrency` is accepted
    and unused, as in `broadcast_pip_join`: forwarding it would split that
    fusion.
    """
    kwargs = {} if repl is None else {"repl": repl}
    polys = put_side(load_polygons(polygons))

    def joined_rows(pages):
        pages = pages.map_batches(token_stats, batch_format="pyarrow")
        pages = pages.map_batches(add_grid_cell, batch_format="pyarrow")
        return broadcast_pip_join(
            pages, polys,
            keep_cols=("page_id", "url", "text", "lang", "cell", "n_chars",
                       "is_quality"))

    pages = read_webpages(sf_dir, with_html=False, **kwargs)
    if out_dir is not None:
        pending = drop_completed(pages, out_dir, key_col="page_id")
        write_partitioned(joined_rows(pending), out_dir, key_col="page_id",
                          text_col="text", url_col="url").materialize()
    return joined_rows(pages)


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
