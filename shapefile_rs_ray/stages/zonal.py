"""Zonal statistics (J4 in SURVEY.md §2.6): raster<->vector style aggregation
of the page "raster" (points) over polygon zones.

Pipeline shape: PIP join (broadcast grid + y-strip index actors) emits
(zone, measure) rows, a per-batch *partial* aggregate collapses them to one
row per zone per batch, and a small `groupby(geom_id)` merges the partials —
the pre-aggregate-before-shuffle pattern, so the all-to-all exchange moves one
row per (zone, batch) instead of one per page.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def zonal_stats(joined, *, measure_col: str = "n_chars",
                zone_col: str = "geom_id", parts: int = 251):
    """joined: Dataset of PIP-join output rows carrying `measure_col`.

    Returns Dataset(geom_id, n_pages, sum_measure) — count and integer sum
    per zone. The measure must be integer-valued: integer partial sums are
    order-independent (exact in int64), so the partial+final decomposition
    reproduces the SQL oracle's SUM bit-for-bit, which a float measure would
    not (float addition is order-sensitive under parallel merge).

    Zone cardinality scales with the polygon corpus, so the final merge is
    one shuffle into `parts` coarse prime-modulus partitions (lexsort +
    reduceat per partition), never a per-distinct-zone groupby.
    """

    def partial(batch: pa.Table) -> pa.Table:
        zones = np.asarray(batch[zone_col], np.int64)
        vals = np.asarray(batch[measure_col], np.int64)
        uniq, inv = np.unique(zones, return_inverse=True)
        cnt = np.bincount(inv)
        s = np.zeros(len(uniq), np.int64)
        np.add.at(s, inv, vals)          # pure int64 — no float rounding
        return pa.table({zone_col: pa.array(uniq, pa.int64()),
                         "n_pages": pa.array(cnt, pa.int64()),
                         "sum_measure": pa.array(s, pa.int64()),
                         "__p": pa.array(uniq % parts, pa.int64())})

    def merge(part: pa.Table) -> pa.Table:
        z = np.asarray(part[zone_col], np.int64)
        n = np.asarray(part["n_pages"], np.int64)
        s = np.asarray(part["sum_measure"], np.int64)
        order = np.argsort(z, kind="stable")
        zs, ns, ss = z[order], n[order], s[order]
        uniq, start = np.unique(zs, return_index=True)
        return pa.table({
            zone_col: pa.array(uniq, pa.int64()),
            "n_pages": pa.array(np.add.reduceat(ns, start), pa.int64()),
            "sum_measure": pa.array(np.add.reduceat(ss, start), pa.int64()),
        })

    return (joined.map_batches(partial, batch_format="pyarrow")
            .groupby("__p").map_groups(merge, batch_format="pyarrow"))
