"""Zonal statistics (J4 in SURVEY.md §2.6): raster<->vector style aggregation
of the page "raster" (points) over polygon zones.

Pipeline shape: PIP join (a broadcast `PIPIndex`, built once per worker
process by a fused task map) emits (zone, measure) rows, and
`combine_by_key` collapses them to one row per zone per batch before
its one exchange — the pre-aggregate-before-shuffle pattern, so the
exchange's split and merge tasks move one row per (zone, block) instead
of one per page.
"""

from __future__ import annotations

from .combine import combine_by_key


def zonal_stats(joined, *, measure_col: str = "n_chars",
                zone_col: str = "geom_id"):
    """joined: Dataset of PIP-join output rows carrying `measure_col`.

    Returns Dataset(geom_id, n_pages, sum_measure) — count and integer sum
    per zone. The measure must be integer-valued: integer partial sums are
    order-independent (exact in int64), so the partial+final decomposition
    reproduces the SQL oracle's SUM bit-for-bit, which a float measure would
    not (float addition is order-sensitive under parallel merge).

    Zone cardinality scales with the polygon corpus, so the merge is the
    coarse prime-modulus `combine_by_key`, never a per-distinct-zone
    groupby.
    """
    return combine_by_key(joined, zone_col,
                          {"n_pages": (measure_col, "count"),
                           "sum_measure": (measure_col, "sum")})
