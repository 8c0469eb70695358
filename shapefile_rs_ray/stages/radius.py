"""Within-radius spatial join (great-circle): page -> every site whose
haversine term is <= a threshold.

The site set is the SMALL side, so this is the broadcast plan: the
per-task closure carries the (tiny) pre-radianized site arrays, each
batch computes one vectorized (rows x sites) haversine-term block, and
matches emit map-side — NO shuffle at any corpus size (the shuffle-free
analogue of knn.knn_join; a LARGE site side would bucket its sites in
a coarse grid built once per process, as knn.KnnStage does).

Distance semantics: the join keeps and emits the raw haversine TERM
    hav = sin^2(dlat/2) + (cos(lat1)*cos(lat2)) * sin^2(dlon/2)
which is monotone in great-circle distance (dist = 2*R*asin(sqrt(hav))),
so thresholding hav is exactly thresholding distance — and it needs only
sin/cos/sqrt-free ops whose DuckDB twins are verified bit-exact on this
host (asin parity is NOT verified, so the arc length itself is left to
the caller). Radians via the explicit ``deg * 0.017453292519943295``
multiply (DuckDB's radians() differs in the last ulp).

Reference parity note: the reference (shapefile-rs) ships geometry I/O
only — no joins (examples/geotype-example is the lone spatial consumer);
this operator is north-star surface ("kNN / spatial joins"), not a port.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

DEG2RAD = 0.017453292519943295  # float64 nearest to pi/180

# default threshold: hav(100 km) = sin^2(50km / 6371km) -- pages within
# ~100 km great-circle of a site
HAV_100KM = float(np.sin(50.0 / 6371.0) ** 2)


def radius_join(pages, site_arrays, *, hav_max: float = HAV_100KM,
                id_col: str = "page_id", lon_col: str = "lon",
                lat_col: str = "lat"):
    """(page_id, site_id, hav) for every (page, site) pair with haversine
    term <= hav_max; deterministic (inputs are, and no order-sensitive
    float reduction exists — each hav is a pure per-pair expression)."""
    site_ids, slon, slat = site_arrays
    site_ids = np.asarray(site_ids, np.int64)
    slonr = np.asarray(slon, np.float64) * DEG2RAD
    slatr = np.asarray(slat, np.float64) * DEG2RAD
    cos_slatr = np.cos(slatr)
    thr = float(hav_max)

    def match(batch: pa.Table) -> pa.Table:
        pid = np.asarray(batch[id_col], np.int64)
        plonr = np.asarray(batch[lon_col], np.float64) * DEG2RAD
        platr = np.asarray(batch[lat_col], np.float64) * DEG2RAD
        # one (rows x sites) block; ops and grouping mirror the SQL oracle
        # EXACTLY: sa*sa + (cos*cos)*(sb*sb)
        sa = np.sin((slatr[None, :] - platr[:, None]) * 0.5)
        sb = np.sin((slonr[None, :] - plonr[:, None]) * 0.5)
        hav = sa * sa + (np.cos(platr)[:, None] * cos_slatr[None, :]) * (sb * sb)
        r, c = np.nonzero(hav <= thr)
        return pa.table({
            id_col: pa.array(pid[r], pa.int64()),
            "site_id": pa.array(site_ids[c], pa.int64()),
            "hav": pa.array(hav[r, c], pa.float64()),
        })

    return pages.map_batches(match, batch_format="pyarrow")


def radius_join_sql(pages_cte: str, sites_sql: str, *,
                    hav_max: float = HAV_100KM) -> str:
    """DuckDB twin: identical expression tree per pair (see radius_join)."""
    from ..functions.synth import _lit
    c = _lit(DEG2RAD)
    half = _lit(0.5)
    return f"""
WITH {pages_cte},
pr AS (SELECT page_id, lon * {c} AS plonr, lat * {c} AS platr FROM pages),
sr AS (SELECT site_id, lon * {c} AS slonr, lat * {c} AS slatr
       FROM ({sites_sql})),
h AS (SELECT page_id, site_id,
             SIN((slatr - platr) * {half}) AS sa,
             SIN((slonr - plonr) * {half}) AS sb,
             (COS(platr) * COS(slatr)) AS cc
      FROM pr CROSS JOIN sr)
SELECT page_id, site_id, sa * sa + cc * (sb * sb) AS hav
FROM h WHERE sa * sa + cc * (sb * sb) <= {_lit(float(hav_max))}
"""
