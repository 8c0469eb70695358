"""Deterministic synthesis of the Common-Crawl-style web-page table
(BASELINE.json input_hint: url, warc_ts, html, text, lang) from the driver's
`documents` table, plus the deterministic geocode.

Single source of truth for BOTH sides of the correctness gate: every derived
column is defined once here as (a) a vectorized numpy/pyarrow kernel and
(b) the *identical* SQL expression string for the DuckDB oracle. The
formulas use only integer arithmetic + f64 multiply/add in the same operation
order, so engine and oracle agree bit-for-bit.

Each source document becomes ``REPL`` web pages (page_id = doc_id*REPL + r,
same extracted text per clone) — web-scale corpora have massive near/exact
duplication, and this gives the dedup operators real duplicate groups while
keeping the byte-identical-text-per-url invariant checkable.

Geocoding routes 70% of pages into the bboxes of the 8 largest lakes of the
reference's `ne_10m_lakes_north_america.shp` corpus (the join side), 10% into
one deliberately hot cell (skew exercise for the salted cell join), and the
rest worldwide — FIXTURES.md §B1.

Scale note: `page_id * 2654435761` stays far below 2^63 for sandbox scales
(the production path would hash the url string; the multiplier form is chosen
because DuckDB BIGINT reproduces it exactly).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# bboxes [xmin, ymin, xmax, ymax] of the 8 largest-bbox simple polygons in
# ne_10m_lakes_north_america.shp (decoded once; frozen literals shared with
# the SQL below)
LAKE_BOXES = [
    (-127.66094876915918, 53.26593584119896, -124.84638112600872, 53.84715292140406),
    (-126.63401150211232, 54.44189958074336, -125.18649752204487, 55.310333262973174),
    (-72.83199984420725, 54.14495091551282, -71.30041064262261, 54.63139909356214),
    (-134.13249261714026, 59.14620525480181, -133.57116985229567, 60.000000677870645),
    (-126.25240630362292, 55.08388941964842, -125.58851604398369, 55.69840358527803),
    (-66.83600720620187, 53.64156993800855, -66.3962489335554, 54.5628854486254),
    (-73.70299231679107, 53.8032290710878, -72.72057044179124, 54.196661688275334),
    (-74.07502751583777, 70.42224652623094, -73.07059741700976, 70.79204255602396),
]

HOT_X = -88.0   # hot-cell anchor (one dense cell to exercise skew salting)
HOT_Y = 43.0

M1 = 2654435761          # Knuth multiplicative hash
M2 = 1103515245          # glibc LCG multiplier
P1 = 1000000007
P2 = 2147483647

EPOCH = "2024-01-01 00:00:00"
N_HOSTS = 97
N_SITES = 64
REPL = 20                # pages per source document


# --------------------------------------------------------------------------
# numpy side
# --------------------------------------------------------------------------

def _fracs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # fail loudly at the same boundary where the DuckDB oracle would raise a
    # BIGINT overflow instead of silently wrapping in int64 (~3.5e9 ids)
    if len(ids) and ids.max() >= (1 << 63) // M1:
        raise OverflowError(
            f"id {ids.max()} * {M1} overflows int64; the production path "
            "hashes the url string instead of the multiplicative form")
    h1 = (ids * M1) % P1
    h2 = (ids * M2 + 12345) % P2
    return (h1 % 1000000) / 1000000.0, (h2 % 1000000) / 1000000.0


def geocode(page_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """page_id -> (lon, lat), matching the SQL in WEBPAGES_SQL bit-for-bit."""
    ids = np.asarray(page_ids, np.int64)
    f1, f2 = _fracs(ids)
    box_idx = (ids // 10) % len(LAKE_BOXES)
    bx = np.array(LAKE_BOXES)
    x0 = bx[box_idx, 0]
    y0 = bx[box_idx, 1]
    xs = bx[box_idx, 2] - bx[box_idx, 0]
    ys = bx[box_idx, 3] - bx[box_idx, 1]
    lon_lakes = x0 + f1 * xs
    lat_lakes = y0 + f2 * ys
    lon_hot = HOT_X + f1 * 0.05
    lat_hot = HOT_Y + f2 * 0.05
    lon_world = -180.0 + f1 * 360.0
    lat_world = -85.0 + f2 * 170.0
    is_hot = ids % 10 == 9
    is_lakes = ids % 10 < 7
    lon = np.where(is_hot, lon_hot, np.where(is_lakes, lon_lakes, lon_world))
    lat = np.where(is_hot, lat_hot, np.where(is_lakes, lat_lakes, lat_world))
    return lon, lat


def webpage_batch(batch: pa.Table, repl: int = REPL,
                  html: bool = True) -> pa.Table:
    """documents batch (doc_id, text, lang, ...) -> web-page batch
    (page_id, url, warc_ts, html, text, lang, lon, lat), `repl` pages per
    document; `html=False` leaves the html column out (~1/3 of the
    synthesis time)."""
    doc_ids = np.asarray(batch["doc_id"], np.int64)
    n = len(doc_ids)
    rep_ids = np.repeat(doc_ids, repl)
    r = np.tile(np.arange(repl, dtype=np.int64), n)
    page_ids = rep_ids * repl + r
    take_idx = np.repeat(np.arange(n), repl)
    text = pc.take(batch["text"], pa.array(take_idx))
    lang = pc.take(batch["lang"], pa.array(take_idx))

    host = pc.cast(pa.array(page_ids % N_HOSTS, pa.int64()), pa.string())
    idstr = pc.cast(pa.array(page_ids, pa.int64()), pa.string())
    url = pc.binary_join_element_wise(
        pa.scalar("https://h"), host, pa.scalar(".example/p/"), idstr, "")
    ts = (np.datetime64(EPOCH.replace(" ", "T")) +
          page_ids.astype("timedelta64[s]")).astype("datetime64[us]")
    cols = {"page_id": pa.array(page_ids, pa.int64()), "url": url,
            "warc_ts": pa.array(ts, pa.timestamp("us"))}
    if html:
        cols["html"] = pc.binary_join_element_wise(
            pa.scalar(b"<html><body>"),
            pc.cast(text, pa.binary()),
            pa.scalar(b"</body></html>"), b"")
    lon, lat = geocode(page_ids)
    return pa.table({**cols, "text": text, "lang": lang,
                     "lon": pa.array(lon), "lat": pa.array(lat)})


def sites() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The deterministic kNN site set (site_id, lon, lat): one site spread
    across the lake boxes; reproduced in SQL by SITES_SQL."""
    ids = np.arange(N_SITES, dtype=np.int64)
    f1, f2 = _fracs(ids)
    bx = np.array(LAKE_BOXES)
    box_idx = ids % len(LAKE_BOXES)
    lon = bx[box_idx, 0] + f1 * (bx[box_idx, 2] - bx[box_idx, 0])
    lat = bx[box_idx, 1] + f2 * (bx[box_idx, 3] - bx[box_idx, 1])
    return ids, lon, lat


# --------------------------------------------------------------------------
# SQL side (DuckDB oracle; identical expressions)
# --------------------------------------------------------------------------

def _lit(v: float) -> str:
    """Embed a Python float as an exact DOUBLE literal. DuckDB parses bare
    numeric literals as DECIMAL and its decimal->double conversion double-
    rounds; a VARCHAR cast goes through strtod and is correctly rounded, so
    the oracle sees the exact same f64 as numpy."""
    return f"CAST('{v!r}' AS DOUBLE)"


def _frac_sql(ident: str) -> tuple[str, str]:
    return (f"(((({ident} * {M1}) % {P1}) % 1000000) / CAST(1000000 AS DOUBLE))",
            f"(((({ident} * {M2} + 12345) % {P2}) % 1000000) / CAST(1000000 AS DOUBLE))")


def _box_case_sql(ident: str, f1: str, f2: str) -> tuple[str, str]:
    lon_branches, lat_branches = [], []
    for i, (x0, y0, x1, y1) in enumerate(LAKE_BOXES):
        cond = f"({ident} // 10) % {len(LAKE_BOXES)} = {i}"
        lon_branches.append(f"WHEN {cond} THEN {_lit(x0)} + {f1} * {_lit(x1 - x0)}")
        lat_branches.append(f"WHEN {cond} THEN {_lit(y0)} + {f2} * {_lit(y1 - y0)}")
    return ("CASE " + " ".join(lon_branches) + " END",
            "CASE " + " ".join(lat_branches) + " END")


def lonlat_sql(ident: str = "page_id") -> tuple[str, str]:
    f1, f2 = _frac_sql(ident)
    box_lon, box_lat = _box_case_sql(ident, f1, f2)
    lon = (f"CASE WHEN {ident} % 10 = 9 THEN {_lit(HOT_X)} + {f1} * {_lit(0.05)} "
           f"WHEN {ident} % 10 < 7 THEN {box_lon} "
           f"ELSE {_lit(-180.0)} + {f1} * {_lit(360.0)} END")
    lat = (f"CASE WHEN {ident} % 10 = 9 THEN {_lit(HOT_Y)} + {f2} * {_lit(0.05)} "
           f"WHEN {ident} % 10 < 7 THEN {box_lat} "
           f"ELSE {_lit(-85.0)} + {f2} * {_lit(170.0)} END")
    return lon, lat


def webpages_sql(repl: int = REPL) -> str:
    lon, lat = lonlat_sql("page_id")
    return f"""
SELECT page_id,
       'https://h' || CAST(page_id % {N_HOSTS} AS VARCHAR)
           || '.example/p/' || CAST(page_id AS VARCHAR) AS url,
       TIMESTAMP '{EPOCH}' + page_id * INTERVAL 1 SECOND AS warc_ts,
       encode('<html><body>' || text || '</body></html>') AS html,
       text, lang,
       {lon} AS lon,
       {lat} AS lat
FROM (
  SELECT doc_id * {repl} + r AS page_id, text, lang
  FROM documents
  CROSS JOIN (SELECT CAST(range AS BIGINT) AS r FROM range(0, {repl}))
)
"""


def sites_sql() -> str:
    f1, f2 = _frac_sql("site_id")
    lon_branches, lat_branches = [], []
    for i, (x0, y0, x1, y1) in enumerate(LAKE_BOXES):
        cond = f"site_id % {len(LAKE_BOXES)} = {i}"
        lon_branches.append(f"WHEN {cond} THEN {_lit(x0)} + {f1} * {_lit(x1 - x0)}")
        lat_branches.append(f"WHEN {cond} THEN {_lit(y0)} + {f2} * {_lit(y1 - y0)}")
    return f"""
SELECT site_id,
       CASE {' '.join(lon_branches)} END AS lon,
       CASE {' '.join(lat_branches)} END AS lat
FROM (SELECT CAST(range AS BIGINT) AS site_id FROM range(0, {N_SITES}))
"""
