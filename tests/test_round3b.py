"""Round-3 continuation: join-matrix completion (full outer), window
functions (LAG/LEAD), ROLLUP lattice aggregates."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def test_lag_lead_delta_vs_pandas(ray_session):
    import ray
    from shapefile_rs_ray.stages.windows import lag_lead_delta
    rng = np.random.default_rng(11)
    n = 6000
    tbl = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array(rng.integers(0, 200, n).astype(np.int64)),
        "ts": pa.array(rng.integers(0, 10**9, n).astype(np.int64)).cast(
            pa.timestamp("us")),
        "value": pa.array(rng.normal(size=n)),
    })
    got = (lag_lead_delta(ray.data.from_arrow(tbl).repartition(5), parts=7)
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    df = tbl.to_pandas().sort_values(["user_id", "ts", "event_id"])
    df["ts_us"] = df["ts"].astype("int64")
    g = df.groupby("user_id", sort=False)
    exp = pd.DataFrame({
        "event_id": df["event_id"],
        "prev_event_id": g["event_id"].shift(1),
        "next_event_id": g["event_id"].shift(-1),
        "gap_us": df["ts_us"] - g["ts_us"].shift(1),
        "delta_value": df["value"] - g["value"].shift(1),
    }).sort_values("event_id").reset_index(drop=True)
    for c in ("prev_event_id", "next_event_id", "gap_us"):
        np.testing.assert_array_equal(
            got[c].to_numpy(dtype="float64", na_value=np.nan),
            exp[c].to_numpy(dtype="float64", na_value=np.nan))
    np.testing.assert_array_equal(
        got["delta_value"].to_numpy(), exp["delta_value"].to_numpy())


def test_rollup_two_level_vs_duckdb(ray_session):
    import duckdb
    import ray
    from shapefile_rs_ray.stages.relational import rollup_two_level
    rng = np.random.default_rng(5)
    n = 20000
    tbl = pa.table({
        "a": pa.array(rng.integers(0, 12, n).astype(np.int64)),
        "b": pa.array(rng.integers(1990, 2000, n).astype(np.int64)),
        "cents": pa.array(rng.integers(-10**7, 10**9, n).astype(np.int64)),
    })
    got = (rollup_two_level(ray.data.from_arrow(tbl).repartition(6),
                            col_a="a", col_b="b", cents_col="cents")
           .to_pandas())
    exp = duckdb.sql(
        "SELECT a, b, CAST(COUNT(*) AS BIGINT) AS n_rows, "
        "CAST(SUM(cents) AS BIGINT) AS sum_cents "
        "FROM tbl GROUP BY ROLLUP(a, b)").df()

    def canon(df):
        return (df.astype("float64")
                .sort_values(["a", "b"], na_position="last")
                .reset_index(drop=True))
    pd.testing.assert_frame_equal(canon(got), canon(exp))
    # lattice shape: finest + |a| subtotals + grand total
    assert len(got) == 12 * 10 + 12 + 1


def test_rollup_rejects_out_of_range_keys(ray_session):
    import ray
    from shapefile_rs_ray.stages.relational import rollup_two_level
    bad = pa.table({"a": pa.array([2**21], pa.int64()),
                    "b": pa.array([0], pa.int64()),
                    "cents": pa.array([1], pa.int64())})
    # the exchange runs when rollup_two_level is called
    with pytest.raises(Exception):
        rollup_two_level(ray.data.from_arrow(bad), col_a="a", col_b="b",
                         cents_col="cents").materialize()


def test_focal_sum_vs_dense_convolution(ray_session):
    """Random sparse raster with tiny tile_rows so every band boundary and
    row-edge (ix=0 / ix=w-1 no-wrap) case is exercised; expected values
    from a dense padded 3x3 accumulation."""
    import ray
    from shapefile_rs_ray.stages.raster import focal_sum
    rng = np.random.default_rng(17)
    w, h = 37, 41
    present = rng.random((h, w)) < 0.35
    zone = rng.integers(1, 10**6, (h, w)).astype(np.int64) * present
    iy, ix = np.nonzero(present)
    tbl = pa.table({
        "pix": pa.array(iy * w + ix, pa.int64()),
        "ix": pa.array(ix, pa.int64()),
        "iy": pa.array(iy, pa.int64()),
        "zone": pa.array(zone[iy, ix], pa.int64()),
    })
    got = (focal_sum(ray.data.from_arrow(tbl).repartition(4), w=w,
                     tile_rows=5)
           .to_pandas().sort_values("pix").reset_index(drop=True))
    padp = np.pad(present, 1)
    padz = np.pad(zone, 1)
    n_nb = np.zeros((h, w), np.int64)
    s_nb = np.zeros((h, w), np.int64)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            n_nb += padp[dy:dy + h, dx:dx + w]
            s_nb += padz[dy:dy + h, dx:dx + w]
    assert got["pix"].tolist() == (iy * w + ix).tolist()
    np.testing.assert_array_equal(got["n_nb"].to_numpy(), n_nb[iy, ix])
    np.testing.assert_array_equal(got["sum_nb"].to_numpy(), s_nb[iy, ix])


def test_bbox_overlap_join_vs_bruteforce(ray_session):
    """Random rect x box overlap join on a tiny 4x4 grid: heavy multi-cell
    covers, rects wholly outside the box extent (clipped cells), touching
    edges (closed intervals) — every pair must appear exactly once."""
    import ray
    from shapefile_rs_ray.stages.bbox_join import bbox_overlap_join
    rng = np.random.default_rng(23)
    nr, nb = 800, 60

    def mk(n, lo, hi, wmax, ids0):
        x = rng.uniform(lo, hi, n)
        y = rng.uniform(lo, hi, n)
        w = rng.uniform(0, wmax, n)
        h = rng.uniform(0, wmax, n)
        return (np.arange(n, dtype=np.int64) + ids0,
                x - w, y - h, x + w, y + h)

    rid, rx0, ry0, rx1, ry1 = mk(nr, -12.0, 12.0, 1.5, 0)
    bid, bx0, by0, bx1, by1 = mk(nb, -8.0, 8.0, 2.5, 1000)
    rects = pa.table({"rid": pa.array(rid), "xmin": pa.array(rx0),
                      "ymin": pa.array(ry0), "xmax": pa.array(rx1),
                      "ymax": pa.array(ry1)})
    boxes = pa.table({"bid": pa.array(bid), "xmin": pa.array(bx0),
                      "ymin": pa.array(by0), "xmax": pa.array(bx1),
                      "ymax": pa.array(by1)})
    got = (bbox_overlap_join(ray.data.from_arrow(rects).repartition(5),
                             boxes, id_col="rid", box_id_col="bid",
                             grid_n=4, parts=7)
           .to_pandas().sort_values(["rid", "bid"]).reset_index(drop=True))
    ov = ((rx0[:, None] <= bx1[None, :]) & (bx0[None, :] <= rx1[:, None])
          & (ry0[:, None] <= by1[None, :]) & (by0[None, :] <= ry1[:, None]))
    ri, bi = np.nonzero(ov)
    area = ((np.minimum(rx1[ri], bx1[bi]) - np.maximum(rx0[ri], bx0[bi]))
            * (np.minimum(ry1[ri], by1[bi]) - np.maximum(ry0[ri], by0[bi])))
    assert got["rid"].tolist() == rid[ri].tolist()
    assert got["bid"].tolist() == bid[bi].tolist()
    np.testing.assert_array_equal(got["overlap_area"].to_numpy(), area)


def test_hll_registers_and_estimate(ray_session):
    import ray
    from shapefile_rs_ray.stages.sketch import (_bit_length_u64,
                                                hll_estimate, hll_registers)
    # exact bit_length incl. power-of-two boundaries the float-log2
    # shortcut gets wrong
    probes = np.array([0, 1, 2, 3, 4, (1 << 53) - 1, 1 << 53,
                       (1 << 57) + 1, (1 << 58) - 1], np.uint64)
    assert _bit_length_u64(probes).tolist() == [0, 1, 2, 2, 3, 53, 54,
                                                58, 58]
    rng = np.random.default_rng(29)
    true_n = 5000
    ids = rng.choice(np.arange(10**7, dtype=np.int64), true_n,
                     replace=False)
    col = np.repeat(ids, 3)     # duplicates must not move the registers
    ds = ray.data.from_arrow(pa.table({"u": pa.array(col)})).repartition(6)
    regs = hll_registers(ds, col="u").to_pandas()
    est = hll_estimate(dict(zip(regs["register"], regs["max_rank"])))
    assert abs(est - true_n) / true_n < 0.30    # 2.3 sigma at m=64
    # idempotence: the unique set yields the identical register table
    regs_u = (hll_registers(ray.data.from_arrow(
        pa.table({"u": pa.array(ids)})), col="u")
        .to_pandas().sort_values("register").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        regs.sort_values("register").reset_index(drop=True), regs_u)


def test_hll_rejects_negative_ids(ray_session):
    import ray
    from shapefile_rs_ray.stages.sketch import hll_registers
    ds = ray.data.from_arrow(pa.table({"u": pa.array([-1], pa.int64())}))
    with pytest.raises(Exception, match="non-negative"):
        hll_registers(ds, col="u").materialize()


def test_deterministic_sample_parallelism_invariant(ray_session):
    import ray
    from shapefile_rs_ray.stages.sketch import deterministic_sample
    ids = pa.table({"i": pa.array(np.arange(20000, dtype=np.int64))})
    a = (deterministic_sample(ray.data.from_arrow(ids), col="i",
                              keep_ppm=100_000).to_pandas()["i"].tolist())
    b = (deterministic_sample(ray.data.from_arrow(ids).repartition(13),
                              col="i", keep_ppm=100_000)
         .to_pandas()["i"].tolist())
    assert sorted(a) == sorted(b)
    assert abs(len(a) / 20000 - 0.10) < 0.01


def test_fixed_width_histogram_vs_numpy(ray_session):
    import ray
    from shapefile_rs_ray.stages.sketch import fixed_width_histogram
    rng = np.random.default_rng(31)
    v = rng.normal(50, 40, 30000)
    got = (fixed_width_histogram(
        ray.data.from_arrow(pa.table({"v": pa.array(v)})).repartition(7),
        col="v", width=10.0).to_pandas().sort_values("bin"))
    bins, counts = np.unique(np.floor(v / 10.0).astype(np.int64),
                             return_counts=True)
    assert got["bin"].tolist() == bins.tolist()
    assert got["n_rows"].tolist() == counts.tolist()


# --------------------------------------------------------------------------
# exchange ports that only queries() reached: engine vs DuckDB on small
# randomized inputs split into six blocks, with keys sharing partitions
# --------------------------------------------------------------------------

_WORDS = {"en": ["the", "and", "of", "to", "river", "lake", "map", "water",
                 "data", "city"],
          "de": ["der", "die", "und", "ist", "nicht", "see", "fluss",
                 "karte", "wasser", "stadt"]}


def _six_blocks(t: pa.Table):
    import ray
    step = -(-t.num_rows // 6)
    return ray.data.from_arrow([t.slice(i, step)
                                for i in range(0, t.num_rows, step)])


def _events(n: int = 3000) -> pa.Table:
    rng = np.random.default_rng(21)
    return pa.table({
        "event_id": pa.array(rng.permutation(n).astype(np.int64)),
        "user_id": pa.array(rng.integers(0, 600, n).astype(np.int64)),
        # a 5 s grid over ~2 h: equal timestamps and gaps on both sides of
        # the 30 min session gap
        "ts": pa.array(rng.integers(0, 1500, n) * 5_000_000).cast(
            pa.timestamp("us")),
        "value": pa.array(rng.normal(size=n)),
    })


def _pages(n: int = 1200) -> pa.Table:
    rng = np.random.default_rng(23)
    texts = []
    for i in range(n):
        lang = "en" if rng.random() < 0.7 else "de"
        t = " ".join(rng.choice(_WORDS[lang], int(rng.integers(4, 30))))
        texts.append(t.upper() if rng.random() < 0.05 else t)
    for i in range(1, n):           # clone families for the dedup keep
        if rng.random() < 0.2:
            texts[i] = texts[int(rng.integers(0, i))]
    hosts = rng.integers(0, 150, n)
    return pa.table({
        "page_id": pa.array(rng.permutation(n).astype(np.int64) * 3),
        "url": pa.array([f"https://h{h}.example/p{i}" if h else
                         f"ftp://h0.example/p{i}"     # host '' on both sides
                         for i, h in enumerate(hosts)]),
        "text": pa.array(texts),
        "warc_ts": pa.array(rng.integers(0, 50, n) * 1_000_000).cast(
            pa.timestamp("us")),
    })


def _token_counts(n: int = 4000) -> pa.Table:
    rng = np.random.default_rng(29)
    # every one of 600 groups appears, then a skewed tail: 600 string keys
    # over 251 partitions put >= 3 groups in one pick call
    g = np.concatenate([np.arange(600),
                        np.minimum(rng.geometric(0.02, n - 600) - 1, 599)])
    return pa.table({"lang": pa.array([f"grp{i}" for i in g]),
                     "n_tok": pa.array(rng.integers(0, 40, n) ** 2)})


def _exchange_cases():
    from shapefile_rs_ray.functions.hashing import content_hash64
    from shapefile_rs_ray.functions.text import langid_sql, token_stats_sql
    from shapefile_rs_ray.pipelines.curation import (DEDUP_PARTS,
                                                     curate_corpus)
    from shapefile_rs_ray.stages.relational import (JOIN_PARTS,
                                                    grouped_exact_quantiles)
    from shapefile_rs_ray.stages.textqc import (HOST_PARTS,
                                                assemble_host_docs)
    from shapefile_rs_ray.stages.windows import (USER_PARTITIONS,
                                                 running_user_max,
                                                 session_windows)
    tok = token_stats_sql("text")
    hosts = lambda t: [u.split("/")[2] if u.startswith("https://") else ""
                       for u in t["url"].to_pylist()]
    # name -> (input, engine, oracle SQL over `t`, partition keys, parts,
    #          keys that must share one partition)
    return {
        "session_windows": (_events, session_windows, """
SELECT event_id,
       CAST(SUM(CASE WHEN gap IS NULL OR gap > 1800000000 THEN 1 ELSE 0 END)
            OVER (PARTITION BY user_id ORDER BY ts, event_id
                  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_idx
FROM (SELECT event_id, user_id, ts,
             epoch_us(ts) - lag(epoch_us(ts))
               OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap
      FROM t)""", lambda t: t["user_id"], USER_PARTITIONS, 2),
        "running_max": (_events, running_user_max, """
SELECT event_id,
       MAX(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) AS running_max
FROM t""", lambda t: t["user_id"], USER_PARTITIONS, 2),
        "host_docs": (_pages, assemble_host_docs, """
SELECT host, CAST(COUNT(*) AS BIGINT) AS n_pages,
       CAST(length(string_agg(text, '' ORDER BY warc_ts, page_id))
            AS BIGINT) AS n_chars,
       substr(sha256(string_agg(text, '' ORDER BY warc_ts, page_id)),
              1, 16) AS doc_sha
FROM (SELECT regexp_extract(url, 'https://([^/]+)/', 1) AS host, * FROM t)
GROUP BY host""", lambda t: pa.array(hosts(t)), HOST_PARTS, 2),
        "quality_corpus": (_pages, curate_corpus, f"""
SELECT page_id, url, n_tokens FROM (
  SELECT page_id, url, n_tokens,
         MIN(page_id) OVER (PARTITION BY text) AS m
  FROM (SELECT *, {tok['n_tokens']} AS n_tokens FROM t
        WHERE {tok['is_quality']} AND {langid_sql('text')} = 'en'))
WHERE page_id = m""",
            lambda t: pa.array(content_hash64(t["text"].to_pylist())
                               .view(np.int64)), DEDUP_PARTS, 2),
        "token_quantiles": (_token_counts, lambda ds: grouped_exact_quantiles(
            ds, group_col="lang", value_col="n_tok"), """
WITH c AS (SELECT lang, n_tok AS v, COUNT(*) AS cnt FROM t GROUP BY 1, 2),
w AS (SELECT lang, v, SUM(cnt) OVER (PARTITION BY lang ORDER BY v) AS cum,
             SUM(cnt) OVER (PARTITION BY lang) AS n FROM c)
SELECT lang,
  CAST(MIN(CASE WHEN cum >= (n + 1) // 2 THEN v END) AS BIGINT) AS p50,
  CAST(MIN(CASE WHEN cum >= (9 * n + 9) // 10 THEN v END) AS BIGINT) AS p90,
  CAST(MIN(CASE WHEN cum >= (99 * n + 99) // 100 THEN v END) AS BIGINT) AS p99
FROM w GROUP BY lang""", lambda t: t["lang"], JOIN_PARTS, 3),
    }


@pytest.mark.parametrize("name", ["session_windows", "running_max",
                                  "host_docs", "quality_corpus",
                                  "token_quantiles"])
def test_exchange_port_matches_duckdb(ray_session, name):
    import duckdb
    from shapefile_rs_ray.stages.combine import _key_partition
    make, engine, sql, keys_of, parts, share = _exchange_cases()[name]
    t = make()
    keys = pa.table({"k": keys_of(t)})
    uniq = keys.group_by("k").aggregate([])
    assert np.bincount(_key_partition(uniq, ["k"], parts)).max() >= share

    def canon(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    got = canon(engine(_six_blocks(t)).to_pandas())
    con = duckdb.connect()
    con.register("t", t)
    exp = canon(con.sql(sql).df())
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, exp.astype(got.dtypes.to_dict()),
                                  check_exact=True)
