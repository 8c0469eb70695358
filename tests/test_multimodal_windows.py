"""Multimodal stage plumbing + stream-shaped operator tests."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def test_extract_html_text_roundtrip():
    from shapefile_rs_ray.functions import synth
    from shapefile_rs_ray.stages.multimodal import extract_html_text
    import pyarrow.parquet as pq
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    pages = synth.webpage_batch(docs)
    out = extract_html_text(pages)
    # our html wrapper has no '<'/'>' in text, so stripping tags recovers it
    assert out["extracted_text"].to_pylist() == out["text"].to_pylist()


def test_tumbling_window_matches_pandas(ray_session):
    import ray
    from shapefile_rs_ray.stages.windows import tumbling_window_counts
    ev = ray.data.read_parquet(f"{SF}/events.parquet",
                               columns=["user_id", "ts", "value"])
    got = (tumbling_window_counts(ev).to_pandas()
           .sort_values(["user_id", "window"]).reset_index(drop=True))
    df = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "ts", "value"])
    df["window"] = df.ts.astype("int64") // (3600 * 1_000_000)
    exp = (df.groupby(["user_id", "window"])
           .agg(n_events=("value", "size"), max_value=("value", "max"))
           .reset_index().sort_values(["user_id", "window"])
           .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, exp.astype(got.dtypes))


def test_asof_join_matches_pandas(ray_session):
    import ray
    from shapefile_rs_ray.stages.windows import asof_self_join
    cols = ["event_id", "user_id", "ts", "event_type"]
    ev = ray.data.read_parquet(f"{SF}/events.parquet", columns=cols)
    got = (asof_self_join(ev).to_pandas()
           .sort_values("event_id").reset_index(drop=True))
    df = pd.read_parquet(f"{SF}/events.parquet", columns=cols)
    rows = []
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"])
        m = (g[g.event_type == "purchase"]
             .groupby("ts")["event_id"].max().reset_index())
        for _, r in g.iterrows():
            prior = m[m.ts <= r.ts]
            rows.append((r.event_id,
                         prior.iloc[-1].event_id if len(prior) else None))
    exp = (pd.DataFrame(rows, columns=["event_id", "match_event_id"])
           .sort_values("event_id").reset_index(drop=True))
    assert got.event_id.tolist() == exp.event_id.tolist()
    a = got.match_event_id.fillna(-1).astype(int).tolist()
    b = exp.match_event_id.fillna(-1).astype(int).tolist()
    assert a == b


def test_nth_shape_and_count_and_typed_read():
    from shapefile_rs_ray.geometry import shp
    from shapefile_rs_ray.sources.shapefile import (read_nth_shape,
                                                    read_shapefile_table,
                                                    shape_count)
    from shapefile_rs_ray.pipelines.oracles import FIXTURE_DIR as D
    assert shape_count(f"{D}/ne_10m_lakes_north_america.shp") == 1162
    t = read_nth_shape(f"{D}/pointz.shp", 1)
    assert t.num_rows == 1 and t["geom_id"][0].as_py() == 1
    with pytest.raises(shp.MismatchShapeType):
        read_shapefile_table(f"{D}/line.shp", expect_type=shp.POLYGON)


def test_hopping_windows_fanout(ray_session):
    """Every event lands in exactly window/hop windows; counts match a
    driver-side recompute."""
    import os
    import ray
    import numpy as np
    import pyarrow.parquet as pq
    from shapefile_rs_ray.stages.windows import hopping_window_counts
    sf = "/root/testdata/sf0.001"
    ev = ray.data.read_parquet(os.path.join(sf, "events.parquet"),
                               columns=["user_id", "ts", "value"])
    got = hopping_window_counts(ev).to_pandas()
    tbl = pq.read_table(os.path.join(sf, "events.parquet"),
                        columns=["user_id", "ts", "value"])
    n = tbl.num_rows
    assert got.n_events.sum() == n * 4
    ts = np.asarray(tbl["ts"].cast("int64"))
    users = np.asarray(tbl["user_id"])
    base = ts // (900 * 1_000_000)
    import collections
    exp = collections.Counter()
    for u, b in zip(users, base):
        for j in range(4):
            exp[(u, b - j)] += 1
    gmap = {(r.user_id, r.window): r.n_events for r in got.itertuples()}
    assert gmap == dict(exp)


def test_grouped_topk_ties_and_rank(ray_session):
    import ray
    import pyarrow as pa
    from shapefile_rs_ray.stages.windows import grouped_topk
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
        "event_id": pa.array([10, 11, 12, 13, 20], pa.int64()),
        "value": pa.array([5.0, 5.0, 7.0, 1.0, 3.0]),
    })
    got = (grouped_topk(ray.data.from_arrow(t), k=3).to_pandas()
           .sort_values(["user_id", "rank"]).reset_index(drop=True))
    # user 1: 12 (7.0), then the 5.0 tie broken by event_id: 10, 11
    assert got[got.user_id == 1].event_id.tolist() == [12, 10, 11]
    assert got[got.user_id == 2].event_id.tolist() == [20]


def test_broadcast_join_multimatch_and_inner_drops(ray_session):
    import ray
    import pyarrow as pa
    from shapefile_rs_ray.stages.relational import (BroadcastJoin,
                                                    broadcast_join)
    # duplicate dim keys multi-match (round-3 feature; round 2 rejected)
    dim = pa.table({"k": pa.array([1, 2, 2], pa.int64()),
                    "v": pa.array(["a", "b", "c"])})
    stage = BroadcastJoin(dim, "k", ("v",))
    got = stage(pa.table({"k": pa.array([2], pa.int64())}))
    assert sorted(got["v"].to_pylist()) == ["b", "c"]
    dim_ok = pa.table({"k": pa.array([1, 3], pa.int64()),
                       "v": pa.array(["a", "c"])})
    fact = pa.table({"k": pa.array([1, 2, 3, 3], pa.int64()),
                     "x": pa.array([10, 20, 30, 40], pa.int64())})
    out = (broadcast_join(ray.data.from_arrow(fact), dim_ok,
                          key="k", dim_cols=("v",)).to_pandas()
           .sort_values("x").reset_index(drop=True))
    assert out.x.tolist() == [10, 30, 40]          # inner: key 2 dropped
    assert out.v.tolist() == ["a", "c", "c"]


def test_shuffle_join_equals_broadcast_join(ray_session):
    """Large-large shuffle join must produce exactly the broadcast join's
    rows; per-partition right-key uniqueness holds globally (a partition
    sees every right row for its keys)."""
    import ray
    import pyarrow as pa
    import pytest
    from shapefile_rs_ray.stages.relational import (broadcast_join,
                                                    shuffle_join)
    rng = __import__("numpy").random.default_rng(3)
    n = 5000
    fact = pa.table({"k": pa.array(rng.integers(0, 800, n), "int64"),
                     "x": pa.array(rng.integers(0, 10**6, n), "int64")})
    dim = pa.table({"k": pa.array(range(0, 1000, 2), "int64"),
                    "v": pa.array([f"d{i}" for i in range(500)])})
    a = (broadcast_join(ray.data.from_arrow(fact), dim, key="k",
                        dim_cols=("v",)).to_pandas()
         .sort_values(["k", "x"]).reset_index(drop=True))
    b = (shuffle_join(ray.data.from_arrow(fact), ray.data.from_arrow(dim),
                      key="k", right_cols=("v",)).to_pandas()
         .sort_values(["k", "x"]).reset_index(drop=True))
    assert sorted(a.columns) == sorted(b.columns)
    assert a[sorted(a.columns)].equals(b[sorted(b.columns)])
    # duplicate right keys multi-match (round-3 feature; round 2 rejected)
    dup = pa.table({"k": pa.array([1, 1], "int64"),
                    "v": pa.array(["a", "b"])})
    n1 = int((fact["k"].to_pandas() == 1).sum())
    out = shuffle_join(ray.data.from_arrow(fact), ray.data.from_arrow(dup),
                       key="k", right_cols=("v",)).to_pandas()
    assert len(out) == 2 * n1
    assert sorted(out.v.unique().tolist()) == ["a", "b"]


def test_joins_handle_empty_sides_and_null_keys(ray_session):
    """Review regressions: an empty dimension / a residue class with no
    right rows is a valid zero-match inner join (not an IndexError), and
    null keys drop instead of joining as INT64_MIN."""
    import ray
    import pyarrow as pa
    from shapefile_rs_ray.stages.relational import (broadcast_join,
                                                    shuffle_join)
    fact = pa.table({"k": pa.array([5, None, 6], pa.int64()),
                     "x": pa.array([1, 2, 3], pa.int64())})
    empty_dim = pa.table({"k": pa.array([], pa.int64()),
                          "v": pa.array([], pa.string())})
    out = broadcast_join(ray.data.from_arrow(fact), empty_dim,
                         key="k", dim_cols=("v",)).to_pandas()
    assert len(out) == 0
    # shuffle join: left key 5 has no right rows anywhere; null on both
    # sides must NOT match
    dim = pa.table({"k": pa.array([6, None], pa.int64()),
                    "v": pa.array(["b", "n"], pa.string())})
    out2 = (shuffle_join(ray.data.from_arrow(fact),
                         ray.data.from_arrow(dim),
                         key="k", right_cols=("v",)).to_pandas())
    assert out2.x.tolist() == [3] and out2.v.tolist() == ["b"]


def test_watermark_window_semantics(ray_session):
    """Handmade log: prefix-exclusive watermark, strict-< lateness
    boundary, -1.0 max_kept for all-late windows, multi-user isolation."""
    import ray
    from shapefile_rs_ray.functions.synth import M1, P1
    from shapefile_rs_ray.stages.windows import watermark_window_counts

    H = 3600 * 1_000_000
    LATE = 6 * H
    # choose event ids whose arrival keys (eid*M1)%P1 replay user 1's
    # events in the order e_a (ts 10h), e_b (ts 1h): e_b arrives after an
    # event 9h newer -> 1h < 10h - 6h -> LATE. A third event at exactly
    # (10h - 6h) tests the strict < boundary (NOT late).
    cand = sorted(range(40), key=lambda e: (e * M1) % P1)
    e_first, e_second, e_third = cand[0], cand[1], cand[2]
    tbl = pa.table({
        "event_id": pa.array([e_first, e_second, e_third, 38], pa.int64()),
        "user_id": pa.array([1, 1, 1, 2], pa.int64()),
        "ts": pa.array(np.array([10 * H, 1 * H, 4 * H, 1 * H],
                                "datetime64[us]")),
        "value": pa.array([5.0, 9.0, 7.0, 3.0], pa.float64()),
    })
    ds = ray.data.from_arrow(tbl)
    got = (watermark_window_counts(ds).to_pandas()
           .sort_values(["user_id", "window"]).reset_index(drop=True))
    rows = {(r.user_id, r.window): (r.n_kept, r.n_late, r.max_kept)
            for r in got.itertuples()}
    assert rows[(1, 10)] == (1, 0, 5.0)       # first arrival never late
    assert rows[(1, 1)] == (0, 1, -1.0)       # 1h < 10h-6h: late, all-late window
    assert rows[(1, 4)] == (1, 0, 7.0)        # ts == watermark: strict <, kept
    assert rows[(2, 1)] == (1, 0, 3.0)        # other user unaffected
