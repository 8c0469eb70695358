"""Regression tests for the round-2 verdict/advice items (round 3)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def test_global_topk_matches_sort_and_has_no_sort_operator(ray_session):
    import ray
    from shapefile_rs_ray.stages.windows import global_topk
    ev = ray.data.read_parquet(f"{SF}/events.parquet",
                               columns=["event_id", "user_id", "value"])
    got = global_topk(ev, k=100).materialize()
    # the map-side design must never plan an AllToAll Sort of the table
    assert "Sort" not in got.stats()
    df = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["event_id", "user_id", "value"])
    exp = (df.sort_values(["value", "event_id"], ascending=[False, True])
           .head(100).reset_index(drop=True))
    gdf = (got.to_pandas()
           .sort_values(["value", "event_id"], ascending=[False, True])
           .reset_index(drop=True))
    pd.testing.assert_frame_equal(gdf[["event_id", "user_id", "value"]],
                                  exp[["event_id", "user_id", "value"]])


def test_global_topk_ties_break_by_id(ray_session):
    import ray
    from shapefile_rs_ray.stages.windows import global_topk
    t = pa.table({"event_id": pa.array([5, 3, 9, 1], pa.int64()),
                  "user_id": pa.array([0, 0, 0, 0], pa.int64()),
                  "value": pa.array([7.0, 7.0, 7.0, 1.0], pa.float64())})
    out = (global_topk(ray.data.from_arrow(t), k=2).to_pandas()
           .sort_values("event_id").reset_index(drop=True))
    assert out["event_id"].tolist() == [3, 5]


def test_grid_knn_groups_on_cell_pair_not_hash():
    """Queries in cells whose packed-hash keys could collide must still be
    grouped by the true (qx, qy) pair (ADVICE knn.py:118)."""
    from shapefile_rs_ray.stages.knn import GridKnnIndex
    # sites on a line; cell size 1.0
    sx = np.arange(20, dtype=np.float64)
    sy = np.zeros(20)
    ids = np.arange(20, dtype=np.int64)
    idx = GridKnnIndex(sx, sy, ids, 1.0)
    # queries in distinct (qx, qy) cells that an additive hash could merge
    qx = np.array([0.5, 3.5, 17.5])
    qy = np.array([0.2, 0.2, 0.2])
    got_i, got_d = idx.query_batch(qx, qy, k=2)
    # brute force oracle
    for j in range(len(qx)):
        d2 = (sx - qx[j]) ** 2 + (sy - qy[j]) ** 2
        exp = np.argsort(d2, kind="stable")[:2]
        np.testing.assert_array_equal(got_i[j], exp)


def test_cosine_topk_raises_on_broken_merge_invariant():
    """ADVICE ann.py:155: an under-filled merge must fail loudly, not
    silently drop the batch. The invariant is unreachable through the
    public API, so break _score to simulate a future accounting bug."""
    from shapefile_rs_ray.stages.ann import CosineTopK
    corpus = pa.table({
        "vec_id": pa.array([1, 2, 3], pa.int64()),
        "embedding": pa.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                              pa.list_(pa.float64()))})
    ids = np.asarray(corpus["vec_id"], np.int64)
    M = np.asarray(corpus["embedding"].combine_chunks().flatten(),
                   np.float64).reshape(3, 2)
    stage = CosineTopK((ids, M), k=2)
    assert stage(corpus.slice(0, 1)).num_rows == 2   # healthy path

    broken = CosineTopK((ids, M), k=2)
    orig = broken._score

    def lossy(*a, **kw):
        oid, ocos = orig(*a, **kw)
        return oid[:, :1], ocos[:, :1]     # drop a candidate column

    broken._score = lossy
    with pytest.raises(AssertionError, match="top-k merge"):
        broken(corpus.slice(0, 1))


def _join_fixture():
    left = pa.table({
        "k": pa.array([1, 2, 3, None, 5], pa.int64()),
        "lv": pa.array(["a", "b", "c", "d", "e"])})
    right = pa.table({
        "k": pa.array([1, 1, 3, 9], pa.int64()),
        "rv": pa.array([10.0, 11.0, 30.0, 90.0], pa.float64())})
    return left, right


def _expected_left_join():
    # k=1 matches twice, k=3 once, k=2 / null / 5 unmatched
    return pd.DataFrame({
        "k": [1.0, 1.0, 2.0, 3.0, np.nan, 5.0],
        "lv": ["a", "a", "b", "c", "d", "e"],
        "rv": [10.0, 11.0, np.nan, 30.0, np.nan, np.nan]})


def _canon_join(df):
    return (df.sort_values(["lv", "rv"], na_position="last")
            .reset_index(drop=True)[["k", "lv", "rv"]])


def test_broadcast_join_multimatch_left_outer(ray_session):
    import ray
    from shapefile_rs_ray.stages.relational import broadcast_join
    left, right = _join_fixture()
    got = broadcast_join(ray.data.from_arrow(left), right, key="k",
                         dim_cols=("rv",), how="left").to_pandas()
    pd.testing.assert_frame_equal(_canon_join(got),
                                  _canon_join(_expected_left_join()))
    inner = broadcast_join(ray.data.from_arrow(left), right, key="k",
                           dim_cols=("rv",)).to_pandas()
    assert sorted(inner["rv"].tolist()) == [10.0, 11.0, 30.0]


def test_shuffle_join_multimatch_left_outer(ray_session):
    import ray
    from shapefile_rs_ray.stages.relational import shuffle_join
    left, right = _join_fixture()
    got = shuffle_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                       key="k", right_cols=("rv",), how="left",
                       parts=3).to_pandas()
    pd.testing.assert_frame_equal(_canon_join(got),
                                  _canon_join(_expected_left_join()))
    inner = shuffle_join(ray.data.from_arrow(left),
                         ray.data.from_arrow(right),
                         key="k", right_cols=("rv",), parts=3).to_pandas()
    assert sorted(inner["rv"].tolist()) == [10.0, 11.0, 30.0]


def test_shuffle_join_full_outer(ray_session):
    """FULL outer: left-unmatched (k=2, null-key, k=5) AND right-unmatched
    (k=9, plus a null-key right row) each emit once; dup right keys still
    multi-match. The randomized DuckDB comparison of every mode is
    test_shuffle_join_matches_duckdb."""
    import ray
    from shapefile_rs_ray.stages.relational import shuffle_join
    left, right = _join_fixture()
    right = pa.table({
        "k": pa.concat_arrays([right["k"].combine_chunks(),
                               pa.array([None], pa.int64())]),
        "rv": pa.concat_arrays([right["rv"].combine_chunks(),
                                pa.array([99.0], pa.float64())])})
    got = shuffle_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                       key="k", right_cols=("rv",), how="full",
                       parts=3).to_pandas()
    exp = pd.DataFrame({
        "k": [1.0, 1.0, 2.0, 3.0, np.nan, 5.0, 9.0, np.nan],
        "lv": ["a", "a", "b", "c", "d", "e", None, None],
        "rv": [10.0, 11.0, np.nan, 30.0, np.nan, np.nan, 90.0, 99.0]})
    pd.testing.assert_frame_equal(_canon_join(got), _canon_join(exp))


def _duckdb_join_inputs(kind: str):
    """Randomized left/right tables with null and duplicate keys on both
    sides. int64 keys include INT64_MIN on both sides; string keys
    include "" (which must not meet a null) and the hand-checked host
    fixture (duplicate right "a.com", unmatched "x.com", null on both
    sides)."""
    rng = np.random.default_rng(3)
    n, m = 600, 400
    lk = [None if rng.random() < 0.02 else int(x)
          for x in rng.integers(-20, 150, n)]
    rk = [None if rng.random() < 0.02 else int(x)
          for x in rng.integers(-20, 220, m)]
    if kind == "int64":
        lo = -(2 ** 63)
        lk += [lo, lo, None]
        rk += [lo, None]
        ktype = pa.int64()
    else:
        lk = [None if x is None else f"h{x}.com" for x in lk]
        rk = [None if x is None else f"h{x}.com" for x in rk]
        lk += ["", "a.com", "b.com", None, "c.com"]
        rk += ["", "a.com", "a.com", "x.com", None]
        ktype = pa.string()
    lt = pa.table({"k": pa.array(lk, ktype),
                   "lv": pa.array(np.arange(len(lk), dtype=np.int64))})
    rt = pa.table({"k": pa.array(rk, ktype),
                   "rv": pa.array(np.arange(len(rk), dtype=np.int64)
                                  + 10 ** 6)})
    return lt, rt


_DUCKDB_JOIN = {
    "inner": "SELECT l.k, l.lv, r.rv FROM lt l JOIN rt r ON l.k = r.k",
    "left": "SELECT l.k, l.lv, r.rv FROM lt l LEFT JOIN rt r ON l.k = r.k",
    "full": "SELECT COALESCE(l.k, r.k) AS k, l.lv, r.rv FROM lt l "
            "FULL OUTER JOIN rt r ON l.k = r.k",
    "semi": "SELECT l.k, l.lv FROM lt l WHERE EXISTS "
            "(SELECT 1 FROM rt r WHERE r.k = l.k)",
    "anti": "SELECT l.k, l.lv FROM lt l WHERE NOT EXISTS "
            "(SELECT 1 FROM rt r WHERE r.k = l.k)",
}


def _rows(tables):
    """Order-free comparable rows of Arrow tables: sorted tuples, with
    None ordered after every value of its column."""
    rows = [tuple(r.values()) for t in tables if t.num_columns
            for r in t.to_pylist()]
    return sorted(rows, key=lambda r: tuple(
        (v is None, 0 if v is None else v) for v in r))


@pytest.mark.parametrize("how", list(_DUCKDB_JOIN))
@pytest.mark.parametrize("kind", ["int64", "string"])
def test_shuffle_join_matches_duckdb(ray_session, kind, how):
    """Every join mode on both key kinds equals DuckDB on a randomized
    fixture, at any partition count and input block layout."""
    import duckdb
    import ray
    from shapefile_rs_ray.stages.relational import shuffle_join

    lt, rt = _duckdb_join_inputs(kind)
    exp = _rows([duckdb.sql(_DUCKDB_JOIN[how]).arrow()])
    # the fixture exercises the null paths of every mode that keeps them
    assert any(None in r for r in exp) == (how in ("left", "full", "anti"))
    right_cols = () if how in ("semi", "anti") else ("rv",)
    for parts in (1, 13):
        for l_blocks, r_blocks in ((1, 1), (5, 3)):
            got = shuffle_join(
                ray.data.from_arrow(lt).repartition(l_blocks),
                ray.data.from_arrow(rt).repartition(r_blocks),
                key="k", right_cols=right_cols, how=how, parts=parts)
            assert got.columns() == ["k", "lv", *right_cols]
            assert _rows(ray.get(got.to_arrow_refs())) == exp, \
                (parts, l_blocks, r_blocks)


def test_shuffle_join_int64_min_key_matches(ray_session):
    """No key value is reserved: INT64_MIN on both sides is an ordinary
    key and matches, while null keys never do."""
    import ray
    from shapefile_rs_ray.stages.relational import shuffle_join

    lo = -(2 ** 63)
    left = pa.table({"k": pa.array([lo, None, 1], pa.int64()),
                     "lv": pa.array([1, 2, 3], pa.int64())})
    right = pa.table({"k": pa.array([lo, None], pa.int64()),
                      "rv": pa.array([10, 20], pa.int64())})
    got = shuffle_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                       key="k", right_cols=("rv",), how="full", parts=3)
    assert _rows(ray.get(got.to_arrow_refs())) == [
        (lo, 1, 10), (1, 3, None), (None, 2, None), (None, None, 20)]


def test_minhash_driver_candidate_cap_chunks(ray_session):
    """VERDICT r2: an adversarial all-near-dup corpus must not grow the
    driver candidate set unbounded. Pass 2 is fully distributed (no
    driver candidate cap, no chunking): one call expands the whole
    near-dup family."""
    import ray
    from shapefile_rs_ray.stages.dedup import minhash_lsh_pairs
    base = ("the quick brown fox jumps over the lazy dog again and again "
            "while seven wizards brew quirky potions beyond the misty "
            "mountain ridge at dawn")
    texts, ids = [], []
    for i in range(12):   # 12 distinct near-dup texts -> C(12,2)=66 pairs
        texts.append(base + f" variant tail {i}")
        ids.append(i)
    texts.append("completely unrelated text about parquet shuffles")
    ids.append(99)
    t = pa.table({"page_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts)})

    out = minhash_lsh_pairs(ray.data.from_arrow(t).repartition(4)
                            ).to_pandas()
    assert len(out) > 50                   # the near-dup family did expand
    assert (out["id_a"] < out["id_b"]).all()
    assert 99 not in set(out["id_a"]) | set(out["id_b"])


def test_ann_cos_contract(ray_session):
    """VERDICT r2 #8: approximate ANN emits the exact cosine of every
    returned (vec, nn) pair so consumers can verify consistency even where
    recall < 1. Recompute each pair's cosine from the raw vectors and
    compare."""
    import ray
    import pyarrow.parquet as pq
    from shapefile_rs_ray.stages.ann import _matrix, ivf_topk, lsh_topk
    path = f"{SF}/embeddings.parquet"
    corpus = pq.read_table(path, columns=["vec_id", "embedding"])
    ids, M = _matrix(corpus, "vec_id")
    pos = {int(v): i for i, v in enumerate(ids)}
    norms = np.sqrt((M * M).sum(axis=1))

    def check(df):
        assert "cos" in df.columns and len(df) > 0
        a = np.array([pos[v] for v in df["vec_id"]])
        b = np.array([pos[v] for v in df["nn_id"]])
        exact = (M[a] * M[b]).sum(axis=1) / (norms[a] * norms[b])
        np.testing.assert_allclose(df["cos"].to_numpy(), exact,
                                   rtol=0, atol=1e-9)

    ds1 = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    check(lsh_topk(ds1, k=1).to_pandas())
    ds2 = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    check(ivf_topk(ds2, corpus, k=1).to_pandas())


def test_ivf_partitions_bound_resident_set(ray_session):
    """VERDICT r2: no IVF actor may hold the whole corpus. The shuffled
    design bounds a partition to its centroids' inverted lists — assert
    the largest centroid list is a strict fraction of the corpus, so the
    per-task resident set is O(corpus/parts), not O(corpus)."""
    import pyarrow.parquet as pq
    from shapefile_rs_ray.stages.ann import _centroid_d2, _matrix
    corpus = pq.read_table(f"{SF}/embeddings.parquet",
                           columns=["vec_id", "embedding"])
    ids, M = _matrix(corpus, "vec_id")
    rng = np.random.default_rng(7)
    C = M[rng.choice(len(M), 16, replace=False)]
    assign = np.argmin(_centroid_d2(M, C), axis=1)
    counts = np.bincount(assign, minlength=16)
    assert counts.max() < 0.5 * len(ids), counts
    # expansion identity: |x-c|^2 == |x|^2 - 2xc + |c|^2 (same argmin)
    brute = np.argmin(((M[:200, None, :] - C[None, :, :]) ** 2).sum(2),
                      axis=1)
    np.testing.assert_array_equal(assign[:200], brute)


def test_knn_cellpart_partition_count_independent_of_zoom(ray_session):
    """The cell-partitioned kNN must shuffle into the coarse prime-modulus
    partitions (many cells per group), not one group per distinct cell."""
    import ray
    from shapefile_rs_ray.functions.synth import sites
    from shapefile_rs_ray.stages.knn import knn_join, knn_join_cellpart
    from shapefile_rs_ray.sources.webpages import read_webpages
    ds = read_webpages(SF, with_html=False)
    got = (knn_join_cellpart(ds, sites(), k=3, zoom=8, parts=13)
           .to_pandas().sort_values(["page_id", "rank"])
           .reset_index(drop=True))
    exp = (knn_join(read_webpages(SF, with_html=False), sites(), k=3)
           .to_pandas().sort_values(["page_id", "rank"])
           .reset_index(drop=True))
    pd.testing.assert_frame_equal(got[["page_id", "rank", "site_id"]],
                                  exp[["page_id", "rank", "site_id"]])
    np.testing.assert_allclose(got["dist2"], exp["dist2"], rtol=0, atol=0)


def test_compact_by_group_matches_scalar_kernel(ray_session):
    """Distributed per-group compaction == per-group h3.compact, carry
    columns preserved, including a group that collapses to one parent."""
    import ray
    from shapefile_rs_ray.functions import h3
    from shapefile_rs_ray.stages.h3ops import compact_by_group

    parent = h3.encode_vec(np.array([42.0]), np.array([-71.0]), 3)
    full = h3.uncompact(parent, 6)            # group 0: collapses fully
    partial = full[:-5]                       # group 1: mixed output
    gid = np.concatenate([np.zeros(len(full), np.int64),
                          np.ones(len(partial), np.int64)])
    cells = np.concatenate([full, partial])
    tag = gid * 100 + 7                       # carry col, constant per group
    ds = ray.data.from_arrow(pa.table({
        "poly_id": pa.array(gid), "cell": pa.array(cells),
        "tag": pa.array(tag)})).repartition(4)
    out = compact_by_group(ds, carry_cols=("tag",), parts=5).to_pandas()
    for g, src in ((0, full), (1, partial)):
        got = out[out.poly_id == g].sort_values("cell")
        exp = np.sort(h3.compact(np.unique(src)))
        np.testing.assert_array_equal(got["cell"].to_numpy(), exp)
        np.testing.assert_array_equal(
            got["res"].to_numpy(), h3.get_resolution(exp))
        assert (got["tag"] == g * 100 + 7).all()
    assert (out[out.poly_id == 0]["cell"].to_numpy() ==
            parent[0]).all()                  # full family collapsed to root


def test_vectorize_regions_matches_bfs_on_random_raster(ray_session):
    """Distributed tile-merge CC == independent single-node BFS on a
    random sparse 2-zone raster, with tiles small enough that most
    components span several tile boundaries."""
    import ray
    from collections import deque
    from shapefile_rs_ray.stages.raster import vectorize_regions

    w = h = 32
    rng = np.random.default_rng(11)
    occ = rng.random((h, w)) < 0.45
    zone_grid = rng.integers(1, 3, size=(h, w))
    iy, ix = np.nonzero(occ)
    pix = iy * w + ix
    zone = zone_grid[iy, ix]
    ds = ray.data.from_arrow(pa.table({
        "pix": pa.array(pix, pa.int64()), "ix": pa.array(ix, pa.int64()),
        "iy": pa.array(iy, pa.int64()),
        "zone": pa.array(zone, pa.int64())})).repartition(6)
    got = (vectorize_regions(ds, w=w, tile_rows=4, parts=7).to_pandas()
           .sort_values("region_id").reset_index(drop=True))

    zmap = dict(zip(pix.tolist(), zone.tolist()))
    region: dict[int, int] = {}
    for p in sorted(zmap):
        if p in region:
            continue
        region[p] = p
        dq = deque([p])
        while dq:
            q = dq.popleft()
            for nb in ((q - 1) if q % w else None,
                       (q + 1) if (q + 1) % w else None, q - w, q + w):
                if nb is not None and nb not in region \
                        and zmap.get(nb) == zmap[q]:
                    region[nb] = p
                    dq.append(nb)
    rows = {}
    for p, r in region.items():
        e = rows.setdefault(r, [zmap[p], 0, w, h, -1, -1])
        e[1] += 1
        e[2] = min(e[2], p % w); e[3] = min(e[3], p // w)
        e[4] = max(e[4], p % w); e[5] = max(e[5], p // w)
    exp = pd.DataFrame(
        [{"region_id": r, "zone": v[0], "n_pixels": v[1], "ix_min": v[2],
          "iy_min": v[3], "ix_max": v[4], "iy_max": v[5]}
         for r, v in sorted(rows.items())])
    assert len(got) > 20          # non-trivial component structure
    pd.testing.assert_frame_equal(
        got[exp.columns].astype(np.int64), exp.astype(np.int64))


def test_jaccard_join_lossless_vs_bruteforce(ray_session):
    """The prefix-filtered exact similarity join must find EXACTLY the
    brute-force all-pairs J >= t set — including pairs barely at the
    threshold — and the driver-chunked path must match unchunked."""
    import itertools
    import ray
    from shapefile_rs_ray.functions.hashing import text_shingles
    from shapefile_rs_ray.stages.dedup import jaccard_similarity_join

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(30)]
    texts, ids = [], []
    base = list(rng.choice(vocab, 40))
    for i in range(25):                    # heavy overlap -> many pairs
        t = list(base)
        for _ in range(rng.integers(0, 6)):
            t[rng.integers(0, len(t))] = vocab[rng.integers(0, len(vocab))]
        texts.append(" ".join(t))
        ids.append(i)
    texts.append(texts[0])                 # exact clone (same family)
    ids.append(100)
    tbl = pa.table({"page_id": pa.array(ids, pa.int64()),
                    "text": pa.array(texts)})

    def brute():
        reps = {}
        for i, t in zip(ids, texts):
            reps.setdefault(t, i)          # first occurrence = min id here
        out = []
        for (ta, ga), (tb, gb) in itertools.combinations(
                sorted(reps.items(), key=lambda kv: kv[1]), 2):
            sa, sb = text_shingles(ta), text_shingles(tb)
            inter = len(sa & sb)
            union = len(sa) + len(sb) - inter
            j = inter / union if union else 1.0
            if j >= 0.8:
                out.append((min(ga, gb), max(ga, gb), j))
        return sorted(out)

    exp = brute()
    assert len(exp) > 10                   # non-trivial, near-threshold mix
    ds = ray.data.from_arrow(tbl).repartition(4)
    got = (jaccard_similarity_join(ds).to_pandas()
           .sort_values(["id_a", "id_b"]))
    got_t = list(map(tuple, got.to_numpy()))
    assert [(int(a), int(b)) for a, b, _ in got_t] == \
           [(a, b) for a, b, _ in exp]
    np.testing.assert_allclose([j for _, _, j in got_t],
                               [j for _, _, j in exp], rtol=0, atol=0)


def test_interval_range_join_vs_bruteforce(ray_session):
    """Merge-path range join == brute-force nested loop, including exact
    boundary ties (ts == start, ts == end), users with no intervals,
    intervals with no events, and zero-length intervals."""
    import ray
    from shapefile_rs_ray.stages.windows import interval_range_join

    rng = np.random.default_rng(7)
    n_ev, n_iv = 400, 60
    eu = rng.integers(0, 12, n_ev)
    et = rng.integers(0, 500, n_ev) * 1_000_000
    ev_tbl = pa.table({
        "event_id": pa.array(np.arange(n_ev), pa.int64()),
        "user_id": pa.array(eu, pa.int64()),
        "ts": pa.array(et, pa.int64()).cast(pa.timestamp("us")),
        "value": pa.array(rng.random(n_ev), pa.float64()),
    })
    # half the intervals anchor exactly on an event ts (boundary ties);
    # user 11 gets none (events-only user); user 99 has no events
    starts = np.where(np.arange(n_iv) % 2 == 0,
                      et[rng.integers(0, n_ev, n_iv)],
                      rng.integers(0, 500, n_iv) * 1_000_000)
    durs = rng.integers(0, 60, n_iv) * 1_000_000      # incl. zero-length
    iu = rng.integers(0, 11, n_iv)
    iu[:3] = 99
    iv_tbl = pa.table({
        "interval_id": pa.array(np.arange(n_iv) + 1000, pa.int64()),
        "user_id": pa.array(iu, pa.int64()),
        "start_us": pa.array(starts, pa.int64()),
        "end_us": pa.array(starts + durs, pa.int64()),
    })

    got = interval_range_join(
        ray.data.from_arrow(ev_tbl).repartition(5),
        ray.data.from_arrow(iv_tbl).repartition(3),
    ).to_pandas().sort_values(["interval_id", "event_id"]).reset_index(
        drop=True)

    exp = []
    for j in range(n_iv):
        for i in range(n_ev):
            if eu[i] == iu[j] and starts[j] <= et[i] <= starts[j] + durs[j]:
                exp.append((1000 + j, i, int(eu[i])))
    exp.sort()
    assert len(exp) > 50
    assert list(map(tuple, got[["interval_id", "event_id", "user_id"]]
                    .to_numpy())) == exp


def test_nearest_polygon_degenerate_edges_and_ties(ray_session):
    """NearestPolygon kernel vs a per-pair python brute force, including
    a degenerate (zero-length) edge and an equidistant tie that must
    break to the smaller poly_id."""
    import ray
    from shapefile_rs_ray.stages.knn import nearest_polygon_join

    edges = {
        # poly 3: unit square edges (two of them); poly 7: a degenerate
        # point-edge at (10, 0); both polys at distance 1 from (5, 1)
        # via crafted geometry below -> tie breaks to poly 3
        "poly_id": np.array([3, 3, 7, 5], np.int64),
        "x1": np.array([0.0, 1.0, 10.0, 4.0]),
        "y1": np.array([0.0, 0.0, 0.0, 2.0]),
        "x2": np.array([1.0, 1.0, 10.0, 6.0]),
        "y2": np.array([0.0, 1.0, 0.0, 2.0]),
    }
    pts = pa.table({
        "page_id": pa.array([0, 1, 2], pa.int64()),
        "lon": pa.array([0.5, 10.0, 5.0], pa.float64()),
        "lat": pa.array([0.5, 3.0, 1.0], pa.float64()),
    })
    got = (nearest_polygon_join(ray.data.from_arrow(pts), edges)
           .to_pandas().sort_values("page_id").reset_index(drop=True))
    # pt0: inside-ish of poly 3's corner, d2 = 0.25 to edge y=0
    assert got.loc[0, "nearest_poly"] == 3 and got.loc[0, "d2"] == 0.25
    # pt1: exactly above the degenerate point edge -> poly 7, d2 = 9
    assert got.loc[1, "nearest_poly"] == 7 and got.loc[1, "d2"] == 9.0
    # pt2: distance 1.0 to poly 5's segment y=2 (above) and ~>1 to others;
    # poly 3 nearest point is (1,1) -> d2 = 16; so poly 5 wins outright
    assert got.loc[2, "nearest_poly"] == 5 and got.loc[2, "d2"] == 1.0


def test_semi_anti_join_null_and_dup_semantics(ray_session):
    """semi keeps each matching left row ONCE (even with duplicate right
    keys) and drops null keys; anti keeps null-key and unmatched rows."""
    import ray
    from shapefile_rs_ray.stages.relational import shuffle_join

    left = pa.table({
        "k": pa.array([1, 2, 2, 3, None], pa.int64()),
        "tag": pa.array([10, 20, 21, 30, 40], pa.int64()),
    })
    right = pa.table({"k": pa.array([2, 2, 2, 9, None], pa.int64())})
    lds = ray.data.from_arrow(left).repartition(2)
    rds = ray.data.from_arrow(right).repartition(2)

    semi = shuffle_join(lds, rds, key="k", right_cols=(), how="semi") \
        .to_pandas().sort_values("tag")
    assert semi["tag"].tolist() == [20, 21]          # once each, no dup blowup

    anti = shuffle_join(
        ray.data.from_arrow(left).repartition(2),
        ray.data.from_arrow(right).repartition(2),
        key="k", right_cols=(), how="anti").to_pandas().sort_values("tag")
    assert anti["tag"].tolist() == [10, 30, 40]      # null-key row kept
    assert anti["k"].isna().tolist() == [False, False, True]


def test_exact_double_quantiles_vs_numpy(ray_session):
    """3-pass distributed selection == sorted-array pick, with heavy
    duplicates that straddle bucket boundaries and a tiny sample size
    (many values per bucket); the adversarial single-value bucket
    trips the loud cap."""
    import ray
    import pytest
    from shapefile_rs_ray.stages.relational import exact_double_quantiles

    rng = np.random.default_rng(11)
    vals = np.round(rng.random(5000) * 30, 1)       # ~300 distinct, heavy dups
    tbl = pa.table({"event_id": pa.array(np.arange(5000), pa.int64()),
                    "value": pa.array(vals, pa.float64())})
    got = exact_double_quantiles(
        ray.data.from_arrow(tbl).repartition(6), id_col="event_id",
        value_col="value", target_samples=64).to_pandas()
    sv = np.sort(vals)
    n = len(sv)
    for a, b, name in ((1, 2, "p50"), (9, 10, "p90"), (99, 100, "p99")):
        k = (a * n + b - 1) // b
        assert got.loc[0, name] == sv[k - 1], name

    # one value repeated n times -> the needed bucket holds everything
    const = pa.table({"event_id": pa.array(np.arange(1000), pa.int64()),
                      "value": pa.array(np.full(1000, 7.5), pa.float64())})
    with pytest.raises(ValueError, match="bucket_cap"):
        exact_double_quantiles(ray.data.from_arrow(const).repartition(3),
                               id_col="event_id", value_col="value",
                               target_samples=64, bucket_cap=100)
