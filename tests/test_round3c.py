"""Round-3 continuation operators: radius join, polygon measures,
bigram counts, dedup clusters, stratified sample."""

import numpy as np
import pyarrow as pa
import pytest


def test_radius_join_vs_bruteforce(ray_session):
    import ray
    from shapefile_rs_ray.stages.radius import DEG2RAD, radius_join

    rng = np.random.default_rng(7)
    n = 5000
    pid = np.arange(n, dtype=np.int64)
    plon = rng.uniform(-120, -60, n)
    plat = rng.uniform(20, 60, n)
    sid = np.arange(9, dtype=np.int64)
    slon = rng.uniform(-120, -60, 9)
    slat = rng.uniform(20, 60, 9)
    thr = 2.5e-4

    pages = ray.data.from_arrow(pa.table(
        {"page_id": pid, "lon": plon, "lat": plat})).repartition(5)
    got = (radius_join(pages, (sid, slon, slat), hav_max=thr)
           .to_pandas().sort_values(["page_id", "site_id"])
           .reset_index(drop=True))

    sa = np.sin((slat[None, :] * DEG2RAD - plat[:, None] * DEG2RAD) * 0.5)
    sb = np.sin((slon[None, :] * DEG2RAD - plon[:, None] * DEG2RAD) * 0.5)
    hav = sa * sa + (np.cos(plat * DEG2RAD)[:, None]
                     * np.cos(slat * DEG2RAD)[None, :]) * (sb * sb)
    r, c = np.nonzero(hav <= thr)
    assert got["page_id"].tolist() == pid[r].tolist()
    assert got["site_id"].tolist() == sid[c].tolist()
    np.testing.assert_array_equal(got["hav"].to_numpy(), hav[r, c])
    assert len(got) > 100  # the threshold actually selects something


def test_radius_join_monotone_threshold(ray_session):
    """hav thresholding == distance thresholding: every kept pair's true
    arc distance is below the radius, every dropped pair's above."""
    import ray
    from shapefile_rs_ray.stages.radius import DEG2RAD, HAV_100KM, radius_join

    rng = np.random.default_rng(11)
    n = 2000
    pid = np.arange(n, dtype=np.int64)
    plon = rng.uniform(-91, -89, n)
    plat = rng.uniform(44, 46, n)
    pages = ray.data.from_arrow(pa.table(
        {"page_id": pid, "lon": plon, "lat": plat}))
    got = radius_join(pages, (np.array([0]), np.array([-90.0]),
                              np.array([45.0])), hav_max=HAV_100KM).to_pandas()
    kept = set(got["page_id"].tolist())
    sa = np.sin((45.0 - plat) * DEG2RAD * 0.5)
    sb = np.sin((-90.0 - plon) * DEG2RAD * 0.5)
    hav = sa * sa + np.cos(plat * DEG2RAD) * np.cos(45.0 * DEG2RAD) * sb * sb
    dist_km = 2 * 6371.0 * np.arcsin(np.sqrt(hav))
    for i in range(n):
        if i in kept:
            assert dist_km[i] <= 100.0 + 1e-6
        else:
            assert dist_km[i] >= 100.0 - 1e-6


def _xy_table(geoms):
    """geoms: list of list-of-rings; ring = list of (x, y)."""
    import pyarrow as pa
    xy_type = pa.list_(pa.list_(pa.list_(pa.float64(), 2)))
    return pa.table({
        "geom_id": pa.array(range(len(geoms)), pa.int64()),
        "xy": pa.array([[list(map(list, ring)) for ring in g]
                        for g in geoms], xy_type),
    })


def test_polygon_measures_vs_scalar():
    from shapefile_rs_ray.stages.measures import polygon_measures

    rng = np.random.default_rng(3)
    geoms = []
    for _ in range(40):
        rings = []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(3, 9))
            pts = rng.uniform(-100, 100, (k, 2))
            pts = np.vstack([pts, pts[0]])          # close the ring
            rings.append([tuple(p) for p in pts])
        geoms.append(rings)
    geoms.append([])                                # empty shape
    got = polygon_measures(_xy_table(geoms)).to_pandas()

    for i, rings in enumerate(geoms):
        a2 = p = sx = sy = npts = 0
        for ring in rings:
            pts = np.array(ring)
            xs, ys = pts[:, 0], pts[:, 1]
            for j in range(len(pts) - 1):
                a2 += int(np.floor((xs[j] * ys[j + 1]
                                    - xs[j + 1] * ys[j]) * 1048576.0))
                seg = np.sqrt((xs[j + 1] - xs[j]) * (xs[j + 1] - xs[j])
                              + (ys[j + 1] - ys[j]) * (ys[j + 1] - ys[j]))
                p += int(np.floor(seg * 1048576.0))
            sx += int(np.floor(xs * 1048576.0).astype(np.int64).sum())
            sy += int(np.floor(ys * 1048576.0).astype(np.int64).sum())
            npts += len(pts)
        row = got.iloc[i]
        assert row["n_parts"] == len(rings)
        assert row["n_points"] == npts
        assert row["area2_q"] == a2, i
        assert row["perim_q"] == p, i
        assert row["sum_xq"] == sx and row["sum_yq"] == sy


def test_polygon_measures_signed_area_semantics():
    """A closed CW unit square (shapefile outer-ring winding) has
    area2_q ~ -2 * 2^20; its CCW reverse flips the sign (holes subtract)."""
    from shapefile_rs_ray.stages.measures import polygon_measures
    sq = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (0.0, 0.0)]
    got = polygon_measures(
        _xy_table([[sq], [sq[::-1]], [sq, sq[::-1]]])).to_pandas()
    assert got["area2_q"].tolist() == [-2097152, 2097152, 0]
    assert got["perim_q"].tolist() == [4194304, 4194304, 8388608]


def test_ngram_topk_vs_python(ray_session):
    import collections
    import re

    import ray
    from shapefile_rs_ray.stages.ngrams import ngram_topk

    rng = np.random.default_rng(5)
    vocab = ["aa", "bb", "cc", "dd", "ee", "ff"]
    texts = []
    for _ in range(300):
        k = int(rng.integers(0, 12))
        words = rng.choice(vocab, k).tolist()
        # punctuation, case, leading/trailing junk
        texts.append("  " + " , ".join(w.upper() if rng.random() < 0.3
                                       else w for w in words) + "!! ")
    texts += ["", "!!!", "solo"]
    ds = ray.data.from_arrow(pa.table({"text": pa.array(texts)})).repartition(7)

    for n in (2, 3):
        got = ngram_topk(ds, n=n, k=10).to_pandas()
        ref = collections.Counter()
        for t in texts:
            toks = re.findall(r"[a-z0-9]+", t.lower())
            for i in range(len(toks) - n + 1):
                ref[" ".join(toks[i:i + n])] += 1
        exp = sorted(ref.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        assert list(zip(got["gram"], got["cnt"])) == exp, n


def test_ngram_topk_partition_invariant(ray_session):
    import ray
    from shapefile_rs_ray.stages.ngrams import ngram_topk
    texts = [f"w{i % 7} w{(i + 1) % 7} w{(i + 2) % 7}" for i in range(500)]
    t = pa.table({"text": pa.array(texts)})
    a = ngram_topk(ray.data.from_arrow(t), n=2, k=5).to_pandas()
    b = ngram_topk(ray.data.from_arrow(t).repartition(11),
                   n=2, k=5).to_pandas()
    assert a.values.tolist() == b.values.tolist()


def _uf_components(pairs, nodes):
    root = {n: n for n in nodes}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[max(ra, rb)] = min(ra, rb)
    comp = {}
    for n in nodes:
        comp.setdefault(find(n), []).append(n)
    out = {}
    for members in comp.values():
        m = min(members)
        for n in members:
            out[n] = m
    return out


def test_min_label_components_vs_union_find(ray_session):
    import ray
    from shapefile_rs_ray.stages.graph import min_label_components

    rng = np.random.default_rng(17)
    nodes = rng.choice(100000, 200, replace=False).astype(np.int64)
    pairs = []
    # random clusters + one long chain (forces multiple propagation rounds)
    for _ in range(150):
        a, b = rng.choice(nodes, 2, replace=False)
        pairs.append((min(a, b), max(a, b)))
    # short chain still forces >1 propagation round and exercises the
    # pointer-jump path (plain relaxation would need len-1 rounds)
    chain = sorted(rng.choice(nodes, 8, replace=False).tolist(),
                   reverse=True)
    pairs += [(min(x, y), max(x, y)) for x, y in zip(chain, chain[1:])]
    t = pa.table({"id_a": pa.array([p[0] for p in pairs], pa.int64()),
                  "id_b": pa.array([p[1] for p in pairs], pa.int64())})
    got = (min_label_components(ray.data.from_arrow(t).repartition(9), parts=13)
           .to_pandas().set_index("node")["cluster_id"].to_dict())
    in_pairs = sorted({x for p in pairs for x in p})
    exp = _uf_components(pairs, in_pairs)
    assert got == exp


def test_min_label_components_rejects_negative(ray_session):
    import ray
    from shapefile_rs_ray.stages.graph import min_label_components
    t = pa.table({"id_a": pa.array([-5], pa.int64()),
                  "id_b": pa.array([3], pa.int64())})
    with pytest.raises(Exception, match="non-negative|>= 0"):
        min_label_components(ray.data.from_arrow(t)).materialize()


def test_stratified_sample_rates_and_invariance(ray_session):
    import ray
    from shapefile_rs_ray.stages.sketch import stratified_sample
    n = 40000
    ids = np.arange(n, dtype=np.int64)
    lang = np.where(ids % 4 == 0, "en", "de").astype(object)
    t = pa.table({"page_id": pa.array(ids), "lang": pa.array(lang)})
    kw = dict(id_col="page_id", stratum_col="lang",
              ppm_by_stratum={"en": 20000}, default_ppm=200000)
    a = stratified_sample(ray.data.from_arrow(t), **kw).to_pandas()
    b = stratified_sample(ray.data.from_arrow(t).repartition(17),
                          **kw).to_pandas()
    assert sorted(a["page_id"]) == sorted(b["page_id"])
    en = a[a["lang"] == "en"]
    de = a[a["lang"] == "de"]
    assert abs(len(en) / (n / 4) - 0.02) < 0.005
    assert abs(len(de) / (3 * n / 4) - 0.20) < 0.01


def test_contraction_semantics_vs_union_find_simulation():
    """Pure-python simulation of min_label_components' EXACT round
    semantics (relabel-then-offer sequencing, min offers, single jump,
    label-sum fixpoint) vs union-find over 120 random graphs + chains —
    validates the algorithm itself; the Ray test above validates the
    distributed execution of one instance."""
    rng = np.random.default_rng(1)
    for trial in range(120):
        nn = int(rng.integers(5, 200))
        ne = int(rng.integers(1, 350))
        nodes = rng.choice(100000, nn, replace=False).tolist()
        pairs = []
        for _ in range(ne):
            a, b = rng.choice(nodes, 2, replace=False)
            pairs.append((min(a, b), max(a, b)))
        if trial % 3 == 0:
            ch = rng.choice(nodes, min(nn, 60), replace=False).tolist()
            pairs += [(min(x, y), max(x, y)) for x, y in zip(ch, ch[1:])]
        nset = sorted({x for p in pairs for x in p})
        exp = _uf_components(pairs, nset)

        lbl = {n: n for n in nset}
        D = [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]
        prev = sum(lbl.values())
        for _ in range(24):
            D = [(lbl[a], lbl[b]) for a, b in D]
            D = [e for e in set(D) if e[0] != e[1]]
            offers = {}
            for a, b in D:
                offers[b] = min(offers.get(b, b), a)
            new = {n: min(l, offers.get(n, l)) for n, l in lbl.items()}
            new = {n: new[new[n]] for n in new}
            s = sum(new.values())
            lbl = new
            if s == prev:
                break
            prev = s
        else:
            raise AssertionError(f"no fixpoint, trial {trial}")
        assert lbl == exp, trial


def test_window_distinct_vs_pandas(ray_session):
    import ray
    from shapefile_rs_ray.stages.windows import window_distinct_users
    rng = np.random.default_rng(23)
    n = 30000
    ts = rng.integers(0, 50 * 3600_000_000, n)
    users = rng.integers(0, 300, n)
    t = pa.table({"ts": pa.array(ts.astype("datetime64[us]")),
                  "user_id": pa.array(users, pa.int64())})
    got = (window_distinct_users(ray.data.from_arrow(t).repartition(11))
           .to_pandas().sort_values("window").reset_index(drop=True))
    import pandas as pd
    df = pd.DataFrame({"window": ts // 3600_000_000, "user_id": users})
    exp = (df.groupby("window")["user_id"].nunique()
           .rename("n_users").reset_index())
    assert got["window"].tolist() == exp["window"].tolist()
    assert got["n_users"].tolist() == exp["n_users"].tolist()


def test_hll_grouped_matches_per_group_global(ray_session):
    """The grouped register table of key k == the GLOBAL hll_registers of
    the subset with key k (merge semantics are per-group independent)."""
    import ray
    from shapefile_rs_ray.stages.sketch import hll_registers, hll_registers_by
    rng = np.random.default_rng(29)
    n = 20000
    key = rng.integers(0, 5, n)
    val = rng.integers(0, 10**9, n)
    t = pa.table({"window": pa.array(key, pa.int64()),
                  "user_id": pa.array(val, pa.int64())})
    got = (hll_registers_by(ray.data.from_arrow(t).repartition(7),
                            key_col="window", col="user_id")
           .to_pandas().sort_values(["window", "register"])
           .reset_index(drop=True))
    for k in range(5):
        sub = pa.table({"user_id": pa.array(val[key == k], pa.int64())})
        exp = (hll_registers(ray.data.from_arrow(sub), col="user_id")
               .to_pandas().sort_values("register").reset_index(drop=True))
        g = got[got["window"] == k].reset_index(drop=True)
        assert g["register"].tolist() == exp["register"].tolist()
        assert g["max_rank"].tolist() == exp["max_rank"].tolist()


def test_bloom_semi_equals_plain_semi(ray_session):
    import ray
    from shapefile_rs_ray.stages.bloom import (BLOOM_BITS, bloom_semi_join,
                                               build_bloom, _probes)
    from shapefile_rs_ray.stages.relational import shuffle_join
    rng = np.random.default_rng(41)
    left_keys = rng.integers(0, 50000, 40000)
    right_keys = np.unique(rng.integers(0, 50000, 800))
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(left_keys, pa.int64()),
        "v": pa.array(np.arange(40000, dtype=np.int64))})).repartition(9)
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(right_keys, pa.int64())}))
    got = (bloom_semi_join(left, right, key="k", parts=13)
           .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    exp = (shuffle_join(left, right, key="k", right_cols=(), how="semi",
                        parts=13)
           .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    assert got.values.tolist() == exp.values.tolist()
    assert len(got) > 0

    # the bitmap has NO false negatives, and FPR stays small at the
    # default sizing (~10+ bits/key here)
    bm = build_bloom(right, key="k")
    b1, b2 = _probes(np.arange(50000, dtype=np.int64), BLOOM_BITS)
    m1 = ((bm[b1 >> 6] >> (b1 & 63).astype(np.uint64)) & np.uint64(1)) > 0
    m2 = ((bm[b2 >> 6] >> (b2 & 63).astype(np.uint64)) & np.uint64(1)) > 0
    member = m1 & m2
    truth = np.zeros(50000, bool)
    truth[right_keys] = True
    assert member[truth].all()                       # no false negatives
    fpr = member[~truth].mean()
    assert fpr < 0.05, fpr


def test_dp_iterative_equals_scalar_twin():
    from shapefile_rs_ray.stages.simplify import dp_keep_mask, dp_keep_scalar
    rng = np.random.default_rng(43)
    for trial in range(60):
        n = int(rng.integers(2, 120))
        x = rng.uniform(-10, 10, n)
        y = rng.uniform(-10, 10, n)
        if trial % 3 == 0:            # closed ring (degenerate anchor)
            x[-1], y[-1] = x[0], y[0]
        if trial % 5 == 0:            # collinear run
            x = np.linspace(0, 1, n)
            y = 2 * x + 1
        eps = float(rng.choice([0.0, 0.01, 0.5, 2.0]))
        it = dp_keep_mask(x, y, eps)
        sc = dp_keep_scalar(x.tolist(), y.tolist(), eps)
        assert it.tolist() == sc, (trial, eps)
        assert it[0] and it[-1]


def test_dp_eps_zero_drops_only_collinear():
    from shapefile_rs_ray.stages.simplify import dp_keep_mask
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = np.array([0.0, 0.0, 1.0, 2.0, 3.0])   # bend at 1; 1..4 collinear
    keep = dp_keep_mask(x, y, 0.0)
    assert keep.tolist() == [True, True, False, False, True]


def test_contamination_screen_vs_python(ray_session):
    import re

    import ray
    from shapefile_rs_ray.stages.ngrams import contamination_screen

    rng = np.random.default_rng(53)
    vocab = ["aa", "bb", "cc", "dd", "ee"]
    texts = [" ".join(rng.choice(vocab, int(rng.integers(0, 10))))
             for _ in range(200)] + ["", "x", "aa bb"]
    bench = np.array(["aa bb cc", "dd ee aa", "zz zz zz"])
    t = pa.table({"page_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    got = (contamination_screen(
        ray.data.from_arrow(t).repartition(7), bench)
        .to_pandas().sort_values("page_id").reset_index(drop=True))
    bset = set(bench.tolist())
    for i, txt in enumerate(texts):
        toks = re.findall(r"[a-z0-9]+", txt.lower())
        grams = [" ".join(toks[j:j + 3]) for j in range(len(toks) - 2)]
        assert got.loc[i, "n_grams"] == len(grams), i
        assert got.loc[i, "n_hits"] == sum(g in bset for g in grams), i


def test_contamination_screen_empty_bench(ray_session):
    import ray
    from shapefile_rs_ray.stages.ngrams import contamination_screen
    t = pa.table({"page_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["aa bb cc dd", "ee"])})
    got = (contamination_screen(ray.data.from_arrow(t),
                                np.array([], dtype=str))
           .to_pandas().sort_values("page_id"))
    assert got["n_grams"].tolist() == [2, 0]
    assert got["n_hits"].tolist() == [0, 0]


def test_cms_overestimate_contract(ray_session):
    import collections

    import ray
    from shapefile_rs_ray.stages.sketch import cms_counters, cms_estimate
    rng = np.random.default_rng(61)
    # zipf-ish: few heavy ids + tail
    ids = np.concatenate([np.repeat(7, 5000), np.repeat(13, 2000),
                          rng.integers(100, 5000, 8000)]).astype(np.int64)
    t = pa.table({"user_id": pa.array(ids)})
    got = (cms_counters(ray.data.from_arrow(t).repartition(9),
                        col="user_id").to_pandas())
    counters = {(r.row, r.col): r.n for r in got.itertuples()}
    true = collections.Counter(ids.tolist())
    for x in [7, 13, 999999]:
        est = cms_estimate(counters, x)
        assert est >= true.get(x, 0), x          # one-sided overestimate
    assert cms_estimate(counters, 7) <= true[7] + len(ids) * 4 / 1024
    # partition invariance (integer SUM merge is order-free)
    got2 = (cms_counters(ray.data.from_arrow(t).repartition(3),
                         col="user_id").to_pandas())
    a = got.sort_values(["row", "col"]).reset_index(drop=True)
    b = got2.sort_values(["row", "col"]).reset_index(drop=True)
    assert a.values.tolist() == b.values.tolist()


def test_clip_edges_vs_bruteforce():
    """Every kept sub-segment lies inside the box (endpoints within, up
    to float eps); every fully-inside edge keeps t0=0,t1=1; every edge
    with both endpoints strictly one side outside rejects."""
    from shapefile_rs_ray.stages.clip import clip_edges

    rng = np.random.default_rng(67)
    box = (-1.0, -1.0, 1.0, 1.0)
    rings = []
    for _ in range(50):
        k = int(rng.integers(2, 8))
        pts = rng.uniform(-3, 3, (k, 2))
        pts = np.vstack([pts, pts[0]])
        rings.append([tuple(p) for p in pts])
    # axis-parallel + degenerate edges
    rings.append([(0.0, -2.0), (0.0, 2.0), (2.0, 2.0), (0.0, -2.0)])
    rings.append([(0.5, 0.5), (0.5, 0.5), (0.9, 0.5), (0.5, 0.5)])
    got = clip_edges(_xy_table([[r] for r in rings]),
                     box=box).to_pandas()
    eps = 1e-9
    for r in got.itertuples():
        for cx, cy in ((r.cx1, r.cy1), (r.cx2, r.cy2)):
            assert -1 - eps <= cx <= 1 + eps, r
            assert -1 - eps <= cy <= 1 + eps, r
        assert 0.0 <= r.t0 <= r.t1 <= 1.0

    kept = {(r.geom_id, r.part_idx, r.edge_idx) for r in got.itertuples()}
    for gi, ring in enumerate(rings):
        for ei in range(len(ring) - 1):
            (ax, ay), (bx, by) = ring[ei], ring[ei + 1]
            inside_a = -1 <= ax <= 1 and -1 <= ay <= 1
            inside_b = -1 <= bx <= 1 and -1 <= by <= 1
            if inside_a and inside_b:
                assert (gi, 0, ei) in kept
                row = got[(got.geom_id == gi) & (got.edge_idx == ei)]
                assert row.iloc[0]["t0"] == 0.0
                assert row.iloc[0]["t1"] == 1.0
            # both strictly beyond the same boundary -> must reject
            if (ax < -1 and bx < -1) or (ax > 1 and bx > 1) \
                    or (ay < -1 and by < -1) or (ay > 1 and by > 1):
                assert (gi, 0, ei) not in kept


def test_clip_tile_follows_corpus(ray_session):
    """The clip_lakes tile cuts the lakes corpus: some edges are kept
    whole, some clipped. A tile that meets no edge gives zero rows typed
    as `clip._empty()`."""
    import functools
    from shapefile_rs_ray.pipelines.oracles import LAKES, clip_tile_box
    from shapefile_rs_ray.sources.shapefile import read_shapefile_dataset
    from shapefile_rs_ray.stages.clip import _empty, clip_edges

    def clipped(box):
        return read_shapefile_dataset(LAKES, records_per_task=300).map_batches(
            functools.partial(clip_edges, box=box), batch_format="pyarrow")

    got = clipped(clip_tile_box()).to_pandas()
    cut = (got.t0 > 0) | (got.t1 < 1)
    assert cut.any() and (~cut).any()
    far = clipped((0.0, 0.0, 1.0, 1.0))
    assert far.count() == 0
    assert far.schema().base_schema == _empty().schema


def test_tile_pyramid_nests_exactly(ray_session):
    """Every zoom-z count == the sum of its 4 children at z+2 (exact
    integer nesting from the shared base cell), and the finest level
    matches a direct pandas count."""
    import ray
    from shapefile_rs_ray.functions.cells import grid_cell
    from shapefile_rs_ray.pipelines.flagship import tile_pyramid
    rng = np.random.default_rng(71)
    n = 20000
    lon = rng.uniform(-179, 179, n)
    lat = rng.uniform(-85, 85, n)
    t = pa.table({"page_id": pa.array(np.arange(n, dtype=np.int64)),
                  "lon": pa.array(lon), "lat": pa.array(lat)})
    got = (tile_pyramid(ray.data.from_arrow(t).repartition(7))
           .to_pandas())
    assert (got.groupby("zoom")["n_pages"].sum() == n).all()
    base = grid_cell(lon, lat, 12)
    ix, iy = base // 4096, base % 4096
    import pandas as pd
    exp12 = (pd.DataFrame({"cx": ix, "cy": iy}).groupby(["cx", "cy"])
             .size().rename("n").reset_index())
    g12 = got[got.zoom == 12].sort_values(["cx", "cy"]).reset_index(drop=True)
    assert len(g12) == len(exp12)
    assert g12["n_pages"].tolist() == exp12.sort_values(["cx", "cy"])["n"].tolist()
    for z in (4, 6, 8, 10):
        parent = got[got.zoom == z].set_index(["cx", "cy"])["n_pages"]
        child = got[got.zoom == z + 2].copy()
        rolled = (child.assign(cx=child.cx // 4, cy=child.cy // 4)
                  .groupby(["cx", "cy"])["n_pages"].sum())
        assert parent.sort_index().equals(rolled.sort_index()), z


def test_clip_edges_leading_empty_part():
    """A batch whose FIRST part is empty must not wrap the part-boundary
    mask to the batch's last edge (regression: review found bounds-1
    indexing real[-1])."""
    from shapefile_rs_ray.stages.clip import clip_edges
    sq = [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.0, 0.0)]
    got = clip_edges(_xy_table([[[], sq]]), box=(-1, -1, 1, 1)).to_pandas()
    # all 3 edges of the fully-inside ring survive, incl. the LAST one
    assert len(got) == 3
    assert sorted(got["edge_idx"].tolist()) == [0, 1, 2]
    assert (got["t0"] == 0.0).all() and (got["t1"] == 1.0).all()
