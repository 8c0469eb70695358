"""Ray stage tests on sf0.001 (session-scoped Ray fixture)."""

import numpy as np
import pyarrow as pa
import pytest

from shapefile_rs_ray.functions import synth
from shapefile_rs_ray.pipelines.oracles import LAKES

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def pages_ds(ray_session):
    from shapefile_rs_ray.sources.webpages import read_webpages
    return read_webpages(SF, with_html=False)


def test_broadcast_join_matches_driver_side_oracle(ray_session, pages_ds):
    from shapefile_rs_ray.geometry.pip import PIPIndex
    from shapefile_rs_ray.sources.webpages import webpages_table
    from shapefile_rs_ray.stages.pip_join import (broadcast_pip_join,
                                                  load_polygons)
    polys = load_polygons(LAKES)
    got = broadcast_pip_join(pages_ds, polys).to_pandas()
    got = set(zip(got.page_id, got.geom_id, got.poly_idx))

    tbl = webpages_table(SF)
    idx = PIPIndex(polys)
    pt, poly = idx.query(np.asarray(tbl["lon"]), np.asarray(tbl["lat"]))
    ids = np.asarray(tbl["page_id"])
    exp = set(zip(ids[pt], idx.geom_ids[poly], idx.poly_idx[poly]))
    assert got == exp
    assert len(exp) > 100


def _pages():
    from shapefile_rs_ray.sources.webpages import read_webpages
    return read_webpages(SF, with_html=False)


def _pip_family():
    from shapefile_rs_ray.stages.pip_join import (broadcast_pip_join,
                                                  load_polygons)
    return broadcast_pip_join(_pages(), load_polygons(LAKES), concurrency=1)


def _dim_family():
    from shapefile_rs_ray.stages.relational import broadcast_join
    dim = pa.table({"page_id": pa.array(np.arange(0, 4000, 3), pa.int64()),
                    "v": pa.array(np.arange(0, 4000, 3), pa.int64())})
    return broadcast_join(_pages(), dim, key="page_id", dim_cols=("v",))


def _knn_family():
    from shapefile_rs_ray.stages.knn import knn_join
    return knn_join(_pages(), synth.sites(), k=2)


def _nearest_family():
    from shapefile_rs_ray.geometry.rings import edge_table
    from shapefile_rs_ray.stages.knn import nearest_polygon_join
    from shapefile_rs_ray.stages.pip_join import load_polygons
    et = edge_table(load_polygons(LAKES)[:3])
    return nearest_polygon_join(_pages(), et)


def _center_family():
    from shapefile_rs_ray.stages.h3ops import center_in_polygon
    from shapefile_rs_ray.stages.pip_join import load_polygons

    def page_candidates(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["page_id"], np.int64)
        return pa.table({"poly_id": pa.array(ids % 50, pa.int64()),
                         "cell": batch["page_id"], "clat": batch["lat"],
                         "clng": batch["lon"]})

    cand = _pages().map_batches(page_candidates, batch_format="pyarrow")
    return center_in_polygon(cand, load_polygons(LAKES)[:50])


def _phash_family():
    from shapefile_rs_ray.stages.multimodal import (phash_neardup,
                                                    synth_phash_bmp_bytes)

    def page_bmps(batch: pa.Table) -> pa.Table:
        ids = batch["page_id"].to_pylist()[:20]
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "bmp": pa.array([synth_phash_bmp_bytes(d) for d in ids],
                            pa.binary())})

    return phash_neardup(_pages().map_batches(page_bmps,
                                              batch_format="pyarrow"))


def _host_family():
    import __ray_entry__
    return __ray_entry__._host_filter(SF)


FAMILIES = [
    (_pip_family, "webpage_batch", "pip_batch"),
    (_dim_family, "webpage_batch", "broadcast_join"),
    (_knn_family, "webpage_batch", "knn_batch"),
    (_nearest_family, "webpage_batch", "nearest_polygon"),
    (_center_family, "page_candidates", "center_in_polygon"),
    (_phash_family, "page_bmps", "phash_batch"),
    (_host_family, "webpage_batch", "_drop_blocked_hosts"),
]


def test_broadcast_join_is_one_fused_task_operator(ray_session):
    """Every broadcast family runs in the same task operator as the map
    before it (no actor pool, no object-store hop for the probe rows),
    even when a caller passes a pool size to the PIP join."""
    for plan, upstream, family in FAMILIES:
        stats = plan().materialize().stats()
        ops = [line for line in stats.splitlines()
               if line.startswith("Operator ")]
        assert any(f"MapBatches({upstream})" in op
                   and f"MapBatches({family})" in op for op in ops), \
            (family, ops)
        assert "MapWorker" not in stats, family


# The actor pools that still take their side through
# `fn_constructor_kwargs`, each with its reason. Every caller passes the
# corpus as a Dataset, which reaches the pool as Arrow shard refs; a
# content digest of that corpus would need the driver copy the sharded
# path exists to avoid.
ACTOR_SIDES = {
    ("stages/ann.py", "cosine_topk"):
        "ann_top1 streams a Dataset corpus shard by shard",
    ("stages/ann.py", "with_pair_consistency"):
        "ann_lsh_top1 and ann_ivf_top1 look pairs up in a Dataset corpus",
    ("stages/dedup.py", "embedding_neardup_pairs"):
        "embed_neardup streams a Dataset corpus shard by shard",
}


def _package_sites(match) -> set[tuple[str, str]]:
    """(module, top-level function) of every AST node for which
    `match(node)` holds, in the package and the driver entry."""
    import ast
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1]
    pkg = root / "shapefile_rs_ray"
    files = [(p.relative_to(pkg).as_posix(), p) for p in pkg.rglob("*.py")]
    files.append(("__ray_entry__.py", root / "__ray_entry__.py"))
    sites = set()
    for name, path in files:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if match(node):
                    sites.add((name, getattr(top, "name", "<module>")))
    return sites


def _constructor_kwargs_sites() -> set[tuple[str, str]]:
    """Every call that passes `fn_constructor_kwargs=`."""
    import ast
    return _package_sites(lambda node: isinstance(node, ast.keyword)
                          and node.arg == "fn_constructor_kwargs")


def test_broadcast_sides_are_task_maps():
    assert _constructor_kwargs_sites() == set(ACTOR_SIDES), \
        "put a read-only side through stages/broadcast.map_side"


# The one `ray.data.from_items` left: a lazy read of the completed
# partitions' files, handed to the caller to consume.
FROM_ITEMS_SITES = {("state/lineage.py", "read_partitions")}


def test_driver_planned_units_are_plain_tasks():
    """A map over units the driver plans is `broadcast.map_units`: under
    Ray Data a `from_items` + `map_batches` over them ran one task at a
    time at 2 logical CPUs."""
    import ast
    sites = _package_sites(lambda node: isinstance(node, ast.Call)
                           and isinstance(node.func, ast.Attribute)
                           and node.func.attr == "from_items")
    assert sites == FROM_ITEMS_SITES, \
        "run driver-planned units through stages/broadcast.map_units"


def _square(geom_id, x0, holes=()):
    from shapefile_rs_ray.geometry.rings import SimplePolygon
    ring = np.array([[x0, 0], [x0, 1], [x0 + 1, 1], [x0 + 1, 0], [x0, 0]],
                    np.float64)
    return SimplePolygon(geom_id, 0, ring, [h.copy() for h in holes])


def _hole(x0):
    return np.array([[x0 + .4, .4], [x0 + .6, .4], [x0 + .6, .6],
                     [x0 + .4, .6], [x0 + .4, .4]], np.float64)


def test_polygons_digest_follows_content():
    from shapefile_rs_ray.stages.broadcast import digest

    def side(a_holes=(_hole(0),), b_holes=(), gid=7):
        return [_square(gid, 0, a_holes), _square(8, 2, b_holes)]

    d = digest(side())
    assert digest(side()) == d                   # a new list, same content
    moved = side()
    moved[0].outer[1, 1] = 1.5                   # one vertex
    assert digest(moved) != d
    assert digest(side(gid=9)) != d              # one geom_id
    # the same hole owned by the next polygon
    assert digest(side(a_holes=(), b_holes=(_hole(0),))) != d


class _Recorder:
    """Stands in for a Dataset: keeps the map `map_side` adds."""

    def map_batches(self, fn, **kwargs):
        self.fn, self.kwargs = fn, kwargs
        return self

    def __call__(self, batch):
        return self.fn(batch, **self.kwargs["fn_kwargs"])


def test_pip_batch_builds_index_once_per_digest(ray_session, monkeypatch):
    """`map_side`'s task builds a side once per process for each digest
    and build option, and a second family does not evict the first."""
    from shapefile_rs_ray.stages import broadcast, knn, pip_join
    builds = []

    class CountingIndex(pip_join.PIPIndex):
        def __init__(self, polys):
            builds.append(len(polys))
            super().__init__(polys)

    monkeypatch.setattr(pip_join, "PIPIndex", CountingIndex)
    monkeypatch.setattr(broadcast, "_CACHE", {})
    batch = pa.table({"page_id": [1, 2, 3], "url": ["a", "b", "c"],
                      "lon": [0.5, 2.5, 4.5], "lat": [0.5, 0.2, 0.5]})
    one = broadcast.put_side([_square(7, 0, (_hole(0),)), _square(8, 2)])
    join = pip_join.broadcast_pip_join(_Recorder(), one)
    assert join.fn.__name__ == "pip_batch"
    for _ in range(2):
        out = join(batch)
        assert out["page_id"].to_pylist() == [2]
        assert out["geom_id"].to_pylist() == [8]
    assert builds == [2]
    pip_join.broadcast_pip_join(_Recorder(), one, keep_cols=("url",))(batch)
    assert builds == [2, 2]                     # another build option

    sites = (np.array([5, 6]), np.array([0.0, 3.0]), np.array([0.0, 0.0]))
    knn_k1 = knn.knn_join(_Recorder(), sites, k=1)
    knn_k2 = knn.knn_join(_Recorder(), sites, k=2)
    assert knn_k1(batch)["site_id"].to_pylist() == [5, 6, 6]
    assert knn_k2(batch).num_rows == 6          # k is in the key: a miss
    assert knn_k1(batch).num_rows == 3

    two = pip_join.broadcast_pip_join(_Recorder(), [_square(9, 4)])
    out = two(batch)
    assert out["page_id"].to_pylist() == [3]
    assert builds == [2, 2, 1]
    assert sorted(broadcast._CACHE) == ["knn_batch", "pip_batch"]
    assert broadcast._CACHE["pip_batch"][0][0] == broadcast.digest(
        [_square(9, 4)])


def test_cached_keeps_one_entry_per_kind(monkeypatch):
    from shapefile_rs_ray.stages import broadcast
    monkeypatch.setattr(broadcast, "_CACHE", {})
    made = []

    def build(tag):
        return lambda: made.append(tag) or tag

    assert broadcast.cached("a", 1, build("a1")) == "a1"
    assert broadcast.cached("b", 1, build("b1")) == "b1"
    assert broadcast.cached("a", 1, build("x")) == "a1"   # b kept a
    assert broadcast.cached("a", 2, build("a2")) == "a2"  # new key: rebuild
    assert broadcast.cached("b", 1, build("x")) == "b1"
    assert made == ["a1", "b1", "a2"]
    assert broadcast._CACHE == {"a": (2, "a2"), "b": (1, "b1")}


def _tagged():
    """A side's build whose state names the process and build it came
    from (a closure, so workers need not import this module)."""
    def build(value, tag=""):
        import os
        import uuid
        return (os.getpid(), uuid.uuid4().hex, value, tag)
    return build


def _timeout(signum, frame):
    raise TimeoutError("map_units hung on a failing unit")


def test_map_units_keeps_unit_order(ray_session):
    import time
    from shapefile_rs_ray.stages import broadcast
    side = broadcast.put_side("side")

    def call(unit, built):
        time.sleep(0.02 * (9 - unit))       # later units end first
        return unit, built[2:]

    assert broadcast.map_units(list(range(10)), "unit_order", _tagged(),
                               side, call, tag="t") == \
        [(u, ("side", "t")) for u in range(10)]


def test_map_units_bounds_tasks_in_flight(ray_session, monkeypatch):
    """`ray.wait` is called once the units outnumber the CPUs, and never
    holds more than the cluster's CPU count of tasks."""
    import ray
    from shapefile_rs_ray.stages import broadcast
    cpus = int(ray.cluster_resources()["CPU"])
    held = []
    wait = ray.wait

    def spy(refs, **kwargs):
        held.append(len(refs))
        return wait(refs, **kwargs)

    monkeypatch.setattr(ray, "wait", spy)
    units = list(range(3 * cpus + 1))
    out = broadcast.map_units(units, "unit_bound", _tagged(),
                              broadcast.put_side(0), lambda u, b: u)
    assert out == units
    assert held and max(held) <= cpus
    assert len(held) == len(units) - cpus


def test_map_units_on_no_unit(ray_session, monkeypatch):
    from shapefile_rs_ray.stages import broadcast

    def no_task():
        raise AssertionError("a task was submitted")

    monkeypatch.setattr(broadcast, "_unit_task", no_task)
    assert broadcast.map_units([], "unit_none", _tagged(),
                               broadcast.put_side(0), lambda u, b: u) == []


def test_map_units_raises_unit_errors(ray_session):
    import signal
    from shapefile_rs_ray.stages import broadcast

    def call(unit, built):
        if unit == 3:
            raise ValueError("bad unit 3")
        return unit

    old = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(120)
    try:
        with pytest.raises(ValueError, match="bad unit"):
            broadcast.map_units(list(range(12)), "unit_error", _tagged(),
                                broadcast.put_side(0), call)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_map_units_builds_side_once_per_process(ray_session):
    """Across two calls each worker process builds a side once per
    digest; another side is a new build."""
    import uuid
    from shapefile_rs_ray.stages import broadcast
    one = broadcast.put_side(uuid.uuid4().hex)
    two = broadcast.put_side(uuid.uuid4().hex)

    build = _tagged()

    def run(side):
        return broadcast.map_units(list(range(12)), "unit_cache", build,
                                   side, lambda u, built: built[:3])

    first = run(one) + run(one)
    tokens = {}
    for pid, token, value in first:
        assert value == ray_session.get(one.ref)
        tokens.setdefault(pid, set()).add(token)
    assert all(len(t) == 1 for t in tokens.values()), tokens
    for pid, token, value in run(two):
        assert value == ray_session.get(two.ref)
        assert token not in tokens.get(pid, set())


def test_center_in_polygon_build_options_miss(ray_session, monkeypatch):
    """keep_poly_id is part of the cache key: the same polygons with the
    other option build a second CenterInPolygon, not a cache hit."""
    from shapefile_rs_ray.stages import broadcast, h3ops
    monkeypatch.setattr(broadcast, "_CACHE", {})
    polys = {3: _square(7, 0, (_hole(0),)), 1: _square(8, 2)}
    batch = pa.table({"poly_id": pa.array([3, 1, 3, 1], pa.int64()),
                      "cell": pa.array(["a", "b", "c", "d"]),
                      "clat": [0.5, 0.5, 0.2, 0.2],
                      "clng": [0.5, 2.5, 0.2, 0.2]})
    a = h3ops.center_in_polygon(_Recorder(), polys)(batch)
    assert a.column_names == ["cell", "geom_id", "poly_idx"]
    assert a["cell"].to_pylist() == ["b", "c"]   # sorted by poly_id
    assert a["geom_id"].to_pylist() == [8, 7]
    b = h3ops.center_in_polygon(_Recorder(), polys, keep_poly_id=True)(batch)
    assert b["poly_id"].to_pylist() == [1, 3]


def test_cellpart_join_equals_broadcast(ray_session):
    from shapefile_rs_ray.sources.webpages import read_webpages
    from shapefile_rs_ray.stages.pip_join import (broadcast_pip_join,
                                                  cell_partitioned_pip,
                                                  load_polygons)
    polys = load_polygons(LAKES)
    a = broadcast_pip_join(read_webpages(SF, with_html=False),
                           polys).to_pandas()
    b = cell_partitioned_pip(read_webpages(SF, with_html=False), polys,
                             zoom=7, hot_threshold=300).to_pandas()
    key = ["page_id", "geom_id", "poly_idx"]
    assert (a.sort_values(key).reset_index(drop=True)[key]
            .equals(b.sort_values(key).reset_index(drop=True)[key]))


def test_h3part_join_equals_broadcast(ray_session):
    from shapefile_rs_ray.sources.webpages import read_webpages
    from shapefile_rs_ray.stages.pip_join import (broadcast_pip_join,
                                                  h3_partitioned_pip,
                                                  load_polygons)
    polys = load_polygons(LAKES)
    a = broadcast_pip_join(read_webpages(SF, with_html=False),
                           polys).to_pandas()
    b = h3_partitioned_pip(read_webpages(SF, with_html=False), polys,
                           res=4, hot_threshold=300).to_pandas()
    key = ["page_id", "geom_id", "poly_idx"]
    assert (a.sort_values(key).reset_index(drop=True)[key]
            .equals(b.sort_values(key).reset_index(drop=True)[key]))


def test_knn_matches_brute_force(ray_session, pages_ds):
    from shapefile_rs_ray.sources.webpages import webpages_table
    from shapefile_rs_ray.stages.knn import knn_join
    got = knn_join(pages_ds, synth.sites(), k=3).to_pandas()
    tbl = webpages_table(SF)
    ids, slon, slat = synth.sites()
    lon = np.asarray(tbl["lon"])
    lat = np.asarray(tbl["lat"])
    pids = np.asarray(tbl["page_id"])
    # brute oracle for a sample of pages
    rng = np.random.default_rng(0)
    sample = rng.choice(len(pids), 50, replace=False)
    bypage = got.set_index(["page_id", "rank"]).sort_index()
    for i in sample:
        d2 = (lon[i] - slon) ** 2 + (lat[i] - slat) ** 2
        order = np.lexsort((ids, d2))[:3]
        for r, site in enumerate(ids[order], start=1):
            assert bypage.loc[(pids[i], r), "site_id"] == site


def test_grid_knn_index_matches_brute():
    from shapefile_rs_ray.stages.knn import GridKnnIndex
    rng = np.random.default_rng(4)
    slon = rng.uniform(0, 10, 500)
    slat = rng.uniform(0, 10, 500)
    sid = np.arange(500, dtype=np.int64)
    g = GridKnnIndex(slon, slat, sid, cell_size=0.5)
    x = rng.uniform(-1, 11, 100)
    y = rng.uniform(-1, 11, 100)
    got, got_d2 = g.query_batch(x, y, 5)
    for i in range(100):
        d2 = (slon - x[i]) ** 2 + (slat - y[i]) ** 2
        exp = np.lexsort((sid, d2))[:5]
        assert np.array_equal(got[i], exp)
        assert np.array_equal(got_d2[i], d2[exp])


def test_knn_stage_50k_sites_grid_path():
    """Large-site-set path: the grid (not brute) branch must match brute
    exactly — ids, distances and (d2, site_id) tie order — at 50k sites."""
    from shapefile_rs_ray.stages.knn import KnnStage
    rng = np.random.default_rng(11)
    n_sites = 50_000
    slon = rng.uniform(-120, -60, n_sites)
    slat = rng.uniform(20, 60, n_sites)
    sid = rng.permutation(n_sites).astype(np.int64)
    qlon = rng.uniform(-125, -55, 2000)
    qlat = rng.uniform(15, 65, 2000)
    batch = pa.table({"page_id": pa.array(np.arange(2000), pa.int64()),
                      "lon": pa.array(qlon), "lat": pa.array(qlat)})
    grid = KnnStage((sid, slon, slat), k=3)           # grid path
    brute = KnnStage((sid, slon, slat), k=3,
                     brute_threshold=10**9)           # forced brute
    a = grid(batch)
    b = brute(batch)
    assert grid.brute is False and brute.brute is True
    assert a.equals(b)


def test_knn_cellpart_grid_path_through_exchange(ray_session):
    """20k sites put every partition of the cell exchange on the grid
    path: its rows equal `knn_join`'s, and sampled pages are bit-equal to
    a numpy (d2, site_id) lexsort."""
    import ray
    from shapefile_rs_ray.stages.knn import (KnnStage, knn_join,
                                             knn_join_cellpart)
    rng = np.random.default_rng(21)
    n_sites, n = 20_000, 3000
    slon = rng.uniform(-125, -65, n_sites)
    slat = rng.uniform(25, 50, n_sites)
    sid = rng.permutation(n_sites).astype(np.int64)
    lon = rng.uniform(-125, -65, n)
    lat = rng.uniform(25, 50, n)
    pages = pa.table({"page_id": pa.array(np.arange(n), pa.int64()),
                      "lon": pa.array(lon), "lat": pa.array(lat)})
    assert KnnStage((sid, slon, slat)).brute is False
    blocks = [pages.slice(s, 500) for s in range(0, n, 500)]
    key = ["page_id", "rank"]
    got = (knn_join_cellpart(ray.data.from_arrow(blocks), (sid, slon, slat),
                             k=3, zoom=6, parts=13).to_pandas()
           .sort_values(key).reset_index(drop=True))
    exp = (knn_join(ray.data.from_arrow(blocks), (sid, slon, slat),
                    k=3).to_pandas()
           .sort_values(key).reset_index(drop=True))
    assert len(got) == 3 * n
    assert got.equals(exp)
    for i in rng.choice(n, 250, replace=False):
        d2 = (lon[i] - slon) ** 2 + (lat[i] - slat) ** 2
        top = np.lexsort((sid, d2))[:3]
        rows = got.iloc[3 * i:3 * i + 3]
        assert np.array_equal(rows.site_id.to_numpy(), sid[top])
        assert np.array_equal(rows.dist2.to_numpy(), d2[top])


def test_knn_stage_grid_cells_are_coarse():
    """The grid holds many sites per occupied cell (about SITES_PER_CELL),
    not ~1: one ring search then serves many pages."""
    from shapefile_rs_ray.stages.knn import KnnStage
    rng = np.random.default_rng(12)
    n_sites = 100_000
    stage = KnnStage((np.arange(n_sites, dtype=np.int64),
                      rng.uniform(-120, -60, n_sites),
                      rng.uniform(20, 60, n_sites)), k=3)
    occupied = len(np.unique(stage.grid.sorted_keys))
    assert n_sites / occupied >= 16


def test_knn_grid_bounds_rows_per_distance_block(monkeypatch):
    """More than BLOCK pages in one grid cell are scored BLOCK rows at a
    time, and still match the brute truth."""
    from shapefile_rs_ray.stages import knn
    rng = np.random.default_rng(13)
    n_sites, n = 2000, 2 * knn.BLOCK + 17
    sid = rng.permutation(n_sites).astype(np.int64)
    slon = rng.uniform(0, 10, n_sites)
    slat = rng.uniform(0, 10, n_sites)
    grid = knn.KnnStage((sid, slon, slat), k=3)
    cell = grid.grid.cs
    lon = rng.uniform(0.05, 0.95, n) * cell
    lat = rng.uniform(0.05, 0.95, n) * cell
    batch = pa.table({"page_id": pa.array(np.arange(n), pa.int64()),
                      "lon": pa.array(lon), "lat": pa.array(lat)})
    seen = []
    real = knn.GridKnnIndex._cell_group

    def spy(self, x, y, gx, gy, k):
        seen.append((len(x), gx, gy))
        return real(self, x, y, gx, gy, k)

    monkeypatch.setattr(knn.GridKnnIndex, "_cell_group", spy)
    got = grid(batch)
    assert len({(gx, gy) for _, gx, gy in seen}) == 1   # one grid cell
    assert len(seen) == 3
    assert max(rows for rows, _, _ in seen) <= knn.BLOCK
    brute = knn.KnnStage((sid, slon, slat), k=3, brute_threshold=10**9)
    assert got.equals(brute(batch))


def test_knn_stage_grid_on_coincident_sites():
    """Past the brute threshold with every site on one point the grid
    gets a positive cell size (no division by zero) and stays exact."""
    import warnings
    from shapefile_rs_ray.stages.knn import KnnStage
    sites = (np.arange(1000, dtype=np.int64)[::-1].copy(),
             np.full(1000, 5.0), np.full(1000, 5.0))
    batch = pa.table({"page_id": pa.array([1, 2], pa.int64()),
                      "lon": pa.array([5.0, 6.0]), "lat": pa.array([5.0, 7.0])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = KnnStage(sites, k=3)
        got = grid(batch)
    assert grid.brute is False and grid.grid.cs > 0
    assert got.equals(KnnStage(sites, k=3, brute_threshold=10**9)(batch))
    assert got["site_id"].to_pylist() == [0, 1, 2, 0, 1, 2]


def test_knn_nearest_is_a_stable_argsort_prefix():
    """`nearest` picks what a stable argsort's first kk columns pick,
    under heavy ties, with NaNs, and at kk of 0 or the full width."""
    from shapefile_rs_ray.stages.knn import nearest
    rng = np.random.default_rng(14)
    for trial in range(2000):
        m, c = rng.integers(1, 6), rng.integers(1, 25)
        kk = int(rng.integers(0, c + 1))
        d2 = rng.integers(0, 4, (m, c)).astype(np.float64)
        if trial % 3 == 0:
            d2[rng.random((m, c)) < 0.2] = np.nan
        exp = np.argsort(d2, axis=1, kind="stable")[:, :kk]
        assert np.array_equal(nearest(d2, kk), exp), (d2, kk)


def test_exact_dedup_keeps_min_id(ray_session, pages_ds):
    from shapefile_rs_ray.stages.dedup import exact_dedup
    out = exact_dedup(pages_ds).to_pandas()
    # 500 docs x REPL clones -> 500 groups of REPL each
    assert len(out) == 500
    assert set(out.n_copies) == {synth.REPL}
    # kept id is the min of each clone family: page_id = doc_id*REPL + 0
    assert np.all(out.page_id % synth.REPL == 0)


def test_minhash_finds_all_clone_pairs(ray_session):
    from shapefile_rs_ray.sources.webpages import read_webpages
    from shapefile_rs_ray.stages.dedup import minhash_lsh_pairs
    ds = read_webpages(SF, repl=4, with_html=False)
    pairs = minhash_lsh_pairs(ds, concurrency=2).to_pandas()
    # identical texts always collide in every band -> all clone pairs present
    clone_pairs = {(d * 4 + a, d * 4 + b)
                   for d in range(500)
                   for a in range(4) for b in range(a + 1, 4)}
    got = set(zip(pairs.id_a, pairs.id_b))
    assert clone_pairs <= got
    assert pairs.id_a.lt(pairs.id_b).all()


def test_simhash_pairs_contains_clones(ray_session):
    from shapefile_rs_ray.sources.webpages import read_webpages
    from shapefile_rs_ray.stages.dedup import simhash_pairs
    ds = read_webpages(SF, repl=2, with_html=False)
    pairs = simhash_pairs(ds, concurrency=2).to_pandas()
    clone_pairs = {(d * 2, d * 2 + 1) for d in range(500)}
    got = set(zip(pairs.id_a, pairs.id_b))
    assert clone_pairs <= got
    assert (pairs.hamming == 0).sum() >= 500


def test_ann_top1_matches_brute(ray_session):
    import ray
    import pyarrow.parquet as pq
    from shapefile_rs_ray.stages.ann import cosine_topk
    corpus = pq.read_table(f"{SF}/embeddings.parquet",
                           columns=["vec_id", "embedding"])
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    got = cosine_topk(ds, corpus, k=1).to_pandas().set_index("vec_id")
    M = np.vstack(corpus["embedding"].to_pylist()).astype(np.float64)
    ids = np.asarray(corpus["vec_id"])
    norms = np.linalg.norm(M, axis=1)
    cos = (M @ M.T) / (norms[:, None] * norms[None, :])
    np.fill_diagonal(cos, -np.inf)
    nn = ids[np.argmax(cos, axis=1)]
    for i, vid in enumerate(ids):
        assert got.loc[vid, "nn_id"] == nn[i]


def test_zonal_stats_sums(ray_session):
    import pyarrow.compute as pc
    from shapefile_rs_ray.sources.webpages import read_webpages
    from shapefile_rs_ray.stages.pip_join import (broadcast_pip_join,
                                                  load_polygons)
    from shapefile_rs_ray.stages.zonal import zonal_stats

    def add_n_chars(b):
        return b.append_column(
            "n_chars", pc.cast(pc.utf8_length(b["text"]), pa.int64()))

    ds = read_webpages(SF, with_html=False).map_batches(
        add_n_chars, batch_format="pyarrow")
    polys = load_polygons(LAKES)
    joined = broadcast_pip_join(ds, polys, keep_cols=("page_id", "n_chars"))
    jdf = joined.to_pandas()
    z = zonal_stats(joined).to_pandas().set_index("geom_id")
    exp = jdf.groupby("geom_id").agg(n_pages=("page_id", "count"),
                                     sum_measure=("n_chars", "sum"))
    assert z.sort_index().equals(exp.sort_index().astype(z.dtypes))


def test_knn_cellpart_equals_broadcast(ray_session, pages_ds):
    from shapefile_rs_ray.sources.webpages import read_webpages
    from shapefile_rs_ray.stages.knn import knn_join, knn_join_cellpart
    a = (knn_join(pages_ds, synth.sites(), k=3).to_pandas()
         .sort_values(["page_id", "rank"]).reset_index(drop=True))
    b = (knn_join_cellpart(read_webpages(SF, with_html=False), synth.sites(),
                           k=3).to_pandas()
         .sort_values(["page_id", "rank"]).reset_index(drop=True))
    assert a[["page_id", "rank", "site_id"]].equals(
        b[["page_id", "rank", "site_id"]])
    assert (a.dist2 - b.dist2).abs().max() == 0.0


def test_embedding_neardup(ray_session):
    import ray
    import numpy as np
    import pyarrow.parquet as pq
    from shapefile_rs_ray.stages.dedup import embedding_neardup_pairs
    path = f"{SF}/embeddings.parquet"
    corpus = pq.read_table(path, columns=["vec_id", "embedding"])
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    got = embedding_neardup_pairs(ds, corpus, threshold=0.45).to_pandas()
    M = np.vstack(corpus["embedding"].to_pylist()).astype(np.float64)
    ids = np.asarray(corpus["vec_id"])
    n = np.linalg.norm(M, axis=1)
    cos = (M @ M.T) / (n[:, None] * n[None, :])
    ia, ib = np.nonzero(np.triu(cos >= 0.45, 1))
    exp = {(int(ids[x]), int(ids[y])) for x, y in zip(ia, ib)}
    assert set(zip(got.id_a, got.id_b)) == exp


def test_cosine_topk_sharded_equals_broadcast(ray_session):
    """Dataset-side corpus (object-store shard refs, streamed per batch)
    must produce bit-identical output to the broadcast-table path."""
    import ray
    import pyarrow.parquet as pq
    from shapefile_rs_ray.stages.ann import cosine_topk
    path = f"{SF}/embeddings.parquet"
    corpus_tbl = pq.read_table(path, columns=["vec_id", "embedding"])
    # force multiple shards so the running-merge path is exercised
    corpus_ds = ray.data.read_parquet(
        path, columns=["vec_id", "embedding"], override_num_blocks=7)
    qs = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    a = (cosine_topk(qs, corpus_tbl, k=3).to_pandas()
         .sort_values(["vec_id", "rank"]).reset_index(drop=True))
    qs2 = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    b = (cosine_topk(qs2, corpus_ds, k=3).to_pandas()
         .sort_values(["vec_id", "rank"]).reset_index(drop=True))
    assert a.equals(b)


def test_neardup_sharded_equals_broadcast(ray_session):
    import ray
    import pyarrow.parquet as pq
    from shapefile_rs_ray.stages.dedup import embedding_neardup_pairs
    path = f"{SF}/embeddings.parquet"
    corpus_tbl = pq.read_table(path, columns=["vec_id", "embedding"])
    corpus_ds = ray.data.read_parquet(
        path, columns=["vec_id", "embedding"], override_num_blocks=5)
    qs = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    a = (embedding_neardup_pairs(qs, corpus_tbl, threshold=0.45).to_pandas()
         .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    qs2 = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    b = (embedding_neardup_pairs(qs2, corpus_ds, threshold=0.45).to_pandas()
         .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    assert a.equals(b)


def test_lsh_topk_recall_and_determinism(ray_session):
    """Multi-band LSH: measured coverage and recall@1 against the exact
    path (the correctness signal for the approximate operator), plus
    run-to-run determinism (fixed hyperplane seed)."""
    import ray
    import pyarrow.parquet as pq
    from shapefile_rs_ray.stages.ann import cosine_topk, lsh_topk
    path = f"{SF}/embeddings.parquet"
    corpus = pq.read_table(path, columns=["vec_id", "embedding"])
    n = corpus.num_rows
    qs = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    exact = (cosine_topk(qs, corpus, k=1).to_pandas()
             .set_index("vec_id")["nn_id"])
    ds1 = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    got1 = (lsh_topk(ds1, k=1).to_pandas()
            .sort_values(["vec_id", "rank"]).reset_index(drop=True))
    ds2 = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    got2 = (lsh_topk(ds2, k=1).to_pandas()
            .sort_values(["vec_id", "rank"]).reset_index(drop=True))
    assert got1.equals(got2)                      # deterministic
    top1 = got1[got1["rank"] == 1].set_index("vec_id")["nn_id"]
    coverage = len(top1) / n
    hits = (top1 == exact.loc[top1.index]).mean()
    assert coverage >= 0.95, f"LSH coverage {coverage:.2f}"
    assert hits >= 0.8, f"LSH recall@1 {hits:.2f} on covered vectors"


def test_grid_knn_far_query_fallback_no_duplicates():
    """A query far outside the site grid exercises the degenerate fallback;
    it must return k DISTINCT sites matching brute force (the old fallback
    re-stacked ring buckets on the full set and could emit one site in two
    top-k slots)."""
    from shapefile_rs_ray.stages.knn import GridKnnIndex
    rng = np.random.default_rng(7)
    slon = rng.uniform(0, 1, 200)
    slat = rng.uniform(0, 1, 200)
    sid = np.arange(200, dtype=np.int64)
    g = GridKnnIndex(slon, slat, sid, cell_size=0.05)
    x = np.array([1000.0, -500.0, 0.5])
    y = np.array([1000.0, -500.0, 0.5])
    got, got_d2 = g.query_batch(x, y, 5)
    for i in range(len(x)):
        assert len(set(got[i].tolist())) == 5, "duplicate site in top-k"
        d2 = (slon - x[i]) ** 2 + (slat - y[i]) ** 2
        exp = np.lexsort((sid, d2))[:5]
        assert np.array_equal(got[i], exp)


def test_cosine_topk_small_corpus_parity(ray_session):
    """corpus_rows <= k: the sharded path must emit the broadcast
    semantic's kk = min(k, corpus_rows - 1) ranks for EVERY query,
    independent of batch composition or shard membership."""
    import ray
    import pyarrow.parquet as pq
    from shapefile_rs_ray.stages.ann import cosine_topk
    path = f"{SF}/embeddings.parquet"
    full = pq.read_table(path, columns=["vec_id", "embedding"])
    small_tbl = full.slice(0, 3)                     # 3-vector corpus
    small_ds = ray.data.from_arrow(small_tbl).map_batches(
        lambda b: b, batch_format="pyarrow",
        batch_size=1).materialize()                  # 3 shards of 1 row
    qs1 = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    a = (cosine_topk(qs1, small_tbl, k=3).to_pandas()
         .sort_values(["vec_id", "rank"]).reset_index(drop=True))
    qs2 = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    b = (cosine_topk(qs2, small_ds, k=3).to_pandas()
         .sort_values(["vec_id", "rank"]).reset_index(drop=True))
    assert a.equals(b)
    assert set(a.groupby("vec_id")["rank"].max()) == {2}   # kk = c-1


def test_dbf_blank_datetime_is_null():
    import pyarrow as _pa
    from tests.test_dbf_types import _make_dbf
    from shapefile_rs_ray.geometry import dbf as dbf_mod
    buf = _make_dbf([("ts", "T", 8, 0)], [(b" " * 8,)])
    t = dbf_mod.read_dbf_bytes(buf)
    assert t["ts"][0].as_py() is None


def test_ivf_topk_recall_and_determinism(ray_session):
    """IVF path: deterministic (seeded centroids), full coverage at
    nprobe=4/16, recall@1 measured vs the exact path; nprobe=n_centroids
    degenerates to exact."""
    import ray
    import pyarrow.parquet as pq
    from shapefile_rs_ray.stages.ann import cosine_topk, ivf_topk
    path = f"{SF}/embeddings.parquet"
    corpus = pq.read_table(path, columns=["vec_id", "embedding"])
    n = corpus.num_rows
    qs = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    exact = (cosine_topk(qs, corpus, k=1).to_pandas()
             .set_index("vec_id")["nn_id"])
    ds1 = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    got1 = (ivf_topk(ds1, corpus, k=1).to_pandas()
            .sort_values(["vec_id", "rank"]).reset_index(drop=True))
    ds2 = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    got2 = (ivf_topk(ds2, corpus, k=1).to_pandas()
            .sort_values(["vec_id", "rank"]).reset_index(drop=True))
    assert got1.equals(got2)
    top1 = got1[got1["rank"] == 1].set_index("vec_id")["nn_id"]
    coverage = len(top1) / n
    recall = (top1 == exact.loc[top1.index]).mean()
    assert coverage >= 0.95, f"IVF coverage {coverage:.2f}"
    assert recall >= 0.5, f"IVF recall@1 {recall:.2f}"
    # exhaustive probing == exact
    ds3 = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    full = (ivf_topk(ds3, corpus, k=1, n_centroids=8, nprobe=8).to_pandas()
            .set_index("vec_id")["nn_id"])
    assert (full == exact.loc[full.index]).all()
