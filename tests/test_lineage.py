"""Resumable lineage output (`state/lineage.py`): the flagship writes each
partition in one task call with no exchange; a resume computes only the
pending partitions, from the page source on, and rewrites them byte for
byte; the one-pass `text_sha256` keeps the per-row formula's digest."""

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from perfbench import gen
from shapefile_rs_ray.sources.webpages import webpages_table
from shapefile_rs_ray.state import lineage

N_DOCS, SPREAD = 200, 40     # 4000 pages over ~10 partitions of 16384 ids
REPL = 20                    # pages per doc (synth.REPL)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(sf dir with documents.parquet, 8-lake .shp path)."""
    d = tmp_path_factory.mktemp("flagship_in")
    gen.write_documents(str(d), gen.documents_table(3, N_DOCS, SPREAD))
    st, attrs = gen.lakes_corpus(3, 1)
    gen.write_shapefile(str(d / "lakes"), st, attrs)
    return str(d), str(d / "lakes.shp")


def _files(out: str) -> dict[str, bytes]:
    got = {}
    for root, _, names in os.walk(out):
        for n in names:
            p = os.path.join(root, n)
            with open(p, "rb") as f:
                got[os.path.relpath(p, out)] = f.read()
    return got


def _manifests(out: str) -> dict[int, dict]:
    """Every manifest and `_done` marker but its timing."""
    ms = {}
    for m in lineage.read_manifests(out):
        ms[m["part"]] = {k: v for k, v in m.items() if k != "write_s"}
    for p in sorted(os.listdir(out)):
        if p.startswith("part="):
            with open(os.path.join(out, p, "manifest.json")) as f:
                m = json.load(f)
            assert ms[m["part"]] == {k: v for k, v in m.items()
                                     if k != "write_s"}
    return ms


def _lose(out: str, parts) -> None:
    """A crash that lost partitions: data, manifest and marker."""
    for p in parts:
        shutil.rmtree(os.path.join(out, f"part={p:06d}"))
        os.remove(os.path.join(out, "_done", f"part={p:06d}.json"))


@pytest.fixture(scope="module")
def straddle_inputs(inputs, tmp_path_factory):
    """`inputs` with one doc moved onto a partition boundary: its pages
    fall in two partitions."""
    size = lineage.PARTITION_SIZE
    docs = gen.documents_table(3, N_DOCS, SPREAD)
    ids = docs["doc_id"].to_numpy().copy()
    # the first boundary past the median page that cuts a doc in two
    p = next(p for p in range(int(np.median(ids)) * REPL // size + 1,
                              ids.max() * REPL // size)
             if p * size % REPL)
    straddler = p * size // REPL
    ids[np.argmin(np.abs(ids - straddler))] = straddler
    d = tmp_path_factory.mktemp("straddle_in")
    gen.write_documents(str(d), docs.set_column(
        0, "doc_id", pa.array(ids, pa.int64())))
    return (str(d), inputs[1]), (p - 1, p)


def _flagship(inputs, out):
    from shapefile_rs_ray.pipelines.flagship import flagship
    sf, shp = inputs
    return flagship(sf, out_dir=out, polygons=shp)


def _data(out: str) -> dict[str, bytes]:
    return {k: v for k, v in _files(out).items()
            if k.endswith("data.parquet")}


def test_flagship_resume_rewrites_lost_partitions_exactly(ray_session,
                                                          inputs, tmp_path):
    out = str(tmp_path / "out")
    joined = _flagship(inputs, out)
    files, mans = _files(out), _manifests(out)
    assert len(mans) >= 5
    assert sum(m["rows"] for m in mans.values()) == joined.count()
    data = {k: v for k, v in files.items() if k.endswith("data.parquet")}
    assert len(data) == len(mans)

    _lose(out, sorted(mans)[1:3])
    joined = _flagship(inputs, out)
    assert _manifests(out) == mans
    assert {k: v for k, v in _files(out).items()
            if k.endswith("data.parquet")} == data
    # the returned Dataset is all joined rows, not the resumed ones
    assert joined.count() == sum(m["rows"] for m in mans.values())

    before = _stamped(out)
    _flagship(inputs, out)
    assert _stamped(out) == before
    # the full resume again, straight through the writer: every joined
    # row's partition is done, so nothing is written or touched
    _assert_empty_manifest(lineage.write_partitioned(joined, out))
    assert _stamped(out) == before


def test_write_partitioned_zero_rows_touches_nothing(ray_session, tmp_path):
    import ray
    rows = pa.table({"page_id": pa.array([], pa.int64()),
                     "url": pa.array([], pa.string()),
                     "text": pa.array([], pa.string())})
    out = tmp_path / "out"
    _assert_empty_manifest(
        lineage.write_partitioned(ray.data.from_arrow(rows), str(out)))
    assert not out.exists()


def _stamped(out: str) -> dict[str, tuple[int, bytes]]:
    return {k: (os.stat(os.path.join(out, k)).st_mtime_ns, v)
            for k, v in _files(out).items()}


def _assert_empty_manifest(manifest) -> None:
    assert manifest.count() == 0
    assert manifest.schema().base_schema == lineage.MANIFEST_SCHEMA


def test_flagship_resume_computes_only_pending_pages(ray_session, inputs,
                                                     tmp_path, monkeypatch):
    """Rows entering text stats on a resume are the pending partitions'
    pages: none at all on a full resume."""
    from shapefile_rs_ray.pipelines import flagship as flagship_mod
    out = str(tmp_path / "out")
    _flagship(inputs, out)
    parts = sorted(lineage.completed_partitions(out))
    lost = parts[-2:]
    _lose(out, lost)

    seen = str(tmp_path / "token_stats_rows")
    token_stats = flagship_mod.token_stats

    def spy(batch):
        with open(seen, "a") as f:
            f.write(f"{batch.num_rows}\n")
        return token_stats(batch)

    def rows_seen():
        if not os.path.exists(seen):
            return 0
        with open(seen) as f:
            n = sum(int(line) for line in f)
        os.remove(seen)
        return n

    monkeypatch.setattr(flagship_mod, "token_stats", spy)
    pages = webpages_table(inputs[0])["page_id"].to_numpy()
    pending = np.isin(lineage.partition_key(pages, lineage.PARTITION_SIZE),
                      lost)
    assert 0 < pending.sum() < len(pages)
    _flagship(inputs, out)
    assert rows_seen() == pending.sum()
    assert sorted(lineage.completed_partitions(out)) == parts
    _flagship(inputs, out)
    assert rows_seen() == 0


def test_drop_completed_keeps_exactly_pending_rows(ray_session, tmp_path):
    import ray
    ids = np.random.default_rng(5).choice(10_000, 3_000, replace=False)
    ds = ray.data.from_arrow(pa.table({"page_id": pa.array(ids, pa.int64())})
                             ).repartition(7)
    out = str(tmp_path / "out")
    assert lineage.drop_completed(ds, out, partition_size=1000) is ds
    done = {0, 3, 4, 9}
    os.makedirs(os.path.join(out, "_done"))
    for p in done:
        open(os.path.join(out, "_done", f"part={p:06d}.json"), "w").close()
    kept = lineage.drop_completed(ds, out, partition_size=1000)
    got = np.sort([r["page_id"] for r in kept.take_all()])
    want = np.sort(ids[~np.isin(ids // 1000, list(done))])
    np.testing.assert_array_equal(got, want)


def _loop_sha(group: pa.Table, text_col: str, url_col) -> str:
    """The per-row formula `text_sha256` replaces."""
    h = hashlib.sha256()
    urls = (group[url_col].to_pylist()
            if url_col and url_col in group.column_names
            else [""] * group.num_rows)
    for u, t in zip(urls, group[text_col].to_pylist()):
        h.update(u.encode("utf-8"))
        h.update(b"\x00")
        h.update((t or "").encode("utf-8"))
        h.update(b"\x01")
    return h.hexdigest()


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
def test_text_sha256_matches_row_loop(typ):
    texts = ["naïve café", None, "", "中文 text", "emoji 😀\n", "a\x00b"] * 9
    urls = [f"http://host{i}.ü/p?q=ß" for i in range(len(texts))]
    t = pa.table({"url": pa.array(urls, typ), "text": pa.array(texts, typ)})
    chunked = pa.concat_tables([t.slice(0, 5), t.slice(11, 20)])
    for g in (t, t.slice(3, 25), chunked, t.slice(0, 0)):
        assert lineage.text_sha256(g, "text", "url") == _loop_sha(
            g, "text", "url")
        assert lineage.text_sha256(g, "text", None) == _loop_sha(
            g, "text", None)
        nourl = g.drop(["url"])
        assert lineage.text_sha256(nourl, "text", "url") == _loop_sha(
            nourl, "text", "url")


def _token_stats_spy(monkeypatch, path):
    """Count the rows that enter `token_stats` (in any process) in `path`;
    returns a reader that also resets the count."""
    from shapefile_rs_ray.pipelines import flagship as flagship_mod
    token_stats = flagship_mod.token_stats

    def spy(batch):
        with open(path, "a") as f:
            f.write(f"{batch.num_rows}\n")
        return token_stats(batch)

    def rows_seen():
        if not os.path.exists(path):
            return 0
        with open(path) as f:
            n = sum(int(line) for line in f)
        os.remove(path)
        return n

    monkeypatch.setattr(flagship_mod, "token_stats", spy)
    return rows_seen


def test_flagship_resume_rewrites_one_side_of_a_straddling_doc(
        ray_session, straddle_inputs, tmp_path, monkeypatch):
    """A doc whose pages fall in two partitions: with one of them
    completed, the resume synthesizes the doc again and rewrites exactly
    the other partition's pages, byte for byte."""
    inputs, pair = straddle_inputs
    out = str(tmp_path / "out")
    _flagship(inputs, out)
    assert set(pair) <= lineage.completed_partitions(out)
    data, mans = _data(out), _manifests(out)
    pages = webpages_table(inputs[0], REPL)["page_id"].to_numpy()
    rows_seen = _token_stats_spy(monkeypatch, str(tmp_path / "seen"))
    for lost in pair:
        _lose(out, [lost])
        _flagship(inputs, out)
        assert rows_seen() == (pages // lineage.PARTITION_SIZE == lost).sum()
        assert _data(out) == data
        assert _manifests(out) == mans


def test_flagship_unit_is_never_split(ray_session, inputs, tmp_path,
                                      monkeypatch):
    """Each partition is written by one call whatever the block size: a
    64 KiB `target_max_block_size`, below every partition's joined bytes,
    gives the default run's files."""
    import ray
    out = str(tmp_path / "default")
    _flagship(inputs, out)
    data, mans = _data(out), _manifests(out)
    ctx = ray.data.DataContext.get_current()
    monkeypatch.setattr(ctx, "target_max_block_size", 64 * 1024)
    assert min(m["bytes"] for m in mans.values()) > 64 * 1024
    small = str(tmp_path / "small")
    _flagship(inputs, small)
    assert _data(small) == data
    assert _manifests(small) == mans


def test_flagship_write_has_no_exchange(ray_session, inputs, tmp_path,
                                        monkeypatch):
    """The flagship write reaches neither `by_partition` nor
    `write_partitioned`, makes no Ray Data map, sort or all-to-all
    operator (its units are plain tasks), and a full resume plans no unit
    at all."""
    from shapefile_rs_ray.pipelines import flagship as flagship_mod
    from shapefile_rs_ray.stages import combine

    def forbidden(*args, **kwargs):
        raise AssertionError("the flagship write made an exchange")

    for mod, name in ((combine, "by_partition"), (lineage, "by_partition"),
                      (lineage, "write_partitioned")):
        monkeypatch.setattr(mod, name, forbidden)
    manifests = []
    write_lineage = flagship_mod.write_lineage

    def keep(*args, **kwargs):
        manifests.append(write_lineage(*args, **kwargs))
        return manifests[-1]

    monkeypatch.setattr(flagship_mod, "write_lineage", keep)
    out = str(tmp_path / "out")
    joined = _flagship(inputs, out)
    stats = manifests[0].stats()
    assert not any(op in stats for op in ("MapBatches", "Sort", "AllToAll"))
    written = manifests[0].to_pandas()
    assert not written["skipped"].any()
    assert sorted(written["part"]) == sorted(
        lineage.completed_partitions(out))
    assert joined.count() == written["rows"].sum()
    assert "__p" not in joined.schema().names
    _flagship(inputs, out)
    assert manifests[1] is None


def test_flagship_with_no_joined_page_is_typed_and_empty(ray_session,
                                                         inputs, tmp_path,
                                                         data_dir,
                                                         monkeypatch):
    """No page falls in the polygon: every partition is marked done with
    `rows: 0` and no data file, a second call plans no unit, and both
    results are zero rows with the joined schema."""
    from shapefile_rs_ray.pipelines import flagship as flagship_mod
    out = str(tmp_path / "out")
    polygons = (inputs[0], os.path.join(data_dir, "polygonm.shp"))
    pending = set(lineage.pending_partitions(
        _doc_ids(inputs[0]), REPL, out).tolist())
    assert len(pending) >= 5
    joined = _flagship(polygons, out)
    names = ["page_id", "url", "text", "lang", "cell", "n_chars",
             "is_quality", "geom_id", "poly_idx"]
    assert joined.count() == 0
    assert joined.schema().names == names
    assert lineage.completed_partitions(out) == pending
    assert all(m["rows"] == 0 and m["status"] == "done"
               for m in lineage.read_manifests(out))
    assert not any(f.startswith("part=") for f in os.listdir(out))

    units = []
    map_units = flagship_mod.map_units

    def spy(parts, *args, **kwargs):
        units.extend(parts)
        return map_units(parts, *args, **kwargs)

    monkeypatch.setattr(flagship_mod, "map_units", spy)
    joined = _flagship(polygons, out)
    assert units == []
    assert joined.count() == 0
    assert joined.schema().names == names


def _doc_ids(sf: str) -> np.ndarray:
    import pyarrow.parquet as pq
    return pq.read_table(os.path.join(sf, "documents.parquet"),
                         columns=["doc_id"])["doc_id"].to_numpy()


def test_pending_partitions_follow_doc_spans(tmp_path):
    """Doc `d` holds pages `[d*repl, d*repl + repl)`: every partition they
    touch, less the completed ones."""
    out = str(tmp_path / "out")
    ids = np.array([0, 3, 4, 9, 10, 31])
    assert lineage.pending_partitions(ids, 5, out, 16).tolist() == [
        0, 1, 2, 3, 9]
    os.makedirs(os.path.join(out, "_done"))
    for p in (1, 9):
        open(os.path.join(out, "_done", f"part={p:06d}.json"), "w").close()
    assert lineage.pending_partitions(ids, 5, out, 16).tolist() == [0, 2, 3]
    # a doc wider than a partition spans every partition between its ends
    assert lineage.pending_partitions([1], 40, str(tmp_path / "x"),
                                      16).tolist() == [2, 3, 4]
