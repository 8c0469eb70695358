"""The golden cache (`pipelines/oracles.golden`): a golden parquet is
reused iff the key stamped in it covers the key of the inputs it would be
built from now; otherwise it is rebuilt and written atomically."""

import json
import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from perfbench import gen
from shapefile_rs_ray.pipelines import oracles


@pytest.fixture
def odir(tmp_path, monkeypatch):
    d = tmp_path / "oracle"
    monkeypatch.setattr(oracles, "ORACLE_DIR", str(d))
    return d


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Two 8-lake corpora, A and B: {stem: ShapeTable}."""
    d = tmp_path_factory.mktemp("lakes")
    out = {}
    for seed in (1, 2):
        st, attrs = gen.lakes_corpus(seed, 1)
        gen.write_shapefile(str(d / f"lakes{seed}"), st, attrs)
        out[str(d / f"lakes{seed}")] = st
    return out


def _stamp(path: str) -> dict:
    return json.loads(pq.read_schema(path).metadata[b"golden_key"])


def _mtimes(d) -> dict:
    return {p.name: p.stat().st_mtime_ns for p in d.iterdir()}


def _check_lakes(st) -> None:
    """The lakes goldens hold the rows of the corpus `st`."""
    vt = pq.read_table(oracles.golden_path("lakes_vertices"))
    np.testing.assert_array_equal(vt["x"].to_numpy(), st.x)
    np.testing.assert_array_equal(vt["y"].to_numpy(), st.y)
    for name in ("lakes_boxes", "lakes_summary"):
        t = pq.read_table(oracles.golden_path(name)).to_pydict()
        got = np.column_stack([t[c] for c in ("xmin", "ymin", "xmax",
                                              "ymax")])
        np.testing.assert_array_equal(got, st.bbox_xy[t["geom_id"]])


def test_repointing_lakes_rebuilds_lakes_goldens(odir, corpora, tmp_path,
                                                monkeypatch):
    (a, st_a), (b, st_b) = corpora.items()
    c = str(tmp_path / "lakes")
    # A, then B, then B's files copied to a third path, then A's files
    # written over them: the last is the same path with other content
    for stem, src, st in ((a, a, st_a), (b, b, st_b), (c, b, st_b),
                          (c, a, st_a)):
        if stem == c:
            for ext in (".shp", ".shx", ".dbf"):
                shutil.copyfile(src + ext, c + ext)
        monkeypatch.setattr(oracles, "LAKES", stem + ".shp")
        oracles.ensure_lakes_vertices()
        oracles.ensure_artifacts()
        _check_lakes(st)


def _sf(root, seed: int):
    """An sf dir named `sf` under `root`, holding seeded documents."""
    d = root / "sf"
    d.mkdir(parents=True)
    docs = gen.documents_table(seed, 40, 3)
    gen.write_documents(str(d), docs)
    return str(d), docs


def test_corpora_sharing_a_basename_get_their_own_golden(odir, tmp_path):
    for seed, root in ((1, tmp_path / "x"), (2, tmp_path / "y")):
        sf_dir, docs = _sf(root, seed)
        got = pq.read_table(oracles.ensure_lzw_golden(sf_dir))
        assert got["doc_id"].to_pylist() == docs["doc_id"].to_pylist()
        assert got["n_raw"].to_pylist() == [
            len(t.encode("utf-8")) for t in docs["text"].to_pylist()]


def test_coverage_count_serves_smaller_requests_only(odir):
    built = []

    def build(n):
        def run():
            built.append(n)
            return gen.documents_table(1, n, 2)
        return run

    path = oracles.golden("ids", {"n": 200}, build(200))
    mtime = os.stat(path).st_mtime_ns
    assert oracles.golden("ids", {"n": 100}, build(100)) == path
    assert built == [200] and os.stat(path).st_mtime_ns == mtime
    assert pq.read_metadata(path).num_rows == 200
    oracles.golden("ids", {"n": 300}, build(300))
    assert built == [200, 300] and _stamp(path) == {"n": 300}
    assert pq.read_metadata(path).num_rows == 300
    # any other key field must match exactly, whatever the count
    oracles.golden("ids", {"n": 10, "impl": "x"}, build(10))
    assert built == [200, 300, 10]


def test_h3_impl_tag_is_part_of_the_key(odir, ray_session, monkeypatch):
    from shapefile_rs_ray.functions import h3
    path = oracles.ensure_h3_golden(30)
    before = pq.read_table(path)
    assert _stamp(path) == {"impl": h3.IMPL_TAG, "n": 30}
    monkeypatch.setattr(h3, "IMPL_TAG", "another-inverse")
    assert oracles.ensure_h3_golden(30) == path
    assert _stamp(path) == {"impl": "another-inverse", "n": 30}
    assert pq.read_table(path).equals(before)


def test_same_inputs_rebuild_nothing(odir, corpora, tmp_path, monkeypatch):
    monkeypatch.setattr(oracles, "LAKES", next(iter(corpora)) + ".shp")
    sf_dir, _ = _sf(tmp_path, 1)

    def ensure_all():
        oracles.ensure_artifacts()
        oracles.ensure_lakes_vertices()
        oracles.ensure_dp_golden()
        oracles.ensure_wkb_golden()
        oracles.ensure_lzw_golden(sf_dir)
        oracles.ensure_lm_golden(sf_dir)
        oracles.ensure_bpe_encode_golden(sf_dir)

    ensure_all()
    first = _mtimes(odir)
    assert len(first) == 11 and not any(".tmp" in n for n in first)
    ensure_all()
    assert _mtimes(odir) == first
