"""End-to-end pipeline, lineage/resume, determinism, and entry-contract
tests (FIXTURES.md §B3/§B4)."""

import os
import shutil

import numpy as np
import pytest

from shapefile_rs_ray.pipelines.oracles import FIXTURE_DIR, LAKES

SF = "/root/testdata/sf0.001"
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_entry_contract(ray_session):
    import __ray_entry__ as m
    res = m.entry()
    assert res.count() > 0
    qs = m.queries()
    osql = m.oracle_sql()
    assert set(osql) <= set(qs)
    assert len(qs) >= 15


def test_flagship_writes_resumable_output(ray_session, tmp_path):
    from shapefile_rs_ray.pipelines.flagship import flagship
    from shapefile_rs_ray.state.lineage import read_manifests
    out = str(tmp_path / "ckpt")
    joined = flagship(SF, out_dir=out)
    mans = read_manifests(out)
    assert mans and all(m["status"] == "done" for m in mans)
    assert sum(m["rows"] for m in mans) == joined.count()


def test_lineage_determinism_two_runs(ray_session, tmp_path):
    """Two independent runs produce identical per-partition text hashes
    (the byte-identical-text invariant through shuffles + checkpoint)."""
    from shapefile_rs_ray.sources.webpages import read_webpages
    from shapefile_rs_ray.state.lineage import read_manifests, write_partitioned

    shas = []
    for run in range(2):
        out = str(tmp_path / f"run{run}")
        ds = read_webpages(SF, with_html=False)
        write_partitioned(ds, out, partition_size=1024).materialize()
        shas.append({m["part"]: m["text_sha256"] for m in read_manifests(out)})
    assert shas[0] == shas[1]
    assert len(shas[0]) == 10  # 10000 pages / 1024-key partitions


def test_resume_skips_completed_and_recovers_missing(ray_session, tmp_path):
    from shapefile_rs_ray.sources.webpages import read_webpages
    from shapefile_rs_ray.state.lineage import (completed_partitions,
                                                read_manifests,
                                                write_partitioned)
    out = str(tmp_path / "resume")
    ds = read_webpages(SF, with_html=False)
    write_partitioned(ds, out, partition_size=1024).materialize()
    before = {m["part"]: m["text_sha256"] for m in read_manifests(out)}
    # simulate a crash that lost one partition's completion marker
    victim = sorted(before)[3]
    os.remove(os.path.join(out, "_done", f"part={victim:06d}.json"))
    assert completed_partitions(out) == set(before) - {victim}
    ds2 = read_webpages(SF, with_html=False)
    manifest = write_partitioned(ds2, out, partition_size=1024).to_pandas()
    assert len(manifest) == 1 and not manifest["skipped"].iloc[0]
    after = {m["part"]: m["text_sha256"] for m in read_manifests(out)}
    assert after == before  # identical to the uninterrupted run


def test_text_fidelity_through_checkpoint(ray_session, tmp_path):
    """Read back the checkpoint and compare per-url sha256 against direct
    synthesis (sha-compare form of the BASELINE.md fidelity gate)."""
    import hashlib
    import ray
    from shapefile_rs_ray.sources.webpages import read_webpages, webpages_table
    from shapefile_rs_ray.state.lineage import write_partitioned

    out = str(tmp_path / "fid")
    write_partitioned(read_webpages(SF, with_html=False), out).materialize()
    back = (ray.data.read_parquet(out, file_extensions=["parquet"])
            .select_columns(["url", "text"]).to_pandas())
    direct = webpages_table(SF)
    exp = {u: hashlib.sha256(t.encode()).hexdigest()
           for u, t in zip(direct["url"].to_pylist(),
                           direct["text"].to_pylist())}
    got = {u: hashlib.sha256(t.encode()).hexdigest()
           for u, t in zip(back.url, back.text)}
    assert got == exp


def test_documents_read_drops_pandas_metadata(ray_session, tmp_path):
    """A pandas-written documents.parquet carries a `pandas` schema entry,
    which makes block schemas unhashable; every read of it leaves the
    metadata behind and keeps the rows."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray
    from shapefile_rs_ray.sources.webpages import (pages_in_range,
                                                   read_documents,
                                                   read_webpages,
                                                   webpages_table)
    pd.DataFrame({"doc_id": [3, 1, 2], "text": ["a b", "c", "d e f"],
                  "lang": ["en", "fr", "de"], "source": ["x", "y", "z"]}
                 ).to_parquet(tmp_path / "documents.parquet")
    assert b"pandas" in pq.read_schema(tmp_path / "documents.parquet").metadata
    sf = str(tmp_path)
    for ds in (read_documents(sf), read_documents(sf, columns=["text"]),
               read_webpages(sf)):
        blocks = ray.get(ds.to_arrow_refs())
        assert blocks and all(b.schema.metadata is None for b in blocks)
    pages = pages_in_range(sf, 0, 1 << 14)
    assert pages.schema.metadata is None
    assert sorted(pages["page_id"].to_pylist()) == sorted(
        webpages_table(sf)["page_id"].to_pylist())


def test_shapefile_dataset_roundtrip_via_ray(ray_session, tmp_path):
    """Distributed read -> partitioned shapefile sink -> re-read: identical
    geometry (the Ray-native analogue of read_write_read_test!)."""
    import glob
    from shapefile_rs_ray.geometry import shp
    from shapefile_rs_ray.sources.shapefile import (read_shapefile_dataset,
                                                    write_shapefile_dataset)
    src = LAKES
    out = str(tmp_path / "lakes")
    ds = read_shapefile_dataset(src, records_per_task=300)
    write_shapefile_dataset(ds, out, concurrency=2)
    _, orig = shp.read_shp(src)
    xs = []
    for f in sorted(glob.glob(f"{out}/*.shp")):
        _, part = shp.read_shp(f)
        xs.append(part.x)
    assert np.array_equal(np.concatenate(xs), orig.x)


def test_flagship_deterministic_across_runs(ray_session):
    """FIXTURES.md B4: two full runs produce identical sorted outputs."""
    from shapefile_rs_ray.pipelines.flagship import flagship
    outs = []
    for _ in range(2):
        df = flagship(SF).to_pandas()
        outs.append(df.sort_values(["page_id", "geom_id", "poly_idx"])
                    .reset_index(drop=True))
    assert outs[0].equals(outs[1])


def test_cli_decode_smoke():
    """The CLI owns its own Ray session — run it in a subprocess."""
    import json
    import subprocess
    import sys
    out = subprocess.run(
        [sys.executable, "-m", "shapefile_rs_ray.cli", "--num-cpus", "2",
         "decode", f"{FIXTURE_DIR}/polygon_hole.shp"],
        capture_output=True, text=True, cwd=REPO, timeout=120)
    assert out.returncode == 0, out.stderr[-500:]
    first = json.loads(out.stdout.strip().splitlines()[0])
    assert first["records"] == 1


def test_split_read_with_attrs_matches_whole_file(ray_session):
    """Split-planned ReadTasks (shx byte-range + dbf record-range reads)
    must reassemble to exactly the whole-file read, attrs included, with
    the sniffed .cpg encoding."""
    from shapefile_rs_ray.sources.shapefile import (read_shapefile_dataset,
                                                    read_shapefile_table)
    src = f"{FIXTURE_DIR}/file_cp936.shp"
    whole = read_shapefile_table(src)
    ds = read_shapefile_dataset(src, records_per_task=1)   # max splitting
    got = (ds.to_pandas().sort_values("geom_id").reset_index(drop=True))
    exp = whole.to_pandas().sort_values("geom_id").reset_index(drop=True)
    assert got["geom_id"].tolist() == exp["geom_id"].tolist()
    assert [a["TEST"] for a in got["attrs"]] == \
           [a["TEST"] for a in exp["attrs"]]
    assert got["xy"].map(str).tolist() == exp["xy"].map(str).tolist()
