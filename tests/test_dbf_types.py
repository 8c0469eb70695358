"""dbf field-type completeness (M/T/Y via .dbt + binary layouts), range
reads, encoding-aware write + .cpg emission (reference: the dbase-crate
re-export src/lib.rs:60 and TableWriterBuilder encoding plumbing
src/writer.rs:352-372; GBK golden tests/read_tests.rs:832-845)."""

import datetime as dt
import struct

import numpy as np
import pyarrow as pa
import pytest

from shapefile_rs_ray.geometry import dbf as dbf_mod
from shapefile_rs_ray.pipelines.oracles import FIXTURE_DIR as D


def _make_dbf(fields, rows):
    """fields: [(name, type, length, decimals)]; rows: list of bytes-tuples
    already encoded to each field's fixed width."""
    record_size = 1 + sum(f[2] for f in fields)
    header_size = 32 + 32 * len(fields) + 1
    out = bytearray()
    out += struct.pack("<BBBB", 0x03, 24, 1, 1)
    out += struct.pack("<IHH", len(rows), header_size, record_size)
    out += b"\x00" * 20
    for name, ftype, length, decimals in fields:
        nb = name.encode()[:11]
        out += nb + b"\x00" * (11 - len(nb))
        out += ftype.encode() + b"\x00" * 4
        out += struct.pack("<BB", length, decimals)
        out += b"\x00" * 14
    out += b"\x0d"
    for row in rows:
        out += b" "
        for (name, ftype, length, _), cell in zip(fields, row):
            assert len(cell) == length, (name, cell)
            out += cell
    out += b"\x1a"
    return bytes(out)


def test_datetime_field():
    """'T' = LE i32 julian day + LE i32 ms-of-day."""
    jdn_20240315 = dt.date(2024, 3, 15).toordinal() + 1721425
    ms = (13 * 3600 + 45 * 60 + 30) * 1000 + 250
    buf = _make_dbf(
        [("ts", "T", 8, 0)],
        [(struct.pack("<ii", jdn_20240315, ms),),
         (struct.pack("<ii", 0, 0),)])          # zero day -> null
    t = dbf_mod.read_dbf_bytes(buf)
    assert t["ts"].type == pa.timestamp("ms")
    assert t["ts"][0].as_py() == dt.datetime(2024, 3, 15, 13, 45, 30, 250000)
    assert t["ts"][1].as_py() is None


def test_currency_field():
    buf = _make_dbf(
        [("amt", "Y", 8, 4)],
        [(struct.pack("<q", 1234567),), (struct.pack("<q", -45000),)])
    t = dbf_mod.read_dbf_bytes(buf)
    assert t["amt"].to_pylist() == [123.4567, -4.5]


def test_memo_field_with_and_without_dbt(tmp_path):
    memo = bytearray(b"\x00" * 512)              # block 0 = header
    memo += b"hello memo text\x1a\x1a" + b"\x00" * (512 - 17)
    memo += "第二块".encode("gbk") + b"\x1a" + b"\x00" * 400
    buf = _make_dbf(
        [("note", "M", 10, 0)],
        [(b"         1",), (b"         2",), (b"          ",)])
    t = dbf_mod.read_dbf_bytes(buf, encoding="gbk", memo=bytes(memo))
    assert t["note"].to_pylist() == ["hello memo text", "第二块", None]
    # without the .dbt, memo columns surface as nulls (not garbage digits)
    t2 = dbf_mod.read_dbf_bytes(buf)
    assert t2["note"].to_pylist() == [None, None, None]
    # sibling sniffing through read_dbf
    p = tmp_path / "m.dbf"
    p.write_bytes(buf)
    (tmp_path / "m.dbt").write_bytes(bytes(memo))
    t3 = dbf_mod.read_dbf(str(p), encoding="gbk")
    assert t3["note"].to_pylist() == ["hello memo text", "第二块", None]


def test_read_dbf_range(tmp_path):
    tbl = pa.table({"name": pa.array([f"row{i}" for i in range(10)]),
                    "v": pa.array(list(range(10)), pa.int64())})
    p = tmp_path / "r.dbf"
    p.write_bytes(dbf_mod.write_dbf(tbl))
    part = dbf_mod.read_dbf_range(str(p), 3, 4)
    assert part["name"].to_pylist() == ["row3", "row4", "row5", "row6"]
    assert part["v"].to_pylist() == [3, 4, 5, 6]
    # clamped at the end
    tail = dbf_mod.read_dbf_range(str(p), 8, 100)
    assert tail["v"].to_pylist() == [8, 9]


def test_gbk_write_read_roundtrip():
    """Encoding-aware write: GBK bytes on disk, identical strings back."""
    tbl = pa.table({"city": pa.array(["北京", "上海", "广州"])})
    buf = dbf_mod.write_dbf(tbl, encoding="gbk")
    back = dbf_mod.read_dbf_bytes(buf, encoding="gbk")
    assert back["city"].to_pylist() == ["北京", "上海", "广州"]
    # and the raw bytes really are GBK, not utf-8
    assert "北京".encode("gbk") in buf
    assert "北京".encode("utf-8") not in buf


def test_partition_writer_emits_cpg(ray_session, tmp_path):
    """The sink writes a .cpg per triple and a re-read sniffs it (write side
    of the reference's encoding round-trip)."""
    import ray
    from shapefile_rs_ray.sources.shapefile import (read_shapefile_table,
                                                    write_shapefile_dataset)
    tbl = read_shapefile_table(f"{D}/file_cp936.shp")
    out = tmp_path / "sink"
    ds = ray.data.from_arrow(tbl)
    write_shapefile_dataset(ds, str(out), encoding="gbk")
    cpgs = sorted(out.glob("*.cpg"))
    assert cpgs, "no .cpg emitted"
    assert cpgs[0].read_text() == "CP936"
    shps = sorted(out.glob("*.shp"))
    back = read_shapefile_table(str(shps[0]))
    orig_name = tbl["attrs"].combine_chunks().field("TEST").to_pylist()
    got_name = back["attrs"].combine_chunks().field("TEST").to_pylist()
    assert got_name == orig_name


def test_unknown_encoding_rejected(tmp_path):
    from shapefile_rs_ray.sources.shapefile import ShapefilePartitionWriter
    with pytest.raises(ValueError):
        ShapefilePartitionWriter(str(tmp_path), encoding="koi8-r")


def test_timestamp_write_read_roundtrip():
    """Arrow timestamp columns write as binary 'T' fields (not stringified)
    and round-trip exactly at ms precision; nulls survive."""
    ts = [dt.datetime(2024, 3, 15, 13, 45, 30, 250000),
          None,
          dt.datetime(1999, 12, 31, 23, 59, 59, 999000)]
    tbl = pa.table({"when": pa.array(ts, pa.timestamp("ms"))})
    buf = dbf_mod.write_dbf(tbl)
    back = dbf_mod.read_dbf_bytes(buf)
    assert back["when"].type == pa.timestamp("ms")
    assert back["when"].to_pylist() == ts
