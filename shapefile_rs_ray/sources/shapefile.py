"""Ray Data source/sink for ESRI shapefiles.

Read side: a custom `ray.data.Datasource` whose split planning comes from the
.shx index (the reference's ShapeIndex, src/reader.rs:86-100) — the driver
parses the tiny .shx once, plans N read tasks over contiguous record ranges,
and each task decodes its range into one Arrow block of the columnar geometry
schema (schema.py), zipping .dbf attribute rows 1:1 by record position
(ShapeRecordIterator semantics, src/reader.rs:164-193). Without a .shx the
file is one task (sequential walk, like ShapeIterator without index,
src/reader.rs:127-162).

Write side: each Dataset partition becomes one complete .shp/.shx/.dbf triple
(`part-NNNNN.shp` ...) plus a JSON manifest row — the scalable analogue of
Writer::write_shape_and_record + finalize (src/writer.rs:311-334,190-228),
with per-partition lineage for checkpoint/resume.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, Optional

import numpy as np
import pyarrow as pa

from ..geometry import dbf as dbf_mod
from ..geometry import shp as shp_mod
from ..geometry.schema import arrow_to_shape_table, shape_table_to_arrow
from ..geometry.shp_write import write_shp
from ..raydata import ray_data


class MissingDbf(shp_mod.ShapefileError):
    """Reader::from_path requires the .dbf (src/reader.rs:649-692)."""


def _siblings(path: str) -> tuple[str, Optional[str], Optional[str]]:
    base = os.path.splitext(path)[0]
    shx = base + ".shx"
    dbf = base + ".dbf"
    return (path, shx if os.path.exists(shx) else None,
            dbf if os.path.exists(dbf) else None)


def read_shapefile_table(path: str, with_attrs: bool = True,
                         require_dbf: bool = False,
                         expect_type: int | None = None) -> pa.Table:
    """Single-process read of a whole shapefile into one Arrow table.

    The driver-side path for small broadcast sides (polygon fixtures); the
    distributed path is `read_shapefile_dataset`. `expect_type` mirrors the
    reference's typed `read_as` one-liners (src/reader.rs:695-746): a file
    of a different shape type raises MismatchShapeType
    (Error::MismatchShapeType, src/record/mod.rs:55-68).
    """
    shp_path, shx_path, dbf_path = _siblings(path)
    if require_dbf and dbf_path is None:
        raise MissingDbf(path)
    header, st = shp_mod.read_shp(shp_path)
    if expect_type is not None and header.shape_type != expect_type:
        raise shp_mod.MismatchShapeType(
            f"requested type {expect_type}, file is {header.shape_type}")
    attrs = None
    if with_attrs and dbf_path is not None:
        enc = dbf_mod.sniff_cpg(shp_path) or "utf-8"
        attrs = dbf_mod.read_dbf(dbf_path, enc)
    return shape_table_to_arrow(st, attrs)


def _plan_ranges(n_records: int, target_records_per_task: int) -> list[tuple[int, int]]:
    if n_records == 0:
        return []
    step = max(1, target_records_per_task)
    return [(s, min(s + step, n_records)) for s in range(0, n_records, step)]


def read_shapefile_dataset(path: str, *, with_attrs: bool = True,
                           records_per_task: int = 4096,
                           override_num_blocks: Optional[int] = None):
    """Distributed shapefile read -> ray.data.Dataset of geometry rows.

    Split planning (S2 in SURVEY.md §2.1): the .shx gives exact record
    offsets, so tasks decode disjoint record ranges independently; the .dbf
    is fixed-width so each task slices its own attribute rows by position.
    """
    from ray.data.block import BlockMetadata
    from ray.data.datasource import Datasource, ReadTask

    shp_path, shx_path, dbf_path = _siblings(path)
    with open(shp_path, "rb") as f:
        head = f.read(shp_mod.HEADER_SIZE)
    header = shp_mod.read_header(head)
    shx = None
    if shx_path is not None:
        with open(shx_path, "rb") as f:
            shx = shp_mod.read_shx(f.read())
        n_records = len(shx)
    else:
        n_records = None  # unknown without a full walk

    if n_records is None:
        ranges = [(0, None)]
    else:
        per_task = records_per_task
        if override_num_blocks:
            per_task = max(1, -(-n_records // override_num_blocks))
        ranges = _plan_ranges(n_records, per_task)

    encoding = dbf_mod.sniff_cpg(shp_path) or "utf-8"

    def make_read_fn(start: int, end: Optional[int]):
        def read_fn() -> Iterator[pa.Table]:
            shx_arr = None
            if shx_path is not None:
                with open(shx_path, "rb") as f:
                    shx_arr = shp_mod.read_shx(f.read())
            if shx_arr is not None and end is not None and end > start:
                # seek+read ONLY this task's record byte range (plus the
                # 100-byte header): N tasks = one file's worth of total IO,
                # not N full-file reads. The window is [min offset, max
                # record end) over the slice — NOT first..last — because
                # padded/non-contiguous shx layouts (which decode_records
                # supports, src/reader.rs:134-145) may order records
                # non-monotonically in the file.
                ent = shx_arr[start:end]
                first_off = int(ent[:, 0].min()) * 2
                last_end = int((ent[:, 0] * 2 + 8 + ent[:, 1] * 2).max())
                with open(shp_path, "rb") as f:
                    hdr = shp_mod.read_header(f.read(shp_mod.HEADER_SIZE))
                    f.seek(first_off)
                    buf = f.read(last_end - first_off)
                st = shp_mod.decode_records(buf, hdr, shx=shx_arr,
                                            start_record=start,
                                            end_record=end,
                                            buf_base=first_off)
            else:
                with open(shp_path, "rb") as f:
                    buf = f.read()
                hdr = shp_mod.read_header(buf)
                st = shp_mod.decode_records(buf, hdr, shx=shx_arr,
                                            start_record=start,
                                            end_record=end)
            attrs = None
            if with_attrs and dbf_path is not None:
                attrs = dbf_mod.read_dbf_range(dbf_path, start,
                                               st.num_shapes, encoding)
            yield shape_table_to_arrow(st, attrs)
        return read_fn

    class ShapefileDatasource(Datasource):
        def estimate_inmemory_data_size(self) -> Optional[int]:
            return os.path.getsize(shp_path) * 2

        def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
            tasks = []
            for (s, e) in ranges:
                meta = BlockMetadata(
                    num_rows=(e - s) if e is not None else None,
                    size_bytes=None, input_files=[shp_path], exec_stats=None)
                tasks.append(ReadTask(make_read_fn(s, e), meta))
            return tasks

    return ray_data().read_datasource(ShapefileDatasource())


class ShapefilePartitionWriter:
    """map_batches callable: writes each batch as one .shp/.shx/.dbf triple
    under `out_dir` and emits a one-row manifest (W1/W2/W5 in SURVEY.md §2.5,
    scalable analogue of src/writer.rs:97-228).

    Files are written to a temp name then renamed, so interrupted runs never
    leave half-written partitions and a resume can trust the manifest. The
    stem is content-derived — (first geom_id, crc32 of the batch's geom_id
    array) — so two batches can only share a name when they hold the same
    record set (idempotent overwrite), never by virtue of a shared first id
    after a shuffle or a duplicate-id corpus.

    `encoding` drives the .dbf text encode AND a `.cpg` sidecar per triple
    (the reference's TableWriterBuilder encoding plumbing,
    src/writer.rs:352-372), so a round-trip re-read sniffs the right codec.
    """

    def __init__(self, out_dir: str, encoding: str = "utf-8"):
        self.out_dir = out_dir
        self.encoding = encoding
        self.cpg_label = dbf_mod.CPG_LABELS.get(encoding)
        if self.cpg_label is None:
            raise ValueError(
                f"no .cpg label known for encoding {encoding!r}; "
                f"supported: {sorted(dbf_mod.CPG_LABELS)}")
        os.makedirs(out_dir, exist_ok=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import zlib
        st = arrow_to_shape_table(batch)
        shp_b, shx_b = write_shp(st)
        first = int(st.geom_id[0]) if st.num_shapes else 0
        crc = zlib.crc32(np.ascontiguousarray(st.geom_id).tobytes())
        stem = f"part-{first:08d}-{crc:08x}"
        paths = {}
        for ext, data in (("shp", shp_b), ("shx", shx_b)):
            p = os.path.join(self.out_dir, f"{stem}.{ext}")
            with open(p + ".tmp", "wb") as f:
                f.write(data)
            os.replace(p + ".tmp", p)
            paths[ext] = p
        if "attrs" in batch.column_names:
            sa = batch["attrs"].combine_chunks()
            at = pa.table({f.name: sa.field(f.name)
                           for f in sa.type})
            for ext, data in (
                    ("dbf", dbf_mod.write_dbf(at, encoding=self.encoding)),
                    ("cpg", self.cpg_label.encode("ascii"))):
                p = os.path.join(self.out_dir, f"{stem}.{ext}")
                with open(p + ".tmp", "wb") as f:
                    f.write(data)
                os.replace(p + ".tmp", p)
                paths[ext] = p
        manifest = {"stem": stem, "rows": st.num_shapes,
                    "first_geom_id": first, "files": paths}
        mp = os.path.join(self.out_dir, f"{stem}.manifest.json")
        with open(mp + ".tmp", "w") as f:
            json.dump(manifest, f)
        os.replace(mp + ".tmp", mp)
        return pa.table({"stem": pa.array([stem]),
                         "rows": pa.array([st.num_shapes], pa.int64())})


def write_shapefile_dataset(ds, out_dir: str, *, encoding: str = "utf-8",
                            concurrency: int | None = None):
    """Write a geometry Dataset as partitioned shapefile triples; returns the
    manifest as a small materialized Dataset."""
    return ds.map_batches(
        ShapefilePartitionWriter(out_dir, encoding=encoding),
        batch_format="pyarrow", batch_size=None,
        concurrency=concurrency).materialize()


def shape_count(path: str) -> int:
    """Record count from the .shx alone (free at plan time — the reference's
    Reader::shape_count via index length, src/reader.rs:412-495)."""
    shp_path, shx_path, _ = _siblings(path)
    if shx_path is not None:
        with open(shx_path, "rb") as f:
            return len(shp_mod.read_shx(f.read()))
    header, st = shp_mod.read_shp(shp_path)
    return st.num_shapes


def read_nth_shape(path: str, n: int, with_attrs: bool = True) -> pa.Table:
    """Random access to record n via the .shx offsets (the reference's
    read_nth_shape_as / Reader::seek, src/reader.rs:412-495): only that
    record's byte range is decoded."""
    shp_path, shx_path, dbf_path = _siblings(path)
    with open(shp_path, "rb") as f:
        buf = f.read()
    header = shp_mod.read_header(buf)
    shx = None
    if shx_path is not None:
        with open(shx_path, "rb") as f:
            shx = shp_mod.read_shx(f.read())
    st = shp_mod.decode_records(buf, header, shx=shx,
                                start_record=n, end_record=n + 1)
    attrs = None
    if with_attrs and dbf_path is not None:
        enc = dbf_mod.sniff_cpg(shp_path) or "utf-8"
        attrs = dbf_mod.read_dbf(dbf_path, enc).slice(n, 1)
    return shape_table_to_arrow(st, attrs)


def geometry_summary(batch: pa.Table) -> pa.Table:
    """Per-record (geom_id, shape_type, n_parts, bbox) summary of a geometry
    table — the decode_lakes gate projection, shared by the Ray query and
    the single-node golden oracle artifact so the driver's hash compare
    covers the datasource split/assembly path end-to-end."""
    import pyarrow.compute as pc
    bbox = batch["bbox"].combine_chunks()
    return pa.table({
        "geom_id": batch["geom_id"],
        "shape_type": batch["shape_type"],
        "n_parts": pc.cast(pc.list_value_length(batch["xy"]), pa.int64()),
        "xmin": bbox.field("xmin"), "ymin": bbox.field("ymin"),
        "xmax": bbox.field("xmax"), "ymax": bbox.field("ymax"),
    })
