"""Checkpoint/resume with per-partition lineage manifests.

Output layout (the "resumable output" contract of BASELINE.md):

    out_dir/
      part=000123/data.parquet        # one directory per deterministic key range
      part=000123/manifest.json       # {rows, key range, text_sha256, status}
      _done/part=000123.json          # hard-linked manifest marking completion

Partitions are keyed by `key_col // PARTITION_SIZE` — a pure function of the
data, NOT of block boundaries — so a re-run assigns identical rows to
identical partitions regardless of execution order, and a resume can skip
completed partitions by key range alone. The one `PARTITION_SIZE` constant
is the default of the planner, the filter and the writer alike, so they
cannot disagree on the partition width.

Two writers share `PartitionWriter`:

- The flagship (`pipelines/flagship.write_lineage`) writes from a
  partition-aligned page source, with no exchange. `page_id = doc_id ×
  repl + r`, so the driver reads `doc_id` alone and
  `pending_partitions` gives every partition that holds a page and is not
  completed; one unit per partition is one plain Ray task
  (`stages/broadcast.map_units`), which synthesizes the unit's pages,
  joins them and writes them (`write_rows`). The chain runs inside one
  call, not as a chain of Ray Data maps: Ray Data cuts a fused map's
  output into blocks of at most `target_max_block_size`, and a partition
  that reached the writer as two blocks would lose the second to the done
  marker. A partition none of whose pages joins is marked done with
  `rows: 0` and no data file (`PartitionWriter.mark_empty`), so a
  resume plans it no more. A full resume plans no unit and reads
  nothing. At Common-Crawl scale the driver's read is the row-group statistics
  (min/max `doc_id`) of the input files, and a unit is a file or row
  group range, not a sliced doc list.
- `write_partitioned` writes any Dataset: `drop_completed` filters out
  the rows of completed partitions, the rows left are materialized, and
  one `stages/combine.by_partition` exchange, whose callable key gives
  the partition id as it is, hands each partition to the writer. When no
  row is left (an empty input, or a full resume) it returns a typed empty
  manifest and makes no exchange: the exchange would write nothing, and
  its result would carry no manifest schema.

Each `data.parquet` keeps the partition id as its int64 tag column `__p`
on both paths, so their bytes are the same. Writes go to a temp file then
`os.replace` (atomic on POSIX), so a killed run never leaves a
half-written partition that passes the manifest check.

The per-partition `text_sha256` chains the lineage invariant (byte-identical
extracted text per url, BASELINE.json input_hint): it hashes (url, text)
pairs in key order, so any stage that corrupts or reorders text changes the
manifest and the resume test fails loudly.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..raydata import ray_data
from ..stages.combine import by_partition

PARTITION_SIZE = 1 << 14
MANIFEST_SCHEMA = pa.schema([("part", pa.int64()), ("rows", pa.int64()),
                             ("skipped", pa.bool_())])


def partition_key(ids: np.ndarray, partition_size: int) -> np.ndarray:
    return np.asarray(ids, np.int64) // partition_size


def completed_partitions(out_dir: str) -> set[int]:
    done = set()
    d = os.path.join(out_dir, "_done")
    if os.path.isdir(d):
        for f in os.listdir(d):
            if f.startswith("part=") and f.endswith(".json"):
                done.add(int(f[5:-5]))
    return done


def pending_partitions(doc_ids, repl: int, out_dir: str,
                       partition_size: int = PARTITION_SIZE) -> np.ndarray:
    """The sorted partitions that hold a page of `doc_ids` (page_id =
    doc_id * repl + r, 0 <= r < repl) and are not completed in `out_dir`.
    Doc `d` spans partitions `[d·repl // S, (d·repl + repl - 1) // S]`."""
    ids = np.asarray(doc_ids, np.int64)
    first = ids * repl // partition_size
    n = (ids * repl + repl - 1) // partition_size - first + 1
    parts = np.repeat(first, n) + (np.arange(n.sum())
                                   - np.repeat(np.cumsum(n) - n, n))
    done = np.fromiter(completed_partitions(out_dir), np.int64)
    return np.setdiff1d(parts, done)


def drop_completed(ds, out_dir: str, *, key_col: str = "page_id",
                   partition_size: int = PARTITION_SIZE):
    """`ds` without the rows of partitions already completed in `out_dir`
    (one vectorized filter per batch); `ds` itself when none is."""
    done = list(completed_partitions(out_dir))
    if not done:
        return ds

    def keep_pending(batch: pa.Table) -> pa.Table:
        part = partition_key(batch[key_col], partition_size)
        return batch.filter(pa.array(~np.isin(part, done)))

    return ds.map_batches(keep_pending, batch_format="pyarrow")


def text_sha256(group: pa.Table, text_col: str,
                url_col: str | None) -> str:
    """sha256 of `url \\x00 text \\x01` over the rows in order: one digest
    over the values buffer of the per-row concatenation. A null text or url
    hashes as "", and so does every url when `url_col` is absent."""
    text = group[text_col].fill_null("")
    typ = text.type
    url = (group[url_col].fill_null("").cast(typ)
           if url_col and url_col in group.column_names
           else pa.scalar("", typ))
    rows = pc.binary_join_element_wise(url, pa.scalar("\x00", typ), text,
                                       pa.scalar("\x01", typ),
                                       pa.scalar("", typ))
    h = hashlib.sha256()
    for chunk in rows.chunks:
        if len(chunk):
            _, obuf, dbuf = chunk.buffers()
            offs = np.frombuffer(obuf, np.int64 if pa.types.is_large_string(
                chunk.type) else np.int32)
            h.update(memoryview(dbuf)[offs[chunk.offset]:
                                      offs[chunk.offset + len(chunk)]])
    return h.hexdigest()


def _manifest_row(part: int, rows: int, skipped: bool) -> pa.Table:
    return pa.table({"part": [part], "rows": [rows], "skipped": [skipped]},
                    schema=MANIFEST_SCHEMA)


class PartitionWriter:
    """`by_partition` fn: writes one partition directory atomically.

    Emits the manifest row. Safe to re-run: an existing completed partition
    is left untouched (idempotent writes under task retry)."""

    def __init__(self, out_dir: str, key_col: str = "page_id",
                 text_col: str | None = "text", url_col: str | None = "url",
                 partition_size: int = PARTITION_SIZE):
        self.out_dir = out_dir
        self.key_col = key_col
        self.text_col = text_col
        self.url_col = url_col
        self.partition_size = partition_size
        os.makedirs(os.path.join(out_dir, "_done"), exist_ok=True)

    def __call__(self, group: pa.Table) -> pa.Table:
        keys = np.asarray(group[self.key_col], np.int64)
        part = int(keys[0]) // self.partition_size
        pdir = os.path.join(self.out_dir, f"part={part:06d}")
        done_marker = os.path.join(self.out_dir, "_done",
                                   f"part={part:06d}.json")
        if os.path.exists(done_marker):
            return _manifest_row(part, group.num_rows, True)
        os.makedirs(pdir, exist_ok=True)
        order = np.argsort(keys, kind="stable")
        group = group.take(pa.array(order))

        text_sha = None
        if self.text_col and self.text_col in group.column_names:
            text_sha = text_sha256(group, self.text_col, self.url_col)

        t0 = time.monotonic()
        tmp = os.path.join(pdir, ".data.parquet.tmp")
        pq.write_table(group, tmp)
        os.replace(tmp, os.path.join(pdir, "data.parquet"))
        manifest = {
            "part": part, "rows": group.num_rows,
            "key_min": int(keys.min()), "key_max": int(keys.max()),
            "text_sha256": text_sha, "status": "done",
            # per-partition metrics (rows above, plus volume + timing;
            # read_manifests() aggregates these into the job report)
            "bytes": int(group.nbytes),
            "write_s": round(time.monotonic() - t0, 4),
        }
        _write_json(os.path.join(pdir, "manifest.json"), manifest)
        _write_json(done_marker, manifest)
        return _manifest_row(part, group.num_rows, False)

    def mark_empty(self, part: int) -> pa.Table:
        """Mark `part` done with no row: a `_done` marker with `rows: 0`
        and no data file, so a resume plans the partition no more and
        `read_partitions` skips it. Its `text_sha256` is that of no row."""
        done_marker = os.path.join(self.out_dir, "_done",
                                   f"part={part:06d}.json")
        if os.path.exists(done_marker):
            return _manifest_row(part, 0, True)
        _write_json(done_marker, {
            "part": part, "rows": 0, "key_min": None, "key_max": None,
            "text_sha256": hashlib.sha256().hexdigest(), "status": "done",
            "bytes": 0, "write_s": 0.0})
        return _manifest_row(part, 0, False)


def _write_json(path: str, obj: dict) -> None:
    """Write `obj` to `path` atomically (temp file, then `os.replace`)."""
    with open(path + ".tmp", "w") as f:
        json.dump(obj, f)
    os.replace(path + ".tmp", path)


def write_rows(rows: pa.Table, writer: PartitionWriter) -> pa.Table:
    """Write `rows`, which hold whole partitions, one `writer` call per
    partition, each with the int64 `__p` column that `by_partition` gives
    `write_partitioned`'s groups; returns their manifest rows."""
    parts = partition_key(rows[writer.key_col], writer.partition_size)
    out = [MANIFEST_SCHEMA.empty_table()]
    for p in np.unique(parts):
        group = rows.filter(pa.array(parts == p))
        out.append(writer(group.append_column(
            "__p", pa.array(np.full(group.num_rows, p), pa.int64()))))
    return pa.concat_tables(out)


def read_partitions(out_dir: str):
    """Lazy Dataset of every completed partition's rows, without `__p`;
    None when no completed partition holds a row (a `rows: 0` marker has
    no data file). One read task per file over the file list, and not
    `ray.data.read_parquet`: when it is called, that samples files in
    remote tasks (and, from 25 files on, fetches footers in half-CPU
    ones), which starts spare worker processes before anything is
    consumed."""
    paths = [os.path.join(out_dir, f"part={m['part']:06d}", "data.parquet")
             for m in read_manifests(out_dir) if m["rows"]]
    if not paths:
        return None

    def read(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([pq.ParquetFile(p).read().drop_columns("__p")
                                 for p in batch["path"].to_pylist()])

    return ray_data().from_items(
        [{"path": p} for p in paths], override_num_blocks=len(paths)
    ).map_batches(read, batch_format="pyarrow")


def write_partitioned(ds, out_dir: str, *, key_col: str = "page_id",
                      partition_size: int = PARTITION_SIZE,
                      text_col: str | None = "text",
                      url_col: str | None = "url", resume: bool = True):
    """Write `ds` as resumable keyed partitions; returns the manifest
    Dataset (part int64, rows int64, skipped bool). With resume=True, rows
    in completed partitions are dropped by `drop_completed` before the
    shuffle. The rows to write are materialized first: when there are
    none (an empty input, a full resume) the result is an empty manifest
    and nothing is touched on disk; otherwise it is one `by_partition` on
    the partition key."""
    if resume:
        ds = drop_completed(ds, out_dir, key_col=key_col,
                            partition_size=partition_size)
    ds = ds.materialize()
    if ds.count() == 0:
        return ray_data().from_arrow(MANIFEST_SCHEMA.empty_table())

    def part_of(batch: pa.Table) -> np.ndarray:
        return partition_key(batch[key_col], partition_size)

    writer = PartitionWriter(out_dir, key_col=key_col, text_col=text_col,
                             url_col=url_col, partition_size=partition_size)

    def write_group(group: pa.Table) -> pa.Table:
        return writer(group)

    return by_partition(ds, part_of, write_group)


def read_manifests(out_dir: str) -> list[dict]:
    out = []
    d = os.path.join(out_dir, "_done")
    if os.path.isdir(d):
        for f in sorted(os.listdir(d)):
            if f.endswith(".json"):
                with open(os.path.join(d, f)) as fh:
                    out.append(json.load(fh))
    return out


def job_metrics(out_dir: str) -> dict:
    """Aggregate the per-partition manifests into one job report:
    partitions, rows, bytes, write seconds, key coverage — the
    driver-side summary for a resumable run (cheap: reads only the
    _done marker files, never the data)."""
    ms = read_manifests(out_dir)
    return {
        "partitions": len(ms),
        "rows": sum(m.get("rows", 0) for m in ms),
        "bytes": sum(m.get("bytes", 0) for m in ms),
        "write_s": round(sum(m.get("write_s", 0.0) for m in ms), 4),
        "key_min": min((m["key_min"] for m in ms if m["rows"]),
                       default=None),
        "key_max": max((m["key_max"] for m in ms if m["rows"]),
                       default=None),
    }
