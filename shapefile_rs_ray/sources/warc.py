"""WARC/WET ingestion source — the container format Common-Crawl data
actually arrives in (ISO 28500 WARC 1.0; WET = extracted-text conversion
records). The north-star pipeline reads 10^12 documents from ~64k
`*.warc.wet.gz` shards: each shard is a concatenation of independently
gzip-compressed members (one WARC record per member — the property that
makes byte-range access and per-record seeking possible on CC data), and
each record is `WARC/1.0\\r\\n` + header lines + blank line + payload.

Ray-Data-first shape: `read_wet(dir)` is `ray.data.read_binary_files`
(one shard file = one block = one parse task — at CC scale thousands of
shards parallelize the read naturally, no shuffle) followed by a
map_batches parse stage that splits gzip members with stdlib zlib and
slices payloads by Content-Length. The writer side (`write_wet_shards`)
is a groupby(shard).map_groups stage — every shard is built by the
worker holding its rows, nothing is materialized driver-side.

Parity: a WET roundtrip (synthesize pages -> write shards -> parse back)
must reproduce (url, warc_ts, text) BYTE-IDENTICALLY — the input_hint's
per-row invariant — so the gate oracle for `warc_extract` is the shared
synth SQL itself, not a golden file.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..raydata import ray_data
from ..stages.combine import by_partition

_CRLF = b"\r\n"


def _warc_date(ts_us: int) -> bytes:
    """Microseconds-since-epoch -> WARC-Date (ISO 8601, second
    resolution — the WET convention). Sub-second input REFUSES loudly:
    second-resolution WARC-Date cannot represent it, and silently
    flooring would break the writer's byte-identical roundtrip
    contract."""
    if int(ts_us) % 1_000_000:
        raise ValueError(
            "WET writer: warc_ts has sub-second precision; WARC-Date is "
            "second-resolution — truncate explicitly before writing")
    d = np.datetime64(int(ts_us), "us").astype("datetime64[s]")
    return (str(d) + "Z").encode("ascii")


def wet_record(url: bytes, ts_us: int, payload: bytes,
               rec_type: bytes = b"conversion") -> bytes:
    """One WARC 1.0 record (headers + blank line + payload + 2 blank
    lines, per the spec's record separator)."""
    head = [
        b"WARC/1.0",
        b"WARC-Type: " + rec_type,
        b"WARC-Target-URI: " + url,
        b"WARC-Date: " + _warc_date(ts_us),
        b"Content-Type: text/plain",
        b"Content-Length: " + str(len(payload)).encode("ascii"),
    ]
    return (_CRLF.join(head) + _CRLF + _CRLF + payload
            + _CRLF + _CRLF)


def _warcinfo_record(shard: int) -> bytes:
    body = (b"software: ray-shapegrid\r\nformat: WARC File Format 1.0\r\n"
            b"shard: " + str(shard).encode("ascii") + _CRLF)
    head = [
        b"WARC/1.0",
        b"WARC-Type: warcinfo",
        b"Content-Type: application/warc-fields",
        b"Content-Length: " + str(len(body)).encode("ascii"),
    ]
    return _CRLF.join(head) + _CRLF + _CRLF + body + _CRLF + _CRLF


def _gzip_member(record: bytes) -> bytes:
    co = zlib.compressobj(6, zlib.DEFLATED, 31)   # wbits 31 = gzip wrap
    return co.compress(record) + co.flush()


def build_wet_shard(shard: int, urls, ts_us, texts) -> bytes:
    """Shard bytes: a leading warcinfo member then one gzip member per
    conversion record (the CC layout — members are independently
    decompressible)."""
    parts = [_gzip_member(_warcinfo_record(shard))]
    for u, t, x in zip(urls, ts_us, texts):
        parts.append(_gzip_member(wet_record(u, t, x)))
    return b"".join(parts)


def write_wet_shards(pages, out_dir: str, n_shards: int = 16,
                     id_col: str = "page_id") -> int:
    """Distributed WET export of a page Dataset: rows hash to shards by
    page_id (`by_partition` with `parts=n_shards`, so shard = id %
    n_shards), each shard is assembled and written by ONE call
    (rows lexsorted by id inside the shard so shard bytes are
    deterministic at any parallelism). Returns the shard count.

    Scale: shard count should track input size (CC uses ~64k shards per
    crawl); each task holds one shard's text in memory — size shards to
    ~1 GB like CC does, never bigger."""
    os.makedirs(out_dir, exist_ok=True)

    def write_shard(part: pa.Table) -> pa.Table:
        shard = int(part["__p"][0].as_py())
        order = np.argsort(np.asarray(part[id_col], np.int64),
                           kind="stable")
        urls = pc.take(part["url"], pa.array(order)).to_pylist()
        ts = pc.take(part["warc_ts"], pa.array(order))
        ts_us = np.asarray(ts.cast(pa.int64()), np.int64)
        texts = pc.take(part["text"], pa.array(order)).to_pylist()
        blob = build_wet_shard(shard, (u.encode() for u in urls), ts_us,
                               (t.encode() for t in texts))
        tmp = os.path.join(out_dir, f".shard-{shard:05d}.tmp")
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, os.path.join(out_dir,
                                     f"shard-{shard:05d}.warc.wet.gz"))
        return pa.table({"shard": pa.array([shard], pa.int64()),
                         "records": pa.array([len(urls)], pa.int64())})

    return int(by_partition(pages, id_col, write_shard,
                            parts=n_shards).count())


def split_gzip_members(blob: bytes) -> list[bytes]:
    """Decompress a multi-member gzip stream member by member (stdlib
    zlib, wbits 31; `unused_data` hands back the next member's bytes)."""
    out = []
    while blob:
        d = zlib.decompressobj(wbits=31)
        out.append(d.decompress(blob))
        if not d.eof:
            raise ValueError("truncated gzip member")
        blob = d.unused_data
    return out


def _iter_records(blob: bytes):
    """Yield raw record bytes from a WET shard. Gzip shards (magic
    1f 8b) split per member; plain streams walk sequentially by
    Content-Length — the standard WARC stream parse, which is also what
    a pre-inflated shard (e.g. a filesystem layer that decompressed by
    extension) requires, since member boundaries are gone."""
    if blob[:2] == b"\x1f\x8b":
        yield from split_gzip_members(blob)
        return
    pos = 0
    while pos < len(blob):
        sep = blob.find(b"\r\n\r\n", pos)
        if sep < 0 or not blob.startswith(b"WARC/1.0", pos):
            raise ValueError("malformed WARC record")
        head = blob[pos:sep]
        length = None
        for line in head.split(_CRLF)[1:]:
            k, _, v = line.partition(b": ")
            if k == b"Content-Length":
                length = int(v)
        if length is None:
            raise ValueError("record without Content-Length")
        end = sep + 4 + length
        yield blob[pos:end]
        pos = end + 4                      # skip the \r\n\r\n separator


def parse_wet_records(blob: bytes):
    """Parse every conversion record of a WET shard -> list of
    (url: bytes, ts_us: int, payload: bytes). warcinfo and other
    non-conversion records are skipped, as CC consumers do."""
    rows = []
    for member in _iter_records(blob):
        sep = member.find(b"\r\n\r\n")
        if sep < 0 or not member.startswith(b"WARC/1.0"):
            raise ValueError("malformed WARC record")
        headers = {}
        for line in member[:sep].split(_CRLF)[1:]:
            k, _, v = line.partition(b": ")
            headers[k] = v
        if headers.get(b"WARC-Type") != b"conversion":
            continue
        length = int(headers[b"Content-Length"])
        payload = member[sep + 4:sep + 4 + length]
        if len(payload) != length:
            raise ValueError("payload shorter than Content-Length")
        date = headers[b"WARC-Date"].decode("ascii")
        ts_us = int(np.datetime64(date.rstrip("Z"), "us")
                    .astype(np.int64))
        rows.append((headers[b"WARC-Target-URI"], ts_us, payload))
    return rows


class WetParseStage:
    """Actor-pool parse of WET shard files -> (url, warc_ts, text) rows.
    Input batches come from `ray.data.read_binary_files` (columns
    `bytes`, `path`); each shard file decodes independently."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, ts, texts = [], [], []
        for blob in batch["bytes"].to_pylist():
            for u, t, x in parse_wet_records(blob):
                urls.append(u.decode("utf-8"))
                ts.append(t)
                texts.append(x.decode("utf-8"))
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
            "text": pa.array(texts, pa.string()),
        })


def read_wet(dir_or_paths):
    """WET directory/paths -> Dataset of (url, warc_ts, text). One file
    = one read block = one parse task; at CC scale (thousands of
    shards) this parallelizes without any shuffle or driver state."""
    # compression=None: hand the RAW gzip bytes to the parse stage — the
    # per-member split is the format's point (Arrow's extension-sniffing
    # decompression would erase member boundaries)
    ds = ray_data().read_binary_files(
        dir_or_paths, include_paths=True, file_extensions=["gz"],
        arrow_open_stream_args={"compression": None})
    # TASK-based: the parse is stateless, and an autoscaling actor pool
    # sticks at its minimum (the repo's measured rule) — tasks give one
    # parse task per shard file with no pool to warm up
    return ds.map_batches(WetParseStage(), batch_format="pyarrow")
