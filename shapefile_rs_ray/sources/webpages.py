"""Web-page table source (the BASELINE.json input_hint table).

`read_webpages(sf_dir)` returns a ray.data.Dataset with columns
(page_id, url, warc_ts, html, text, lang, lon, lat), synthesized
deterministically from the driver's `documents` parquet by the
bit-reproducible kernels in functions/synth.py (same rows the oracle SQL
produces). The synthesis runs inside map_batches — the documents parquet is
the only disk input and the expansion streams, so the page table is never
materialized driver-side. `pages_in_range(sf_dir, lo, hi)` is the same
synthesis for one page-id range inside one call: the partition-aligned
unit of the flagship's lineage write (`state/lineage.py`).

At 100 TB the same code path applies with the real Common-Crawl parquet as
input and the synthesis stage dropped: every downstream operator reads only
(page_id/url, text/lon/lat/...) columns it needs — `html` is dropped at the
first select unless a query touches it. Here `read_webpages(with_html=False)`
and `pages_in_range` do not synthesize it at all.
"""

from __future__ import annotations

import functools
import os

import pyarrow as pa

from ..functions import synth
from ..raydata import ray_data


DOC_COLS = ["doc_id", "text", "lang"]
MAX_BLOCK_ROWS = 32768   # pages a document block may expand to
MIN_BLOCKS = 16


def _doc_schema(path: str, columns=None) -> pa.Schema:
    """The file's schema, projected to `columns`, without its key-value
    metadata: a pandas-written file carries a `pandas` entry that pyarrow
    hashes as a dict, so every block schema read with it is unhashable
    (Ray's schema dedup then logs "Failed to hash the schemas")."""
    import pyarrow.parquet as pq
    schema = pq.read_schema(path).remove_metadata()
    return schema if columns is None else pa.schema(
        [schema.field(c) for c in columns])


def read_documents(sf_dir: str, columns=None, num_blocks: int | None = None):
    """documents.parquet as a materialized Dataset of `num_blocks`
    blocks, ~8 per logical CPU by default. The file is one small file:
    read as one block, every fused stage downstream would run as a
    single task (`batch_size` subdivides a task's batches, not its
    parallelism).

    The seed is materialized, so every block is in the object store
    before the maps start; how many of their tasks run at once is Ray
    Data's executor budget (`raydata.py`), not the read's. (At
    production scale pages come from thousands of files and nothing is
    materialized.)"""
    import ray
    if num_blocks is None:
        num_blocks = int(ray.cluster_resources().get("CPU", 8)) * 8
    path = os.path.join(sf_dir, "documents.parquet")
    ds = ray_data().read_parquet(path, columns=columns,
                                 schema=_doc_schema(path, columns),
                                 override_num_blocks=num_blocks)
    return ds.materialize()


def page_blocks(sf_dir: str, repl: int) -> int:
    """Document blocks for a page synthesis at `repl` pages per doc: at
    most `MAX_BLOCK_ROWS // repl` docs each, and at least `MIN_BLOCKS`
    (from the footer row count)."""
    n = _doc_count(sf_dir)
    per_block = max(MAX_BLOCK_ROWS // max(repl, 1), 1)
    return max(1, min(n, max(MIN_BLOCKS, -(-n // per_block))))


@functools.lru_cache(maxsize=16)
def _doc_count(sf_dir: str) -> int:
    """Row count from the parquet FOOTER (no data read, cached)."""
    import pyarrow.parquet as pq
    return pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows


def read_webpages(sf_dir: str, repl: int = synth.REPL, with_html: bool = True):
    """documents.parquet -> streaming web-page Dataset (repl pages/doc),
    one synthesis task per document block (`batch_size=None`).

    Block sizing (`page_blocks`) balances two measured failure modes:
    - blocks over ~32k pages serialize downstream fused stages into a
      handful of tasks AND regress nothing (big blocks are cheapest per
      row) — but a SMALL corpus x small repl then collapses to <=4
      blocks (measured 2x on the repl-20 consumers);
    - blocks under ~8k pages at high repl regress the heavy consumers
      ~2x (bigram_counts 2.2 s -> 5.4 s at 4k-row blocks, measured).
    So: at most 32k pages per block, and at least ~16 blocks for the
    corpus whatever the cluster size (a read of the docs alone keeps
    `read_documents`' 8 blocks per CPU). A `batch_size` above the block
    size would bundle two blocks into one task (12 uneven tasks of
    27k-55k pages over 16 blocks).
    """
    ds = read_documents(sf_dir, columns=DOC_COLS,
                        num_blocks=page_blocks(sf_dir, repl))
    fn = functools.partial(synth.webpage_batch, repl=repl, html=with_html)
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def pages_in_range(sf_dir: str, lo: int, hi: int,
                   repl: int = synth.REPL) -> pa.Table:
    """The pages with `lo <= page_id < hi` (no html), synthesized in the
    calling process: a pyarrow filter reads only the docs that hold them,
    `doc_id` in `[lo // repl, (hi - 1) // repl]`. A doc whose pages
    straddle `lo` or `hi` is synthesized whole and cut, so two
    neighbouring ranges both synthesize it; synthesis is deterministic."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    path = os.path.join(sf_dir, "documents.parquet")
    docs = pq.read_table(path, columns=DOC_COLS,
                         schema=_doc_schema(path, DOC_COLS),
                         filters=[("doc_id", ">=", lo // repl),
                                  ("doc_id", "<=", (hi - 1) // repl)])
    pages = synth.webpage_batch(docs, repl=repl, html=False)
    ids = pages["page_id"]
    return pages.filter(pc.and_(pc.greater_equal(ids, lo),
                                pc.less(ids, hi)))


def webpages_table(sf_dir: str, repl: int = synth.REPL) -> pa.Table:
    """Driver-side (no Ray) synthesis for tests/small checks."""
    import pyarrow.parquet as pq
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                         columns=DOC_COLS)
    return synth.webpage_batch(docs)
