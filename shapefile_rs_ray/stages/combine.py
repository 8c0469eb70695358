"""The engine's one keyed aggregate: per-batch collapse, one coarse
prime-modulus shuffle, per-partition merge.

A wide aggregate must never become a per-distinct-key groupby (one group
call per key collapses once keys number in the millions). Every stage
that reduces rows per key instead projects its key and value columns and
calls `combine_by_key`, which

  1. collapses each batch to one row per distinct key,
  2. tags each row with a partition `__p` = hash(key) % parts (a prime,
     so no power-of-two key packing upstream cancels against it) and
     shuffles once on it,
  3. merges each partition with the same kernel as step 1.

Both reductions are `pa.Table.group_by(keys, use_threads=False)`. The
ops are merge-order-free on integers (sum, min, max, count), so the
result is bit-identical at any block layout and any `parts`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import crc32_str

# how a partial of each op merges: partial counts add up
_MERGE_OP = {"sum": "sum", "min": "min", "max": "max", "count": "sum"}
_KEY_MIX = np.int64(1_000_003)   # prime: folds multi-column key hashes


def _key_partition(tbl: pa.Table, keys: list[str], parts: int) -> np.ndarray:
    """Partition of each row's key: an integer key is its own hash (so a
    single int64 key partitions as `key % parts`), a string key hashes
    with crc32; several columns fold as h * _KEY_MIX + h_next."""
    h = None
    for k in keys:
        col = tbl[k]
        if pa.types.is_integer(col.type):
            v = np.asarray(col.fill_null(0), np.int64)
        else:
            v = crc32_str(col.fill_null(""))
        h = v if h is None else h * _KEY_MIX + v
    return h % parts


def combine_by_key(ds, keys, aggs: dict | None = None, *, parts: int = 251):
    """Dataset -> Dataset(*keys, *aggs): one row per distinct key.

    `keys` is a column name or a list of them (integer or string).
    `aggs` maps each output column to `(input column, op)` with op one of
    sum/min/max/count; with no aggs the result is the distinct keys.
    Empty and schema-less upstream blocks contribute nothing."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    aggs = dict(aggs or {})
    outs = list(aggs)
    first = list(aggs.values())
    second = [(out, _MERGE_OP[op]) for out, (_, op) in aggs.items()]

    def reduce(tbl: pa.Table, spec) -> pa.Table:
        # a count is of rows, nulls included, so its column choice is free
        g = tbl.group_by(keys, use_threads=False).aggregate([
            (c, op, pc.CountOptions(mode="all")) if op == "count" else (c, op)
            for c, op in spec])
        return (g.select(keys + [f"{c}_{op}" for c, op in spec])
                .rename_columns(keys + outs))

    def collapse(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0:
            # a fully-empty upstream groupby can emit schema-less blocks
            return pa.table({"__p": pa.array([], pa.int64())})
        out = reduce(batch, first)
        return out.append_column(
            "__p", pa.array(_key_partition(out, keys, parts), pa.int64()))

    def merge(part: pa.Table) -> pa.Table:
        return reduce(part, second)

    return (ds.map_batches(collapse, batch_format="pyarrow")
            .groupby("__p").map_groups(merge, batch_format="pyarrow"))
