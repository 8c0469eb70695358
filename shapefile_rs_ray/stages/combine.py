"""The engine's one exchange, and its one keyed aggregate on top of it.

Every wide step is `by_partition`: tag each row with a partition id
`__p`, make ONE sort exchange on it (`groupby("__p").map_groups`), and
call a function once per partition. A partition holds many whole keys,
so the number of `fn` calls is the coarse `parts`, never the number of
distinct keys (one group call per key collapses once keys number in the
millions). Ray's `repartition(keys=...)` took 4.1-5.0 s against
0.29-0.32 s for this sort exchange (400k rows, 13 partitions), and
`Dataset.join` hangs on aggregator memory, so this module holds the
engine's only `.groupby(` call: `combine_by_key` below,
`relational.shuffle_join` and every other wide step call `by_partition`,
and no stage uses Ray's built-in `groupby(col).aggregate`
(`tests/test_combine.py` fails on a `.groupby(` anywhere else).

`combine_by_key` is the keyed aggregate. Every stage that reduces rows
per key projects its key and value columns and calls it, which

  1. collapses each batch to one row per distinct key,
  2. partitions on hash(key) % parts (a prime, so no power-of-two key
     packing upstream cancels against it) through `by_partition`,
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


def by_partition(inputs, key, fn, *, parts: int | None = None,
                 concurrency=None):
    """Co-partition `inputs` on `key` and call `fn(part)` once per
    partition: the engine's one exchange.

    `inputs` is a Dataset or a list of Datasets whose rows share a
    schema; each is tagged in its own map (so the tag fuses with that
    side's last map) and the tagged sides are unioned. `key` is either
    key column names, partitioned by `_key_partition(batch, keys,
    parts)`, or a callable `batch -> int64 array` whose values are the
    partition ids as they are (no modulo; `parts` is unused). Rows with
    equal partition ids, from every input, meet in exactly one
    `fn(part)` call; `part` still carries the `__p` column. Schema-less
    empty input blocks contribute nothing. `fn` may be an actor class,
    run on a `concurrency` pool."""
    inputs = list(inputs) if isinstance(inputs, (list, tuple)) else [inputs]
    if not callable(key):
        keys = [key] if isinstance(key, str) else list(key)
        assert parts, "by_partition: column keys need `parts`"

    def tag(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0:
            # a fully-empty upstream groupby can emit schema-less blocks
            return pa.table({"__p": pa.array([], pa.int64())})
        p = key(batch) if callable(key) else _key_partition(batch, keys,
                                                             parts)
        return batch.append_column("__p", pa.array(p, pa.int64()))

    tagged = [ds.map_batches(tag, batch_format="pyarrow") for ds in inputs]
    ds = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return ds.groupby("__p").map_groups(fn, batch_format="pyarrow",
                                        concurrency=concurrency)


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
        # a schema-less block passes through; by_partition drops it
        return reduce(batch, first) if batch.num_columns else batch

    return by_partition(ds.map_batches(collapse, batch_format="pyarrow"),
                        keys, lambda part: reduce(part, second), parts=parts)
