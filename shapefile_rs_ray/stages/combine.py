"""The engine's one exchange, and its one keyed aggregate on top of it.

Every wide step is `by_partition`: tag each row with a partition id
`__p` and call a function once per partition. The exchange is two waves
of plain Ray tasks over the object store (the shape of *Exoshuffle*):

  1. split: one task per non-empty input block tags its rows and cuts
     them into R pieces, one per reducer (`__p % R`, stable), returning
     the pieces and their row counts;
  2. merge: one task per reducer that got rows concatenates its pieces
     in block order, stable-sorts them on `__p`, and calls `fn` once per
     distinct `__p`.

R is the number of non-empty input blocks (capped at `parts` for column
keys), as in Ray's sort, which also uses one reducer per input block.
There is no sort sampling, no Ray Data all-to-all operator and no actor
pool: a `fn` that joins a broadcast side builds it once per worker
process (`broadcast.part_fn`). A partition holds many whole keys, so
the number of `fn` calls is the coarse `parts`, never the number of
distinct keys (one group call per key collapses once keys number in the
millions). On 400k rows in 8 blocks and 13 partitions (1-core host,
Ray at 4 logical CPUs, 7 runs) this exchange took 0.08-0.11 s, Ray
Data's sort exchange (`groupby("__p").map_groups`: sample, map, reduce
and group waves with a barrier between each) 0.24-0.33 s, and Ray's
hash `repartition(keys=...)` 4.4-4.7 s; `Dataset.join` hangs on
aggregator memory. So no stage calls Ray
Data's `groupby` (`tests/test_combine.py` fails on any `.groupby(`
call): `combine_by_key` below, `relational.shuffle_join` and every
other wide step call `by_partition`.

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

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import crc32_str
from ..raydata import ray_data

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


def _split(block, key, parts: int | None, reducers: int):
    """Split task: tag one input block with `__p` and cut it into one
    piece per reducer (`__p % reducers`, rows in block order within each
    piece). Returns the pieces, then their row counts."""
    if not isinstance(block, pa.Table):
        from ray.data.block import BlockAccessor
        block = BlockAccessor.for_block(block).to_arrow()
    counts = np.zeros(reducers, np.int64)
    if block.num_rows == 0:     # its metadata gave no row count
        return (*[block] * reducers, counts)
    p = np.asarray(key(block) if callable(key)
                   else _key_partition(block, key, parts), np.int64)
    block = block.append_column("__p", pa.array(p, pa.int64()))
    r = p % reducers
    order = np.argsort(r, kind="stable")
    counts[:] = np.bincount(r, minlength=reducers)
    ends = np.cumsum(counts)
    return (*[block.take(order[e - n:e]) for n, e in zip(counts, ends)],
            counts)


def _merge(fn, *pieces) -> pa.Table:
    """Merge task: one reducer's pieces in block order, stable-sorted on
    `__p`, and one `fn` call per distinct `__p`."""
    tbl = pa.concat_tables(pieces, promote_options="permissive")
    p = np.asarray(tbl["__p"], np.int64)
    if np.any(p[1:] < p[:-1]):
        order = np.argsort(p, kind="stable")
        tbl, p = tbl.take(order), p[order]
    bounds = np.append(np.flatnonzero(np.r_[True, p[1:] != p[:-1]]), len(p))
    outs = []
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        out = fn(tbl.slice(b0, b1 - b0))
        if not isinstance(out, pa.Table):
            from ray.data.block import BlockAccessor
            out = BlockAccessor.batch_to_block(out)
        outs.append(out)
    full = [t for t in outs if t.num_rows]
    if not full:
        return outs[0]       # typed by fn, zero rows
    return pa.concat_tables(full, promote_options="permissive")


def by_partition(inputs, key, fn, *, parts: int | None = None):
    """Co-partition `inputs` on `key` and call `fn(part)` once per
    partition: the engine's one exchange. It runs now, and the result is
    a materialized Dataset of the `fn` outputs.

    `inputs` is a Dataset or a list of Datasets whose rows share a
    schema. `key` is either key column names, partitioned by
    `_key_partition(batch, keys, parts)`, or a callable `batch -> int64
    array` whose values are the partition ids as they are (no modulo;
    `parts` is unused). Rows with equal partition ids, from every input,
    meet in exactly one `fn(part)` call, in input order, then block
    order, then row order; `part` still carries the `__p` column. Blocks
    with no rows contribute nothing, and no block without columns is
    made. With no rows at all the result has no block and `fn` is never
    called."""
    inputs = list(inputs) if isinstance(inputs, (list, tuple)) else [inputs]
    if not callable(key):
        key = [key] if isinstance(key, str) else list(key)
        assert parts, "by_partition: column keys need `parts`"
    blocks = [ref for ds in inputs
              for bundle in ds.iter_internal_ref_bundles()
              for ref, meta in bundle.blocks if meta.num_rows != 0]
    out = ray_data().from_arrow_refs(_exchange(blocks, key, fn, parts))
    # the inputs' operator stats as the result's parents, so that
    # `stats()` shows the whole chain and not only `FromArrow`
    out._plan._in_stats.parents = [ds._plan.stats() for ds in inputs]
    return out


def _exchange(blocks: list, key, fn, parts: int | None) -> list:
    """Split every block, then merge each reducer's pieces: the refs of
    the merged tables, one per reducer that got rows."""
    import ray
    if not blocks:
        return []
    reducers = len(blocks) if callable(key) else min(len(blocks), parts)
    split, merge = _tasks()
    key_ref, fn_ref = ray.put(key), ray.put(fn)
    split = split.options(num_returns=reducers + 1)
    pieces = [split.remote(b, key_ref, parts, reducers) for b in blocks]
    counts = ray.get([p[-1] for p in pieces])
    merged = []
    for r in range(reducers):
        mine = [p[r] for p, n in zip(pieces, counts) if n[r]]
        if mine:
            merged.append(merge.remote(fn_ref, *mine))
    return merged


@functools.cache
def _tasks():
    """The split and merge tasks, as Ray remote functions."""
    import ray
    return ray.remote(_split), ray.remote(_merge)


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
