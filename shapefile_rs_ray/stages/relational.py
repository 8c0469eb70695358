"""Relational operators over the driver's TPC-H-style tables: the two
equi-joins + grouped aggregates, Ray-Data-first.

A two-sided equi-join is one of exactly two operators here; no stage
hand-writes its own tag-union join:

- `broadcast_join`, the small-side pattern (SURVEY §2.6):
  the dimension table ships ONCE via ray.put, each worker process sorts
  its key column once (`broadcast.map_side`), and every task answers its
  probe batch with one vectorized np.searchsorted — no shuffle at all.
  The fact side streams.
- `shuffle_join`, the large-large pattern: both sides pad to one
  schema and take ONE coarse `combine.by_partition` exchange on the
  key, then each partition matches with a sort + searchsorted. Integer
  or string keys, inner / left / full / semi / anti, null keys never
  match. Every co-partition lookup in the engine (TPC-H joins, label
  relabels, pagerank, triangle attach and wedge membership, the TF-IDF
  big-vocab path, near-dup verify and member expansion) is a call to it
  plus a row-local projection.

Keyed aggregates go through `combine_by_key`, and any other wide step
through `by_partition` (both in `stages/combine.py`). Float caution:
SUM over f64 is merge-order-sensitive, so oracle-checked aggregates
stick to COUNT / MIN / MAX plus integer SUMs (l_quantity is integral by
construction; the cast is exact on both engine and oracle).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..raydata import ray_data
from .broadcast import map_side, put_side
from .combine import by_partition, combine_by_key


def _match_ranges(lo: np.ndarray, counts: np.ndarray):
    """Vectorized expansion of per-probe [lo, lo+count) right-row ranges:
    returns flat right indices aligned with np.repeat(probe, counts)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64)
    starts = np.cumsum(counts) - counts
    offs = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    return np.repeat(lo, counts) + offs


class BroadcastJoin:
    """The dimension side of `broadcast_join`, built once per process:
    equi-join of each probe batch against the dimension table — inner or
    left-outer, one-to-MANY.

    __init__ sorts the dimension's key column; __call__ resolves each
    probe key with one searchsorted left/right pair and expands duplicate
    matches with a run-length np.repeat gather (no per-row Python). Inner
    join: null probe keys and misses drop (nulls are filtered EXPLICITLY —
    a bare int64 cast would turn them into INT64_MIN and let two nulls
    join). Left join: miss rows and null-key rows emit once with null
    dim_cols.
    """

    def __init__(self, dim: pa.Table, key: str, dim_cols: tuple[str, ...],
                 how: str = "inner"):
        assert how in ("inner", "left")
        keys = np.asarray(dim[key], np.int64)
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.key = key
        self.how = how
        self.cols = {c: pc.take(dim[c], pa.array(order)) for c in dim_cols}

    def __call__(self, batch: pa.Table) -> pa.Table:
        valid = pc.is_valid(batch[self.key])
        if self.how == "inner":
            batch = batch.filter(valid)
        n = batch.num_rows
        if n == 0:
            out = {c: batch[c].slice(0, 0) for c in batch.column_names}
            for c, arr in self.cols.items():
                out[c] = arr.slice(0, 0)
            return pa.table(out)
        probe = np.asarray(batch[self.key].fill_null(0), np.int64)
        lo = np.searchsorted(self.keys, probe, "left")
        hi = np.searchsorted(self.keys, probe, "right")
        counts = hi - lo
        if self.how == "left":
            # null-key rows never match but still emit once
            counts = counts * np.asarray(valid, bool)
            ecounts = np.maximum(counts, 1)
        else:
            ecounts = counts
        rows = np.repeat(np.arange(n), ecounts)
        take_rows = pa.array(rows)
        out = {c: pc.take(batch[c], take_rows) for c in batch.column_names}
        dim_idx = _match_ranges(lo, counts)
        if self.how == "left":
            matched = np.repeat(counts > 0, ecounts)
            full = np.zeros(len(rows), np.int64)
            full[matched] = dim_idx
            take_dim = pa.array(full, mask=~matched)
        else:
            take_dim = pa.array(dim_idx)
        for c, arr in self.cols.items():
            out[c] = pc.take(arr, take_dim)
        return pa.table(out)


def broadcast_join(ds, dim_table: pa.Table, *, key: str,
                   dim_cols: tuple[str, ...], how: str = "inner"):
    """ds (probe side, streams) JOIN dim_table (broadcast) on `key`;
    appends `dim_cols` from the dimension. `how`: "inner" or "left"
    (left-outer: unmatched probe rows keep null dim_cols). Duplicate
    dimension keys multi-match (one output row per match). A task map
    fused with the maps before it (`broadcast.map_side`)."""
    return map_side(ds, "broadcast_join", BroadcastJoin, put_side(dim_table),
                    key=key, dim_cols=tuple(dim_cols), how=how)


JOIN_PARTS = 251   # prime (CLAUDE.md partition-modulus rule)


def parts_for(n_rows: int) -> int:
    """Prime partition-count ladder by expected exchange size. JOIN_PARTS
    is the at-scale setting; a tiny input pays one scheduler round trip
    per (mostly empty) group, so callers that KNOW their fact size (e.g.
    from parquet metadata) pick the rung — the result is partition-count
    invariant either way."""
    if n_rows < 200_000:
        return 13
    if n_rows < 5_000_000:
        return 61
    return JOIN_PARTS


def _key_codes(col) -> np.ndarray:
    """int64 match codes of a key column: an integer key is its own
    code; a string key gets dense dictionary codes (true string
    equality, no reliance on hash collision-freedom). Null slots get an
    arbitrary code — callers mask them with the key's validity."""
    if pa.types.is_integer(col.type):
        return np.asarray(col.fill_null(0), np.int64)
    enc = pc.dictionary_encode(col.combine_chunks())
    return np.asarray(enc.indices.fill_null(0), np.int64)


def shuffle_join(left, right, *, key: str, right_cols: tuple[str, ...],
                 how: str = "inner", parts: int = JOIN_PARTS):
    """Large-large equi-join: BOTH sides shuffle once into `parts`
    coarse key-hash partitions (one `by_partition` exchange), then each
    partition joins locally with one sort + a searchsorted left/right
    range expansion — no per-key groups, no broadcast. Use when the
    dimension side outgrows broadcast; `broadcast_join` is the
    zero-shuffle fast path otherwise.

    The key is an integer or a string column (read from the input
    schemas). Integer keys come out as int64 and partition as
    `key % parts`; string keys partition as `crc32(key) % parts` and
    match on partition-local dictionary codes. A null key never
    matches: the key column's own validity carries it through the
    exchange, so no key value is reserved.

    Duplicate right keys multi-match (one output row per left x right
    match — the run-length np.repeat gather). `how="left"` emits
    unmatched left rows (including null-key left rows) once with null
    `right_cols`; inner drops them. Right-side null keys drop except
    under `how="full"`. Output: the key, all other left columns, then
    `right_cols`.

    `how="full"` additionally emits each unmatched RIGHT row once with
    null left columns; the key column carries COALESCE(left, right) key
    (null only for null-key rows from either side — null keys never
    match, per SQL).

    `how="semi"` / `how="anti"` emit each left row at most ONCE (no
    right columns — pass right_cols=()): semi keeps rows whose key
    exists on the right (SQL EXISTS; null keys drop), anti keeps rows
    with no right match (SQL NOT EXISTS; null keys keep, matching SQL's
    never-equal null semantics).

    Both inputs are materialized first, and the key types read from
    their blocks. The exchange reads every input block anyway, so
    nothing runs twice. `.schema()` of a lazy input would run a
    `limit(1)` plan whose other tasks are cancelled once a row arrives
    (or, on a shuffle output, the whole exchange just for the types);
    Ray 2.49 can abort the driver on such a cancel ("Tried to complete
    task that was not pending") once many tasks are in flight.
    """
    assert how in ("inner", "left", "full", "semi", "anti")
    assert how not in ("semi", "anti") or not right_cols

    left, right = left.materialize(), right.materialize()
    l_base = left.schema().base_schema
    r_base = right.schema().base_schema
    ltype, rtype = l_base.field(key).type, r_base.field(key).type
    if pa.types.is_integer(ltype) and pa.types.is_integer(rtype):
        ktype = pa.int64()
    elif pa.types.is_string(ltype) and pa.types.is_string(rtype):
        ktype = pa.string()
    else:
        raise TypeError(f"shuffle_join: key {key!r} must be integer or "
                        f"string on both sides, got {ltype} / {rtype}")
    left_cols = [c for c in l_base.names if c != key]
    types = {c: l_base.field(c).type for c in left_cols}
    types.update({c: r_base.field(c).type for c in right_cols})

    def pad(side: int, base: pa.Schema, own: tuple[str, ...]):
        # outer sides keep their null-key rows; the others drop them here
        drops_nulls = how in ("inner", "semi") or (side == 1
                                                   and how != "full")

        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_columns == 0:
                # a fully-empty upstream groupby can emit schema-less blocks
                batch = base.empty_table()
            k = batch[key].cast(ktype)
            if drops_nulls:
                valid = pc.is_valid(k)
                batch, k = batch.filter(valid), k.filter(valid)
            n = batch.num_rows
            out = {key: k, "__side": pa.array(np.full(n, side, np.int64))}
            # pad with the other side's columns as nulls so the two
            # sides' blocks concatenate cleanly
            for c in (*left_cols, *right_cols):
                out[c] = batch[c] if c in own else pa.nulls(n, types[c])
            return pa.table(out)
        return fn

    def local_join(part: pa.Table) -> pa.Table:
        side = np.asarray(part["__side"], np.int64)
        valid = np.asarray(pc.is_valid(part[key]), bool)
        codes = _key_codes(part[key])
        l_idx = np.nonzero(side == 0)[0]
        r_idx = np.nonzero((side == 1) & valid)[0]
        r_idx = r_idx[np.argsort(codes[r_idx], kind="stable")]
        rk = codes[r_idx]
        lk = codes[l_idx]
        lo = np.searchsorted(rk, lk, "left")
        counts = (np.searchsorted(rk, lk, "right") - lo) * valid[l_idx]
        left_out = part.select([key, *left_cols])
        if how in ("semi", "anti"):
            return left_out.take(l_idx[counts > 0 if how == "semi"
                                       else counts == 0])
        ecounts = counts if how == "inner" else np.maximum(counts, 1)
        rng = _match_ranges(lo, counts)
        if how == "inner":
            take_r = pa.array(r_idx[rng])
        else:
            matched = np.repeat(counts > 0, ecounts)
            full = np.zeros(len(matched), np.int64)
            full[matched] = r_idx[rng]
            take_r = pa.array(full, mask=~matched)
        res = left_out.take(np.repeat(l_idx, ecounts))
        for c in right_cols:
            res = res.append_column(c, pc.take(part[c], take_r))
        if how != "full":
            return res
        # full outer: append unmatched right rows (null keys plus valid
        # keys no left row probed); their left columns are the nulls
        # pad() filled them with
        hit = np.zeros(len(r_idx), bool)
        hit[rng] = True
        un_idx = np.concatenate([np.nonzero((side == 1) & ~valid)[0],
                                 r_idx[~hit]])
        return pa.concat_tables([
            res, part.select(res.column_names).take(un_idx)])

    return by_partition(
        [left.map_batches(pad(0, l_base, tuple(left_cols)),
                          batch_format="pyarrow"),
         right.map_batches(pad(1, r_base, tuple(right_cols)),
                           batch_format="pyarrow")],
        key, local_join, parts=parts)


def grouped_exact_quantiles(ds, *, group_col: str, value_col: str,
                            qs=((1, 2, "p50"), (9, 10, "p90"),
                                (99, 100, "p99"))):
    """EXACT per-group quantiles of an integer-valued column with NO
    sort of the data: `combine_by_key` counts each distinct
    (group, value) pair (bounded — token counts, not raw payloads — so
    this is not the per-distinct-key anti-pattern), then one
    `by_partition` on the group runs a cumulative pick over the many
    whole groups of each partition. Quantile q = a/b is defined as the
    smallest v with cum_count >= ceil(q*n), computed in exact integer
    arithmetic ((a*n + b - 1) // b) — the SQL oracle restates it with a
    window cumsum verbatim, so results are bit-exact at any scale."""

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            group_col: batch[group_col].cast(pa.string()),
            "v": pa.array(np.asarray(batch[value_col], np.int64))})

    def pick(part: pa.Table) -> pa.Table:
        g = np.asarray(part[group_col])
        v = np.asarray(part["v"], np.int64)
        order = np.lexsort((v, g))
        g, v = g[order], v[order]
        cnt = np.asarray(part["cnt"], np.int64)[order]
        # cum is strictly increasing, so a group's k-th row is found by
        # one search over the whole partition from the group's base
        cum = np.cumsum(cnt)
        start = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        base = cum[start] - cnt[start]
        n = np.append(base[1:], cum[-1]) - base
        out = {group_col: pa.array(g[start], pa.string())}
        for a, b, name in qs:
            k = (a * n + b - 1) // b
            out[name] = pa.array(v[np.searchsorted(cum, base + k, "left")],
                                 pa.int64())
        return pa.table(out)

    counts = combine_by_key(ds.map_batches(project, batch_format="pyarrow"),
                            [group_col, "v"], {"cnt": ("v", "count")})
    return by_partition(counts, group_col, pick, parts=JOIN_PARTS)


def exact_double_quantiles(ds, *, id_col: str, value_col: str,
                           qs=((1, 2, "p50"), (9, 10, "p90"),
                               (99, 100, "p99")),
                           target_samples: int = 65536,
                           bucket_cap: int = 5_000_000):
    """EXACT global quantiles of a DOUBLE column at UNBOUNDED value
    cardinality with NO global sort — the classic 3-pass distributed
    selection:

    Pass A: row count + a deterministic Knuth-hash sample of values
    (the sample rate scales itself to ~target_samples, so the
    driver-held boundary set is fixed-size at any corpus scale).
    Pass B: bucket histogram against the sampled boundaries (a
    vectorized searchsorted, counted by `combine_by_key`); the
    driver's cumulative counts locate, per target rank k = ceil(q*n),
    the ONE bucket holding the k-th smallest value.
    Pass C: collect exactly the needed buckets' values (expected
    n/n_buckets rows per bucket; adversarial skew — one value repeated
    n times — fails LOUDLY at bucket_cap instead of silently OOMing),
    sort driver-side, pick rank k - cum_before.

    The quantile q = a/b is the k-th smallest element of the multiset
    (k = ceil(q*n) in exact integer arithmetic) — an actual element of
    the column — so the SQL window-cumsum oracle reproduces every
    output bit-exactly. Upstream `ds` is consumed three times and must
    be re-execution-deterministic (a parquet read is).
    """
    import ray
    from ..functions.synth import M1, P1

    n = ds.count()
    if n == 0:
        raise ValueError("exact_double_quantiles: empty input")
    mod = max(1, n // target_samples)

    def sample(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col], np.int64)
        keep = (ids * M1) % P1 % mod == 0
        return pa.table({"v": pa.array(
            np.asarray(batch[value_col], np.float64)[keep], pa.float64())})

    bounds = np.unique(np.asarray(
        ds.map_batches(sample, batch_format="pyarrow").to_pandas()["v"],
        np.float64))
    bounds_ref = ray.put(bounds)
    nb = len(bounds) + 1          # bucket i = (bounds[i-1], bounds[i]]

    def bucket(batch: pa.Table) -> pa.Table:
        b = ray.get(bounds_ref)
        idx = np.searchsorted(b, np.asarray(batch[value_col], np.float64),
                              "right")
        return pa.table({"bucket": pa.array(idx, pa.int64())})

    counts = combine_by_key(ds.map_batches(bucket, batch_format="pyarrow"),
                            "bucket", {"cnt": ("bucket", "count")}
                            ).to_pandas()
    full = np.zeros(nb, np.int64)
    full[counts["bucket"].to_numpy(np.int64)] = \
        counts["cnt"].to_numpy(np.int64)
    cum = np.cumsum(full)
    assert cum[-1] == n

    ranks = {name: (a * n + b_ - 1) // b_ for a, b_, name in qs}
    # bucket holding rank k: first bucket with cum >= k
    need = {name: int(np.searchsorted(cum, k, "left"))
            for name, k in ranks.items()}
    need_set = np.unique(np.fromiter(need.values(), np.int64))
    if int(full[need_set].sum()) > bucket_cap:
        raise ValueError(
            f"exact_double_quantiles: needed buckets hold "
            f"{int(full[need_set].sum())} rows > bucket_cap={bucket_cap}; "
            f"raise target_samples or the cap")
    need_ref = ray.put(need_set)

    def collect(batch: pa.Table) -> pa.Table:
        b = ray.get(bounds_ref)
        nd = ray.get(need_ref)
        v = np.asarray(batch[value_col], np.float64)
        idx = np.searchsorted(b, v, "right")
        keep = np.isin(idx, nd)
        return pa.table({"bucket": pa.array(idx[keep], pa.int64()),
                         "v": pa.array(v[keep], pa.float64())})

    got = (ds.map_batches(collect, batch_format="pyarrow")).to_pandas()
    gb = got["bucket"].to_numpy(np.int64)
    gv = got["v"].to_numpy(np.float64)
    out = {}
    for name, k in ranks.items():
        bkt = need[name]
        inb = np.sort(gv[gb == bkt])
        before = int(cum[bkt - 1]) if bkt > 0 else 0
        out[name] = pa.array([inb[k - before - 1]], pa.float64())
    return ray_data().from_arrow(pa.table(out))


def rollup_two_level(ds, *, col_a: str, col_b: str, cents_col: str):
    """GROUP BY ROLLUP(col_a, col_b) with COUNT(*) + exact integer SUM:
    emits the finest (a, b) level, the (a, NULL) subtotal level, and the
    (NULL, NULL) grand total — SQL's ROLLUP lattice.

    Shape: every row emits its key on ALL THREE levels, packed into one
    int64 rollup key, and `combine_by_key` counts and sums per key (its
    per-batch collapse leaves a few hundred rows per batch regardless of
    input size; the lattice cardinality — |a|x|b| + |a| + 1 — is
    bounded, so this is NOT the per-distinct-key anti-pattern).
    COUNT and integer SUM are merge-order-free: bit-exact vs SQL.

    col_a / col_b must be small non-negative ints (asserted < 2**20) —
    they pack into one int64 rollup key for the shuffle.
    """
    LVL = np.int64(2 ** 42)
    A = np.int64(2 ** 21)

    def levels(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch[col_a], np.int64)
        b = np.asarray(batch[col_b], np.int64)
        s = np.asarray(batch[cents_col], np.int64)
        if len(a):
            assert a.min() >= 0 and a.max() < 2 ** 20, col_a
            assert b.min() >= 0 and b.max() < 2 ** 20, col_b
        # (a, b), (a, *) and the grand total (*, *)
        rk = np.concatenate([a * A + b, LVL + a * A,
                             np.full(len(a), 2 * LVL, np.int64)])
        return pa.table({"__rk": pa.array(rk, pa.int64()),
                         "cents": pa.array(np.tile(s, 3), pa.int64())})

    def unpack(batch: pa.Table) -> pa.Table:
        rk = np.asarray(batch["__rk"], np.int64)
        lvl = rk // LVL
        a = (rk % LVL) // A
        b = rk % A
        return pa.table({
            col_a: pa.array(a, pa.int64(), mask=lvl == 2),
            col_b: pa.array(b, pa.int64(), mask=lvl >= 1),
            "n_rows": batch["n_rows"],
            "sum_cents": batch["sum_cents"],
        })

    return combine_by_key(ds.map_batches(levels, batch_format="pyarrow"),
                          "__rk", {"n_rows": ("cents", "count"),
                                   "sum_cents": ("cents", "sum")}
                          ).map_batches(unpack, batch_format="pyarrow")
