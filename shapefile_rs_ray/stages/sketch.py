"""Cardinality sketches (HyperLogLog) — the mergeable-summary pattern:
each batch collapses to a fixed m-register table, registers merge with
MAX (commutative/associative/idempotent — merge-order-free, so the
distributed result is bit-identical to any execution order, including
the SQL oracle's), and the final estimate is a pure function of the 64
registers. The shuffle carries at most m rows per batch regardless of
input size; at 100 TB the exchange stays a few KB per block.

The hash is the engine's shared splitmix64 finalizer
(functions/hashing.py), already restated in HUGEINT SQL for the
simhash oracle, so the register table itself is hash-checkable at the
driver gate — the sketch is approximate w.r.t. the true cardinality
but EXACT w.r.t. its own definition.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.hashing import splitmix64
from .combine import combine_by_key

HLL_M = 64           # registers (2^6); standard error 1.04/sqrt(m) ~ 13%
_W_BITS = 58         # hash bits left after the 6-bit register index


def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length of uint64 (no float log2 — f64 cannot
    represent 58-bit ints exactly near power-of-two boundaries)."""
    bl = np.zeros(len(w), np.int64)
    v = w.copy()
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= (np.uint64(1) << np.uint64(s))
        bl[m] += s
        v[m] >>= np.uint64(s)
    bl[w > 0] += 1
    return bl


def _register_rank(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """HLL register (hash % m) and rank (leading zeros of the remaining
    58 bits + 1) of each non-negative int64."""
    h = splitmix64(x.astype(np.uint64))
    reg = (h % np.uint64(m)).astype(np.int64)
    return reg, (_W_BITS + 1) - _bit_length_u64(h >> np.uint64(6))


def hll_registers(ds, *, col: str, m: int = HLL_M):
    """(register, max_rank) HyperLogLog register table of an int64
    column: register = hash % m (low 6 bits), rank = leading-zero count
    of the remaining 58 bits + 1. Only observed registers emit (matches
    the SQL GROUP BY). Per row: one vectorized splitmix64; the
    `combine_by_key` max leaves <= m rows per batch."""
    assert m == 64, "register arithmetic is specialized to m=64"

    def ranks(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch[col], np.int64)
        if len(x) and x.min() < 0:
            raise ValueError(f"{col} must be non-negative for the "
                             "SQL-parity splitmix input")
        reg, rank = _register_rank(x, m)
        return pa.table({"register": pa.array(reg, pa.int64()),
                         "rank": pa.array(rank, pa.int64())})

    return combine_by_key(ds.map_batches(ranks, batch_format="pyarrow"),
                          "register", {"max_rank": ("rank", "max")})


def hll_registers_by(ds, *, key_col: str, col: str, m: int = HLL_M):
    """GROUPED HyperLogLog: one register table per key — the mergeable
    sketch-per-group shape (distinct users per window/host/cell) that
    replaces a per-group exact distinct when groups are hot. Per row:
    one splitmix64; the `combine_by_key` max over (key, register) is
    BOUNDED at #keys x m rows (key must be a bounded-domain int64 like a
    window index — per-distinct-entity keys would re-create the
    pathological groupby). Output: (key_col, register, max_rank)."""
    assert m == 64, "register arithmetic is specialized to m=64"

    def ranks(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch[key_col], np.int64)
        x = np.asarray(batch[col], np.int64)
        if len(x) and (x.min() < 0 or k.min() < 0):
            raise ValueError(f"{col}/{key_col} must be non-negative "
                             "(SQL-parity splitmix input / key domain)")
        reg, rank = _register_rank(x, m)
        return pa.table({key_col: pa.array(k, pa.int64()),
                         "register": pa.array(reg, pa.int64()),
                         "rank": pa.array(rank, pa.int64())})

    return combine_by_key(ds.map_batches(ranks, batch_format="pyarrow"),
                          [key_col, "register"], {"max_rank": ("rank", "max")})


CMS_D = 4            # hash rows
CMS_W = 1024         # counters per row; eps ~ e/w, delta ~ e^-d


def cms_counters(ds, *, col: str, d: int = CMS_D, w: int = CMS_W):
    """Count-Min sketch of an int64 column as a (row, col, count) counter
    table — the mergeable frequency summary (heavy-hitter screens, join
    cardinality hints). Counters merge with integer SUM (order-free), so
    the whole table is bit-exact vs the SQL restatement; the sketch is
    approximate w.r.t. true frequencies (one-sided overestimate) but
    EXACT w.r.t. its own definition. Per batch: d vectorized splitmix64
    evaluations; the `combine_by_key` count is BOUNDED at d*w rows
    regardless of input size.

    Row-seeding: hash_r(x) = splitmix64(x*d + r); x must be in
    [0, 2^61) so x*d + r cannot overflow int64 — DuckDB BIGINT raises on
    overflow while numpy wraps, so the engine enforces the shared domain."""

    def cells(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch[col], np.int64)
        if len(x) and (x.min() < 0 or x.max() >= (1 << 61)):
            raise ValueError(f"{col} must be in [0, 2^61) for the "
                             "SQL-parity row-seeded splitmix input")
        cols = [splitmix64((x * np.int64(d) + np.int64(r))
                           .astype(np.uint64)) % np.uint64(w)
                for r in range(d)]
        return pa.table({
            "row": pa.array(np.repeat(np.arange(d, dtype=np.int64), len(x)),
                            pa.int64()),
            "col": pa.array(np.concatenate(cols).astype(np.int64),
                            pa.int64())})

    return combine_by_key(ds.map_batches(cells, batch_format="pyarrow"),
                          ["row", "col"], {"n": ("col", "count")})


def cms_estimate(counters, x: int, *, d: int = CMS_D, w: int = CMS_W) -> int:
    """Point frequency estimate from a {(row, col): count} dict — min over
    the d counters (pure driver-side function of the tiny merged table)."""
    est = None
    for r in range(d):
        h = int(splitmix64(np.array([x * d + r], np.uint64))[0]) % w
        c = counters.get((r, h), 0)
        est = c if est is None else min(est, c)
    return int(est or 0)


def hll_estimate(registers: dict[int, int], m: int = HLL_M) -> float:
    """Standard HLL estimate (with the small-range linear-counting
    correction) from a {register: max_rank} dict — a pure driver-side
    function of the tiny merged table."""
    alpha = 0.709          # alpha_64
    z = sum(2.0 ** -registers.get(j, 0) for j in range(m))
    est = alpha * m * m / z
    zeros = m - len(registers)
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def deterministic_sample(ds, *, col: str, keep_ppm: int):
    """Reproducible Bernoulli sample: keep rows where
    splitmix64(col) % 1_000_000 < keep_ppm. Pure map-side filter — no
    shuffle, no RNG state, identical result at any parallelism/cluster
    size (the property driver-seeded random_sample lacks), and exactly
    restatable in SQL. col must be a non-negative int64 id."""

    def keep(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch[col], np.int64)
        if len(x) and x.min() < 0:
            raise ValueError(f"{col} must be non-negative for the "
                             "SQL-parity splitmix input")
        h = splitmix64(x.astype(np.uint64))
        return batch.filter(pa.array(h % np.uint64(1_000_000)
                                     < np.uint64(keep_ppm)))

    return ds.map_batches(keep, batch_format="pyarrow")


def stratified_sample(ds, *, id_col: str, stratum_col: str,
                      ppm_by_stratum: dict, default_ppm: int):
    """Per-stratum deterministic Bernoulli sample — the language/domain
    REBALANCING primitive of a training-data pipeline (downsample the
    dominant stratum, keep the tails): keep rows where
    splitmix64(id) % 1e6 < ppm(stratum). Same contract as
    deterministic_sample — pure map-side filter, no shuffle, no RNG
    state, identical rows at any parallelism — with the threshold a
    vectorized per-row function of the stratum column."""
    items = sorted(ppm_by_stratum.items())

    def keep(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch[id_col], np.int64)
        if len(x) and x.min() < 0:
            raise ValueError(f"{id_col} must be non-negative for the "
                             "SQL-parity splitmix input")
        strat = np.asarray(batch[stratum_col], dtype=object)
        thr = np.full(len(x), default_ppm, np.uint64)
        for s, ppm in items:
            thr[strat == s] = np.uint64(ppm)
        h = splitmix64(x.astype(np.uint64))
        return batch.filter(pa.array(h % np.uint64(1_000_000) < thr))

    return ds.map_batches(keep, batch_format="pyarrow")


def fixed_width_histogram(ds, *, col: str, width: float):
    """COUNT per floor(col / width) bin — the one-pass distributed
    histogram: a `combine_by_key` count per bin (bin cardinality = value
    range / width, independent of row count). The bin index is a single
    f64 divide + floor, bit-exact vs SQL."""

    def bins(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch[col], np.float64)
        return pa.table({"bin": pa.array(np.floor(v / width).astype(np.int64),
                                         pa.int64())})

    return combine_by_key(ds.map_batches(bins, batch_format="pyarrow"),
                          "bin", {"n_rows": ("bin", "count")})
