"""Bloom-prefiltered semi-join — the standard at-scale shape for
"fact ⋉ filtered dimension": build a fixed-size Bloom bitmap over the
(filtered) right keys, broadcast it once, drop non-members of the big
left side MAP-SIDE, then run the engine's exact shuffle semi-join on
the survivors only. The Bloom filter has NO false negatives (every true
member survives the prefilter) and the exact semi-join removes its
false positives, so the result is IDENTICAL to a plain semi-join — the
bitmap only shrinks the exchange: at a 1% hit rate, 99% of the fact
table never enters the shuffle.

Determinism: bits come from the engine's splitmix64 (two probe indexes
from disjoint bit ranges of one hash), merges are bitwise-OR
(commutative/associative/idempotent — merge-order-free), and the final
semi-join is the already-oracled exact path, so output is bit-exact vs
the SQL EXISTS oracle at any parallelism.

Scale notes: the bitmap is FIXED-SIZE (m_bits/8 bytes, default 128 KiB
— one ray.put, read per actor), independent of key count; the build
shuffles only nonzero (word_idx, word) pairs (<= 16384 rows per batch
at the default size) through a coarse partition OR-reduce; the gather
of the merged bitmap to the driver is bounded by the same constant.
Size m_bits for ~10 bits/key to keep the false-positive rate ~1-2%
(FPR only affects the prefilter's selectivity, never correctness).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import splitmix64
from .combine import by_partition

BLOOM_BITS = 1 << 20         # 128 KiB bitmap
_WORD_PARTS = 31


def _probes(keys: np.ndarray, m_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Two probe bit-indexes per key from disjoint ranges of one
    splitmix64 hash (m_bits must be a power of two <= 2^26)."""
    h = splitmix64(keys.astype(np.uint64))
    mask = np.uint64(m_bits - 1)
    return (h & mask).astype(np.int64), \
        ((h >> np.uint64(26)) & mask).astype(np.int64)


def build_bloom(keys_ds, *, key: str, m_bits: int = BLOOM_BITS) -> np.ndarray:
    """uint64[m_bits/64] Bloom bitmap of an int64 key column (nulls
    skipped). Per-batch partial bitmaps collapse to their nonzero
    (word_idx, word) pairs; one coarse word-partition OR-reduce; the
    driver assembles the fixed-size result."""
    assert m_bits & (m_bits - 1) == 0 and m_bits <= (1 << 26)
    n_words = m_bits // 64

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[key]
        x = np.asarray(pc.drop_null(col), np.int64)
        words = np.zeros(n_words, np.uint64)
        if len(x):
            b1, b2 = _probes(x, m_bits)
            for b in (b1, b2):
                np.bitwise_or.at(words, b >> 6,
                                 np.uint64(1) << (b & 63).astype(np.uint64))
        nz = np.nonzero(words)[0]
        return pa.table({
            "word_idx": pa.array(nz.astype(np.int64), pa.int64()),
            "word": pa.array(words[nz].view(np.int64), pa.int64()),
        })

    def or_reduce(part: pa.Table) -> pa.Table:
        idx = np.asarray(part["word_idx"], np.int64)
        w = np.asarray(part["word"], np.int64).view(np.uint64)
        uniq, inv = np.unique(idx, return_inverse=True)
        acc = np.zeros(len(uniq), np.uint64)
        np.bitwise_or.at(acc, inv, w)
        return pa.table({"word_idx": pa.array(uniq, pa.int64()),
                         "word": pa.array(acc.view(np.int64), pa.int64())})

    merged = by_partition(keys_ds.map_batches(partial, batch_format="pyarrow"),
                          "word_idx", or_reduce, parts=_WORD_PARTS
                          ).take_all()           # <= n_words tiny rows
    bitmap = np.zeros(n_words, np.uint64)
    if merged:
        idxs = np.array([r["word_idx"] for r in merged], np.int64)
        vals = np.array([r["word"] for r in merged], np.int64).view(np.uint64)
        bitmap[idxs] = vals                 # reinterpret, not value cast
    return bitmap


def bloom_semi_join(left, right_keys, *, key: str,
                    m_bits: int = BLOOM_BITS, parts: int | None = None):
    """Exact semi-join left ⋉ right_keys on `key`, with a broadcast Bloom
    prefilter ahead of the shuffle. right_keys: Dataset with the key
    column (pre-filtered dimension keys). Null left keys never match
    (SQL semantics) and are dropped map-side."""
    import ray

    from .relational import JOIN_PARTS, shuffle_join

    # consumed by the bitmap build AND the verify join — pin it once
    right_keys = right_keys.materialize()
    bitmap = build_bloom(right_keys, key=key, m_bits=m_bits)
    bref = ray.put(bitmap)

    def prefilter(batch: pa.Table) -> pa.Table:
        bm = ray.get(bref)
        col = batch[key]
        valid = np.asarray(pc.is_valid(col), bool)
        x = np.asarray(pc.fill_null(col, 0), np.int64)
        b1, b2 = _probes(x, m_bits)
        hit = valid.copy()
        for b in (b1, b2):
            hit &= ((bm[b >> 6] >> (b & 63).astype(np.uint64))
                    & np.uint64(1)).astype(bool)
        return batch.filter(pa.array(hit))

    survivors = left.map_batches(prefilter, batch_format="pyarrow")
    return shuffle_join(survivors, right_keys, key=key, right_cols=(),
                        how="semi", parts=parts or JOIN_PARTS)
