"""Global top-k word n-gram counts — the LM-data "count the corpus"
operator (bigram/trigram tables for n-gram LMs, contamination screens,
boilerplate mining).

Shape (the at-scale contract):
  1. per-batch PARTIAL counts — tokens come from ONE vectorized Arrow
     split kernel, n-grams from shifted takes + one element-wise join,
     and each batch collapses to its distinct grams (vocabulary-sized,
     sublinear in rows) before anything moves;
  2. ONE coarse shuffle of (gram, partial_count) into crc32(gram) mod
     PRIME partitions — never a per-distinct-gram groupby;
  3. per-partition exact reduce + LOCAL top-k: each gram's full count
     lives in exactly one partition, so the global top-k is a subset of
     the union of per-partition top-ks (<= parts * k rows);
  4. a tiny bounded sort/limit over that union.

Tokenization is byte-identical to the tfidf / token_stats surface:
lower() then maximal [a-z0-9]+ runs (split on the complement); the
DuckDB twin is regexp_extract_all(lower(text), '[a-z0-9]+').
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .combine import by_partition

GRAM_PARTS = 251


def _empty(n_cols: int = 3) -> pa.Table:
    cols = {"gram": pa.array([], pa.string()),
            "cnt": pa.array([], pa.int64())}
    if n_cols == 3:
        cols["__p"] = pa.array([], pa.int64())
    return pa.table(cols)


def _doc_ngrams(texts, n: int):
    """Shared tokenize->n-gram kernel: lower + [a-z0-9]+ split (ONE Arrow
    regex kernel), shifted-take gram join, doc-boundary + empty-edge-token
    masking. Returns (grams StringArray, owner int64[] doc indices) — or
    (None, None) when no gram exists. EVERY n-gram consumer in this module
    (and the tfidf stage, via n=1) must go through here: the decontaminate
    and tfidf oracles' bit parity depends on one single tokenization."""
    toks = pc.split_pattern_regex(
        pc.utf8_lower(pc.cast(texts, pa.string())), pattern="[^a-z0-9]+")
    lens = np.asarray(pc.list_value_length(toks), np.int64)
    flat = pc.list_flatten(toks).combine_chunks()
    total = len(flat)
    if total < n:
        return None, None
    nonempty = np.asarray(pc.not_equal(flat, pa.scalar("")), bool)
    doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    m = total - n + 1
    valid = nonempty[:m].copy()
    for j in range(1, n):
        valid &= nonempty[j:m + j]
        valid &= doc_of[j:m + j] == doc_of[:m]
    idx = np.nonzero(valid)[0]
    if len(idx) == 0:
        return None, None
    if n == 1:
        return pc.take(flat, pa.array(idx, pa.int64())), doc_of[idx]
    pieces = [pc.take(flat, pa.array(idx + j, pa.int64()))
              for j in range(n)]
    return pc.binary_join_element_wise(*pieces, " "), doc_of[idx]


def ngram_topk(docs, *, text_col: str = "text", n: int = 2, k: int = 100):
    """(gram, cnt): the corpus's k most frequent word n-grams, ties broken
    by gram ascending (byte order; tokens are ASCII [a-z0-9] runs)."""
    assert n >= 2

    def partial(batch: pa.Table) -> pa.Table:
        grams, _ = _doc_ngrams(batch[text_col], n)
        if grams is None:
            return _empty()
        vc = pc.value_counts(grams)
        uniq = vc.field("values")
        cnt = pc.cast(vc.field("counts"), pa.int64())
        return pa.table({"gram": uniq, "cnt": cnt})

    def reduce_topk(part: pa.Table) -> pa.Table:
        grams = np.asarray(part["gram"], dtype=object).astype(str)
        cnt = np.asarray(part["cnt"], np.int64)
        uniq, inv = np.unique(grams, return_inverse=True)
        tot = np.bincount(inv, weights=cnt).astype(np.int64)
        sel = np.lexsort((uniq, -tot))[:k]
        return pa.table({"gram": pa.array(uniq[sel].tolist(), pa.string()),
                         "cnt": pa.array(tot[sel], pa.int64())})

    cand = by_partition(docs.map_batches(partial, batch_format="pyarrow"),
                        "gram", reduce_topk, parts=GRAM_PARTS)
    # <= parts * k candidate rows — the sort is over a bounded-tiny set
    return cand.sort(["cnt", "gram"], descending=[True, False]).limit(k)


def ngram_topk_sql(from_clause: str, *, text_expr: str = "text",
                   n: int = 2, k: int = 100) -> str:
    """DuckDB twin: same tokenization, counts, ordering, and limit."""
    gram = " || ' ' || ".join(f"l[i + {j}]" if j else "l[i]"
                              for j in range(n))
    return f"""
WITH t AS (SELECT regexp_extract_all(lower({text_expr}), '[a-z0-9]+') AS l
           FROM {from_clause}),
b AS (SELECT {gram} AS gram
      FROM t, UNNEST(generate_series(1, len(l) - {n - 1})) AS g(i))
SELECT gram, COUNT(*) AS cnt FROM b
GROUP BY 1 ORDER BY cnt DESC, gram LIMIT {k}
"""


def contamination_screen(pages, bench_grams: "np.ndarray", *,
                         id_col: str = "page_id", text_col: str = "text"):
    """LM decontamination screen: per page, how many of its word-3-gram
    OCCURRENCES appear in a benchmark gram set — the screen a training
    pipeline runs against eval suites before training.

    The benchmark set is the SMALL side: a sorted string array broadcast
    once (ray.put), membership answered map-side with one searchsorted
    per batch — no shuffle at any corpus size. Gram construction is the
    same vectorized shifted-take kernel as ngram_topk (strict 3-grams;
    pages with < 3 tokens emit n_grams = 0).

    Output: (page_id, n_grams, n_hits) for EVERY page."""
    import ray

    bs = np.sort(np.asarray(bench_grams, dtype=str))
    bref = ray.put(bs)

    def screen(batch: pa.Table) -> pa.Table:
        bsorted = ray.get(bref)
        n_rows = batch.num_rows
        pid = np.asarray(batch[id_col], np.int64)
        n_grams = np.zeros(n_rows, np.int64)
        n_hits = np.zeros(n_rows, np.int64)
        grams, owner = _doc_ngrams(batch[text_col], 3)
        if grams is not None:
            g = np.asarray(grams, dtype=str)
            if len(bsorted):
                pos = np.searchsorted(bsorted, g)
                pos = np.minimum(pos, len(bsorted) - 1)
                hit = bsorted[pos] == g
            else:
                hit = np.zeros(len(g), bool)
            np.add.at(n_grams, owner, 1)
            np.add.at(n_hits, owner, hit.astype(np.int64))
        return pa.table({
            id_col: pa.array(pid, pa.int64()),
            "n_grams": pa.array(n_grams, pa.int64()),
            "n_hits": pa.array(n_hits, pa.int64()),
        })

    return pages.map_batches(screen, batch_format="pyarrow")


def bench_gram_set(docs, *, text_col: str = "text") -> "np.ndarray":
    """Distinct word-3-grams of a (small, pre-filtered) benchmark Dataset
    — per-batch distinct partials, driver-merged (the benchmark side of a
    decontamination screen is eval-suite-sized by definition)."""
    def partial(batch: pa.Table) -> pa.Table:
        grams, _ = _doc_ngrams(batch[text_col], 3)
        if grams is None:
            return pa.table({"gram": pa.array([], pa.string())})
        return pa.table({"gram": pc.unique(grams)})

    parts = docs.map_batches(partial, batch_format="pyarrow").take_all()
    if not parts:
        return np.array([], dtype=str)
    return np.unique(np.array([r["gram"] for r in parts], dtype=str))
