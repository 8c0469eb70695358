"""TF-IDF top-terms per document — the classic text-pipeline weighting,
distributed as two passes over the corpus.

Pass 1 (document frequency): each doc's DISTINCT terms are counted
per term by `combine_by_key`, which shuffles per-batch partials ONCE
into coarse crc32(term)-mod-prime partitions (never a
per-distinct-term groupby). Tokenization is the shared vectorized
Arrow kernel from stages/ngrams.py (n=1) — one regex kernel per batch,
no per-document Python loop anywhere.

Pass 2 (scoring) picks its shape from the measured vocabulary size:
  * vocabulary <= broadcast_vocab_max rows: the sorted (term, df) table
    is ray.put ONCE and every scoring task looks df up map-side with a
    single searchsorted — one corpus pass, zero extra shuffles;
  * bigger vocabularies never touch the driver: (doc, term, tf) pairs
    left-join the df table on the string term (`shuffle_join`, one
    exchange), then a second coarse doc-hash shuffle runs the
    vectorized per-doc top-k. Driver state is zero in this path.

Scores use the ln-free rational IDF: for a FIXED corpus size N,
tf*(N/df) ranks identically to tf/df, and the division is a single
IEEE op DuckDB reproduces bit-exactly (ln() parity is NOT verified on
this host; the rational form needs no transcendental). Top-k per doc
by (score desc, term asc) with byte-wise ASCII term order (tokens are
[a-z0-9]+ runs, so numpy UTF-32 order == DuckDB UTF-8 byte order).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .combine import by_partition, combine_by_key
from .ngrams import _doc_ngrams

TERM_PARTS = 251
DOC_PARTS = 127
# 2M (term, df) rows ~= a few hundred MB broadcast — past this the df
# table stays distributed and pass 2 switches to the co-partition join.
BROADCAST_VOCAB_MAX = 2_000_000


def _batch_doc_term_tf(batch: pa.Table, id_col: str, text_col: str):
    """Vectorized (doc_id, term, tf) triples for one batch: shared Arrow
    tokenize kernel, then one lexsort + run-length encode over the flat
    (owner, term) pairs. Returns (ids, terms, tf) numpy arrays (terms as
    numpy str) or (None, None, None) when the batch has no token."""
    toks, owner = _doc_ngrams(batch[text_col], 1)
    if toks is None:
        return None, None, None
    terms = np.asarray(toks, dtype=str)
    order = np.lexsort((terms, owner))
    t_s, o_s = terms[order], owner[order]
    new = np.empty(len(t_s), bool)
    new[0] = True
    new[1:] = (o_s[1:] != o_s[:-1]) | (t_s[1:] != t_s[:-1])
    starts = np.nonzero(new)[0]
    tf = np.diff(np.append(starts, len(t_s))).astype(np.int64)
    ids = np.asarray(batch[id_col], np.int64)[o_s[starts]]
    return ids, t_s[starts], tf


def _topk_table(ids, terms, tf, df, k: int) -> pa.Table:
    """Per-doc top-k by (score desc, term asc), fully vectorized: one
    lexsort, group starts by doc change, rank = offset within group."""
    score = tf / df
    order = np.lexsort((terms, -score, ids))
    ids_s, term_s = ids[order], terms[order]
    tf_s, df_s, sc_s = tf[order], df[order], score[order]
    new = np.empty(len(ids_s), bool)
    new[0] = True
    new[1:] = ids_s[1:] != ids_s[:-1]
    starts = np.nonzero(new)[0]
    grp = np.cumsum(new) - 1
    rank = np.arange(len(ids_s), dtype=np.int64) - starts[grp] + 1
    sel = rank <= k
    return pa.table({
        "doc_id": pa.array(ids_s[sel], pa.int64()),
        "rank": pa.array(rank[sel], pa.int64()),
        "term": pa.array(term_s[sel].tolist(), pa.string()),
        "tf": pa.array(tf_s[sel], pa.int64()),
        "df": pa.array(df_s[sel], pa.int64()),
        "score": pa.array(sc_s[sel], pa.float64()),
    })


_EMPTY_TOPK = pa.table({
    "doc_id": pa.array([], pa.int64()),
    "rank": pa.array([], pa.int64()),
    "term": pa.array([], pa.string()),
    "tf": pa.array([], pa.int64()),
    "df": pa.array([], pa.int64()),
    "score": pa.array([], pa.float64()),
})


def _doc_terms(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """(term, doc) rows: each doc's DISTINCT terms, one row per pair."""
    ids, terms, _ = _batch_doc_term_tf(batch, id_col, text_col)
    if ids is None:
        return pa.table({"term": pa.array([], pa.string()),
                         "doc": pa.array([], pa.int64())})
    return pa.table({"term": pa.array(terms, pa.string()),
                     "doc": pa.array(ids, pa.int64())})


def inverted_index(docs, *, id_col: str = "doc_id",
                   text_col: str = "text", min_df: int = 50):
    """Corpus inverted-index summary: per term with document frequency
    >= min_df, (term, df, min_doc, max_doc, sum_doc) — the bounded
    projection of a postings list that a SQL oracle can recompute
    (full postings are the same rows before the per-term reduce; a
    sink would write them partitioned by the same crc32(term) key).

    Shape: (term, doc) rows reduced per term by `combine_by_key` (df,
    min/max/sum of doc ids — each doc counted once per term), then the
    row-local min_df filter. Never a per-distinct-term groupby."""

    def frequent(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(np.asarray(batch["df"]) >= min_df))

    return combine_by_key(
        docs.map_batches(lambda b: _doc_terms(b, id_col, text_col),
                         batch_format="pyarrow"), "term",
        {"df": ("doc", "count"), "min_doc": ("doc", "min"),
         "max_doc": ("doc", "max"), "sum_doc": ("doc", "sum")},
        parts=TERM_PARTS).map_batches(frequent, batch_format="pyarrow")


def tfidf_top_terms(docs, *, id_col: str = "doc_id",
                    text_col: str = "text", k: int = 3,
                    broadcast_vocab_max: int = BROADCAST_VOCAB_MAX):
    """(doc_id, rank, term, tf, df, score): each document's top-k terms
    by tf/df (score desc, term asc ties), df over the whole corpus."""
    import ray

    df_ds = combine_by_key(
        docs.map_batches(lambda b: _doc_terms(b, id_col, text_col),
                         batch_format="pyarrow"), "term",
        {"df": ("term", "count")}, parts=TERM_PARTS).materialize()
    n_vocab = df_ds.count()

    if n_vocab <= broadcast_vocab_max:
        # -- broadcast path: sorted vocab shipped once via ray.put --
        df_tbl = df_ds.to_pandas()
        vocab = df_tbl["term"].to_numpy(dtype=str)
        dfs = df_tbl["df"].to_numpy(np.int64)
        order = np.argsort(vocab, kind="stable")
        df_ref = ray.put((vocab[order], dfs[order]))

        def score_topk(batch: pa.Table) -> pa.Table:
            vocab_s, dfs_s = ray.get(df_ref)
            ids, terms, tf = _batch_doc_term_tf(batch, id_col, text_col)
            if ids is None:
                return _EMPTY_TOPK
            pos = np.searchsorted(vocab_s, terms)
            # the df pass saw this same corpus, so every term must be in
            # the vocabulary — a miss means the upstream pipeline is not
            # re-execution-deterministic; fail loudly, never read a
            # neighboring term's df
            if (pos >= len(vocab_s)).any() or \
                    (vocab_s[np.minimum(pos, len(vocab_s) - 1)]
                     != terms).any():
                raise ValueError(
                    "tfidf_top_terms: term absent from the df vocabulary "
                    "— upstream dataset changed between the two passes")
            return _topk_table(ids, terms, tf, dfs_s[pos], k)

        return docs.map_batches(score_topk, batch_format="pyarrow")

    # -- big-vocab path: (doc, term, tf) rows left-join the df table on
    # the string term (one exchange, no driver state), then a coarse
    # doc-hash shuffle runs the vectorized per-doc top-k.
    from .relational import shuffle_join

    def pair_rows(batch: pa.Table) -> pa.Table:
        ids, terms, tf = _batch_doc_term_tf(batch, id_col, text_col)
        if ids is None:
            ids = np.empty(0, np.int64)
            terms = np.empty(0, "<U1")
            tf = np.empty(0, np.int64)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "term": pa.array(terms.tolist(), pa.string()),
            "tf": pa.array(tf, pa.int64())})

    def check(batch: pa.Table) -> pa.Table:
        # same failure as the broadcast path's vocabulary miss
        if batch["df"].null_count:
            raise ValueError(
                "tfidf_top_terms: term absent from the df vocabulary "
                "— upstream dataset changed between the two passes")
        return batch

    def topk_local(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return _EMPTY_TOPK
        return _topk_table(np.asarray(part["doc_id"], np.int64),
                           np.asarray(part["term"], dtype=str),
                           np.asarray(part["tf"], np.int64),
                           np.asarray(part["df"], np.int64), k)

    joined = shuffle_join(docs.map_batches(pair_rows, batch_format="pyarrow"),
                          df_ds, key="term", right_cols=("df",), how="left",
                          parts=TERM_PARTS)
    return by_partition(joined.map_batches(check, batch_format="pyarrow"),
                        "doc_id", topk_local, parts=DOC_PARTS)
