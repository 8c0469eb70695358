"""N-gram language-model quality scoring — the CCNet/KenLM role in a
curation pipeline: score every document by its average bigram
log-probability under an add-one-smoothed LM trained on the corpus
itself (low scores = disfluent/outlier text, the classic perplexity
bucket filter).

Two passes:
  1. distributed unigram + bigram counts via the shared Arrow token
     kernel, FUSED: one tokenize pass emits both orders' partials
     (bigrams always contain a space, unigrams never do, so the gram
     string disambiguates) into ONE coarse crc32 shuffle + local
     reduce — the tfidf/ngram pattern. The count tables kept for
     scoring are pruned at `min_count` (rare-tail backoff to the
     unseen probability), so the broadcast stays bounded at any corpus
     size; the distinct-unigram total V is exact.
  2. map-side scoring: p(w_i | w_{i-1}) = (c(bigram) + 1) / (c(w_{i-1})
     + V); per-doc logprob = np.sum(np.log(p)) over the doc-ordered
     prob array. DETERMINISM CONTRACT: both the engine and the
     scalar-twin golden build the identical per-doc float64 prob array
     and reduce it with np.sum (numpy's pairwise summation over equal
     arrays is bit-stable), so the gate hash compare is exact.

Output: (doc_id, n_bigrams, logprob, avg_logprob); docs with < 2
tokens emit (0, 0.0, 0.0).
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa

from ..raydata import block_refs
from .combine import combine_by_key
from .ngrams import _doc_ngrams

LM_PARTS = 251


def _grams(texts) -> pa.Table:
    """Unigrams and bigrams of one batch in one column: bigrams always
    contain a space and unigrams never do ([a-z0-9]+ runs), so the gram
    string itself disambiguates the order downstream."""
    grams = [g for g, _ in (_doc_ngrams(texts, 1), _doc_ngrams(texts, 2))
             if g is not None]
    return pa.table({"gram": pa.concat_arrays(grams) if grams
                     else pa.array([], pa.string())})


def _collect_split_counts(ds, min_count: int):
    """Driver fold of the fused count table: split unigrams (no space)
    from bigrams (always a space), prune at min_count, return sorted
    lookup arrays + the EXACT distinct-unigram total V."""
    import ray
    V = 0
    ug, uc, bg, bc = [], [], [], []
    for ref in block_refs(ds):
        t = ray.get(ref)
        if not t.num_rows:
            continue
        g = np.asarray(t["gram"], dtype=str)
        c = np.asarray(t["cnt"], np.int64)
        is_bi = np.char.find(g, " ") >= 0
        V += int((~is_bi).sum())
        keep = c >= min_count
        ku = keep & ~is_bi
        kb = keep & is_bi
        if ku.any():
            ug.append(g[ku])
            uc.append(c[ku])
        if kb.any():
            bg.append(g[kb])
            bc.append(c[kb])

    def _sorted(gs, cs):
        if not gs:
            return np.empty(0, "<U1"), np.empty(0, np.int64)
        g = np.concatenate(gs)
        c = np.concatenate(cs)
        order = np.argsort(g, kind="stable")
        return g[order], c[order]

    uk, uv = _sorted(ug, uc)
    bk, bv = _sorted(bg, bc)
    return uk, uv, bk, bv, V


def _lookup(sorted_keys: np.ndarray, sorted_vals: np.ndarray,
            queries: np.ndarray) -> np.ndarray:
    if len(sorted_keys) == 0:
        return np.zeros(len(queries), np.int64)
    pos = np.searchsorted(sorted_keys, queries)
    pos_c = np.minimum(pos, len(sorted_keys) - 1)
    hit = sorted_keys[pos_c] == queries
    return np.where(hit, sorted_vals[pos_c], 0)


def lm_score(docs, *, id_col: str = "doc_id", text_col: str = "text",
             min_count: int = 1):
    """(doc_id, n_bigrams, logprob, avg_logprob) under the corpus-trained
    add-one bigram LM."""
    import ray

    # ONE tokenize pass + ONE shuffle for both orders
    counts = combine_by_key(
        docs.map_batches(lambda b: _grams(b[text_col]),
                         batch_format="pyarrow"),
        "gram", {"cnt": ("gram", "count")}, parts=LM_PARTS)
    uni_k, uni_v, bi_k, bi_v, V = _collect_split_counts(counts, min_count)
    model_ref = ray.put((uni_k, uni_v, bi_k, bi_v, V))

    def score(batch: pa.Table) -> pa.Table:
        uk, uv, bk, bv, vv = ray.get(model_ref)
        ids = np.asarray(batch[id_col], np.int64)
        n_rows = batch.num_rows
        nb = np.zeros(n_rows, np.int64)
        lp = np.zeros(n_rows, np.float64)
        toks, owner = _doc_ngrams(batch[text_col], 1)
        if toks is not None and len(owner) > 1:
            # whole-batch vectorized bigrams: interior empty tokens can't
            # occur (consecutive delimiters are one split match), so
            # adjacency in the n=1 token array IS bigram adjacency
            t = np.asarray(toks, dtype=str)
            valid = owner[1:] == owner[:-1]
            prev_all = t[:-1][valid]
            big_all = np.char.add(np.char.add(prev_all, " "),
                                  t[1:][valid])
            cb = _lookup(bk, bv, big_all).astype(np.float64)
            cu = _lookup(uk, uv, prev_all).astype(np.float64)
            logp = np.log((cb + 1.0) / (cu + float(vv)))
            bowner = owner[:-1][valid]
            starts = np.searchsorted(bowner, np.arange(n_rows))
            ends = np.searchsorted(bowner, np.arange(n_rows),
                                   side="right")
            for row in range(n_rows):
                s, e = int(starts[row]), int(ends[row])
                if e > s:
                    nb[row] = e - s
                    # np.sum over the doc's own log slice — the golden
                    # twin reduces an elementwise-identical array the
                    # same way (pairwise summation is length-and-order
                    # deterministic)
                    lp[row] = np.sum(logp[s:e])
        avg = np.where(nb > 0, lp / np.maximum(nb, 1), 0.0)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "n_bigrams": pa.array(nb, pa.int64()),
            "logprob": pa.array(lp, pa.float64()),
            "avg_logprob": pa.array(avg, pa.float64())})

    return docs.map_batches(score, batch_format="pyarrow")
