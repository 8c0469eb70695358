"""Distributed BPE tokenizer training — the Sennrich et al. (2016)
byte-pair-encoding merge learner, the algorithm behind GPT-2/RoBERTa
vocabularies, expressed over the engine's coarse-partition primitives.

The practical trick every real trainer uses (HF tokenizers included):
learn over the DISTINCT-WORD HISTOGRAM, not the corpus — Heaps' law
makes the histogram orders of magnitude smaller than the text, and all
pair statistics are exact when weighted by word counts. The corpus is
touched exactly once (the histogram build); every merge round then
works on (word-symbols, count) rows.

Per merge round, fully distributed:
  1. pair partials: each block counts adjacent symbol pairs weighted by
     word count (vectorized per block);
  2. coarse prime-modulus reduce -> exact global count per pair, each
     pair living in exactly ONE partition;
  3. per-partition top-1 -> <= parts candidate rows -> driver picks the
     global best with the deterministic tie-break (count DESC, left
     ASC, right ASC) — driver state is `parts` rows, never the pair
     table;
  4. the single winning pair broadcasts in the closure; every block
     rewrites its words with the standard greedy left-to-right
     non-overlapping merge; the histogram re-materializes with a
     constant block count (the pagerank-loop discipline).

Determinism: counts are exact integers and the tie-break is total, so
the learned merge sequence is bit-identical at any parallelism — which
is what lets an independent pure-Python twin (oracles.ensure_bpe_golden)
gate the result.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from .combine import by_partition, combine_by_key

WORD_RE = re.compile("[a-z0-9]+")
EOW = "</w>"                 # Sennrich end-of-word sentinel
BPE_PARTS = 61


def word_histogram(pages, *, text_col: str = "text"):
    """Dataset(word, cnt): lowercase [a-z0-9]+ token counts through
    `combine_by_key` (the corpus' only pass)."""
    def words(batch: pa.Table) -> pa.Table:
        out: list[str] = []
        for t in batch[text_col].to_pylist():
            out.extend(WORD_RE.findall(t.lower()))
        return pa.table({"word": pa.array(out, pa.string())})

    return combine_by_key(pages.map_batches(words, batch_format="pyarrow"),
                          "word", {"cnt": ("word", "count")},
                          parts=BPE_PARTS)


def merge_word(syms: list[str], left: str, right: str) -> list[str]:
    """Greedy left-to-right non-overlapping application of one merge —
    the reference semantics both the engine and the twin implement."""
    out = []
    i = 0
    n = len(syms)
    while i < n:
        if i + 1 < n and syms[i] == left and syms[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def bpe_train(hist, n_merges: int, *, n_blocks: int = 16):
    """Learn `n_merges` BPE merges from Dataset(word, cnt) ->
    list[(rank, left, right, count)] (the merge table, driver-side by
    definition: it IS the model, n_merges rows)."""
    import ray

    def to_syms(batch: pa.Table) -> pa.Table:
        words = batch["word"].to_pylist()
        syms = [list(w[:-1]) + [w[-1] + EOW] if w else []
                for w in words]
        return pa.table({"syms": pa.array(syms,
                                          pa.list_(pa.string())),
                         "cnt": batch["cnt"]})

    state = (hist.map_batches(to_syms, batch_format="pyarrow")
             .repartition(n_blocks).materialize())
    merges: list[tuple[int, str, str, int]] = []

    for rank in range(n_merges):
        def pair_partial(batch: pa.Table) -> pa.Table:
            cnts = np.asarray(batch["cnt"], np.int64)
            agg: dict[tuple[str, str], int] = {}
            for syms, c in zip(batch["syms"].to_pylist(), cnts):
                for a, b in zip(syms, syms[1:]):
                    agg[(a, b)] = agg.get((a, b), 0) + int(c)
            if not agg:
                return pa.table({"l": pa.array([], pa.string()),
                                 "r": pa.array([], pa.string()),
                                 "c": pa.array([], pa.int64())})
            ls, rs = zip(*agg.keys())
            return pa.table({
                "l": pa.array(list(ls), pa.string()),
                "r": pa.array(list(rs), pa.string()),
                "c": pa.array(list(agg.values()), pa.int64())})

        def pair_top1(part: pa.Table) -> pa.Table:
            ls = part["l"].to_pylist()
            rs = part["r"].to_pylist()
            cs = np.asarray(part["c"], np.int64)
            agg: dict[tuple[str, str], int] = {}
            for a, b, c in zip(ls, rs, cs):
                agg[(a, b)] = agg.get((a, b), 0) + int(c)
            # tie-break (count DESC, left ASC, right ASC) — same total
            # order as the driver merge below
            (l, r), c = min(agg.items(),
                            key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
            return pa.table({"l": pa.array([l]), "r": pa.array([r]),
                             "c": pa.array([c], pa.int64())})

        cands = by_partition(
            state.map_batches(pair_partial, batch_format="pyarrow"),
            ["l", "r"], pair_top1, parts=BPE_PARTS).take_all()
        if not cands:
            break
        best = min(cands, key=lambda row: (-row["c"], row["l"], row["r"]))
        left, right, cnt = best["l"], best["r"], int(best["c"])
        merges.append((rank, left, right, cnt))

        def apply_merge(batch: pa.Table, left=left, right=right
                        ) -> pa.Table:
            syms = [merge_word(s, left, right)
                    for s in batch["syms"].to_pylist()]
            return pa.table({"syms": pa.array(syms,
                                              pa.list_(pa.string())),
                             "cnt": batch["cnt"]})

        state = (state.map_batches(apply_merge, batch_format="pyarrow")
                 .repartition(n_blocks).materialize())
    return merges


def rank_table(merges) -> dict:
    """[(rank, left, right, cnt)] -> {(left, right): rank}."""
    return {(l, r): k for k, l, r, _ in merges}


def encode_word(word: str, ranks: dict) -> list[str]:
    """Classic rank-priority BPE encode (the GPT-2 apply loop): start
    from characters (+ EOW on the last), repeatedly merge the pair with
    the LOWEST learned rank until none applies."""
    if not word:
        return []
    syms = list(word[:-1]) + [word[-1] + EOW]
    while len(syms) > 1:
        best = None
        for a, b in zip(syms, syms[1:]):
            r = ranks.get((a, b))
            if r is not None and (best is None or r < best[0]):
                best = (r, a, b)
        if best is None:
            break
        syms = merge_word(syms, best[1], best[2])
    return syms


class BpeEncodeStage:
    """Actor-pool tokenizer apply: the merge table (the MODEL — tiny by
    definition) is handed to every actor once via the constructor;
    __call__ encodes each DISTINCT word in the batch once (per-actor
    cache, the hot-path discipline: corpora repeat words) and emits
    per-doc token accounting: (doc_id, n_words, n_tokens,
    token_crc_sum) with token_crc_sum = sum of crc32(token) over the
    doc's token stream (order-free, collision-strong)."""

    def __init__(self, merges):
        self.ranks = rank_table(merges)
        self.cache: dict = {}

    def _encode(self, w: str):
        hit = self.cache.get(w)
        if hit is None:
            import zlib
            toks = encode_word(w, self.ranks)
            hit = (len(toks), sum(zlib.crc32(t.encode()) for t in toks))
            self.cache[w] = hit
        return hit

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"]
        nw = []
        nt = []
        cs = []
        for t in batch["text"].to_pylist():
            words = WORD_RE.findall(t.lower())
            tot_t = 0
            tot_c = 0
            for w in words:
                a, b = self._encode(w)
                tot_t += a
                tot_c += b
            nw.append(len(words))
            nt.append(tot_t)
            cs.append(tot_c)
        return pa.table({
            "doc_id": ids,
            "n_words": pa.array(nw, pa.int64()),
            "n_tokens": pa.array(nt, pa.int64()),
            "token_crc_sum": pa.array(cs, pa.int64())})
