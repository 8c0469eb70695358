"""Training-data curation pipeline: the composite every 100 TB corpus run
needs — quality gate -> language gate -> exact dedup keeping one page per
distinct text — as ONE streaming Ray Data chain.

Shape: the per-page stages (token stats, language ID) are row-local
map_batches; the dedup-keep is a single shuffle of the SURVIVING rows into
coarse content-hash partitions (prime modulus), where each partition keeps
its per-text min-id row with one vectorized lexsort. Filtering happens
BEFORE the shuffle, so only kept-quality text moves — at web scale the
quality+language gates drop most of the corpus first.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import hashing
from ..functions.text import LangId, token_stats
from ..stages.combine import by_partition, combine_by_key

DEDUP_PARTS = 251   # prime (CLAUDE.md partition-modulus rule)


def curate_corpus(pages, *, lang: str = "en", id_col: str = "page_id",
                  text_col: str = "text"):
    """pages -> Dataset(page_id, url, n_tokens): quality pages in `lang`,
    one per distinct text (the min page_id of each surviving clone family).

    Dedup scope note: the keep decision is made over the FILTERED set (a
    family whose min-id page failed the quality gate keeps its smallest
    surviving sibling) — the same semantics as SQL
    `QUALIFY page_id = MIN(page_id) OVER (PARTITION BY text)` after WHERE.
    """

    def gate(batch: pa.Table) -> pa.Table:
        batch = token_stats(batch, text_col=text_col)
        keep = pc.and_(batch["is_quality"],
                       pc.equal(batch["lang_pred"], pa.scalar(lang)))
        batch = batch.filter(keep)
        h = hashing.content_hash64(
            batch[text_col].to_pylist()).view(np.int64)
        # PROJECT before the exchange: the keep-min decision needs only
        # (hash, id) — shipping the text bodies through the shuffle would
        # multiply the exchange volume ~100x for columns keep_min drops
        return pa.table({
            id_col: batch[id_col],
            "url": batch["url"],
            "n_tokens": batch["n_tokens"],
            "__h": pa.array(h, pa.int64()),
        })

    def keep_min(part: pa.Table) -> pa.Table:
        h = np.asarray(part["__h"], np.int64)
        ids = np.asarray(part[id_col], np.int64)
        order = np.lexsort((ids, h))
        hs = h[order]
        first = np.empty(len(hs), bool)
        first[0:1] = True
        first[1:] = hs[1:] != hs[:-1]
        sel = pa.array(order[first])
        return pa.table({
            id_col: pc.take(part[id_col], sel),
            "url": pc.take(part["url"], sel),
            "n_tokens": pc.take(part["n_tokens"], sel),
        })

    # plain task stage, not an actor pool: LangId setup (compile one regex,
    # sort 4 language keys) is microseconds, and tasks use every CPU
    # immediately while an autoscaling pool sticks at its minimum and
    # serializes the whole fused synthesis+stats chain behind it
    lang_stage = LangId()

    def langid_batch(batch: pa.Table) -> pa.Table:
        return lang_stage(batch)

    langed = pages.map_batches(langid_batch, batch_format="pyarrow")
    gated = langed.map_batches(gate, batch_format="pyarrow")
    return by_partition(gated, "__h", keep_min, parts=DEDUP_PARTS)


def stratified_split(pages, *, train_pct: int = 80, val_pct: int = 10,
                     url_col: str = "url", lang_col: str = "lang",
                     text_col: str = "text"):
    """Deterministic train/val/test assignment + per-(lang, split)
    accounting — the split stage every training-data pipeline ends with.

    Assignment is content-addressed (crc32(url) % 100 -> bucket; bucket
    < train_pct -> 0, < train_pct+val_pct -> 1, else 2), so it is stable
    under re-runs, re-partitioning, corpus growth, and dedup-order
    changes — the property that keeps eval contamination impossible
    across pipeline versions (a row's split can never depend on which
    worker saw it). Stats go through `combine_by_key` (never a
    per-distinct-key groupby).

    Returns Dataset(lang, split, n_pages, n_chars).
    """
    lo, hi = train_pct, train_pct + val_pct

    def assign(batch: pa.Table) -> pa.Table:
        bucket = hashing.crc32_str(batch[url_col].to_pylist()) % 100
        split = np.where(bucket < lo, 0, np.where(bucket < hi, 1, 2))
        return pa.table({"lang": batch[lang_col],
                         "split": pa.array(split, pa.int64()),
                         "nc": pc.utf8_length(batch[text_col])
                         .cast(pa.int64())})

    return combine_by_key(pages.map_batches(assign, batch_format="pyarrow"),
                          ["lang", "split"], {"n_pages": ("nc", "count"),
                                              "n_chars": ("nc", "sum")})


QUOTA_DEFAULT = {"en": 200, "de": 120, "fr": 120, "es": 120, "zh": 80}


def quota_sample(pages, *, quotas: dict | None = None,
                 url_col: str = "url", lang_col: str = "lang",
                 id_col: str = "page_id"):
    """Deterministic per-language quota sampling — the data-MIXING stage
    of a training pipeline ("cap English at N pages, keep more of the
    low-resource languages"). Selection is content-addressed: per lang,
    the quota-k pages with the SMALLEST (crc32(url), page_id) win, so
    the sample is a stable function of the corpus — independent of
    partitioning, arrival order and worker count, and monotone under
    corpus growth in the same way a min-hash sketch is.

    Distributed as map-side per-batch per-lang top-k partials (each
    batch keeps at most k rows per lang) + one tiny final merge — the
    grouped-top-k pattern; the shuffle moves O(k x langs x blocks)
    rows, never the corpus. Output: (lang, rank, page_id).
    """
    from ..functions.hashing import crc32_str

    q = QUOTA_DEFAULT if quotas is None else quotas
    langs_sorted = sorted(q)
    lang_idx = {l: i for i, l in enumerate(langs_sorted)}
    kmax = max(q.values())

    def topk_kernel(langs, crc, ids, per_batch: bool):
        li = np.array([lang_idx.get(l, -1) for l in langs], np.int64)
        keep = li >= 0
        li, c, pid = li[keep], crc[keep], ids[keep]
        order = np.lexsort((pid, c, li))
        li, c, pid = li[order], c[order], pid[order]
        new = np.empty(len(li), bool)
        new[0:1] = True
        new[1:] = li[1:] != li[:-1]
        rank = np.arange(len(li)) - np.maximum.accumulate(
            np.where(new, np.arange(len(li)), 0)) + 1
        kv = np.array([q[langs_sorted[i]] for i in li], np.int64) \
            if not per_batch else np.full(len(li), kmax, np.int64)
        m = rank <= kv
        return li[m], c[m], pid[m], rank[m]

    def partial(batch: pa.Table) -> pa.Table:
        langs = batch[lang_col].to_pylist()
        crc = crc32_str(batch[url_col].to_pylist())
        ids = np.asarray(batch[id_col], np.int64)
        li, c, pid, _ = topk_kernel(langs, crc, ids, per_batch=True)
        return pa.table({
            "li": pa.array(li, pa.int64()),
            "crc": pa.array(c, pa.int64()),
            id_col: pa.array(pid, pa.int64())})

    def mid(part: pa.Table) -> pa.Table:
        # per-partition collapse to <= kmax rows per lang BEFORE the
        # final single-block merge: without this, the final merge
        # receives blocks x langs x kmax rows — at CC block counts
        # (millions) that is a single-task hot spot; with it, the final
        # sees at most parts x langs x kmax rows regardless of corpus
        li = np.asarray(part["li"], np.int64)
        c = np.asarray(part["crc"], np.int64)
        pid = np.asarray(part[id_col], np.int64)
        langs = [langs_sorted[i] for i in li]
        li, c, pid, _ = topk_kernel(langs, c, pid, per_batch=True)
        return pa.table({
            "li": pa.array(li, pa.int64()),
            "crc": pa.array(c, pa.int64()),
            id_col: pa.array(pid, pa.int64())})

    def final(part: pa.Table) -> pa.Table:
        li = np.asarray(part["li"], np.int64)
        c = np.asarray(part["crc"], np.int64)
        pid = np.asarray(part[id_col], np.int64)
        langs = [langs_sorted[i] for i in li]
        li, c, pid, rank = topk_kernel(langs, c, pid, per_batch=False)
        return pa.table({
            "lang": pa.array([langs_sorted[i] for i in li], pa.string()),
            "rank": pa.array(rank, pa.int64()),
            id_col: pa.array(pid, pa.int64())})

    # partition the mid-merge by crc hash (NOT by lang — one lang's
    # candidates would still pile into one partition): per-lang top-k over
    # any partitioning of the candidates is exact
    return (by_partition(pages.map_batches(partial, batch_format="pyarrow"),
                         "crc", mid, parts=61)
            .repartition(1)
            .map_batches(final, batch_format="pyarrow"))


def seq_pack(docs, *, cap: int = 64, group: int = 32,
             id_col: str = "doc_id", text_col: str = "text"):
    """Sequence packing — the pretraining batch-prep stage: documents
    pack greedily (first-fit in doc order) into fixed-capacity token
    sequences; a doc that alone exceeds `cap` takes its own sequence
    and is counted as an overflow (a real pipeline would split it).

    Determinism without a global sort: packing runs inside fixed
    doc_id RANGES (group = id_col // `group`), so every group's packing
    is a pure function of its docs — independent of partitioning and
    worker count, and groups parallelize freely (the greedy walk is
    inherently sequential per group, which is why the group, not the
    corpus, is the unit of sequentiality).

    Output per group: (grp, n_docs, total_tokens, n_seqs, n_overflow,
    padding) with padding = sum over closed sequences of (cap - fill)
    where fill < cap."""
    from ..functions.text import TOKEN_RE

    def partial(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col], np.int64)
        n = pc.count_substring_regex(batch[text_col], TOKEN_RE)
        grp = ids // group
        return pa.table({
            "grp": pa.array(grp, pa.int64()),
            id_col: pa.array(ids, pa.int64()),
            "n": pc.cast(n, pa.int64())})

    def pack(part: pa.Table) -> pa.Table:
        grp = np.asarray(part["grp"], np.int64)
        ids = np.asarray(part[id_col], np.int64)
        n = np.asarray(part["n"], np.int64)
        o = np.lexsort((ids, grp))
        grp, ids, n = grp[o], ids[o], n[o]
        if len(grp) == 0:
            return pa.table({k: pa.array([], pa.int64())
                             for k in ("grp", "n_docs", "total_tokens",
                                       "n_seqs", "n_overflow",
                                       "padding")})
        starts = np.flatnonzero(np.concatenate(([True],
                                                grp[1:] != grp[:-1])))
        lens = np.diff(np.append(starts, len(grp)))
        G = len(starts)
        # LOCKSTEP greedy walk: the recurrence is sequential per group
        # but independent ACROSS groups, so iterate doc-INDEX 0..max_len
        # with all groups advancing as numpy vectors — `group` numpy
        # steps total instead of a Python step per doc (the per-doc
        # Python loop is the difference between minutes and hours per
        # partition at 10^12 docs)
        fill = np.full(G, -1, np.int64)
        n_seqs = np.zeros(G, np.int64)
        padding = np.zeros(G, np.int64)
        for i in range(int(lens.max())):
            act = lens > i                      # groups with an i-th doc
            v = np.zeros(G, np.int64)
            v[act] = n[starts[act] + i]
            fits = act & (fill >= 0) & (fill + v <= cap)
            cut = act & ~fits
            pad_now = cut & (fill >= 0) & (fill < cap)
            padding[pad_now] += cap - fill[pad_now]
            n_seqs[cut] += 1
            fill[fits] += v[fits]
            fill[cut] = v[cut]
        tail = (fill >= 0) & (fill < cap)
        padding[tail] += cap - fill[tail]
        tot = np.add.reduceat(n, starts)
        ovf = np.add.reduceat((n > cap).astype(np.int64), starts)
        return pa.table({
            "grp": pa.array(grp[starts], pa.int64()),
            "n_docs": pa.array(lens, pa.int64()),
            "total_tokens": pa.array(tot, pa.int64()),
            "n_seqs": pa.array(n_seqs, pa.int64()),
            "n_overflow": pa.array(ovf, pa.int64()),
            "padding": pa.array(padding, pa.int64())})

    return by_partition(docs.map_batches(partial, batch_format="pyarrow"),
                        "grp", pack, parts=61)
