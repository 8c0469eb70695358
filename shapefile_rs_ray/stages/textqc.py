"""Text quality-control operators for LM-corpus curation: PII
redaction and Gopher-style repetition/quality statistics.

Both are pure map-side stages (no shuffle at any corpus size): every
kernel is one Arrow compute call or one lexsort/reduceat pass per
batch, and both ship exact DuckDB twins (RE2 regexes on both sides;
ratios are single int/int IEEE divisions).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .combine import by_partition

# RE2 syntax, identical semantics in Arrow and DuckDB (both link RE2)
EMAIL_RE = r"[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}"
PHONE_RE = r"\b5[0-9]{2}-[0-9]{4}\b"


def pii_scrub(docs, *, id_col: str = "doc_id", text_col: str = "text"):
    """(doc_id, n_emails, n_phones, clean): count and redact email and
    US-555-style phone patterns. Redaction order is emails first, then
    phones, so a phone inside an email never double-redacts."""

    def scrub(batch: pa.Table) -> pa.Table:
        text = pc.cast(batch[text_col], pa.string())
        n_email = pc.count_substring_regex(text, EMAIL_RE)
        clean = pc.replace_substring_regex(text, EMAIL_RE, "<EMAIL>")
        n_phone = pc.count_substring_regex(clean, PHONE_RE)
        clean = pc.replace_substring_regex(clean, PHONE_RE, "<PHONE>")
        return pa.table({
            id_col: batch[id_col],
            "n_emails": pc.cast(n_email, pa.int64()),
            "n_phones": pc.cast(n_phone, pa.int64()),
            "clean": clean,
        })

    return docs.map_batches(scrub, batch_format="pyarrow")


def gopher_quality(docs, *, id_col: str = "doc_id",
                   text_col: str = "text",
                   repetition_factor: int = 5):
    """Per-doc Gopher-style repetition/quality measures over the shared
    [a-z0-9]+ token kernel:

      n_words, sum_word_len, n_distinct, max_word_cnt (the most frequent
      word's count), mean_word_len (= sum/n, one IEEE division),
      is_repetitive (1 when the top word exceeds 1/repetition_factor of
      all tokens — the 'max repeated word fraction' gate).

    Docs without a single token emit zeros (mean 0.0, not NULL)."""

    from .tfidf import _batch_doc_term_tf

    def stats(batch: pa.Table) -> pa.Table:
        # every measure derives from the SHARED distinct-(doc, term, tf)
        # kernel (tfidf._batch_doc_term_tf) so the tokenization can never
        # drift from the tfidf/ngram surface; assumes one row per doc id
        # within a batch (the documents-table shape)
        n_rows = batch.num_rows
        ids = np.asarray(batch[id_col], np.int64)
        n_words = np.zeros(n_rows, np.int64)
        sum_len = np.zeros(n_rows, np.int64)
        n_dist = np.zeros(n_rows, np.int64)
        max_cnt = np.zeros(n_rows, np.int64)
        kids, terms, tf = _batch_doc_term_tf(batch, id_col, text_col)
        if kids is not None:
            new = np.empty(len(kids), bool)
            new[0] = True
            new[1:] = kids[1:] != kids[:-1]
            starts = np.nonzero(new)[0]
            order = np.argsort(ids, kind="stable")
            pos = order[np.searchsorted(ids[order], kids[starts])]
            tlen = np.char.str_len(terms).astype(np.int64)
            n_words[pos] = np.add.reduceat(tf, starts)
            sum_len[pos] = np.add.reduceat(tf * tlen, starts)
            n_dist[pos] = np.diff(np.append(starts, len(kids)))
            max_cnt[pos] = np.maximum.reduceat(tf, starts)
        mean_len = np.where(n_words > 0, sum_len / np.maximum(n_words, 1),
                            0.0)
        rep = (max_cnt * repetition_factor > n_words) & (n_words > 0)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "n_words": pa.array(n_words, pa.int64()),
            "sum_word_len": pa.array(sum_len, pa.int64()),
            "n_distinct": pa.array(n_dist, pa.int64()),
            "max_word_cnt": pa.array(max_cnt, pa.int64()),
            "mean_word_len": pa.array(mean_len, pa.float64()),
            "is_repetitive": pa.array(rep.astype(np.int64), pa.int64()),
        })

    return docs.map_batches(stats, batch_format="pyarrow")


HOST_PARTS = 61


def assemble_host_docs(pages, *, url_col: str = "url",
                       text_col: str = "text", ts_col: str = "warc_ts",
                       id_col: str = "page_id"):
    """Document assembly (the WET -> document reconstruction step): per
    url host, concatenate page texts in (ts, page_id) order and emit
    (host, n_pages, n_chars, doc_sha) — the assembled doc itself is
    summarized by sha256 so the output stays bounded per host.

    Shape: ONE coarse crc32(host)-mod-prime shuffle (whole hosts
    co-locate; never a per-distinct-host groupby), per-partition lexsort
    + run-boundary concat. Text moves once — the unavoidable motion of
    a grouping concat."""
    import hashlib

    def rows(batch: pa.Table) -> pa.Table:
        # non-matching urls -> host '' (the oracle's regexp_extract
        # convention), never a None crash
        host = pc.fill_null(pc.struct_field(
            pc.extract_regex(batch[url_col], r"https://(?P<h>[^/]+)/"),
            "h"), "")
        return pa.table({
            "host": host,
            "ts": pc.cast(batch[ts_col], pa.int64()),   # timestamp -> us
            "pid": batch[id_col],
            "text": batch[text_col]})

    def assemble(part: pa.Table) -> pa.Table:
        host = np.asarray(part["host"], dtype=str)
        ts = np.asarray(part["ts"], np.int64)
        pid = np.asarray(part["pid"], np.int64)
        texts = part["text"].to_pylist()
        order = np.lexsort((pid, ts, host))
        host_s = host[order]
        new = np.empty(len(host_s), bool)
        new[0:1] = True
        new[1:] = host_s[1:] != host_s[:-1]
        starts = np.nonzero(new)[0]
        bounds = np.append(starts, len(host_s))
        out_h, out_n, out_c, out_s = [], [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            doc = "".join(texts[order[i]] for i in range(s, e))
            out_h.append(host_s[s])
            out_n.append(e - s)
            out_c.append(len(doc))
            out_s.append(hashlib.sha256(doc.encode("utf-8"))
                         .hexdigest()[:16])
        return pa.table({
            "host": pa.array(out_h, pa.string()),
            "n_pages": pa.array(np.array(out_n, np.int64), pa.int64()),
            "n_chars": pa.array(np.array(out_c, np.int64), pa.int64()),
            "doc_sha": pa.array(out_s, pa.string())})

    return by_partition(pages.map_batches(rows, batch_format="pyarrow"),
                        "host", assemble, parts=HOST_PARTS)


class CompressionRatioStage:
    """Compression-ratio quality signal (the Gopher/CCNet-family
    heuristic: highly compressible text is boilerplate/repetition;
    near-incompressible is noise). The engine's own from-scratch LZW
    (stages/multimodal._lzw_compress — GIF-flavor variable-width codes)
    is the compressor, so the signal is deterministic and library-free;
    per doc: (doc_id, n_raw, n_lzw, ratio_pm = n_lzw*1000 // n_raw).

    One pass, map-only, actor pool; text never shuffles."""

    def __init__(self, text_col: str = "text", key_col: str = "doc_id"):
        from .multimodal import _lzw_compress
        self.text_col = text_col
        self.key_col = key_col
        self.compress = _lzw_compress

    def __call__(self, batch: pa.Table) -> pa.Table:
        raws, comps, pms = [], [], []
        for t in batch[self.text_col].to_pylist():
            b = t.encode("utf-8")
            c = self.compress(b)
            raws.append(len(b))
            comps.append(len(c))
            pms.append(len(c) * 1000 // len(b) if b else 0)
        return pa.table({
            self.key_col: batch[self.key_col],
            "n_raw": pa.array(raws, pa.int64()),
            "n_lzw": pa.array(comps, pa.int64()),
            "ratio_pm": pa.array(pms, pa.int64())})
