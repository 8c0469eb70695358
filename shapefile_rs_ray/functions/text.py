"""Text-analysis kernels for the web-page table: token/char counting, quality
scoring, language ID, document fingerprinting. All per-batch vectorized
(pyarrow.compute kernels + numpy).

`token_stats` counts its four patterns over the UTF-8 value bytes with one
byte-class table: every pattern is an ASCII class, and every byte of a
non-ASCII character is >= 0x80, so a character matches a class iff its
bytes do and a run of matching characters is a run of matching bytes. The
oracle (`token_stats_sql`, see __ray_entry__.oracle_sql) keeps the patterns
as DuckDB RE2 regexes, so it shares no code with the engine.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

np.seterr(over="ignore")  # rolling-hash uint64 wraparound is intentional

TOKEN_RE = "[A-Za-z0-9]+"
WS_TOKEN_RE = "[^ \\t\\n\\r]+"
UPPER_RE = "[A-Z]"
PUNCT_RE = "[.,;:!?]"


# byte classes of the token_stats patterns (ASCII only, see module doc)
_TOKEN, _WS_TOKEN, _UPPER, _PUNCT = 1, 2, 4, 8
_CLASS = np.zeros(256, np.uint8)
for _b in range(256):
    _c = chr(_b)
    _CLASS[_b] = ((_TOKEN if _b < 128 and _c.isalnum() else 0)
                  | (_WS_TOKEN if _c not in " \t\n\r" else 0)
                  | (_UPPER if "A" <= _c <= "Z" else 0)
                  | (_PUNCT if _c in ".,;:!?" else 0))


def _class_counts(arr: pa.Array) -> list[pa.Array]:
    """Per-row matches of TOKEN_RE, WS_TOKEN_RE, UPPER_RE and PUNCT_RE in
    one string/large_string array (any offset; null rows stay null)."""
    n = len(arr)
    offs = np.zeros(n + 1, np.int64)
    data = np.zeros(0, np.uint8)
    _, obuf, dbuf = arr.buffers()
    if n and dbuf is not None:
        odt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
        offs = np.frombuffer(obuf, odt)[arr.offset:arr.offset + n + 1]
        data = np.frombuffer(dbuf, np.uint8)[offs[0]:offs[-1]]
        offs = offs.astype(np.int64) - offs[0]
    cls = _CLASS[data]
    null = ~np.asarray(arr.is_valid())
    starts = offs[:-1][offs[:-1] < len(data)]
    out = []
    for bit, runs in ((_TOKEN, True), (_WS_TOKEN, True), (_UPPER, False),
                      (_PUNCT, False)):
        hit = (cls & bit).astype(bool)
        if runs:    # count run starts; a run never continues across rows
            prev = np.concatenate(([False], hit[:-1]))
            prev[starts] = False
            hit &= ~prev
        row = np.searchsorted(offs, np.flatnonzero(hit), side="right") - 1
        out.append(pa.array(np.bincount(row, minlength=n).astype(np.int64),
                            mask=null))
    return out


def token_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append n_chars / n_tokens / n_ws_tokens / n_upper / n_punct /
    is_quality columns. Integer outputs only -> exact oracle parity."""
    t = batch[text_col]
    per_chunk = [_class_counts(c) for c in t.chunks]
    n_tokens, n_ws, n_upper, n_punct = (
        pa.chunked_array([c[i] for c in per_chunk], pa.int64())
        for i in range(4))
    n_chars = pc.utf8_length(t)
    is_quality = pc.and_(
        pc.and_(pc.greater_equal(n_tokens, 10), pc.less(n_chars, 100000)),
        pc.less_equal(pc.multiply(n_upper, 2), n_chars))
    out = batch
    for name, col in [("n_chars", pc.cast(n_chars, pa.int64())),
                      ("n_tokens", n_tokens), ("n_ws_tokens", n_ws),
                      ("n_upper", n_upper), ("n_punct", n_punct),
                      ("is_quality", is_quality)]:
        out = out.append_column(name, col)
    return out


def token_stats_sql(text_expr: str = "text") -> dict[str, str]:
    """The DuckDB expressions matching token_stats: RE2 regexes over the
    patterns the engine counts with byte classes."""
    n_chars = f"length({text_expr})"
    n_tokens = f"length(regexp_extract_all({text_expr}, '{TOKEN_RE}'))"
    n_ws = f"length(regexp_extract_all({text_expr}, '[^ \\t\\n\\r]+'))"
    n_upper = f"length(regexp_extract_all({text_expr}, '{UPPER_RE}'))"
    n_punct = f"length(regexp_extract_all({text_expr}, '{PUNCT_RE}'))"
    return {
        "n_chars": f"CAST({n_chars} AS BIGINT)",
        "n_tokens": f"CAST({n_tokens} AS BIGINT)",
        "n_ws_tokens": f"CAST({n_ws} AS BIGINT)",
        "n_upper": f"CAST({n_upper} AS BIGINT)",
        "n_punct": f"CAST({n_punct} AS BIGINT)",
        "is_quality": (f"({n_tokens} >= 10 AND {n_chars} < 100000 "
                       f"AND {n_upper} * 2 <= {n_chars})"),
    }


# --------------------------------------------------------------------------
# language ID (stopword-hit heuristic; langid_sql is the exact DuckDB twin)
# --------------------------------------------------------------------------

STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "auf", "zu"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "des", "dans", "que"},
    "es": {"el", "la", "los", "las", "y", "es", "un", "una", "que", "en"},
    "zh": set(),   # CJK handled by script detection below
}


class LangId:
    """Stateful language-ID stage: stopword value-sets built once
    (__init__), scored per batch (__call__) with Arrow kernels — no
    per-row Python in the hot path. Ties broken by language code;
    CJK-dominant text -> 'zh'; no tokens -> 'und'.

    Equivalence notes (these keep langid_sql and predict() bit-identical):
    tokens = non-empty pieces of splitting on '[^a-zA-Z]+' == the old
    re.findall('[a-zA-Z]+'); per-lang hits via pc.is_in on the lowered
    flat token array + np.add.reduceat over doc offsets; the
    first-strictly-greater scan over sorted languages becomes an argmax
    over the (langs-sorted) hit matrix (np.argmax returns the FIRST max).
    """

    def __init__(self):
        self.langs = sorted(k for k in STOPWORDS if STOPWORDS[k])
        self.sets = {lang: pa.array(sorted(STOPWORDS[lang]))
                     for lang in self.langs}

    def predict(self, texts: list[str]) -> list[str]:
        return (self(pa.table({"text": pa.array(texts, pa.string())}))
                ["lang_pred"].to_pylist())

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        text = batch["text"].combine_chunks() if isinstance(
            batch["text"], pa.ChunkedArray) else batch["text"]
        n = len(text)
        if n == 0:
            return batch.append_column("lang_pred",
                                       pa.array([], pa.string()))
        # CJK pre-test over the first 400 codepoints
        t400 = pc.utf8_slice_codeunits(text, 0, 400)
        cjk = pc.count_substring_regex(t400, "[一-鿿]")
        cjk = np.asarray(cjk, np.int64)
        tlen = np.asarray(pc.utf8_length(text), np.int64)
        is_zh = cjk * 4 > np.minimum(tlen, 400)
        # tokenize: non-empty split pieces == findall('[a-zA-Z]+')
        toks = pc.split_pattern_regex(text, "[^a-zA-Z]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.utf8_lower(toks.flatten())
        offsets = np.asarray(toks.offsets, np.int64)
        nonempty_tok = np.asarray(pc.not_equal(flat, pa.scalar("")),
                                  bool)
        seg = np.zeros(len(flat) + 1, np.int64)
        np.add.at(seg, offsets[1:], 1)      # doc boundary markers
        doc_of = np.cumsum(seg[:-1])        # doc index per flat token
        n_words = np.bincount(doc_of[nonempty_tok], minlength=n + 1)[:n]
        hits = np.zeros((n, len(self.langs)), np.int64)
        for j, lang in enumerate(self.langs):
            m = np.asarray(pc.is_in(flat, value_set=self.sets[lang]), bool)
            hits[:, j] = np.bincount(doc_of[m], minlength=n + 1)[:n]
        best_j = np.argmax(hits, axis=1)    # FIRST max == sorted-lang scan
        best = hits[np.arange(n), best_j]
        lang_arr = np.array(self.langs)
        preds = np.where(is_zh, "zh",
                         np.where(n_words == 0, "und",
                                  np.where(best > 0, lang_arr[best_j],
                                           "en")))
        return batch.append_column("lang_pred",
                                   pa.array(preds.tolist(), pa.string()))


def langid_sql(text_expr: str = "text") -> str:
    """DuckDB expression chain reproducing LangId.predict exactly: the same
    stopword tables (single source, this module), integer hit counts (no
    float summation, so SQL aggregation order cannot diverge), the same
    CJK-script pre-test over the first 400 chars, and the same
    first-strictly-greater tie-break over the sorted language order.
    Yields columns (ws, h_<lang>..., lang_pred); select `lang_pred`.
    """
    langs = sorted(k for k in STOPWORDS if STOPWORDS[k])
    ws = (f"list_transform(regexp_extract_all({text_expr}, "
          f"'[a-zA-Z]+'), w -> lower(w))")
    t400 = f"substr({text_expr}, 1, 400)"
    cjk = (f"(length({t400}) - length(regexp_replace({t400}, "
           f"'[\u4e00-\u9fff]', '', 'g')))")
    hits = {}
    for lang in langs:
        words = ", ".join(f"'{w}'" for w in sorted(STOPWORDS[lang]))
        hits[lang] = f"len(list_filter({ws}, w -> w IN ({words})))"
    maxh = "GREATEST(" + ", ".join(hits[lang] for lang in langs) + ")"
    # LangId iterates langs in sorted order and replaces only on a STRICT
    # increase -> the earliest language attaining the max wins
    cascade = " ".join(f"WHEN {hits[lang]} = {maxh} THEN '{lang}'"
                       for lang in langs)
    return (f"CASE WHEN {cjk} * 4 > LEAST(length({text_expr}), 400) "
            f"THEN 'zh' "
            f"WHEN len({ws}) = 0 THEN 'und' "
            f"WHEN {maxh} = 0 THEN 'en' "
            f"{cascade} END")


# --------------------------------------------------------------------------
# fingerprinting (winnowing-style rolling hash; engine-only)
# --------------------------------------------------------------------------

_FP_K = 16       # char k-grams
_FP_WIN = 32     # winnowing window
_FP_BASE = np.uint64(1000003)
_FP_MASK = np.uint64((1 << 61) - 1)


def doc_fingerprints(texts: list[str]) -> np.ndarray:
    """One int64 winnowing fingerprint per document: min k-gram rolling hash
    per window, xor-folded. Deterministic across processes (no PYTHONHASHSEED
    dependence)."""
    out = np.empty(len(texts), np.int64)
    # k-gram weights are text-independent — computed once per call, not
    # once per document
    powers = np.empty(_FP_K, np.uint64)
    powers[-1] = np.uint64(1)
    for c in range(_FP_K - 2, -1, -1):
        powers[c] = powers[c + 1] * _FP_BASE
    for i, t in enumerate(texts):
        b = np.frombuffer(t.encode("utf-8"), np.uint8)
        if len(b) < _FP_K:
            h = np.uint64(14695981039346656037)
            for c in b.tolist():
                h = (h ^ np.uint64(c)) * np.uint64(1099511628211)
            out[i] = np.int64(h & np.uint64((1 << 62) - 1))
            continue
        # polynomial rolling hash of all k-grams, vectorized:
        # h[j] = sum_{c=0..k-1} b[j+c]*BASE^(k-1-c) mod 2^64
        n = len(b) - _FP_K + 1
        h = np.zeros(n, np.uint64)
        for c in range(_FP_K):
            h += b[c:c + n].astype(np.uint64) * powers[c]
        h &= _FP_MASK
        if n <= _FP_WIN:
            mins = np.array([h.min()], np.uint64)
        else:
            # sliding window min via stride trick
            sw = np.lib.stride_tricks.sliding_window_view(h, _FP_WIN)
            mins = np.unique(sw.min(axis=1))
        fp = np.uint64(0)
        for m in mins.tolist():
            fp ^= np.uint64(m) * np.uint64(0x9E3779B97F4A7C15) & np.uint64(0xFFFFFFFFFFFFFFFF)
        out[i] = np.int64(fp & np.uint64((1 << 62) - 1))
    return out


class Fingerprinter:
    def __call__(self, batch: pa.Table) -> pa.Table:
        fps = doc_fingerprints(batch["text"].to_pylist())
        return batch.append_column("fingerprint", pa.array(fps, pa.int64()))
