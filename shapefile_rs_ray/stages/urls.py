"""URL canonicalization + URL-level dedup — the Common-Crawl curation
steps that precede any content dedup: collapse trivially-distinct URLs
(scheme/host case, default ports, fragments, tracking parameters,
query-parameter order) to one canonical form, then count/dedup by it.

Scale shape: canonicalization is map-only (Arrow kernels for the
splits/case-folds/regex, one vectorized lexsort for parameter
reordering); the dedup is the repo's standard coarse prime-modulus
hash partition + partition-local reduce — the canonical-url string
shuffles once, nothing is per-distinct-key.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .combine import combine_by_key

URL_PARTS = 61          # prime (see dedup.PAIR_PARTS)

# tracking parameters dropped by canonicalization (lowercase prefixes /
# exact names, applied to the raw parameter string before '=')
_TRACKING_PREFIXES = ("utm_",)
_TRACKING_EXACT = ("gclid", "fbclid", "msclkid", "ref")

_URL_RE = (r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://"
           r"(?P<auth>[^/?#]*)"                # authority (host[:port])
           r"(?P<path>[^?#]*)"
           r"(?:\?(?P<query>[^#]*))?"
           r"(?:#.*)?$")                       # fragment dropped


def _canon_params(qs: pa.Array) -> list[str]:
    """Canonical query strings: split on '&', drop tracking params and
    empty segments, sort the surviving 'k=v' strings bytewise, rejoin.
    Vectorized: one flatten + one np.lexsort over the whole batch."""
    parts = pc.split_pattern(pc.fill_null(qs, ""), "&")
    flat = parts.flatten()
    n_rows = len(parts)
    lens = np.asarray(pc.list_value_length(parts), np.int64)
    owner = np.repeat(np.arange(n_rows), lens)
    vals = np.asarray(flat, dtype=str)
    keep = vals != ""
    if keep.any():
        low = np.char.lower(np.char.partition(vals, "=")[:, 0])
        for p in _TRACKING_PREFIXES:
            keep &= ~np.char.startswith(low, p)
        for e in _TRACKING_EXACT:
            keep &= low != e
    vals, owner = vals[keep], owner[keep]
    order = np.lexsort((vals, owner))
    vals, owner = vals[order], owner[order]
    out = [""] * n_rows
    if len(vals):
        starts = np.searchsorted(owner, np.arange(n_rows), side="left")
        ends = np.searchsorted(owner, np.arange(n_rows), side="right")
        vl = vals.tolist()
        for i in range(n_rows):
            if ends[i] > starts[i]:
                out[i] = "&".join(vl[starts[i]:ends[i]])
    return out


def canonicalize_batch(urls: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Canonical URL per row:
    - scheme and host lowercased;
    - default port stripped (:443 for https, :80 for http);
    - empty path -> '/';
    - fragment dropped;
    - tracking params (utm_*, gclid, fbclid, msclkid, ref) dropped;
    - remaining query params sorted bytewise;
    rows that don't parse as scheme://authority... (nulls included)
    pass through unchanged (the conservative choice — never destroy an
    unknown shape).  Assembly is vectorized (np.char kernels over the
    whole batch); only the rare default-port rows pay a per-row
    slice."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    got = pc.extract_regex(urls, _URL_RE)
    ok = np.asarray(pc.fill_null(pc.is_valid(got), False))
    scheme = pc.utf8_lower(pc.struct_field(got, "scheme"))
    auth = pc.utf8_lower(pc.struct_field(got, "auth"))
    path = pc.struct_field(got, "path")
    query = pc.struct_field(got, "query")

    # default-port strip: the :443/:80 rows are rare — only they pay a
    # python slice; everything else stays in numpy
    a = np.asarray(pc.fill_null(auth, ""), dtype=str)
    s = np.asarray(pc.fill_null(scheme, ""), dtype=str)
    https443 = (s == "https") & np.char.endswith(a, ":443")
    http80 = (s == "http") & np.char.endswith(a, ":80")
    porty = np.nonzero(https443 | http80)[0]
    if porty.size:
        a = a.astype(object)
        for i in porty.tolist():
            a[i] = a[i][:-4] if https443[i] else a[i][:-3]
        a = a.astype(str)

    p = np.asarray(pc.fill_null(path, ""), dtype=str)
    p = np.where(p == "", "/", p)
    q = np.asarray(_canon_params(query), dtype=str)
    qpref = np.where(q == "", "", np.char.add("?", q))

    canon = np.char.add(np.char.add(np.char.add(
        np.char.add(s, "://"), a), p), qpref)
    out = pa.array(canon.tolist(), pa.string())
    return pc.if_else(pa.array(ok), out, urls)


def url_dedup(pages, *, id_col: str = "page_id", url_col: str = "url"):
    """Canonical-URL dedup accounting: one row per canonical URL with
    (canon_url, n_pages, min_page) — min_page is the kept
    representative (first-seen == smallest id, the repo's standard
    deterministic winner), reduced by `combine_by_key` on the canonical
    URL."""
    def canon(batch: pa.Table) -> pa.Table:
        return pa.table({"canon_url": canonicalize_batch(batch[url_col]),
                         id_col: batch[id_col].cast(pa.int64())})

    return combine_by_key(pages.map_batches(canon, batch_format="pyarrow"),
                          "canon_url", {"n_pages": (id_col, "count"),
                                        "min_page": (id_col, "min")},
                          parts=URL_PARTS)


def host_blocklist_filter(pages, *, url_col: str = "url",
                          blocked_suffixes: tuple[str, ...] = (),
                          keep: bool = True):
    """Domain-blocklist gate: drop (or keep only) pages whose canonical
    host matches a blocked suffix ('.ads.example' blocks every
    subdomain; a bare host string blocks exactly that host). The
    blocklist is closure-captured (broadcast once per task by Ray's
    argument store), matching is a handful of vectorized ends_with
    passes — real blocklists are O(10^5) suffixes, still one
    np.char.endswith per suffix-length bucket at scale."""
    def fn(batch: pa.Table) -> pa.Table:
        canon = canonicalize_batch(batch[url_col])
        got = pc.extract_regex(canon, _URL_RE)
        host = np.asarray(pc.fill_null(
            pc.utf8_lower(pc.struct_field(got, "auth")), ""), dtype=str)
        blocked = np.zeros(len(host), bool)
        for suf in blocked_suffixes:
            if suf.startswith("."):
                blocked |= np.char.endswith(host, suf)
            else:
                blocked |= (host == suf) | np.char.endswith(host,
                                                            "." + suf)
        mask = ~blocked if keep else blocked
        return batch.filter(pa.array(mask))
    return pages.map_batches(fn, batch_format="pyarrow")
