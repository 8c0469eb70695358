"""Deduplication operators over the web-page table — the training-data
pipeline suite: exact (hash-partitioned), MinHash+LSH near-dup pairs,
SimHash banding, n-gram-Jaccard verification, embedding-cosine near-dup.

Scale shapes:
- exact: per-batch partial (hash -> min id, count) collapses each batch to
  one row per distinct text BEFORE the shuffle; the groupby then moves only
  distinct-key partials. The shuffle key is the 64-bit content hash, never
  the text bytes.
- minhash-lsh: two passes; the shuffle carries (band_key, id, text_hash)
  ints only, never text. Pass 1 buckets and emits clone pairs + candidate
  family pairs + member rows; pass 2 verifies the (rare) candidates with
  exact string-shingle Jaccard computed distributed on the rep-filtered
  corpus, then expands confirmed family pairs through the member rows.
  Band keys are salted with the band index so cross-band buckets never
  collide.
- simhash: 4x16-bit band exact-match blocking, hamming<=`max_hamming` verify.
- embedding: LSH-free blockwise cosine (the brute path is the baseline; the
  bucketed variant lives in stages/ann.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import hashing
from ..raydata import block_refs, ray_data
from .combine import by_partition, combine_by_key


PAIR_PARTS = 61   # prime: survives any power-of-two key packing upstream


def _dedup_pairs(pairs, extra_col: str | None = None):
    """Exact pair dedup without a per-group aggregate: Ray's
    groupby(keys).aggregate() materializes one group per DISTINCT key, which
    collapses at millions of pairs; `combine_by_key` on (id_a, id_b) moves
    them through `PAIR_PARTS` coarse partitions instead. With `extra_col`,
    the MINIMUM extra value per pair is kept."""
    aggs = {} if extra_col is None else {extra_col: (extra_col, "min")}
    return combine_by_key(pairs, ["id_a", "id_b"], aggs, parts=PAIR_PARTS)


def exact_dedup(pages, *, id_col: str = "page_id", text_col: str = "text"):
    """Dataset -> Dataset(page_id, n_copies): the minimum id per distinct
    text and the duplicate-group size (group key = sha256 of the text; a
    collision would need 2^-128 odds, documented deviation from
    group-by-text).

    The merge is NOT groupby(h) — distinct-text count grows with the
    corpus, the measured-pathological per-distinct-key shape — but
    `combine_by_key` on the 64-bit content hash, which collapses each
    batch to one row per distinct text before its one coarse shuffle.
    """

    def with_hash(batch: pa.Table) -> pa.Table:
        h = hashing.content_hash64(batch[text_col].to_pylist()).view(np.int64)
        return pa.table({"h": pa.array(h, pa.int64()),
                         id_col: batch[id_col].cast(pa.int64())})

    return combine_by_key(
        pages.map_batches(with_hash, batch_format="pyarrow"), "h",
        {id_col: (id_col, "min"), "n_copies": (id_col, "count")}
    ).drop_columns(["h"])


def minhash_lsh_pairs(pages, *, id_col: str = "page_id",
                      text_col: str = "text", num_perm: int = 64,
                      bands: int = 16, jaccard_threshold: float = 0.8,
                      concurrency=(1, 4), checkpoint_dir: str | None = None):
    """Near-duplicate pairs (id_a < id_b, exact word-3-shingle Jaccard >=
    threshold) among LSH candidates. Returns Dataset(id_a, id_b).

    Two-pass, scale-safe: the shuffle carries ONLY (band_key, id,
    text_hash) — 24 bytes per page per band, never the text (the round-1
    design shipped bands x text volume through the exchange).

    Pass 1 (bucketing): per-partition family collapse over the int rows
    emits three row kinds — clone pairs (identical-hash families, band 0
    triangles), candidate FAMILY pairs ((h_a, h_b) with min-id reps, the
    rare distinct-texts-colliding case), and (h, id) member rows (band 0,
    each page once; these make the final expansion a lookup instead of a
    second full sha256 pass over the corpus).

    Pass 2 (verify + expand): the candidate collision set is orders of
    magnitude smaller than the corpus — its rep ids live on the driver as
    plain int lists and broadcast via ray.put; shingle sets are computed
    DISTRIBUTED on the rep-filtered pages and shuffled by pair index (only
    collision reps' shingles move), verified by the exact string-set
    Jaccard, and confirmed family pairs expand to member pairs through the
    member rows. Texts never shuffle.

    Pass 2 is ONE corpus pass at any candidate count (round-3 ran one
    pass per driver-bounded chunk; K chunks cost K corpus scans): the
    candidate set never touches the driver — global (h_a, h_b) dedup is
    a coarse pair-hash shuffle, rep membership is a driver-bounded Bloom
    bitmap (false positives only shingle extra pages; the attach join
    drops them), and confirmed-family expansion is a member-hash
    shuffle.
    """
    # plain task function, not an actor pool: MinHasher setup is microseconds
    # (derives its permutation constants from a fixed seed), and tasks use
    # every CPU immediately while a pool autoscales up from its minimum
    mh = hashing.MinHasher(num_perm=num_perm)

    def signatures(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        sig = mh.signatures(texts)
        keys = mh.band_keys(sig, bands)      # (n, bands)
        n = len(texts)
        ids = np.asarray(batch[id_col], np.int64)
        h = hashing.content_hash64(texts).view(np.int64)  # once per doc
        rep = np.repeat(np.arange(n), bands)
        return pa.table({
            "band_key": pa.array(keys.ravel(), pa.int64()),
            id_col: pa.array(ids[rep], pa.int64()),
            "__h": pa.array(h[rep], pa.int64()),
        })

    def detect(part: pa.Table) -> pa.Table:
        """One shuffle partition = many whole band buckets (bucketing is on
        band_key % P so a bucket never spans partitions). Output columns
        (kind, a, b, rep_a, rep_b): kind 0 = clone pair (a,b = ids),
        kind 1 = candidate family pair (a,b = text hashes, h_a < h_b),
        kind 2 = member row (a = text hash, b = id)."""
        keys = np.asarray(part["band_key"], np.int64)
        ids = np.asarray(part[id_col], np.int64)
        hs = np.asarray(part["__h"], np.int64)
        order = np.lexsort((ids, hs, keys))
        keys, ids, hs = keys[order], ids[order], hs[order]
        fam_new = np.empty(len(keys), bool)
        fam_new[0:1] = True
        fam_new[1:] = (keys[1:] != keys[:-1]) | (hs[1:] != hs[:-1])
        fam_start = np.nonzero(fam_new)[0]
        fam_size = np.append(fam_start[1:], len(keys)) - fam_start
        fam_key = keys[fam_start]
        fam_band = fam_key % bands
        out_k, out_a, out_b, out_ra, out_rb = [], [], [], [], []

        # 1) clone pairs (identical text), band 0 only (identical texts
        #    provably share every band; band 0 avoids duplicates)
        band0 = fam_band == 0
        for f in np.nonzero((fam_size > 1) & band0)[0]:
            members = ids[fam_start[f]:fam_start[f] + fam_size[f]]
            ia, ib = np.triu_indices(len(members), k=1)
            out_k.append(np.zeros(len(ia), np.int64))
            out_a.append(members[ia])
            out_b.append(members[ib])
            out_ra.append(np.zeros(len(ia), np.int64))
            out_rb.append(np.zeros(len(ia), np.int64))

        # 2) member rows (h, id), band 0 only — each page exactly once
        #    across all partitions
        row_band0 = (keys % bands) == 0
        n0 = int(row_band0.sum())
        if n0:
            out_k.append(np.full(n0, 2, np.int64))
            out_a.append(hs[row_band0])
            out_b.append(ids[row_band0])
            out_ra.append(np.zeros(n0, np.int64))
            out_rb.append(np.zeros(n0, np.int64))

        # 3) candidate family pairs: buckets holding >1 distinct hash.
        #    reps are each family's min id (ids ascend within a family).
        bucket_new = np.empty(len(fam_key), bool)
        bucket_new[0:1] = True
        bucket_new[1:] = fam_key[1:] != fam_key[:-1]
        b_start = np.nonzero(bucket_new)[0]
        b_size = np.append(b_start[1:], len(fam_key)) - b_start
        cand_a, cand_b, cand_ra, cand_rb = [], [], [], []
        for b in np.nonzero(b_size > 1)[0]:
            fams = np.arange(b_start[b], b_start[b] + b_size[b])
            fa, fb = np.triu_indices(len(fams), k=1)
            f1, f2 = fams[fa], fams[fb]
            h1, h2 = hs[fam_start[f1]], hs[fam_start[f2]]
            r1, r2 = ids[fam_start[f1]], ids[fam_start[f2]]
            swap = h1 > h2
            cand_a.append(np.where(swap, h2, h1))
            cand_b.append(np.where(swap, h1, h2))
            cand_ra.append(np.where(swap, r2, r1))
            cand_rb.append(np.where(swap, r1, r2))
        if cand_a:
            ca = np.concatenate(cand_a)
            cb = np.concatenate(cand_b)
            cra = np.concatenate(cand_ra)
            crb = np.concatenate(cand_rb)
            # partition-local dedup of repeated (h_a, h_b) collisions
            o = np.lexsort((cb, ca))
            ca, cb, cra, crb = ca[o], cb[o], cra[o], crb[o]
            first = np.empty(len(ca), bool)
            first[0:1] = True
            first[1:] = (ca[1:] != ca[:-1]) | (cb[1:] != cb[:-1])
            out_k.append(np.ones(int(first.sum()), np.int64))
            out_a.append(ca[first])
            out_b.append(cb[first])
            out_ra.append(cra[first])
            out_rb.append(crb[first])

        if not out_k:
            z = pa.array([], pa.int64())
            return pa.table({"kind": z, "a": z, "b": z,
                             "rep_a": z, "rep_b": z})
        return pa.table({
            "kind": pa.array(np.concatenate(out_k), pa.int64()),
            "a": pa.array(np.concatenate(out_a), pa.int64()),
            "b": pa.array(np.concatenate(out_b), pa.int64()),
            "rep_a": pa.array(np.concatenate(out_ra), pa.int64()),
            "rep_b": pa.array(np.concatenate(out_rb), pa.int64()),
        })

    mixed = by_partition(pages.map_batches(signatures, batch_format="pyarrow"),
                         "band_key", detect, parts=PAIR_PARTS)
    # pairs/candidates/member ids — ints only, O(corpus) rows consumed by
    # THREE downstream branches. Checkpoint to parquet when a directory is
    # given (at 10^12 docs these rows belong on disk, not pinned in the
    # object store); default to an object-store materialize (spillable)
    # for gate-scale runs where the parquet round-trip is pure overhead.
    if checkpoint_dir is not None:
        import os
        import tempfile
        os.makedirs(checkpoint_dir, exist_ok=True)
        ckpt = tempfile.mkdtemp(prefix="minhash_mixed_", dir=checkpoint_dir)
        mixed.write_parquet(ckpt)          # fresh subdir: no stale files
        mixed = ray_data().read_parquet(ckpt)
    else:
        mixed = mixed.materialize()

    def rename_pair(batch: pa.Table) -> pa.Table:
        return pa.table({"id_a": batch["a"], "id_b": batch["b"]})

    clones = (mixed.filter(expr="kind == 0")
              .map_batches(rename_pair, batch_format="pyarrow"))

    # ---- pass 2: verify candidate family pairs by exact shingle Jaccard
    # — fully distributed, ONE rep-filtered corpus pass at any scale
    cand_ds = (mixed.filter(expr="kind == 1")
               .select_columns(["a", "b", "rep_a", "rep_b"]))
    cand = _dedup_cand(cand_ds).materialize()
    if cand.count() == 0:
        return clones

    members = mixed.filter(expr="kind == 2").select_columns(["a", "b"])
    confirmed = _verify_candidates(pages, cand, id_col=id_col,
                                   text_col=text_col,
                                   threshold=jaccard_threshold)
    expanded = _expand_members(confirmed, members)
    # No trailing pair dedup shuffle: clone pairs are emitted exactly once
    # globally (band-0 whole-bucket triangles over ascending member ids),
    # expanded pairs exactly once per globally-deduped (a, b) family pair
    # (member rows are band-0 once-per-page), and the two sets are
    # disjoint (clone pairs share a text hash, expanded pairs join two
    # DISTINCT hashes) — the union is already duplicate-free with
    # id_a < id_b everywhere.
    return clones.union(expanded)


# ---------------------------------------------------------------------------
# distributed candidate verification (shared by minhash + jaccard pass 2)
# ---------------------------------------------------------------------------

_REP_PARTS = 61
_BLOOM_K = 8
_BLOOM_BITS_PER_KEY = 16
_EMPTY_SH = pa.list_(pa.string())


def _splitmix(x: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 (wrapping multiply)."""
    z = x + np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _dedup_cand(cand_ds):
    """Distributed global dedup of candidate rows on (a, b): one coarse
    pair-hash shuffle, one lexsort + first-of-run per partition. The rep
    columns are a pure function of (a, b) (each family's global min id
    — identical texts share every band/prefix bucket), so keeping the
    first run member keeps consistent reps."""

    def local(part: pa.Table) -> pa.Table:
        cols = [np.asarray(part[c], np.int64)
                for c in ("a", "b", "rep_a", "rep_b")]
        a, b = cols[0], cols[1]
        o = np.lexsort((b, a))
        cols = [x[o] for x in cols]
        a, b = cols[0], cols[1]
        first = np.empty(len(a), bool)
        first[0:1] = True
        first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        return pa.table({c: pa.array(x[first], pa.int64()) for c, x in
                         zip(("a", "b", "rep_a", "rep_b"), cols)})

    return by_partition(cand_ds, ["a", "b"], local, parts=PAIR_PARTS)


def _bloom_positions(ids: np.ndarray, mask: np.uint64):
    u = ids.view(np.uint64)
    h1 = _splitmix(u, 0xA5A5A5A5)
    h2 = _splitmix(u, 0xC3C3C3C3) | np.uint64(1)
    return [(h1 + np.uint64(j) * h2) & mask for j in range(_BLOOM_K)]


def _make_rep_bloom(cand, n_cand: int):
    """Build a Bloom bitmap over the candidate rep ids — the ONLY
    driver-held state in pass 2, capped at 2^31 bits (256 MB) however
    large the candidate set grows. False positives cost extra shingle
    work on a few non-rep pages (dropped at the attach join); false
    negatives are impossible. Returns (ray_ref, mask)."""
    import ray

    want = max(1024, 2 * n_cand * _BLOOM_BITS_PER_KEY)
    m_bits = 1 << min(31, int(np.ceil(np.log2(want))))
    mask = np.uint64(m_bits - 1)

    def partial(batch: pa.Table) -> pa.Table:
        ids = np.unique(np.concatenate([
            np.asarray(batch["rep_a"], np.int64),
            np.asarray(batch["rep_b"], np.int64)]))
        pos = np.unique(np.concatenate(_bloom_positions(ids, mask)))
        word = (pos >> np.uint64(6)).astype(np.int64)
        bit = np.uint64(1) << (pos & np.uint64(63))
        uniq, start = np.unique(word, return_index=True)
        masks = np.bitwise_or.reduceat(bit, start)
        return pa.table({"w": pa.array(uniq, pa.int64()),
                         "m": pa.array(masks.view(np.int64), pa.int64())})

    bm = np.zeros(m_bits // 64, np.uint64)
    for ref in block_refs(cand.map_batches(partial,
                                           batch_format="pyarrow")):
        t = ray.get(ref)
        if t.num_rows:
            np.bitwise_or.at(bm, np.asarray(t["w"], np.int64),
                             np.asarray(t["m"], np.int64).view(np.uint64))
    return ray.put(bm), mask


def _bloom_contains(ids: np.ndarray, bm: np.ndarray,
                    mask: np.uint64) -> np.ndarray:
    ok = np.ones(len(ids), bool)
    for p in _bloom_positions(ids, mask):
        word = (p >> np.uint64(6)).astype(np.int64)
        ok &= (bm[word] >> (p & np.uint64(63))) & np.uint64(1) != 0
    return ok


def _verify_candidates(pages, cand, *, id_col: str, text_col: str,
                       threshold: float):
    """Exact string-shingle Jaccard verification of a deduped candidate
    Dataset (a, b, rep_a, rep_b) — zero driver-held candidate state:

      1. candidate rows split into two (rep, side) routing rows;
      2. ONE pass over the corpus computes shingles for pages passing the
         rep Bloom filter;
      3. the routing rows left-join the shingle rows on rep
         (`shuffle_join`; a Bloom false positive simply finds no routing
         row, a routing row with no page raises) and re-shuffle by pair
         hash so both sides co-locate;
      4. per-pair exact Jaccard.

    Emits (a, b, rep_a, rep_b, jac) for confirmed pairs."""
    import ray
    from .relational import shuffle_join

    bloom_ref, mask = _make_rep_bloom(cand, cand.count())

    def rep_rows(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["a"], np.int64)
        b = np.asarray(batch["b"], np.int64)
        n = len(a)
        return pa.table({
            "rep": pa.array(np.concatenate([
                np.asarray(batch["rep_a"], np.int64),
                np.asarray(batch["rep_b"], np.int64)]), pa.int64()),
            "a": pa.array(np.concatenate([a, a]), pa.int64()),
            "b": pa.array(np.concatenate([b, b]), pa.int64()),
            "side": pa.array(np.repeat(np.arange(2, dtype=np.int64), n))})

    def page_rows(batch: pa.Table) -> pa.Table:
        bm = ray.get(bloom_ref)
        ids = np.asarray(batch[id_col], np.int64)
        keep = _bloom_contains(ids, bm, mask)
        texts = batch.filter(pa.array(keep))[text_col].to_pylist()
        return pa.table({
            "rep": pa.array(ids[keep], pa.int64()),
            "sh": pa.array([sorted(hashing.text_shingles(t))
                            for t in texts], _EMPTY_SH)})

    def check(batch: pa.Table) -> pa.Table:
        if batch["sh"].null_count:
            raise ValueError(
                "minhash/jaccard verify: rep id absent from the corpus — "
                "upstream dataset changed between passes")
        return batch

    def verify(part: pa.Table) -> pa.Table:
        a = np.asarray(part["a"], np.int64)
        b = np.asarray(part["b"], np.int64)
        side = np.asarray(part["side"], np.int64)
        rep = np.asarray(part["rep"], np.int64)
        shs = part["sh"].to_pylist()
        by: dict[tuple[int, int], dict[int, tuple[int, set]]] = {}
        for i in range(len(a)):
            by.setdefault((int(a[i]), int(b[i])), {})[int(side[i])] = \
                (int(rep[i]), set(shs[i]))
        oa, ob, ora, orb, oj = [], [], [], [], []
        for (ka, kb) in sorted(by):
            sd = by[(ka, kb)]
            if len(sd) != 2:
                raise ValueError(
                    "minhash/jaccard verify: pair side missing after "
                    "attach — routing rows lost")
            ra, sa = sd[0]
            rb, sb = sd[1]
            inter = len(sa & sb)
            union = len(sa) + len(sb) - inter
            j = (inter / union) if union else 1.0
            if j >= threshold:
                oa.append(ka)
                ob.append(kb)
                ora.append(ra)
                orb.append(rb)
                oj.append(j)
        return pa.table({
            "a": pa.array(oa, pa.int64()),
            "b": pa.array(ob, pa.int64()),
            "rep_a": pa.array(ora, pa.int64()),
            "rep_b": pa.array(orb, pa.int64()),
            "jac": pa.array(oj, pa.float64())})

    routed = cand.map_batches(rep_rows, batch_format="pyarrow")
    # the one corpus pass; materialized so the join's schema read does
    # not shingle a block a second time (bounded by the rep count)
    shingled = pages.map_batches(page_rows,
                                 batch_format="pyarrow").materialize()
    return by_partition(
        shuffle_join(routed, shingled, key="rep", right_cols=("sh",),
                     how="left", parts=_REP_PARTS
                     ).map_batches(check, batch_format="pyarrow"),
        ["a", "b"], verify, parts=PAIR_PARTS)


def _expand_members(confirmed, members):
    """Distributed expansion of confirmed FAMILY pairs (a, b text hashes)
    to member id pairs through the (hash, id) member rows: confirmed
    pairs split into per-hash routing rows, inner-join the member rows
    on hash (`shuffle_join`, one row per member), then co-partition the
    (pair, side, member) rows on pair hash and emit the per-pair cross
    products. Ints only end to end; no driver state."""
    from .relational import shuffle_join

    # materialized (bounded by confirmed pairs): the join reads its
    # schema, which would otherwise rerun the whole verify exchange
    confirmed = confirmed.materialize()
    if confirmed.count() == 0:
        return ray_data().from_arrow(pa.table({
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64())}))

    def conf_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # fully-empty upstream groupby outputs can be schema-less
            a = b = np.empty(0, np.int64)
        else:
            a = np.asarray(batch["a"], np.int64)
            b = np.asarray(batch["b"], np.int64)
        n = len(a)
        return pa.table({
            "h": pa.array(np.concatenate([a, b]), pa.int64()),
            "a": pa.array(np.concatenate([a, a]), pa.int64()),
            "b": pa.array(np.concatenate([b, b]), pa.int64()),
            "side": pa.array(np.repeat(np.arange(2, dtype=np.int64), n))})

    def member_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"h": batch["a"], "member": batch["b"]})

    def expand(part: pa.Table) -> pa.Table:
        a = np.asarray(part["a"], np.int64)
        b = np.asarray(part["b"], np.int64)
        sides = np.asarray(part["side"], np.int64)
        mems = np.asarray(part["member"], np.int64)
        order = np.lexsort((mems, sides, b, a))
        a, b = a[order], b[order]
        sides, mems = sides[order], mems[order]
        new = np.empty(len(a), bool)
        new[0:1] = True
        new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        starts = np.nonzero(new)[0]
        bounds = np.append(starts, len(a))
        out_a, out_b = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            m_a = mems[s:e][sides[s:e] == 0]
            m_b = mems[s:e][sides[s:e] == 1]
            if len(m_a) and len(m_b):
                gx, gy = np.meshgrid(m_a, m_b, indexing="ij")
                out_a.append(np.minimum(gx, gy).ravel())
                out_b.append(np.maximum(gx, gy).ravel())
        if not out_a:
            z = pa.array([], pa.int64())
            return pa.table({"id_a": z, "id_b": z})
        return pa.table({
            "id_a": pa.array(np.concatenate(out_a), pa.int64()),
            "id_b": pa.array(np.concatenate(out_b), pa.int64())})

    conf = confirmed.select_columns(["a", "b"]).map_batches(
        conf_rows, batch_format="pyarrow")
    mem = members.map_batches(member_rows, batch_format="pyarrow")
    return by_partition(shuffle_join(conf, mem, key="h",
                                     right_cols=("member",),
                                     parts=PAIR_PARTS),
                        ["a", "b"], expand, parts=PAIR_PARTS)


CHUNK_WORDS = 8
_CHUNK_DPARTS = 127


def chunk_dedup(docs, *, id_col: str = "doc_id", text_col: str = "text",
                chunk_words: int = CHUNK_WORDS):
    """C4-style cross-document chunk dedup accounting: split each doc's
    token stream into consecutive `chunk_words`-token chunks (tail
    shorter than the window is kept verbatim — never deduped), keep the
    globally FIRST occurrence of each distinct chunk (order = (doc_id,
    chunk_idx)), and report (doc_id, n_chunks, n_kept) per doc.

    Distributed shape: chunk text never shuffles — each occurrence
    ships as (h1, h2, doc_id, chunk_idx) where (h1, h2) is the 128-bit
    sha digest of the chunk string (full digest: a 64-bit key would
    birthday-collide at 10^12 chunks), one coarse hash shuffle decides
    winners per partition-local distinct chunk, per-doc kept partials
    plus map-side (doc, n_chunks) marker rows sum per doc in
    `combine_by_key`. Docs with no full chunk still emit (doc, 0, 0)."""
    from .ngrams import _doc_ngrams

    def _chunk_heads(batch: pa.Table):
        """Shared head-mask kernel: (ids, toks, owner, within, pos) with
        pos = flat token index of every full-chunk head (or pos=None)."""
        ids = np.asarray(batch[id_col], np.int64)
        toks, owner = _doc_ngrams(batch[text_col], 1)
        if toks is None:
            return ids, None, None, None, None
        doclen = np.bincount(owner, minlength=batch.num_rows)
        starts = np.cumsum(doclen) - doclen
        within = np.arange(len(owner), dtype=np.int64) - starts[owner]
        head = (within % chunk_words == 0) & \
            (within + chunk_words <= doclen[owner])
        return ids, toks, owner, within, np.nonzero(head)[0]

    # two passes over the lazy input: the markers pass needs only the
    # head COUNTS (no chunk strings, no sha), the occurrence pass pays
    # the join + digest exactly once
    def markers_only(batch: pa.Table) -> pa.Table:
        ids, _, owner, _, pos = _chunk_heads(batch)
        nchunks = np.zeros(batch.num_rows, np.int64)
        if pos is not None and len(pos):
            np.add.at(nchunks, owner[pos], 1)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "nc": pa.array(nchunks, pa.int64()),
            "nk": pa.array(np.zeros(batch.num_rows, np.int64), pa.int64())})

    def occs_only(batch: pa.Table) -> pa.Table:
        ids, toks, owner, within, pos = _chunk_heads(batch)
        if pos is None or not len(pos):
            z = pa.array([], pa.int64())
            return pa.table({"h1": z, "h2": z, "doc": z, "cidx": z})
        pieces = [pc.take(toks, pa.array(pos + w, pa.int64()))
                  for w in range(chunk_words)]
        chunks = pc.binary_join_element_wise(*pieces, " ")
        dg = hashing.content_digest128(chunks.to_pylist())
        own = owner[pos]
        return pa.table({
            "h1": pa.array(dg[:, 0], pa.int64()),
            "h2": pa.array(dg[:, 1], pa.int64()),
            "doc": pa.array(ids[own], pa.int64()),
            "cidx": pa.array(within[pos] // chunk_words, pa.int64())})

    def kept_partials(part: pa.Table) -> pa.Table:
        h1 = np.asarray(part["h1"], np.int64)
        h2 = np.asarray(part["h2"], np.int64)
        doc = np.asarray(part["doc"], np.int64)
        cidx = np.asarray(part["cidx"], np.int64)
        order = np.lexsort((cidx, doc, h2, h1))
        h1s, h2s = h1[order], h2[order]
        first = np.empty(len(h1s), bool)
        first[0:1] = True
        first[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
        win_doc = doc[order][first]
        u, cnt = np.unique(win_doc, return_counts=True)
        return pa.table({
            "doc_id": pa.array(u, pa.int64()),
            "nc": pa.array(np.zeros(len(u), np.int64), pa.int64()),
            "nk": pa.array(cnt.astype(np.int64), pa.int64())})

    markers = docs.map_batches(markers_only, batch_format="pyarrow")
    kept = by_partition(docs.map_batches(occs_only, batch_format="pyarrow"),
                        "h1", kept_partials, parts=PAIR_PARTS)
    return combine_by_key(markers.union(kept), "doc_id",
                          {"n_chunks": ("nc", "sum"),
                           "n_kept": ("nk", "sum")}, parts=_CHUNK_DPARTS)


def simhash_pairs(pages, *, id_col: str = "page_id", text_col: str = "text",
                  max_hamming: int = 3, concurrency=(1, 4),
                  bucket_cap: int = 8192):
    """Near-dup pairs by 64-bit SimHash: 4x16-bit band blocking (any pair
    within hamming<=3 must agree on >=1 of 4 bands), verified by exact
    hamming distance. Returns Dataset(id_a, id_b, hamming).

    The banding/verify machinery is the shared `hamming64_band_pairs`
    (also used by the image-pHash near-dup); this wrapper only computes
    the text SimHash signatures."""

    def signatures(batch: pa.Table) -> pa.Table:
        sh = hashing.simhash64(batch[text_col].to_pylist())
        return pa.table({
            id_col: batch[id_col],
            "sig": pa.array(sh, pa.int64()),
        })

    sigs = pages.map_batches(signatures, batch_format="pyarrow")
    return hamming64_band_pairs(sigs, id_col=id_col, sig_col="sig",
                                bands=4, max_hamming=max_hamming,
                                bucket_cap=bucket_cap)


def hamming64_band_pairs(sigs, *, id_col: str, sig_col: str = "sig",
                         bands: int = 4, max_hamming: int | None = None,
                         bucket_cap: int = 8192):
    """All pairs of 64-bit signatures within hamming<=`max_hamming`,
    EXACTLY, by band blocking: the 64 bits split into `bands` equal-width
    bands; by pigeonhole any pair within hamming<=bands-1 agrees exactly
    on >=1 band, so blocking on band values loses nothing while only
    same-band-value candidates pay a popcount verify. Returns
    Dataset(id_a, id_b, hamming). `max_hamming` defaults to bands-1 (the
    largest exactly-recalled threshold).

    Same partition-then-family shape as minhash_lsh_pairs: identical-
    signature runs (hamming 0, the clone mass) emit vectorized triangles
    in band 0 only; only DISTINCT signature values within a bucket pay a
    pairwise popcount, vectorized per bucket.

    QUADRATIC BOUND (documented trade): within one band bucket the
    distinct-signature families pair all-vs-all — O(families^2) popcounts
    and a families^2 index allocation. Real corpora spread ~uniformly
    over the buckets per band, but a pathological corpus (every doc
    sharing one band value with a distinct signature) concentrates mass
    in one bucket; past `bucket_cap` families the partition fails LOUDLY
    instead of silently allocating gigabytes. Fixes: raise the band
    count (narrower bands -> more buckets), pre-split hot band values
    with an extra salt bit from another band, or raise the cap knowingly.
    """
    if 64 % bands:
        raise ValueError(f"bands={bands} must divide 64")
    width = 64 // bands
    mask = np.uint64((1 << width) - 1)
    if max_hamming is None:
        max_hamming = bands - 1
    if max_hamming > bands - 1:
        raise ValueError(
            f"max_hamming={max_hamming} exceeds the exact-recall bound "
            f"bands-1={bands - 1}: a pair can differ in every band and "
            f"never collide. Raise `bands`.")

    def explode(batch: pa.Table) -> pa.Table:
        sh = np.asarray(batch[sig_col], np.int64)
        ids = np.asarray(batch[id_col], np.int64)
        rows_id, rows_key, rows_sh = [], [], []
        u = sh.view(np.uint64)
        for b in range(bands):
            bandval = ((u >> np.uint64(width * b)) & mask).astype(np.int64)
            rows_key.append(bandval * bands + b)
            rows_id.append(ids)
            rows_sh.append(sh)
        return pa.table({
            "band_key": pa.array(np.concatenate(rows_key), pa.int64()),
            id_col: pa.array(np.concatenate(rows_id), pa.int64()),
            "simhash": pa.array(np.concatenate(rows_sh), pa.int64()),
        })

    _POP16 = np.array([bin(v).count("1") for v in range(1 << 16)], np.uint8)

    def _popcount64(x: np.ndarray) -> np.ndarray:
        out = _POP16[(x & np.uint64(0xFFFF)).astype(np.int64)].astype(np.int64)
        for s_ in (16, 32, 48):
            out += _POP16[((x >> np.uint64(s_)) & np.uint64(0xFFFF)).astype(np.int64)]
        return out

    def process_partition(part: pa.Table) -> pa.Table:
        keys = np.asarray(part["band_key"], np.int64)
        ids = np.asarray(part[id_col], np.int64)
        sh = np.asarray(part["simhash"], np.int64)
        order = np.lexsort((ids, sh, keys))
        keys, ids, sh = keys[order], ids[order], sh[order]
        fam_new = np.empty(len(keys), bool)
        fam_new[0:1] = True
        fam_new[1:] = (keys[1:] != keys[:-1]) | (sh[1:] != sh[:-1])
        fam_start = np.nonzero(fam_new)[0]
        fam_size = np.append(fam_start[1:], len(keys)) - fam_start
        fam_key = keys[fam_start]
        fam_band = fam_key % bands
        fam_sh = sh[fam_start].view(np.uint64)
        out_a, out_b, out_h = [], [], []

        # hamming-0 (identical simhash) triangles, band 0 only
        for f in np.nonzero((fam_size > 1) & (fam_band == 0))[0]:
            members = ids[fam_start[f]:fam_start[f] + fam_size[f]]
            ia, ib = np.triu_indices(len(members), k=1)
            out_a.append(members[ia])
            out_b.append(members[ib])
            out_h.append(np.zeros(len(ia), np.int64))

        # distinct-simhash families within one bucket: vectorized pairwise
        bucket_new = np.empty(len(fam_key), bool)
        bucket_new[0:1] = True
        bucket_new[1:] = fam_key[1:] != fam_key[:-1]
        b_start = np.nonzero(bucket_new)[0]
        b_size = np.append(b_start[1:], len(fam_key)) - b_start
        for b in np.nonzero(b_size > 1)[0]:
            if b_size[b] > bucket_cap:
                raise ValueError(
                    f"hamming64_band_pairs: band bucket key="
                    f"{int(fam_key[b_start[b]])}"
                    f" holds {int(b_size[b])} distinct-hash families "
                    f"(> bucket_cap={bucket_cap}); the all-vs-all verify "
                    f"would allocate O(n^2) pair indices. Narrow the bands,"
                    f" salt the hot band value, or raise bucket_cap.")
            fs = np.arange(b_start[b], b_start[b] + b_size[b])
            fa, fb = np.triu_indices(len(fs), k=1)
            ham = _popcount64(fam_sh[fs[fa]] ^ fam_sh[fs[fb]])
            for pi in np.nonzero(ham <= max_hamming)[0]:
                f1, f2 = fs[fa[pi]], fs[fb[pi]]
                ma = ids[fam_start[f1]:fam_start[f1] + fam_size[f1]]
                mb = ids[fam_start[f2]:fam_start[f2] + fam_size[f2]]
                ga, gb = np.meshgrid(ma, mb, indexing="ij")
                out_a.append(np.minimum(ga, gb).ravel())
                out_b.append(np.maximum(ga, gb).ravel())
                out_h.append(np.full(ga.size, int(ham[pi]), np.int64))
        if not out_a:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "hamming": pa.array([], pa.int64())})
        return pa.table({"id_a": pa.array(np.concatenate(out_a), pa.int64()),
                         "id_b": pa.array(np.concatenate(out_b), pa.int64()),
                         "hamming": pa.array(np.concatenate(out_h), pa.int64())})

    grouped = by_partition(sigs.map_batches(explode, batch_format="pyarrow"),
                           "band_key", process_partition, parts=PAIR_PARTS)
    return _dedup_pairs(grouped, extra_col="hamming")


def embedding_neardup_pairs(queries_ds, corpus, *,
                            threshold: float = 0.48,
                            id_col: str = "vec_id", concurrency=(1, 4)):
    """Embedding-cosine near-dup pairs (id_a < id_b, cosine >= threshold).

    `corpus` is either a pa.Table (small-side fast path: broadcast once via
    ray.put) or a ray.data.Dataset (scale path: corpus lives as Arrow shard
    refs in the OBJECT STORE — never a driver copy — and each query batch
    streams shard-by-shard; see stages/ann.py). Cosine is
    dot / (norm_a * norm_b) in f64, identical in both shapes.
    """
    from .ann import NearDupPairs, _corpus_ref

    return queries_ds.map_batches(
        NearDupPairs,
        fn_constructor_kwargs={"corpus_ref": _corpus_ref(corpus, id_col),
                               "threshold": threshold, "id_col": id_col},
        batch_format="pyarrow", batch_size=1024, concurrency=concurrency)


def jaccard_similarity_join(pages, *, id_col: str = "page_id",
                            text_col: str = "text", threshold: float = 0.8):
    """EXACT word-3-shingle n-gram Jaccard similarity self-join: every
    pair of DISTINCT texts with J >= threshold, as (id_a, id_b, jac)
    over min-id representatives (id_a < id_b). Unlike `minhash_lsh_pairs`
    there is NO probabilistic stage — the pruning is PPJoin-style prefix
    filtering, which is lossless: with each doc's shingle-hash set
    sorted ascending (a global total order), J(A,B) >= t implies
    |A n B| >= ceil(t*|A|), and the prefix lemma then guarantees the
    first |A| - ceil(t*|A|) + 1 hashes of A and the corresponding
    prefix of B share an element, so only those prefix hashes are
    indexed.

    Distributed shape (the 100 TB rules): the exchange carries only
    (prefix_hash, text_hash, id) ints — text never shuffles; candidate
    pairs generate inside coarse prime-modulus partitions of whole
    hash buckets (identical texts all emit identical prefixes, so the
    min id seen in a bucket family IS the global representative);
    verification recomputes exact STRING-shingle Jaccard on the
    Bloom-rep-filtered corpus in ONE pass (the shared minhash pass-2
    machinery) and emits the jac value; no candidate row ever lands on
    the driver.

    At-scale caveats (documented, immaterial at gate scale): prefix
    membership uses random hash order, so one extremely frequent
    shingle can make a hot bucket (classic fix: global-frequency
    ordering, one extra count pass); shingle hashes are crc32-derived,
    so the candidate FILTER is lossless only up to 32-bit collisions
    (collisions merge set elements; verification stays exact strings).
    """
    def prefix_rows(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ids = np.asarray(batch[id_col], np.int64)
        th = hashing.content_hash64(texts).view(np.int64)
        flat, off = hashing.shingle_hash64(texts)
        counts = np.diff(off)
        req = np.ceil(threshold * counts - 1e-9).astype(np.int64)
        plen = np.maximum(1, counts - req + 1)
        rep = np.repeat(np.arange(len(texts)), plen)
        local = np.arange(int(plen.sum())) - np.repeat(
            np.cumsum(plen) - plen, plen)
        gidx = off[:-1][rep] + local
        return pa.table({
            "ph": pa.array(flat[gidx].view(np.int64), pa.int64()),
            "h": pa.array(th[rep], pa.int64()),
            "id": pa.array(ids[rep], pa.int64()),
        })

    def detect(part: pa.Table) -> pa.Table:
        """Partition = whole prefix-hash buckets. Families (same bucket,
        same text hash) collapse to their min id; buckets holding >1
        family emit candidate pairs (h_a < h_b by the family sort)."""
        ph = np.asarray(part["ph"], np.int64)
        hs = np.asarray(part["h"], np.int64)
        ids = np.asarray(part["id"], np.int64)
        order = np.lexsort((ids, hs, ph))
        ph, hs, ids = ph[order], hs[order], ids[order]
        fam_new = np.empty(len(ph), bool)
        fam_new[0:1] = True
        fam_new[1:] = (ph[1:] != ph[:-1]) | (hs[1:] != hs[:-1])
        fam_start = np.nonzero(fam_new)[0]
        fam_ph = ph[fam_start]
        fam_h = hs[fam_start]
        fam_rep = ids[fam_start]
        b_new = np.empty(len(fam_ph), bool)
        b_new[0:1] = True
        b_new[1:] = fam_ph[1:] != fam_ph[:-1]
        b_start = np.nonzero(b_new)[0]
        b_size = np.append(b_start[1:], len(fam_ph)) - b_start
        out_a, out_b, out_ra, out_rb = [], [], [], []
        for b in np.nonzero(b_size > 1)[0]:
            fams = np.arange(b_start[b], b_start[b] + b_size[b])
            fa, fb = np.triu_indices(len(fams), k=1)
            out_a.append(fam_h[fams[fa]])
            out_b.append(fam_h[fams[fb]])
            out_ra.append(fam_rep[fams[fa]])
            out_rb.append(fam_rep[fams[fb]])
        if not out_a:
            z = pa.array([], pa.int64())
            return pa.table({"a": z, "b": z, "rep_a": z, "rep_b": z})
        ca = np.concatenate(out_a)
        cb = np.concatenate(out_b)
        cra = np.concatenate(out_ra)
        crb = np.concatenate(out_rb)
        o = np.lexsort((cb, ca))                 # partition-local dedup
        ca, cb, cra, crb = ca[o], cb[o], cra[o], crb[o]
        first = np.empty(len(ca), bool)
        first[0:1] = True
        first[1:] = (ca[1:] != ca[:-1]) | (cb[1:] != cb[:-1])
        return pa.table({
            "a": pa.array(ca[first], pa.int64()),
            "b": pa.array(cb[first], pa.int64()),
            "rep_a": pa.array(cra[first], pa.int64()),
            "rep_b": pa.array(crb[first], pa.int64()),
        })

    cand_ds = by_partition(pages.map_batches(prefix_rows,
                                             batch_format="pyarrow"),
                           "ph", detect, parts=PAIR_PARTS).materialize()
    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "jac": pa.array([], pa.float64())})
    if cand_ds.count() == 0:
        return ray_data().from_arrow(empty)

    cand = _dedup_cand(cand_ds).materialize()
    confirmed = _verify_candidates(pages, cand, id_col=id_col,
                                   text_col=text_col, threshold=threshold)

    def rep_pairs(batch: pa.Table) -> pa.Table:
        ra = np.asarray(batch["rep_a"], np.int64)
        rb = np.asarray(batch["rep_b"], np.int64)
        return pa.table({
            "id_a": pa.array(np.minimum(ra, rb), pa.int64()),
            "id_b": pa.array(np.maximum(ra, rb), pa.int64()),
            "jac": batch["jac"]})

    return confirmed.map_batches(rep_pairs, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Exact substring dedup (the suffix-array / "Deduplicating Training Data
# Makes Language Models Better" role)
# ---------------------------------------------------------------------------

_SUB_BASE = np.uint64(1099511628211)   # FNV-1a 64-bit prime, odd


def _rolling_hashes(texts: list[str], L: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All length-`L` codepoint-window polynomial hashes of a batch of
    docs: returns (hash uint64, owner row index, pos within doc) for
    every window fully inside one doc.  One utf-32 decode of the
    concatenated batch, then L shifted vector multiply-adds (mod 2^64
    by uint64 wraparound) — no per-window Python.  Equal substrings
    hash equal by construction; distinct substrings collide with
    probability ~2^-64 per pair (the documented false-duplicate rate;
    the oracle groups by the substring itself, so a collision would
    surface as a gate mismatch — never observed)."""
    joined = "".join(texts)
    cp = np.frombuffer(joined.encode("utf-32-le"), np.uint32)
    lens = np.fromiter((len(t) for t in texts), np.int64, len(texts))
    starts = np.cumsum(lens) - lens
    n = len(cp)
    if n < L:
        z = np.empty(0, np.int64)
        return np.empty(0, np.uint64), z, z
    nh = n - L + 1
    h = np.zeros(nh, np.uint64)
    c = cp.astype(np.uint64)
    for j in range(L):
        h = h * _SUB_BASE + c[j:nh + j]
    f = np.arange(nh, dtype=np.int64)
    owner = np.searchsorted(starts, f, side="right") - 1
    pos = f - starts[owner]
    valid = pos + L <= lens[owner]
    return h[valid], owner[valid], pos[valid]


def substring_dedup(docs, *, id_col: str = "doc_id",
                    text_col: str = "text", L: int = 40):
    """Exact duplicated-substring accounting, the distributed form of
    the suffix-array dedup in "Deduplicating Training Data Makes
    Language Models Better" (Lee et al. 2021): a substring of >= `L`
    characters that occurs >= 2 times anywhere in the corpus (any doc,
    any offset, self-repeats included) is duplicated text.  Every
    length-L window whose content occurs elsewhere is marked, marked
    windows are merged into maximal per-doc intervals (adjacent or
    overlapping windows coalesce), and the result is one row per doc:
    (doc_id, n_dup_intervals, dup_chars).

    Distributed shape (two coarse prime-modulus shuffles, ints only —
    text never leaves the scan stage, and the input is scanned ONCE):
      1. map: rolling 64-bit polynomial hash of every window ->
         (h, doc, pos); one marker row per doc (pos = -1, h = doc)
         rides the SAME scan/table so docs with no duplicate still
         report zeros without a second upstream execution.
      2. by_partition on h (PAIR_PARTS): sort by h, keep positions of
         hashes seen >= 2 times; marker rows pass straight through ->
         (doc, pos).
      3. by_partition on doc (_CHUNK_DPARTS): per-doc island merge,
         fully vectorized — rows
         lexsorted by (doc-rank, pos); all intervals have equal length
         L, so window ends are monotone within a doc and the running
         max of earlier ends is simply the previous row's end: a
         window opens a new island iff the doc changes or its start
         exceeds the previous end (overflow-free — no rank*T
         encoding).

    At 10^12 docs the hash stream is O(total chars) rows of 4 int64s:
    large but shuffle-friendly (sorted ints), and the per-partition
    state is one np.lexsort — no driver materialization anywhere."""

    def windows(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col], np.int64)
        texts = ["" if t is None else t
                 for t in batch[text_col].to_pylist()]
        h, owner, pos = _rolling_hashes(texts, L)
        hi = h.view(np.int64)
        return pa.table({
            # a marker's h is its doc id: it only picks the partition
            "h": pa.array(np.concatenate([hi, ids]), pa.int64()),
            "doc": pa.array(np.concatenate([ids[owner], ids]),
                            pa.int64()),
            "pos": pa.array(np.concatenate(
                [pos, np.full(len(ids), -1, np.int64)]), pa.int64())})

    def dup_positions(part: pa.Table) -> pa.Table:
        h = np.asarray(part["h"], np.int64)
        doc = np.asarray(part["doc"], np.int64)
        pos = np.asarray(part["pos"], np.int64)
        real = pos >= 0
        # markers (pos == -1) bypass the count; windows sort by hash
        w = np.nonzero(real)[0]
        hs_order = w[np.argsort(h[w], kind="stable")]
        hs = h[hs_order]
        same_prev = np.zeros(len(hs), bool)
        same_prev[1:] = hs[1:] == hs[:-1]
        dup_sorted = same_prev.copy()
        dup_sorted[:-1] |= same_prev[1:]
        keep = np.concatenate([hs_order[dup_sorted], np.nonzero(~real)[0]])
        return pa.table({
            "doc": pa.array(doc[keep], pa.int64()),
            "pos": pa.array(pos[keep], pa.int64())})

    def per_doc(part: pa.Table) -> pa.Table:
        doc = np.asarray(part["doc"], np.int64)
        pos = np.asarray(part["pos"], np.int64)
        u, rank = np.unique(doc, return_inverse=True)
        m = pos >= 0
        n_int = np.zeros(len(u), np.int64)
        n_chars = np.zeros(len(u), np.int64)
        if m.any():
            r, p = rank[m], pos[m]
            o = np.lexsort((p, r))
            r, p = r[o], p[o]
            e = p + L
            new_isl = np.ones(len(r), bool)
            # equal-length intervals: within a doc, e ascends with p,
            # so the previous row's end IS the running max of all
            # earlier ends — no encoding, no overflow
            new_isl[1:] = (r[1:] != r[:-1]) | (p[1:] > e[:-1])
            last = np.ones(len(r), bool)
            last[:-1] = new_isl[1:]
            isl_doc = r[new_isl]
            np.add.at(n_int, isl_doc, 1)
            np.add.at(n_chars, isl_doc, e[last] - p[new_isl])
        return pa.table({
            id_col: pa.array(u, pa.int64()),
            "n_dup_intervals": pa.array(n_int, pa.int64()),
            "dup_chars": pa.array(n_chars, pa.int64())})

    marked = by_partition(docs.map_batches(windows, batch_format="pyarrow"),
                          "h", dup_positions, parts=PAIR_PARTS)
    return by_partition(marked, "doc", per_doc, parts=_CHUNK_DPARTS)


def substring_dedup_clean(docs, *, id_col: str = "doc_id",
                          text_col: str = "text", L: int = 40):
    """The corpus-REWRITING form of substring_dedup (what Lee et al.'s
    pipeline actually ships): every length-L window whose content
    already occurred at a strictly smaller (doc, pos) is duplicated
    text; covered positions merge to maximal per-doc intervals and are
    EXCISED, keeping the globally-first occurrence intact. Returns one
    row per doc: (doc_id, clean_text, removed_chars).

    Same two ints-only shuffles as substring_dedup; the keep-first rule
    is one extra comparison in the hash-partition kernel (occurrences
    sort by (h, doc, pos) — the group's first row survives). Cleaned
    text is rebuilt in a doc-hash co-partition join of the interval
    stream against a direct (id, text) re-read of the source — text
    crosses the wire exactly once, in that final join."""

    def windows(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col], np.int64)
        texts = ["" if t is None else t
                 for t in batch[text_col].to_pylist()]
        h, owner, pos = _rolling_hashes(texts, L)
        hi = h.view(np.int64)
        return pa.table({
            "h": pa.array(hi, pa.int64()),
            "doc": pa.array(ids[owner], pa.int64()),
            "pos": pa.array(pos, pa.int64())})

    def dup_positions(part: pa.Table) -> pa.Table:
        h = np.asarray(part["h"], np.int64)
        doc = np.asarray(part["doc"], np.int64)
        pos = np.asarray(part["pos"], np.int64)
        order = np.lexsort((pos, doc, h))
        hs = h[order]
        # marked = every occurrence except the group's (doc, pos)-first
        marked = np.zeros(len(hs), bool)
        marked[1:] = hs[1:] == hs[:-1]
        keep = order[marked]
        return pa.table({
            "doc": pa.array(doc[keep], pa.int64()),
            "pos": pa.array(pos[keep], pa.int64()),
            "txt": pa.array([None] * len(keep), pa.string())})

    def text_rows(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col], np.int64)
        return pa.table({
            "doc": pa.array(ids, pa.int64()),
            "pos": pa.array(np.full(len(ids), -1, np.int64), pa.int64()),
            "txt": batch[text_col]})

    def rebuild(part: pa.Table) -> pa.Table:
        doc = np.asarray(part["doc"], np.int64)
        pos = np.asarray(part["pos"], np.int64)
        is_txt = pos < 0
        tdoc = doc[is_txt]
        torder = np.argsort(tdoc)
        tdoc = tdoc[torder]
        all_txt = part["txt"].to_pylist()
        txts = [all_txt[i]
                for i in np.nonzero(is_txt)[0][torder].tolist()]
        mdoc, mpos = doc[~is_txt], pos[~is_txt]
        o = np.lexsort((mpos, mdoc))
        mdoc, mpos = mdoc[o], mpos[o]
        e = mpos + L
        new_isl = np.ones(len(mdoc), bool)
        new_isl[1:] = (mdoc[1:] != mdoc[:-1]) | (mpos[1:] > e[:-1])
        last = np.ones(len(mdoc), bool)
        last[:-1] = new_isl[1:]
        isl_doc = mdoc[new_isl]
        isl_s = mpos[new_isl]
        isl_e = e[last]
        out_txt, out_rm = [], []
        lo = np.searchsorted(isl_doc, tdoc, side="left")
        hi = np.searchsorted(isl_doc, tdoc, side="right")
        for t, a, b in zip(txts, lo.tolist(), hi.tolist()):
            t = t if t is not None else ""
            if a == b:
                out_txt.append(t)
                out_rm.append(0)
                continue
            pieces, prev, removed = [], 0, 0
            for s0, e0 in zip(isl_s[a:b].tolist(), isl_e[a:b].tolist()):
                pieces.append(t[prev:s0])
                removed += e0 - s0
                prev = e0
            pieces.append(t[prev:])
            out_txt.append("".join(pieces))
            out_rm.append(removed)
        return pa.table({
            id_col: pa.array(tdoc, pa.int64()),
            "clean_text": pa.array(out_txt, pa.string()),
            "removed_chars": pa.array(out_rm, pa.int64())})

    marked = by_partition(docs.map_batches(windows, batch_format="pyarrow"),
                          "h", dup_positions, parts=PAIR_PARTS)
    return by_partition(
        [docs.map_batches(text_rows, batch_format="pyarrow"), marked],
        "doc", rebuild, parts=_CHUNK_DPARTS)
