"""Approximate/exact nearest-neighbor search over the embeddings table.

- `cosine_topk`: exact top-k by cosine, ties broken by ascending id — SQL-
  oracle-able. Two corpus shapes:
  * pa.Table — the small-side fast path: broadcast once via ray.put.
  * ray.data.Dataset — the scale path: the corpus is materialized into the
    OBJECT STORE as Arrow block refs (`raydata.block_refs`, never a driver
    copy) and each query batch streams shard-by-shard with a vectorized
    running top-k merge. Per-actor prepared-shard caching turns repeat
    batches into pure matmuls; the cache is capped so a corpus larger
    than worker heap degrades to re-fetch (object-store locality + spill)
    instead of OOM.
- `embedding_neardup_pairs` (stages/dedup.py re-exports): same two corpus
  shapes, emitting threshold pairs instead of top-k.
- `lsh_topk`: random-hyperplane LSH, multi-band — approximate. Bands are
  independent hyperplane sets; per-band buckets shuffle ONCE on an int
  key, in-bucket exact scoring emits (vec, cand, cos) candidates, and a
  coarse vec-hash partition merges per-vector candidates vectorized (no
  per-distinct-key groupby). Recall@1 vs the exact path is pytest-measured.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..raydata import block_refs, ray_data
from .combine import by_partition

ANN_PARTS = 61   # prime: survives any power-of-two key packing upstream


def _matrix(tbl: pa.Table, id_col: str) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(tbl[id_col], np.int64)
    emb = tbl["embedding"].combine_chunks()
    flat = np.asarray(emb.flatten(), np.float64)
    dim = len(flat) // max(len(ids), 1)
    return ids, flat.reshape(len(ids), dim)


def _prepare(ids: np.ndarray, M: np.ndarray):
    """id-sort the corpus columns once: a STABLE argsort on -cos then breaks
    similarity ties by ascending id automatically (the documented / oracle
    tie-break), with no per-row lexsort."""
    order = np.argsort(ids, kind="stable")
    ids = np.asarray(ids)[order]
    M = np.asarray(M)[order]
    norms = np.sqrt((M * M).sum(axis=1))
    return ids, M, norms


def _merge_topk(best_id, best_cos, new_id, new_cos, k):
    """Row-wise merge of two (n, <=k) candidate sets -> (cos desc, id asc)
    top-k. Sort by id first (stable), then stable-sort by -cos: exact
    cosine ties resolve to the ascending id."""
    cand_id = np.concatenate([best_id, new_id], axis=1)
    cand_cos = np.concatenate([best_cos, new_cos], axis=1)
    o1 = np.argsort(cand_id, axis=1, kind="stable")
    cand_id = np.take_along_axis(cand_id, o1, axis=1)
    cand_cos = np.take_along_axis(cand_cos, o1, axis=1)
    o2 = np.argsort(-cand_cos, axis=1, kind="stable")[:, :k]
    return (np.take_along_axis(cand_id, o2, axis=1),
            np.take_along_axis(cand_cos, o2, axis=1))


class _ShardedCorpus:
    """Shared corpus access for the ANN actors: one broadcast (ids, M) ref,
    a raw (ids, M) tuple, or a list of Arrow shard refs (Dataset path).
    Prepared shards are cached per actor under a BYTE budget — a corpus
    bigger than the budget degrades to per-call re-fetch from the (local,
    possibly spilled) object store instead of growing the heap without
    bound."""

    def __init__(self, corpus_ref, id_col: str,
                 cache_budget_bytes: int = 2 << 30):
        import ray
        self.id_col = id_col
        self.cache_budget = cache_budget_bytes
        self._cached_bytes = 0
        self._cache: dict[int, tuple] = {}
        if isinstance(corpus_ref, list):
            self.shard_refs = corpus_ref
            self.single = None
        else:
            ids, M = (ray.get(corpus_ref)
                      if isinstance(corpus_ref, ray.ObjectRef) else corpus_ref)
            self.single = _prepare(ids, M)
            self.shard_refs = None

    def shards(self):
        if self.single is not None:
            yield self.single
            return
        for i in range(len(self.shard_refs)):
            got = self._cache.get(i)
            if got is None:
                import ray
                ids, M = _matrix(ray.get(self.shard_refs[i]), self.id_col)
                got = _prepare(ids, M)
                nbytes = got[1].nbytes + 2 * got[0].nbytes
                if self._cached_bytes + nbytes <= self.cache_budget:
                    self._cache[i] = got
                    self._cached_bytes += nbytes
            yield got


class CosineTopK:
    """map_batches actor: per query row, the k most-cosine-similar corpus
    rows (self-match excluded when ids collide).

    `corpus_ref` is either one ObjectRef to (ids, M) — broadcast table —
    or a list of ObjectRefs to Arrow shard tables (Dataset path). Both
    shapes produce IDENTICAL output: kk = min(k, corpus_rows - 1) ranks for
    every query (the sharded path counts corpus rows while streaming).
    """

    def __init__(self, corpus_ref, k: int = 1, id_col: str = "vec_id",
                 block: int = 1024):
        self.k = k
        self.id_col = id_col
        self.block = block
        self.corpus = _ShardedCorpus(corpus_ref, id_col)

    def _score(self, qids, Q, qn, cids, M, norms, kk):
        """(per-shard) top-kk ids+cos for each query row, ties (cos desc,
        id asc) — corpus columns are id-sorted so stable argsort suffices."""
        n = len(qids)
        out_id = np.empty((n, kk), np.int64)
        out_cos = np.empty((n, kk), np.float64)
        for s in range(0, n, self.block):
            e = min(s + self.block, n)
            cos = (Q[s:e] @ M.T) / (qn[s:e, None] * norms[None, :])
            cos[qids[s:e, None] == cids[None, :]] = -np.inf
            sel = np.argsort(-cos, axis=1, kind="stable")[:, :kk]
            out_id[s:e] = cids[sel]
            out_cos[s:e] = np.take_along_axis(cos, sel, axis=1)
        return out_id, out_cos

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, Q = _matrix(batch, self.id_col)
        n = len(qids)
        qn = np.sqrt((Q * Q).sum(axis=1))
        best_id = np.empty((n, 0), np.int64)
        best_cos = np.empty((n, 0), np.float64)
        c = 0                         # total corpus rows seen
        for cids, M, norms in self.corpus.shards():
            c += len(cids)
            sk = min(self.k, len(cids))
            if sk == 0 or n == 0:
                continue
            nid, ncos = self._score(qids, Q, qn, cids, M, norms, sk)
            best_id, best_cos = _merge_topk(best_id, best_cos,
                                            nid, ncos, self.k)
        # the broadcast semantic, shard-independently: every query gets
        # exactly kk = min(k, c-1) ranks (each row has >= c-1 finite
        # candidates; -inf self-match fillers sort last in the merge and
        # can never displace a finite cosine)
        kk = min(self.k, max(c - 1, 0))
        if kk == 0 or n == 0:
            return _empty_topk(self.id_col)
        if best_id.shape[1] < kk:
            # shard accounting broke an invariant (every query must have
            # >= kk merged candidates); fail loudly instead of silently
            # dropping the whole batch at the gate
            raise AssertionError(
                f"top-k merge produced {best_id.shape[1]} < kk={kk} "
                f"candidates for a {n}-row batch (corpus rows seen: {c})")
        best_id = best_id[:, :kk]
        out_q = np.repeat(qids, kk)
        out_n = np.tile(np.arange(1, kk + 1), n)
        return pa.table({self.id_col: pa.array(out_q, pa.int64()),
                         "rank": pa.array(out_n, pa.int64()),
                         "nn_id": pa.array(best_id.ravel(), pa.int64())})


def _empty_topk(id_col: str) -> pa.Table:
    return pa.table({id_col: pa.array([], pa.int64()),
                     "rank": pa.array([], pa.int64()),
                     "nn_id": pa.array([], pa.int64())})


def _corpus_ref(corpus, id_col: str):
    """pa.Table -> single broadcast ref; Dataset -> object-store shard refs
    (no driver materialization of the vectors)."""
    import ray
    if isinstance(corpus, pa.Table):
        ids, M = _matrix(corpus, id_col)
        return ray.put((ids, M))
    return block_refs(corpus)


def cosine_topk(queries, corpus, *, k: int = 1,
                id_col: str = "vec_id", concurrency=(1, 4)):
    """`corpus`: pa.Table (broadcast fast path) or ray.data.Dataset
    (sharded streaming path; exact, same output)."""
    return queries.map_batches(
        CosineTopK,
        fn_constructor_kwargs={"corpus_ref": _corpus_ref(corpus, id_col),
                               "k": k, "id_col": id_col},
        batch_format="pyarrow", batch_size=4096, concurrency=concurrency)


class NearDupPairs:
    """map_batches actor: (id_a < id_b, cosine >= threshold) pairs of the
    query batch vs the (broadcast-or-sharded) corpus."""

    def __init__(self, corpus_ref, threshold: float, id_col: str = "vec_id"):
        self.threshold = threshold
        self.id_col = id_col
        self.corpus = _ShardedCorpus(corpus_ref, id_col)

    def _pairs(self, bids, B, bn, cids, M, norms):
        cos = (B @ M.T) / (bn[:, None] * norms[None, :])
        a, b = np.nonzero(cos >= self.threshold)
        ga, gb = bids[a], cids[b]
        m = ga < gb
        return ga[m], gb[m]

    def __call__(self, batch: pa.Table) -> pa.Table:
        bids, B = _matrix(batch, self.id_col)
        bn = np.sqrt((B * B).sum(axis=1))
        outs_a, outs_b = [], []
        for cids, M, norms in self.corpus.shards():
            if len(cids) == 0:
                continue
            ga, gb = self._pairs(bids, B, bn, cids, M, norms)
            outs_a.append(ga)
            outs_b.append(gb)
        a = np.concatenate(outs_a) if outs_a else np.empty(0, np.int64)
        b = np.concatenate(outs_b) if outs_b else np.empty(0, np.int64)
        return pa.table({"id_a": pa.array(a, pa.int64()),
                         "id_b": pa.array(b, pa.int64())})


def lsh_topk(embeddings, *, k: int = 1, planes: int = 4, bands: int = 16,
             seed: int = 99, id_col: str = "vec_id"):
    """Approximate self-join top-k via multi-band random-hyperplane LSH.

    Each band is an independent set of `planes` hyperplanes; a vector lands
    in one bucket per band, candidates are all bucket-mates across bands.
    Stage 1 explodes (bucket_key, id, embedding) x bands and shuffles once
    on bucket_key % prime; in-bucket exact cosine emits per-vector top-k
    CANDIDATES (with cosine). Stage 2 shuffles the small candidate rows by
    vec hash and merges per vector vectorized (np.unique de-dup across
    bands + (cos desc, id asc) selection). Vectors alone in every bucket
    emit nothing (coverage + recall are measured in pytest against the
    exact path).

    Defaults are tuned on the synthetic embeddings (near-uniform vectors,
    top-1 cosine ~0.36 — the LSH-hostile regime): planes=4/bands=16
    measures coverage 1.0 / recall@1 0.92 at sf0.01, vs 0.89/0.02 for the
    old 10/4. `planes` should grow ~log2(corpus/bucket_target) on clustered
    production corpora; each band is an independent recall draw.
    """

    def add_sig(batch: pa.Table) -> pa.Table:
        ids, M = _matrix(batch, id_col)
        rng = np.random.default_rng(seed)           # same planes everywhere
        H = rng.standard_normal((M.shape[1], planes * bands))
        bits = (M @ H) > 0
        n = len(ids)
        keys = np.empty((n, bands), np.int64)
        for b in range(bands):
            sig = np.zeros(n, np.int64)
            for p in range(planes):
                sig |= bits[:, b * planes + p].astype(np.int64) << p
            keys[:, b] = sig * bands + b        # band-salted bucket key
        rep = np.repeat(np.arange(n), bands)
        out = pa.table({
            "bucket": pa.array(keys.ravel(), pa.int64()),
            id_col: pa.array(np.asarray(ids)[rep], pa.int64()),
            "embedding": pc.take(batch["embedding"].combine_chunks(),
                                 pa.array(rep)),
        })
        return out

    def bucket_candidates(part: pa.Table) -> pa.Table:
        """One partition = many whole buckets; per bucket, exact cosine
        top-k candidates for every member."""
        buckets = np.asarray(part["bucket"], np.int64)
        ids, M = _matrix(part, id_col)
        order = np.lexsort((ids, buckets))
        buckets, ids, M = buckets[order], ids[order], M[order]
        norms = np.sqrt((M * M).sum(axis=1))
        new = np.empty(len(buckets), bool)
        new[0:1] = True
        new[1:] = buckets[1:] != buckets[:-1]
        starts = np.nonzero(new)[0]
        bounds = np.append(starts, len(buckets))
        out_v, out_c, out_cos = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            m = e - s
            if m < 2:
                continue
            sub = M[s:e]
            sn = norms[s:e]
            sid = ids[s:e]
            cos = (sub @ sub.T) / (sn[:, None] * sn[None, :])
            np.fill_diagonal(cos, -np.inf)
            kk = min(k, m - 1)
            sel = np.argsort(-cos, axis=1, kind="stable")[:, :kk]
            out_v.append(np.repeat(sid, kk))
            out_c.append(sid[sel].ravel())
            out_cos.append(np.take_along_axis(cos, sel, axis=1).ravel())
        if not out_v:
            z = pa.array([], pa.int64())
            return pa.table({id_col: z, "nn_id": z,
                             "cos": pa.array([], pa.float64())})
        return pa.table({
            id_col: pa.array(np.concatenate(out_v), pa.int64()),
            "nn_id": pa.array(np.concatenate(out_c), pa.int64()),
            "cos": pa.array(np.concatenate(out_cos), pa.float64())})

    def merge(part: pa.Table) -> pa.Table:
        """Per-vector merge across bands: de-dup (vec, cand), then
        (cos desc, id asc) top-k per vec — all run-detection vectorized."""
        v = np.asarray(part[id_col], np.int64)
        c = np.asarray(part["nn_id"], np.int64)
        cos = np.asarray(part["cos"], np.float64)
        order = np.lexsort((c, v))
        v, c, cos = v[order], c[order], cos[order]
        keep = np.empty(len(v), bool)
        keep[0:1] = True
        keep[1:] = (v[1:] != v[:-1]) | (c[1:] != c[:-1])
        v, c, cos = v[keep], c[keep], cos[keep]
        # (vec asc, cos desc, cand asc): candidates already cand-asc per
        # vec; a stable lexsort on (-cos) within vec keeps id order on ties
        order2 = np.lexsort((-cos, v))
        v, c, cos = v[order2], c[order2], cos[order2]
        new = np.empty(len(v), bool)
        new[0:1] = True
        new[1:] = v[1:] != v[:-1]
        rank = np.arange(len(v)) - np.maximum.accumulate(
            np.where(new, np.arange(len(v)), 0)) + 1
        m = rank <= k
        # `cos` rides along as the RECALL CONTRACT: approximate results
        # can't be SQL-oracled row-for-row, but every returned (vec, nn)
        # pair's exact cosine is recomputable and pytest-verified
        return pa.table({
            id_col: pa.array(v[m], pa.int64()),
            "rank": pa.array(rank[m], pa.int64()),
            "nn_id": pa.array(c[m], pa.int64()),
            "cos": pa.array(cos[m], pa.float64())})

    cands = by_partition(embeddings.map_batches(add_sig,
                                                batch_format="pyarrow"),
                         "bucket", bucket_candidates, parts=ANN_PARTS)
    return by_partition(cands, id_col, merge, parts=ANN_PARTS)


def _centroid_d2(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(n, n_centroids) squared distances via the |x|^2 - 2xC^T + |c|^2
    expansion — an (n, k) temporary, never the (n, k, dim) broadcast that
    OOMed the round-2 implementation."""
    return ((M * M).sum(axis=1)[:, None] - 2.0 * (M @ C.T)
            + (C * C).sum(axis=1)[None, :])


def ivf_topk(embeddings, corpus, *, k: int = 1, n_centroids: int = 16,
             nprobe: int = 4, seed: int = 7, sample_rows: int = 4096,
             id_col: str = "vec_id"):
    """IVF-style approximate top-k: the second scale path next to lsh_topk.

    Train: seeded Lloyd k-means on a bounded driver-side SAMPLE of the
    corpus (centroids are the only driver state — n_centroids x dim
    floats, broadcastable at any corpus size).

    Index + search are ONE shuffle, no per-actor corpus replication (the
    round-2 version rebuilt the whole corpus's inverted lists inside every
    actor's __init__ — O(corpus) heap per actor, an OOM at scale):

    * corpus rows tag themselves with their nearest centroid (vectorized
      `|x|^2 - 2xC^T` assignment) and partition on centroid % prime;
    * query rows EXPLODE to their `nprobe` nearest centroids and partition
      the same way;
    * each partition holds only its centroids' inverted lists plus the
      queries probing them (resident set ~ corpus/parts), scores exactly
      within-list, and emits per-(query, centroid) candidates;
    * a second tiny shuffle on query id merges candidates to the global
      (cos desc, id asc) top-k — candidate volume is ~ queries x nprobe
      x k rows of ints+one float, never vectors.

    nprobe = n_centroids degenerates to exact. Approximate => rows-only at
    the gate; recall@1 vs the exact path is pytest-measured like lsh_topk.
    """
    import ray

    def _kmeans(M: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(seed)
        n = len(M)
        kc = min(n_centroids, n)
        C = M[rng.choice(n, kc, replace=False)].copy()
        for _ in range(10):
            a = np.argmin(_centroid_d2(M, C), axis=1)
            for c in range(kc):
                m = a == c
                if m.any():
                    C[c] = M[m].mean(axis=0)
        return C

    # bounded sample for training: first `sample_rows` of the corpus —
    # deterministic, and for the Dataset path it reads only the first few
    # object-store shards (at scale swap in a seeded ds.random_sample)
    if isinstance(corpus, pa.Table):
        sample = corpus.slice(0, sample_rows)
        corpus_ds = ray_data().from_arrow(corpus)
    else:
        got, total = [], 0
        for ref in block_refs(corpus):
            t = ray.get(ref)
            got.append(t)
            total += t.num_rows
            if total >= sample_rows:
                break
        sample = pa.concat_tables(got).slice(0, sample_rows)
        corpus_ds = corpus
    _, SM = _matrix(sample, id_col)
    C = _kmeans(SM)        # tiny: shipped inside task closures

    def corpus_tag(batch: pa.Table) -> pa.Table:
        ids, M = _matrix(batch, id_col)
        a = np.argmin(_centroid_d2(M, C), axis=1).astype(np.int64)
        return pa.table({
            "__c": pa.array(a, pa.int64()),
            id_col: pa.array(ids, pa.int64()),
            "embedding": batch["embedding"].combine_chunks(),
            "__side": pa.array(np.zeros(len(ids), np.int64))})

    def query_tag(batch: pa.Table) -> pa.Table:
        ids, M = _matrix(batch, id_col)
        npr = min(nprobe, len(C))
        probes = np.argsort(_centroid_d2(M, C), axis=1,
                            kind="stable")[:, :npr].astype(np.int64)
        rep = np.repeat(np.arange(len(ids)), npr)
        flat = probes.ravel()
        return pa.table({
            "__c": pa.array(flat, pa.int64()),
            id_col: pa.array(ids[rep], pa.int64()),
            "embedding": pc.take(batch["embedding"].combine_chunks(),
                                 pa.array(rep)),
            "__side": pa.array(np.ones(len(flat), np.int64))})

    def search(part: pa.Table) -> pa.Table:
        """One partition = several whole centroids' lists + their probes.
        Per centroid run: id-sorted list, one matmul for all its queries,
        per-query top-min(k, list) candidates with self-matches masked."""
        cent = np.asarray(part["__c"], np.int64)
        side = np.asarray(part["__side"], np.int64)
        ids, M = _matrix(part, id_col)
        order = np.lexsort((ids, side, cent))
        cent, side, ids, M = cent[order], side[order], ids[order], M[order]
        norms = np.sqrt((M * M).sum(axis=1))
        new = np.empty(len(cent), bool)
        new[0:1] = True
        new[1:] = cent[1:] != cent[:-1]
        starts = np.nonzero(new)[0]
        bounds = np.append(starts, len(cent))
        out_q, out_n, out_cos = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            sd = side[s:e]
            split = s + int(np.searchsorted(sd, 1, "left"))
            li, lm, ln = ids[s:split], M[s:split], norms[s:split]
            qi, qm, qn = ids[split:e], M[split:e], norms[split:e]
            if len(li) == 0 or len(qi) == 0:
                continue
            cos = (qm @ lm.T) / (qn[:, None] * ln[None, :])
            cos[qi[:, None] == li[None, :]] = -np.inf
            kk = min(k, len(li))
            sel = np.argsort(-cos, axis=1, kind="stable")[:, :kk]
            c_sel = np.take_along_axis(cos, sel, axis=1)
            valid = c_sel > -np.inf
            nv = valid.sum(axis=1)
            out_q.append(np.repeat(qi, nv))
            out_n.append(li[sel][valid])
            out_cos.append(c_sel[valid])
        if not out_q:
            z = pa.array([], pa.int64())
            return pa.table({id_col: z, "nn_id": z,
                             "cos": pa.array([], pa.float64())})
        return pa.table({
            id_col: pa.array(np.concatenate(out_q), pa.int64()),
            "nn_id": pa.array(np.concatenate(out_n), pa.int64()),
            "cos": pa.array(np.concatenate(out_cos), pa.float64())})

    def merge(part: pa.Table) -> pa.Table:
        """Per-query global (cos desc, id asc) top-k over the candidate
        rows (disjoint lists -> no dedup needed)."""
        q = np.asarray(part[id_col], np.int64)
        nn = np.asarray(part["nn_id"], np.int64)
        cos = np.asarray(part["cos"], np.float64)
        order = np.lexsort((nn, -cos, q))
        q, nn, cos = q[order], nn[order], cos[order]
        new = np.empty(len(q), bool)
        new[0:1] = True
        new[1:] = q[1:] != q[:-1]
        rank = np.arange(len(q)) - np.maximum.accumulate(
            np.where(new, np.arange(len(q)), 0)) + 1
        m = rank <= k
        # `cos` = the recall contract (see lsh_topk.merge): pytest
        # recomputes the exact cosine of every returned pair
        return pa.table({
            id_col: pa.array(q[m], pa.int64()),
            "rank": pa.array(rank[m], pa.int64()),
            "nn_id": pa.array(nn[m], pa.int64()),
            "cos": pa.array(cos[m], pa.float64())})

    cands = by_partition(
        [corpus_ds.map_batches(corpus_tag, batch_format="pyarrow"),
         embeddings.map_batches(query_tag, batch_format="pyarrow")],
        "__c", search, parts=ANN_PARTS)
    return by_partition(cands, id_col, merge, parts=ANN_PARTS)


# ---------------------------------------------------------------------------
# consistency projection: make approximate results gate-checkable
# ---------------------------------------------------------------------------

QUANT_SCALE = 1048576.0     # 2^20: float32->float64 widening and the
                            # power-of-two multiply are both EXACT, so
                            # floor(x * 2^20) is bit-identical between
                            # numpy and DuckDB (CLAUDE.md float-parity rule)


def _quantize(M: np.ndarray) -> np.ndarray:
    return np.floor(M * QUANT_SCALE).astype(np.int64)


class PairConsistency:
    """map_batches actor: append the integer-quantized cosine components
    (dot_q, na_q, nb_q) of every returned (vec_id, nn_id) pair, where
    q(x) = floor(float64(x) * 2^20) per embedding component and
    dot_q = sum(q(a_i) * q(b_i)), na_q = sum(q(a_i)^2), nb_q = sum(q(b_i)^2)
    — pure int64 arithmetic (dim 64 x ~2^19 components peaks ~2^46, far
    from overflow), so a DuckDB oracle recomputes them bit-exactly.

    This is the VERDICT-r3 #4 fix: approximate ANN rankings can't be
    SQL-oracled row-for-row (the pair CHOICE is approximate), but the
    pair's similarity claim can — the engine writes its returned pairs as
    a golden parquet and the oracle independently recomputes each pair's
    quantized components from the embeddings table. An engine that
    misreports similarity (stale vectors, wrong gather, broken matmul)
    fails the hash compare; recall vs the exact path stays pytest-asserted.

    Scale: per batch only the batch's own pair members are gathered —
    the corpus streams shard-by-shard from the object store exactly like
    CosineTopK; per-actor state is the _ShardedCorpus cache, never the
    whole corpus.
    """

    def __init__(self, corpus_ref, id_col: str = "vec_id"):
        self.id_col = id_col
        self.corpus = _ShardedCorpus(corpus_ref, id_col)

    def __call__(self, batch: pa.Table) -> pa.Table:
        v = np.asarray(batch[self.id_col], np.int64)
        c = np.asarray(batch["nn_id"], np.int64)
        need = np.unique(np.concatenate([v, c]))
        got_id, got_q = [], []
        for cids, M, _norms in self.corpus.shards():
            m = np.isin(cids, need, assume_unique=False)
            if m.any():
                got_id.append(cids[m])
                got_q.append(_quantize(M[m]))
        ids_all = np.concatenate(got_id) if got_id else np.empty(0, np.int64)
        if len(ids_all) < len(need):
            missing = np.setdiff1d(need, ids_all)
            raise KeyError(
                f"PairConsistency: {len(missing)} pair member ids absent "
                f"from the corpus (first: {missing[:5].tolist()})")
        Q = np.vstack(got_q)
        order = np.argsort(ids_all, kind="stable")
        ids_all, Q = ids_all[order], Q[order]
        Qa = Q[np.searchsorted(ids_all, v)]
        Qb = Q[np.searchsorted(ids_all, c)]
        return pa.table({
            self.id_col: batch[self.id_col],
            "rank": batch["rank"],
            "nn_id": batch["nn_id"],
            "dot_q": pa.array((Qa * Qb).sum(axis=1), pa.int64()),
            "na_q": pa.array((Qa * Qa).sum(axis=1), pa.int64()),
            "nb_q": pa.array((Qb * Qb).sum(axis=1), pa.int64())})


def with_pair_consistency(result, corpus, *, id_col: str = "vec_id",
                          concurrency=(1, 4)):
    """Append (dot_q, na_q, nb_q) to an ANN top-k result Dataset; `corpus`
    is a pa.Table (broadcast) or Dataset (object-store shard refs)."""
    return result.drop_columns(["cos"]).map_batches(
        PairConsistency,
        fn_constructor_kwargs={"corpus_ref": _corpus_ref(corpus, id_col),
                               "id_col": id_col},
        batch_format="pyarrow", batch_size=4096, concurrency=concurrency)
