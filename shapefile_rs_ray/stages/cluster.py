"""Distributed k-means over embedding columns — the semantic-dedup /
data-mixing clustering primitive of an LM data pipeline.

INTEGER-EXACT Lloyd iterations so a SQL oracle can replay them
bit-for-bit (float centroid means are merge-order-sensitive — the
classic reason distributed k-means results drift between runs):

  * components quantize ONCE: q(x) = floor((x + 2) * 2^19) — positive
    (unit-normalized embeddings), so floor == truncation on both sides;
  * distances are pure int64 sums (64 dims x (2^21)^2 < 2^63);
  * centroid updates are integer floor-divisions of component sums
    (positive, so numpy // == DuckDB // exactly); empty clusters keep
    their previous centroid;
  * ties in the argmin break to the lowest cluster index.

Scale shape: the corpus quantizes and materializes once; each round is
ONE corpus pass emitting (k x dim) partial sums + counts per batch
(512 ints, k-bounded), folded on the driver (bounded by blocks x k
rows — the same fold pattern as the Bloom build); centroids broadcast
per round via ray.put. Rounds are Lloyd-sequential by nature.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..raydata import block_refs
from .combine import by_partition

QUANT_SHIFT = 2.0
QUANT_SCALE = 524288.0          # 2^19


def _quantize(M: np.ndarray) -> np.ndarray:
    return np.floor((M.astype(np.float64) + QUANT_SHIFT)
                    * QUANT_SCALE).astype(np.int64)


def _list_matrix(col: pa.ChunkedArray | pa.Array, dtype) -> np.ndarray:
    """Zero-copy (n, dim) matrix from an Arrow list<float/int> column:
    combine_chunks + flatten instead of to_pylist + np.stack (the latter
    is a per-row Python loop — the scale killer in every embedding
    stage). Assumes rectangular lists (embedding columns are)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    flat = np.asarray(arr.flatten(), dtype)
    return flat.reshape(n, len(flat) // max(n, 1))


def _assign(Q: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, d) int x (k, d) int -> (cluster argmin, int distance); ties to
    the lowest cluster index (np.argmin's contract)."""
    d2 = ((Q[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    a = np.argmin(d2, axis=1)
    return a.astype(np.int64), d2[np.arange(len(Q)), a]


def kmeans_centroids(embeddings, *, id_col: str = "vec_id",
                     vec_col: str = "embedding", k: int = 8,
                     rounds: int = 5):
    """Run the integer Lloyd rounds and return (final centroids C
    (k, dim) int64, the materialized quantized Dataset) — the shared
    core of kmeans_embed and the blocking consumers (semantic_neardup
    assigns MAP-SIDE against the broadcast centroids instead of paying
    an assignment-join shuffle)."""
    import ray

    def quant(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col], np.int64)
        Q = _quantize(_list_matrix(batch[vec_col], np.float64))
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "q": pa.array(list(Q), pa.list_(pa.int64()))})

    qds = embeddings.map_batches(quant, batch_format="pyarrow").materialize()

    # Seeds = the k smallest vec_ids. Map-side per-block min-k partials +
    # a tiny driver merge (the global_topk pattern) — never a Dataset.sort
    # (an AllToAll exchange of the whole quantized corpus for k rows).
    def local_mink(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["vec_id"], np.int64)
        order = np.argsort(ids, kind="stable")[:k]
        return batch.take(pa.array(order))

    merged = pa.concat_tables(
        t for t in (ray.get(r) for r in block_refs(qds.map_batches(
            local_mink, batch_format="pyarrow")))
        if t.num_rows)
    sids = np.asarray(merged["vec_id"], np.int64)
    C = _list_matrix(merged["q"], np.int64)[np.argsort(sids,
                                                       kind="stable")[:k]]
    dim = C.shape[1]

    for _ in range(rounds):
        cref = ray.put(C)

        def partials(batch: pa.Table, _cref=cref) -> pa.Table:
            Cc = ray.get(_cref)
            Q = _list_matrix(batch["q"], np.int64)
            a, _ = _assign(Q, Cc)
            sums = np.zeros((k, dim), np.int64)
            np.add.at(sums, a, Q)
            cnt = np.bincount(a, minlength=k).astype(np.int64)
            return pa.table({
                "cluster": pa.array(np.arange(k, dtype=np.int64)),
                "n": pa.array(cnt, pa.int64()),
                "s": pa.array(list(sums), pa.list_(pa.int64()))})

        sums = np.zeros((k, dim), np.int64)
        cnt = np.zeros(k, np.int64)
        for ref in block_refs(qds.map_batches(partials,
                                              batch_format="pyarrow")):
            t = ray.get(ref)
            if t.num_rows:
                cl = np.asarray(t["cluster"], np.int64)
                cnt[cl] += np.asarray(t["n"], np.int64)
                sums[cl] += _list_matrix(t["s"], np.int64)
        nonempty = cnt > 0
        C = C.copy()
        C[nonempty] = sums[nonempty] // cnt[nonempty, None]

    return C, qds


def kmeans_embed(embeddings, *, id_col: str = "vec_id",
                 vec_col: str = "embedding", k: int = 8, rounds: int = 5):
    """Dataset(vec_id, embedding) -> Dataset(vec_id, cluster, dist_q):
    `rounds` integer Lloyd updates seeded by the k smallest vec_ids,
    then a final assignment pass. dist_q is the exact integer squared
    distance to the assigned final centroid."""
    import ray

    C, qds = kmeans_centroids(embeddings, id_col=id_col, vec_col=vec_col,
                              k=k, rounds=rounds)
    cref = ray.put(C)

    def final_assign(batch: pa.Table) -> pa.Table:
        Cc = ray.get(cref)
        Q = _list_matrix(batch["q"], np.int64)
        a, d = _assign(Q, Cc)
        return pa.table({
            "vec_id": batch["vec_id"],
            "cluster": pa.array(a, pa.int64()),
            "dist_q": pa.array(d, pa.int64())})

    return qds.map_batches(final_assign, batch_format="pyarrow")


def kmeans_embed_sql(k: int = 8, rounds: int = 5, dim: int = 64) -> str:
    """DuckDB replay of the exact same integer Lloyd iterations: long
    (vec_id, dim, v) quantized points, per-round assign (argmin by
    (dist, cluster) via ROW_NUMBER) + centroid floor-division update
    with empty-cluster carry-over, then the final assignment."""
    q = ("list_transform(CAST(embedding AS DOUBLE[]), x -> "
         "CAST(FLOOR((x + CAST('2.0' AS DOUBLE)) * "
         "CAST('524288.0' AS DOUBLE)) AS BIGINT))")
    ctes = [f"e AS (SELECT vec_id, {q} AS q FROM embeddings)",
            f"pl AS (SELECT vec_id, d AS dim, q[d] AS v "
            f"FROM e, UNNEST(generate_series(1, {dim})) AS g(d))",
            f"seeds AS (SELECT vec_id, ROW_NUMBER() OVER (ORDER BY vec_id)"
            f" - 1 AS cluster FROM e ORDER BY vec_id LIMIT {k})",
            "c0 AS (SELECT s.cluster, pl.dim, pl.v FROM seeds s "
            "JOIN pl ON pl.vec_id = s.vec_id)"]
    prev = "c0"
    for r in range(1, rounds + 1):
        a, w, nc, cn = f"a{r}", f"w{r}", f"nc{r}", f"c{r}"
        ctes.append(
            f"{a} AS (SELECT pl.vec_id, c.cluster, "
            f"SUM((pl.v - c.v) * (pl.v - c.v)) AS dist "
            f"FROM pl JOIN {prev} c ON pl.dim = c.dim GROUP BY 1, 2)")
        ctes.append(
            f"{w} AS (SELECT vec_id, cluster FROM ("
            f"SELECT vec_id, cluster, ROW_NUMBER() OVER ("
            f"PARTITION BY vec_id ORDER BY dist, cluster) AS rn "
            f"FROM {a}) WHERE rn = 1)")
        ctes.append(
            f"{nc} AS (SELECT w.cluster, pl.dim, "
            f"SUM(pl.v) // COUNT(*) AS v "
            f"FROM {w} w JOIN pl ON pl.vec_id = w.vec_id GROUP BY 1, 2)")
        ctes.append(
            f"{cn} AS (SELECT p.cluster, p.dim, COALESCE(n.v, p.v) AS v "
            f"FROM {prev} p LEFT JOIN {nc} n "
            f"ON n.cluster = p.cluster AND n.dim = p.dim)")
        prev = cn
    fa = f"""fa AS (SELECT pl.vec_id, c.cluster,
    SUM((pl.v - c.v) * (pl.v - c.v)) AS dist
    FROM pl JOIN {prev} c ON pl.dim = c.dim GROUP BY 1, 2)"""
    ctes.append(fa)
    return ("WITH " + ",\n".join(ctes) + f"""
SELECT vec_id, cluster, CAST(dist AS BIGINT) AS dist_q FROM (
  SELECT vec_id, cluster, dist, ROW_NUMBER() OVER (
      PARTITION BY vec_id ORDER BY dist, cluster) AS rn FROM fa)
WHERE rn = 1""")


# ---------------------------------------------------------------------------
# semantic near-dup: k-means blocking + exact within-cluster verify
# ---------------------------------------------------------------------------

COS_SCALE = 1048576.0            # 2^20, the ann consistency quantization

# Peak cells of one gram block: 64M int64 cells ≈ 512 MB. The m×m gram of
# a cluster AT the 100k cap would be 80 GB — the block bound is what makes
# cluster_cap a WORK bound instead of a memory bomb.
GRAM_BLOCK_CELLS = 64 * 1024 * 1024


def _cluster_pairs(cid: np.ndarray, CQ: np.ndarray, thr_num: int,
                   thr_den: int, block_cells: int = GRAM_BLOCK_CELLS):
    """Near-dup pairs within ONE cluster (cid ascending, CQ row-aligned).
    The gram matrix is computed in ROW BLOCKS of ~block_cells cells so
    peak memory is block×m, never m×m; emission order (global row-major
    upper triangle) and every arithmetic op are identical to the
    monolithic CQ @ CQ.T formulation, so outputs are bit-equal."""
    m = len(cid)
    na = np.einsum("ij,ij->i", CQ, CQ).astype(np.float64)  # == diag(G)
    bs = max(1, block_cells // max(m, 1))
    out_a, out_b, out_d = [], [], []
    for s in range(0, m, bs):
        Gb = CQ[s:s + bs] @ CQ.T                # (<=bs, m) int64
        d = Gb.astype(np.float64)
        ok = (Gb > 0) & (((d * d) * float(thr_den))
                         >= (float(thr_num)
                             * (na[s:s + bs, None] * na[None, :])))
        ia, ib = np.nonzero(ok)
        keep = ib > ia + s                      # strict upper triangle
        ia, ib = ia[keep], ib[keep]
        out_a.append(cid[ia + s])
        out_b.append(cid[ib])
        out_d.append(Gb[ia, ib])
    return out_a, out_b, out_d


def semantic_neardup(embeddings, *, id_col: str = "vec_id",
                     vec_col: str = "embedding", k: int = 8,
                     rounds: int = 5, thr_num: int = 81,
                     thr_den: int = 100, cluster_cap: int = 100_000):
    """Semantic near-duplicate pairs with k-means cluster BLOCKING: only
    same-cluster pairs pay the exact cosine check (the classic semantic
    dedup shape — brute all-pairs is quadratic in the corpus, blocking
    is quadratic only within clusters).

    The cosine test is integer-quantized and float-comparison-exact on
    both engines: with qi = floor(x_i * 2^20), a pair is near-dup iff
    dot_q > 0 and (dot_q^2) * thr_den >= thr_num * na_q * nb_q, i.e.
    cos^2 >= thr_num/thr_den (default 81/100 -> cos >= 0.9), evaluated
    in float64 with the same op order as the SQL twin. Emits
    (id_a, id_b, dot_q), id_a < id_b.

    APPROXIMATION CONTRACT (documented): blocking can miss near-dup
    pairs that k-means separated — same as every blocked semantic dedup;
    the oracle applies the identical blocking, so the gate checks the
    implementation, not recall. Clusters past `cluster_cap` members
    fail loudly: the within-cluster verify is O(m^2) WORK. Memory is
    never m^2 — the gram is computed in row blocks of
    GRAM_BLOCK_CELLS cells (~512 MB peak) whatever the cluster size.

    Scale shape: the final assignment happens MAP-SIDE against the
    broadcast centroids in the same pass that quantizes the cosine
    components, so the only vector motion is the ONE cluster-key
    shuffle into the verify partitions."""
    import ray

    C, _ = kmeans_centroids(embeddings, id_col=id_col, vec_col=vec_col,
                            k=k, rounds=rounds)
    cref = ray.put(C)

    def rows(batch: pa.Table) -> pa.Table:
        Cc = ray.get(cref)
        ids = np.asarray(batch[id_col], np.int64)
        M = _list_matrix(batch[vec_col], np.float64)
        a, _d = _assign(_quantize(M), Cc)
        Q = np.floor(M * COS_SCALE).astype(np.int64)
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "cluster": pa.array(a, pa.int64()),
            "q": pa.array(list(Q), pa.list_(pa.int64()))})

    def pairs(part: pa.Table) -> pa.Table:
        ids = np.asarray(part["vec_id"], np.int64)
        cl = np.asarray(part["cluster"], np.int64)
        Q = _list_matrix(part["q"], np.int64)
        out_a, out_b, out_d = [], [], []
        for c in np.unique(cl):
            m = cl == c
            if int(m.sum()) > cluster_cap:
                raise ValueError(
                    f"semantic_neardup: cluster {int(c)} holds "
                    f"{int(m.sum())} members (> cluster_cap="
                    f"{cluster_cap}); the within-cluster verify is "
                    f"O(m^2) WORK (memory stays block-bounded) — "
                    f"raise k or the cap knowingly")
            cid = ids[m]
            o = np.argsort(cid, kind="stable")
            pa_, pb_, pd_ = _cluster_pairs(cid[o], Q[m][o],
                                           thr_num, thr_den)
            out_a.extend(pa_)
            out_b.extend(pb_)
            out_d.extend(pd_)
        if not out_a:
            z = pa.array([], pa.int64())
            return pa.table({"id_a": z, "id_b": z, "dot_q": z})
        return pa.table({
            "id_a": pa.array(np.concatenate(out_a), pa.int64()),
            "id_b": pa.array(np.concatenate(out_b), pa.int64()),
            "dot_q": pa.array(np.concatenate(out_d), pa.int64())})

    return by_partition(embeddings.map_batches(rows, batch_format="pyarrow"),
                        "cluster", pairs, parts=61)


def semantic_neardup_sql(k: int = 8, rounds: int = 5, dim: int = 64,
                         thr_num: int = 81, thr_den: int = 100) -> str:
    """DuckDB twin: the replayed k-means assignment CTE chain + the
    identical float-op threshold over same-cluster pairs."""
    base = kmeans_embed_sql(k=k, rounds=rounds, dim=dim)
    # reuse the kmeans CTE chain: wrap its final SELECT as an `asg` CTE
    head, _, final = base.partition("\nSELECT vec_id, cluster,")
    asg = ("asg AS (SELECT vec_id, cluster FROM (SELECT vec_id, cluster, "
           "dist, ROW_NUMBER() OVER (PARTITION BY vec_id "
           "ORDER BY dist, cluster) AS rn FROM fa) WHERE rn = 1)")
    q2 = ("q2 AS (SELECT vec_id, list_transform("
          "CAST(embedding AS DOUBLE[]), x -> CAST(FLOOR(x * "
          "CAST('1048576.0' AS DOUBLE)) AS BIGINT)) AS q "
          "FROM embeddings)")
    return head + ",\n" + asg + ",\n" + q2 + f""",
pp AS (SELECT wa.vec_id AS id_a, wb.vec_id AS id_b,
       CAST(list_sum(list_transform(list_zip(a.q, b.q),
                                    p -> p[1] * p[2])) AS BIGINT) AS dot_q,
       CAST(list_sum(list_transform(a.q, x -> x * x)) AS BIGINT) AS na_q,
       CAST(list_sum(list_transform(b.q, x -> x * x)) AS BIGINT) AS nb_q
       FROM asg wa JOIN asg wb
         ON wa.cluster = wb.cluster AND wa.vec_id < wb.vec_id
       JOIN q2 a ON a.vec_id = wa.vec_id
       JOIN q2 b ON b.vec_id = wb.vec_id)
SELECT id_a, id_b, dot_q FROM pp
WHERE dot_q > 0 AND
      (CAST(dot_q AS DOUBLE) * CAST(dot_q AS DOUBLE))
          * CAST('{float(thr_den)!r}' AS DOUBLE)
      >= CAST('{float(thr_num)!r}' AS DOUBLE)
          * (CAST(na_q AS DOUBLE) * CAST(nb_q AS DOUBLE))"""
