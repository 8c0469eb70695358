"""Distributed connected components over a pair graph — the dedup-cluster
operator: near-dup PAIRS (minhash/simhash/embedding) become CLUSTER
assignments (every member -> the component's minimum id), which is what a
curation pipeline actually consumes ("keep one representative per
cluster", "drop clusters bigger than N").

Algorithm: min-label EDGE CONTRACTION (the MapReduce-CC family of
Kiveris/Rastogi et al., re-expressed over the engine's own primitives).
State per round is (a) a label table node->lbl and (b) a directed edge
list over CURRENT labels. Each round:

  1. relabel both edge endpoints through the label table (two
     shuffle_joins) and drop self-loops + per-block duplicates — the
     edge list CONTRACTS geometrically (measured: random 200-node
     graphs + 60-chains converge in <= 6 rounds; plain min-label
     relaxation needed 15);
  2. every directed edge offers its src label to its dst; each node
     keeps the min of its own label and all offers (one coarse
     prime-modulus partition + vectorized local min — never a
     per-distinct-node groupby);
  3. one pointer-jump lbl <- lbl[lbl] (a label IS a node of the same
     component, so the self-join always hits) keeps non-label nodes
     chasing their representative.

Fixpoint detection: the int64 label-sum strictly decreases every
non-final round (labels only ever decrease, toward the component min),
so `sum(lbl)` unchanged == converged — an exact integer criterion, no
float drift. The exact semantics of this loop (including the
sum-criterion and the relabel-before-update sequencing) are validated
against union-find on 300 random graphs in tests.

Scale note: the state is one row per node APPEARING IN A PAIR — the
dup-graph node set, orders of magnitude smaller than the corpus — plus
the contracting edge list; each round is a constant number of coarse
exchanges, independent of corpus size. Loop datasets re-materialize
with a constant block count each round (an uncapped groupby chain
multiplies blocks geometrically — measured 45 -> 576 in two rounds).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..raydata import ray_data
from .combine import by_partition, combine_by_key

CC_PARTS = 251


def _distinct_nodes(pairs, a_col: str, b_col: str, parts: int):
    """Dataset(node) of every id in either pair column."""
    def nodes(batch: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays([
            batch[a_col].combine_chunks().cast(pa.int64()),
            batch[b_col].combine_chunks().cast(pa.int64())])})

    return combine_by_key(pairs.map_batches(nodes, batch_format="pyarrow"),
                          "node", parts=parts)


def _min_per_node(cand, parts: int):
    """(node, cand) -> (node, lbl=min cand)."""
    return combine_by_key(cand, "node", {"lbl": ("cand", "min")},
                          parts=parts)


def min_label_components(pairs, *, a_col: str = "id_a", b_col: str = "id_b",
                         parts: int | None = None, max_rounds: int = 24):
    """Dataset(node, cluster_id): connected components of the undirected
    pair graph; cluster_id = the component's minimum node id (order-free,
    so the result is deterministic at any parallelism). Node ids must be
    non-negative int64. max_rounds bounds the contraction (it shrinks the
    graph geometrically, so 24 covers any realistic diameter); overrun
    fails LOUDLY rather than returning a half-propagated labeling."""
    import ray
    from .relational import shuffle_join

    n_blocks = max(8, int(ray.cluster_resources().get("CPU", 8)))
    # pairs feeds BOTH the edge build and _distinct_nodes — pin it once so
    # an expensive lazy producer (e.g. the MinHash verify tail) runs once
    pairs = pairs.materialize()
    if parts is None:
        # partition ladder by graph size: the loop pays (groupby tasks x
        # rounds), so 251 partitions over a 100k-pair graph is pure
        # scheduler overhead (measured: the gate's dup_clusters spent
        # most of its 17 s on empty groups); primes per the modulus rule
        n_pairs = pairs.count()
        parts = 61 if n_pairs < 5_000_000 else CC_PARTS

    def as_directed(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch[a_col], np.int64)
        b = np.asarray(batch[b_col], np.int64)
        return pa.table({"src": pa.array(np.concatenate([a, b]), pa.int64()),
                         "dst": pa.array(np.concatenate([b, a]), pa.int64())})

    edges = (pairs.map_batches(as_directed, batch_format="pyarrow")
             .repartition(n_blocks).materialize())

    def as_label(batch: pa.Table) -> pa.Table:
        node = np.asarray(batch["node"], np.int64)
        if len(node) and node.min() < 0:
            raise ValueError("min_label_components: node ids must be >= 0")
        return pa.table({"node": batch["node"],
                         "lbl": pa.array(node, pa.int64())})

    labels = (_distinct_nodes(pairs, a_col, b_col, parts)
              .map_batches(as_label, batch_format="pyarrow")
              .repartition(n_blocks).materialize())
    prev_sum = labels.sum("lbl") or 0

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"],
                         "cluster_id": batch["lbl"]})

    if labels.count() == 0:  # empty pair set: empty, correctly-typed result
        return ray_data().from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "cluster_id": pa.array([], pa.int64())}))

    def lbl_as_src(batch: pa.Table) -> pa.Table:
        return pa.table({"src": batch["node"], "lbl": batch["lbl"]})

    def lbl_as_dst(batch: pa.Table) -> pa.Table:
        return pa.table({"dst": batch["node"], "lbl": batch["lbl"]})

    def take_src_lbl(batch: pa.Table) -> pa.Table:
        return pa.table({"src": batch["lbl"], "dst": batch["dst"]})

    def clean_edges(batch: pa.Table) -> pa.Table:
        # (src=old src lbl kept in "src", dst relabel in "lbl") -> drop
        # self-loops, dedup within the block (correctness needs neither
        # global dedup nor completeness here — only shrinkage)
        src = np.asarray(batch["src"], np.int64)
        dst = np.asarray(batch["lbl"], np.int64)
        keep = src != dst
        e = np.unique(np.stack([src[keep], dst[keep]], 1), axis=0)
        return pa.table({"src": pa.array(e[:, 0], pa.int64()),
                         "dst": pa.array(e[:, 1], pa.int64())})

    def offer(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["dst"], "cand": batch["src"]})

    def self_offer(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"], "cand": batch["lbl"]})

    def as_ptr(batch: pa.Table) -> pa.Table:
        return pa.table({"lbl": batch["node"], "lbl2": batch["lbl"]})

    def take_jump(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"], "lbl": batch["lbl2"]})

    for _round in range(max_rounds):
        # round 0's labels are the identity, so its relabel is a no-op —
        # skip the two joins (the input pair list has no self-loops)
        if _round > 0 and edges.count() > 0:
            # 1. contract: relabel src, then dst, through current labels
            # (e1 materializes: the dst join reads its schema)
            e1 = shuffle_join(
                edges,
                labels.map_batches(lbl_as_src, batch_format="pyarrow"),
                key="src", right_cols=("lbl",), parts=parts
            ).map_batches(take_src_lbl, batch_format="pyarrow").materialize()
            edges = (shuffle_join(
                e1, labels.map_batches(lbl_as_dst, batch_format="pyarrow"),
                key="dst", right_cols=("lbl",), parts=parts)
                .map_batches(clean_edges, batch_format="pyarrow")
                .repartition(n_blocks).materialize())

        # 2. offers along contracted edges + keep-own, min per node
        # (an empty-after-contraction edge set leaves jump-only rounds,
        # which still have to run until the label-sum fixpoint)
        cand = labels.map_batches(self_offer, batch_format="pyarrow")
        if edges.count() > 0:
            cand = cand.union(
                edges.map_batches(offer, batch_format="pyarrow"))
        labels = _min_per_node(cand, parts).materialize()  # used twice below
        # (NO fixpoint check here: a no-change min step does NOT imply the
        # jump is the identity — labels are only jump-consistent up to one
        # level after a jump; returning early here mislabels 185/400
        # simulated graphs. The sum criterion is valid only post-jump.)

        # 3. pointer jump lbl <- lbl[lbl]
        jumped = shuffle_join(
            labels, labels.map_batches(as_ptr, batch_format="pyarrow"),
            key="lbl", right_cols=("lbl2",), parts=parts)
        labels = (jumped.map_batches(take_jump, batch_format="pyarrow")
                  .repartition(n_blocks).materialize())
        cur_sum = labels.sum("lbl") or 0
        if cur_sum == prev_sum:
            return labels.map_batches(final, batch_format="pyarrow")
        prev_sum = cur_sum
    raise RuntimeError(
        f"min_label_components: no fixpoint after {max_rounds} rounds "
        "(pathological contraction — raise max_rounds)")


# ---------------------------------------------------------------------------
# Integer fixed-point PageRank (iterative loop, oracle-replayable)
# ---------------------------------------------------------------------------

PR_SCALE = 1 << 40        # per-node initial mass; keep N * PR_SCALE < 2^62
PR_BASE = (15 * PR_SCALE) // 100


def pagerank(edges, nodes, *, src_col: str = "src", dst_col: str = "dst",
             w_col: str = "w", rounds: int = 3, parts: int = CC_PARTS,
             n_blocks: int = 32):
    """Deterministic integer PageRank (damping 0.85) over a weighted
    edge Dataset: rank'_i = (15*SCALE)//100 + (85 * T_i) // 100 with
    T_i = sum over inbound edges of (w * rank_src) // outw_src — every
    op is int64 floor arithmetic, so contributions sum ORDER-FREE and
    the result is bit-identical at any parallelism (the same
    replayability contract as the integer k-means: the oracle re-runs
    the rounds in SQL with BIGINT `//`).

    Distributed shape per round: one `shuffle_join` attaches scores to
    edges by src, `combine_by_key` sums contributions per dst, one
    left `shuffle_join` attaches them back to the node set (absent ->
    base mass). Loop state re-materializes at a constant block count
    each round (the geometric-blocks trap). Scale note: T_i < total
    mass = N * SCALE; shrink PR_SCALE for node counts beyond ~4e6 to
    stay inside int64.

    edges must be DISTINCT (src, dst) rows with integer weight w;
    nodes is Dataset(node) of every rank-carrying id (docs with no
    inbound links still emit base mass); an edge whose src is not a
    node raises ValueError. Dangling nodes (no outbound) simply leak
    their mass each round — the standard simplification; the
    synthetic doc graph has none."""
    from .relational import shuffle_join

    def as_edges(batch: pa.Table) -> pa.Table:
        return pa.table({"src": batch[src_col].cast(pa.int64()),
                         "dst": batch[dst_col].cast(pa.int64()),
                         "w": batch[w_col].cast(pa.int64())})

    # loop-invariant: per-src out-weight attached to every edge (edges
    # materializes once: both the out-weight sum and the join read it)
    edges = edges.map_batches(as_edges, batch_format="pyarrow").materialize()
    outw = combine_by_key(edges, "src", {"outw": ("w", "sum")},
                          parts=parts).materialize()
    edges_o = (shuffle_join(edges, outw, key="src", right_cols=("outw",),
                            parts=parts)
               .repartition(n_blocks).materialize())

    def init_scores(batch: pa.Table) -> pa.Table:
        node = np.asarray(batch["node"], np.int64)
        return pa.table({
            "node": pa.array(node, pa.int64()),
            "s": pa.array(np.full(len(node), PR_SCALE, np.int64),
                          pa.int64())})

    def score_by_src(batch: pa.Table) -> pa.Table:
        return pa.table({"src": batch["node"], "s": batch["s"]})

    def to_contrib(batch: pa.Table) -> pa.Table:
        if batch["s"].null_count:
            raise ValueError("pagerank: edge src missing from nodes")
        w = np.asarray(batch["w"], np.int64)
        s = np.asarray(batch["s"], np.int64)
        ow = np.asarray(batch["outw"], np.int64)
        return pa.table({"node": batch["dst"],
                         "t": pa.array((w * s) // ow, pa.int64())})

    def to_score(batch: pa.Table) -> pa.Table:
        t = np.asarray(batch["t"].fill_null(0), np.int64)
        return pa.table({"node": batch["node"],
                         "s": pa.array(PR_BASE + (85 * t) // 100,
                                       pa.int64())})

    nodes = nodes.materialize()
    scores = (nodes.map_batches(init_scores, batch_format="pyarrow")
              .repartition(n_blocks).materialize())
    for _ in range(rounds):
        t_ds = combine_by_key(
            shuffle_join(edges_o,
                         scores.map_batches(score_by_src,
                                            batch_format="pyarrow"),
                         key="src", right_cols=("s",), how="left",
                         parts=parts)
            .map_batches(to_contrib, batch_format="pyarrow"),
            "node", {"t": ("t", "sum")}, parts=parts).materialize()
        scores = (shuffle_join(nodes, t_ds, key="node", right_cols=("t",),
                               how="left", parts=parts)
                  .map_batches(to_score, batch_format="pyarrow")
                  .repartition(n_blocks).materialize())
    return scores


def triangle_counts(edges, *, a_col: str = "a", b_col: str = "b",
                    n_blocks: int = 32):
    """Per-node triangle counts over an undirected graph — the classic
    web-graph cohesion operator (host-graph clustering coefficients,
    link-farm detection). Exact integer counts, order-free at any
    parallelism.

    Degree-ordered node-iterator (the Suri–Vassilvitskii MapReduce
    form, re-expressed over the engine's coarse-prime-partition
    primitives — public algorithm, original implementation):

      1. normalize + DISTINCT the edge list ((min,max), self-loops
         dropped) — per-batch collapse, one coarse shuffle;
      2. degrees by `combine_by_key`; attach deg to each endpoint with
         two left `shuffle_join`s (never a per-distinct-key groupby);
      3. orient every edge low->(deg, id)-high: each triangle now has
         exactly ONE apex (its lowest-ranked vertex), and out-degrees
         are bounded by O(sqrt(2m)) — the wedge blow-up cap;
      4. wedge-generate per apex (vectorized all-pairs within groups:
         offset arithmetic, no Python loop) partitioned by apex;
      5. membership: a semi `shuffle_join` of the wedges' closing pair
         key against the edge set;
      6. matched wedge = one triangle -> +1 to apex and both legs;
         `combine_by_key` count -> (node, n_tri).

    Node ids must fit 31 bits (pair keys pack as (lo<<32)|hi, the same
    int64-packing contract doc_rank uses); raises loudly otherwise.
    """
    from .relational import shuffle_join

    parts = 61        # prime partition count of all six exchanges

    def norm_edges(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch[a_col], np.int64)
        y = np.asarray(batch[b_col], np.int64)
        if len(x) and (x.max() >= 1 << 31 or y.max() >= 1 << 31
                       or x.min() < 0 or y.min() < 0):
            raise ValueError("triangle_counts: node ids must be in "
                             "[0, 2^31) for int64 pair packing")
        m = x != y
        return pa.table({"lo": pa.array(np.minimum(x, y)[m], pa.int64()),
                         "hi": pa.array(np.maximum(x, y)[m], pa.int64())})

    E = combine_by_key(edges.map_batches(norm_edges, batch_format="pyarrow"),
                       ["lo", "hi"], parts=parts).materialize()

    # --- degrees (both endpoints)
    def endpoints(batch: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays([
            batch["lo"].combine_chunks(), batch["hi"].combine_chunks()])})

    D = combine_by_key(E.map_batches(endpoints, batch_format="pyarrow"),
                       "node", {"deg": ("node", "count")},
                       parts=parts).materialize()

    # --- attach deg to an endpoint column; materialized, so the second
    # attach reads the first one's schema without rerunning it
    def attach(e_ds, col, out_name):
        def deg_as(batch: pa.Table) -> pa.Table:
            return pa.table({col: batch["node"], out_name: batch["deg"]})

        def check(batch: pa.Table) -> pa.Table:
            if batch[out_name].null_count:
                raise ValueError("triangle_counts: endpoint missing from "
                                 "degree table")
            return batch

        return (shuffle_join(e_ds, D.map_batches(deg_as,
                                                 batch_format="pyarrow"),
                             key=col, right_cols=(out_name,), how="left",
                             parts=parts)
                .map_batches(check, batch_format="pyarrow").materialize())

    Ed = attach(attach(E, "lo", "deg_lo"), "hi", "deg_hi")

    # --- orient by (deg, id) rank; partition by apex (src)
    def orient(batch: pa.Table) -> pa.Table:
        lo = np.asarray(batch["lo"], np.int64)
        hi = np.asarray(batch["hi"], np.int64)
        dl = np.asarray(batch["deg_lo"], np.int64)
        dh = np.asarray(batch["deg_hi"], np.int64)
        lo_first = (dl < dh) | ((dl == dh) & (lo < hi))
        src = np.where(lo_first, lo, hi)
        dst = np.where(lo_first, hi, lo)
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    def wedges(part: pa.Table) -> pa.Table:
        """(apex, key) per wedge: key = (lo<<32)|hi of its open pair."""
        src = np.asarray(part["src"], np.int64)
        dst = np.asarray(part["dst"], np.int64)
        o = np.lexsort((dst, src))
        src, dst = src[o], dst[o]
        # group boundaries + vectorized all-pairs within each group
        starts = np.flatnonzero(np.concatenate((
            [True], src[1:] != src[:-1])))
        lens = np.diff(np.append(starts, len(src)))
        npairs = lens * (lens - 1) // 2
        total = int(npairs.sum())
        # for each group g and each i<j in [0,len): emit (nbr[i], nbr[j])
        grp = np.repeat(np.arange(len(lens)), npairs)
        within = np.arange(total) - np.repeat(
            np.concatenate(([0], np.cumsum(npairs)[:-1])), npairs)
        L = lens[grp]
        # unrank 'within' -> (i, j) over the upper triangle, rows i of
        # decreasing length L-1-i: i = smallest with cum rows > within
        # solved in closed form via the quadratic root
        i = np.floor((2 * L - 1 - np.sqrt((2 * L - 1) ** 2
                                          - 8 * within)) / 2).astype(
            np.int64)
        before = i * (2 * L - i - 1) // 2
        j = within - before + i + 1
        base = np.repeat(starts, npairs)
        u = dst[base + i]
        w = dst[base + j]
        return pa.table({
            "apex": pa.array(src[base], pa.int64()),
            "key": pa.array((np.minimum(u, w) << 32) | np.maximum(u, w),
                            pa.int64())})

    W = by_partition(Ed.map_batches(orient, batch_format="pyarrow"), "src",
                     wedges, parts=parts).materialize()

    # --- membership: a wedge whose closing pair is an edge is a triangle
    def e_keyed(batch: pa.Table) -> pa.Table:
        lo = np.asarray(batch["lo"], np.int64)
        hi = np.asarray(batch["hi"], np.int64)
        return pa.table({"key": pa.array((lo << 32) | hi, pa.int64())})

    def credit(batch: pa.Table) -> pa.Table:
        # one matched wedge = one triangle: credit apex + both legs
        apex = np.asarray(batch["apex"], np.int64)
        key = np.asarray(batch["key"], np.int64)
        return pa.table({"node": pa.array(np.concatenate([
            apex, key >> 32, key & 0xFFFFFFFF]), pa.int64())})

    tri = shuffle_join(W, E.map_batches(e_keyed, batch_format="pyarrow"),
                       key="key", right_cols=(), how="semi", parts=parts)
    return combine_by_key(tri.map_batches(credit, batch_format="pyarrow"),
                          "node", {"n_tri": ("node", "count")}, parts=parts)
