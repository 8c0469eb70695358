"""Stream-shaped operators over the `events` table (SURVEY.md §2.11).

Ray Data has no event-time windows; the engine treats the events table as a
partitioned log: tumbling windows become (key, time-bucket) pre-aggregates
through `combine_by_key`; every per-user operator (top-k, watermark,
as-of and range joins, sessions, lag/lead, running max) is ONE
`by_partition` on "user_id" into USER_PARTITIONS coarse partitions
(`user_id % 251`): a partition holds many whole users and runs one
vectorized lexsort + run-detection kernel, never one group call per
distinct user. The ordering assumption is stated per operator.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .combine import by_partition, combine_by_key

WINDOW_SECONDS = 3600


def tumbling_window_counts(events, *, window_s: int = WINDOW_SECONDS,
                           window_col: str | None = None):
    """(user_id, window, n_events, max_value) per tumbling window.

    window = floor(epoch_seconds / window_s). Pure partial+final aggregate
    through `combine_by_key` on (user_id, window): no ordering assumption
    at all (tumbling assignment is a row-local function), and integer
    count and MAX are merge-order-independent, so the result is
    bit-identical to the SQL GROUP BY.
    """

    def assign(batch: pa.Table) -> pa.Table:
        if window_col is not None:   # pre-assigned buckets (hopping path)
            win = np.asarray(batch[window_col], np.int64)
        else:
            ts = np.asarray(batch["ts"].cast(pa.int64()))  # us since epoch
            win = ts // (window_s * 1_000_000)
        return pa.table({"user_id": batch["user_id"].cast(pa.int64()),
                         "window": pa.array(win, pa.int64()),
                         "value": batch["value"].cast(pa.float64())})

    return combine_by_key(events.map_batches(assign, batch_format="pyarrow"),
                          ["user_id", "window"],
                          {"n_events": ("value", "count"),
                           "max_value": ("value", "max")},
                          parts=USER_PARTITIONS)


def hopping_window_counts(events, *, window_s: int = WINDOW_SECONDS,
                          hop_s: int = 900):
    """Hopping (sliding) windows: length `window_s`, advancing by `hop_s`
    (must divide window_s). Every event lands in exactly window_s/hop_s
    windows — a map-side EXPLODE by window index (row-local, order-free),
    then the same `combine_by_key` aggregate as the tumbling path.
    Output: (user_id, window, n_events, max_value) where
    `window` is the hop index of the window's start (start = window*hop_s).
    """
    assert window_s % hop_s == 0
    fanout = window_s // hop_s

    def explode(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch["ts"].cast(pa.int64()))      # us since epoch
        base = ts // (hop_s * 1_000_000)
        users = np.asarray(batch["user_id"], np.int64)
        vals = np.asarray(batch["value"], np.float64)
        n = len(ts)
        j = np.tile(np.arange(fanout, dtype=np.int64), n)
        win = np.repeat(base, fanout) - j
        return pa.table({
            "user_id": pa.array(np.repeat(users, fanout), pa.int64()),
            "window": pa.array(win, pa.int64()),
            "value": pa.array(np.repeat(vals, fanout), pa.float64()),
        })

    exploded = events.map_batches(explode, batch_format="pyarrow")
    return tumbling_window_counts(exploded, window_s=hop_s,
                                  window_col="window")


def grouped_topk(events, *, k: int = 3):
    """Top-k events per user by (value desc, event_id asc) — the grouped
    top-k operator. One shuffle into coarse user-hash partitions, one
    vectorized lexsort + run-rank kernel per partition (no per-user
    Python). Output: (user_id, rank, event_id, value)."""

    def local(part: pa.Table) -> pa.Table:
        users = np.asarray(part["user_id"], np.int64)
        eids = np.asarray(part["event_id"], np.int64)
        vals = np.asarray(part["value"], np.float64)
        order = np.lexsort((eids, -vals, users))
        u, e, v = users[order], eids[order], vals[order]
        new = np.empty(len(u), bool)
        new[0:1] = True
        new[1:] = u[1:] != u[:-1]
        rank = np.arange(len(u)) - np.maximum.accumulate(
            np.where(new, np.arange(len(u)), 0)) + 1
        m = rank <= k
        return pa.table({
            "user_id": pa.array(u[m], pa.int64()),
            "rank": pa.array(rank[m], pa.int64()),
            "event_id": pa.array(e[m], pa.int64()),
            "value": pa.array(v[m], pa.float64()),
        })

    return by_partition(events, "user_id", local, parts=USER_PARTITIONS)


def global_topk(ds, *, k: int = 100, value_col: str = "value",
                id_col: str = "event_id", keep_cols=("user_id",)):
    """Global top-k rows by (value desc, id asc) WITHOUT a global sort.

    Every batch reduces map-side to its own ≤k rows (one vectorized lexsort
    per batch — the only data that leaves a task is k rows), then the tiny
    partials coalesce into one block for a final identical kernel. At 1e12
    rows the exchange volume is k × n_blocks rows, not the table; the
    AllToAll Sort operator never appears in the plan (pytest asserts this).
    Output columns: (id_col, *keep_cols, value_col).
    """
    keep = list(keep_cols)

    def local(batch: pa.Table) -> pa.Table:
        vals = np.asarray(batch[value_col], np.float64)
        ids = np.asarray(batch[id_col], np.int64)
        order = np.lexsort((ids, -vals))[:k]
        take = pa.array(order)
        out = {id_col: pa.array(ids[order], pa.int64())}
        for c in keep:
            out[c] = pc.take(batch[c], take)
        out[value_col] = pa.array(vals[order], pa.float64())
        return pa.table(out)

    partials = ds.map_batches(local, batch_format="pyarrow")
    # k × n_blocks rows -> one block -> one final kernel (tiny by design)
    return partials.repartition(1).map_batches(local, batch_format="pyarrow",
                                               batch_size=None)


USER_PARTITIONS = 251   # prime (CLAUDE.md: never a power of two near packing)


def _user_ts_sorted(part: pa.Table):
    """lexsort a partition by (user_id, ts, event_id); returns the sorted
    (users, ts_us, event_ids) arrays plus first-row-of-user mask."""
    users = np.asarray(part["user_id"], np.int64)
    ts = np.asarray(part["ts"].cast(pa.int64()))        # us since epoch
    eids = np.asarray(part["event_id"], np.int64)
    order = np.lexsort((eids, ts, users))
    u, t, e = users[order], ts[order], eids[order]
    new_user = np.empty(len(u), bool)
    new_user[0:1] = True
    new_user[1:] = u[1:] != u[:-1]
    return order, u, t, e, new_user


LATE_US = 6 * 3600 * 1_000_000       # allowed lateness: 6 hours


def watermark_window_counts(events, *, window_s: int = WINDOW_SECONDS,
                            late_us: int = LATE_US):
    """Event-time watermark / late-data semantics (batch interpretation of
    a streaming ingest; VERDICT-r2's "missing #4").

    The events parquet is time-ordered, so replaying it as-is would never
    produce late data; arrival order is instead the deterministic
    log-shuffle key a(e) = (event_id * M1) % P1 (synth's Knuth
    multiplicative hash — same int64-overflow bound as synth._fracs),
    which models an out-of-order log while staying bit-reproducible in
    SQL. Per user, the watermark at an event's arrival is
    max(event-time of previously-arrived events) - late_us (exclusive
    prefix); the event is LATE iff its ts is below that.

    Output per (user_id, window): n_kept, n_late, max_kept (-1.0 when the
    window saw only late events). ONE shuffle into coarse user-hash
    partitions (a user's whole history lands in one partition, so the
    aggregation finishes locally — no second shuffle); the per-user
    exclusive prefix maximum runs vectorized per user run (the run loop is
    per-user-in-partition, not per row).
    """
    from ..functions.synth import M1, P1

    win_us = window_s * 1_000_000
    cols = ["user_id", "window", "n_kept", "n_late", "max_kept"]

    def local(part: pa.Table) -> pa.Table:
        n = part.num_rows
        users = np.asarray(part["user_id"], np.int64)
        ts = np.asarray(part["ts"].cast(pa.int64()))      # us since epoch
        eids = np.asarray(part["event_id"], np.int64)
        vals = np.asarray(part["value"], np.float64)
        akey = (eids * M1) % P1
        order = np.lexsort((eids, akey, users))           # arrival replay
        u_s, t_s, v_s = users[order], ts[order], vals[order]
        new_user = np.empty(n, bool)
        new_user[0:1] = True
        new_user[1:] = u_s[1:] != u_s[:-1]
        starts = np.nonzero(new_user)[0]
        # exclusive prefix max of event-time per user run; sentinel -1
        # (ts >= 0) marks "no previous arrival" without int64 underflow
        prevmax = np.empty(n, np.int64)
        for s, e in zip(starts, np.append(starts[1:], n)):
            prevmax[s] = -1
            if e - s > 1:
                prevmax[s + 1:e] = np.maximum.accumulate(t_s[s:e - 1])
        late = t_s < prevmax - late_us
        win = t_s // win_us
        order2 = np.lexsort((win, u_s))
        u2, w2, l2, v2 = u_s[order2], win[order2], late[order2], v_s[order2]
        new = np.empty(n, bool)
        new[0:1] = True
        new[1:] = (u2[1:] != u2[:-1]) | (w2[1:] != w2[:-1])
        gstart = np.nonzero(new)[0]
        if n == 0:
            return pa.table({c: pa.array([], pa.float64() if c == "max_kept"
                                         else pa.int64()) for c in cols})
        n_late = np.add.reduceat(l2.astype(np.int64), gstart)
        gcnt = np.append(gstart[1:], n) - gstart
        kept_vals = np.where(l2, -np.inf, v2)
        mx = np.maximum.reduceat(kept_vals, gstart)
        return pa.table({
            "user_id": pa.array(u2[gstart], pa.int64()),
            "window": pa.array(w2[gstart], pa.int64()),
            "n_kept": pa.array(gcnt - n_late, pa.int64()),
            "n_late": pa.array(n_late, pa.int64()),
            "max_kept": pa.array(np.where(np.isfinite(mx), mx, -1.0),
                                 pa.float64()),
        })

    return by_partition(events.select_columns(
        ["event_id", "ts", "user_id", "value"]), "user_id", local,
        parts=USER_PARTITIONS)


def asof_self_join(events, *, match_type: str = "purchase"):
    """For every event: the most recent event of `match_type` by the same
    user at or before it (inclusive — ts_match <= ts; a purchase row can
    match itself).

    Shape: one shuffle into coarse user-hash partitions, then one
    vectorized pass per partition — lexsort by (user, ts, event_id), reduce
    rows to (user, ts) runs, per-run max match event_id (the deterministic
    tie-break DuckDB's ASOF needs pre-reduced too), forward-fill the last
    match run via np.maximum.accumulate over run indices, invalidate fills
    that cross a user boundary. No per-user Python/pandas calls.
    Output: (event_id, match_event_id nullable).
    """

    def local(part: pa.Table) -> pa.Table:
        n = part.num_rows
        is_match = pc.equal(part["event_type"],
                            pa.scalar(match_type)).to_numpy(
                                zero_copy_only=False)
        order, u, t, e, new_user = _user_ts_sorted(part)
        m = is_match[order]
        # (user, ts) runs — matches at the same ts apply to every event in
        # the run (ts >= m.ts is inclusive), so the fill works at run level
        run_new = np.empty(n, bool)
        run_new[0:1] = True
        run_new[1:] = new_user[1:] | (t[1:] != t[:-1])
        run_start = np.nonzero(run_new)[0]
        n_runs = len(run_start)
        run_of_row = np.cumsum(run_new) - 1
        # per-run max match event_id (-1 = no match row in the run)
        tmp = np.where(m, e, -1)
        run_match = np.maximum.reduceat(tmp, run_start)
        # forward-fill: latest run index <= current having a match
        idx = np.where(run_match >= 0, np.arange(n_runs), -1)
        ff = np.maximum.accumulate(idx)
        # a fill must not cross user boundaries: a user boundary is always a
        # run boundary, so new_user[run_start] flags each user's first run
        user_first_run = np.maximum.accumulate(
            np.where(new_user[run_start], np.arange(n_runs), -1))
        valid = ff >= user_first_run
        ans_run = np.where(valid, run_match[ff.clip(min=0)], -1)
        ans = ans_run[run_of_row]
        return pa.table({
            "event_id": pa.array(e, pa.int64()),
            "match_event_id": pa.array(
                np.where(ans >= 0, ans, 0), pa.int64(),
                mask=ans < 0),
        })

    return by_partition(events, "user_id", local, parts=USER_PARTITIONS)


def interval_range_join(events, intervals):
    """Equi(user_id) + range(ts) join — the classic "range join" Ray Data
    has no operator for: every (interval, event) pair with the same
    user_id and interval.start_us <= event.ts <= interval.end_us
    (both ends inclusive).

    Distributed shape: BOTH sides shuffle ONCE into coarse user-hash
    partitions (tagged union — an interval and all events it can match
    share a user, so the join completes locally; a hot user costs one
    fat partition, never a per-key group). Per partition, one merge-path
    kernel: events lexsort by (user, ts, event_id); each interval's
    event range [lo, hi) falls out of a single combined lexsort where
    the tag ordering encodes boundary inclusivity (interval-start sorts
    BEFORE events at an equal (user, ts) so ts == start matches;
    interval-end sorts AFTER, so ts == end matches); matched ranges
    expand with the run-length gather. No per-interval Python, no
    composite-key packing (so any int64 timestamp range is safe).

    events:    (event_id, user_id, ts, value);
    intervals: (interval_id, user_id, start_us, end_us), end >= start.
    Output: (interval_id, event_id, user_id, value).
    """
    from .relational import _match_ranges

    def tag_events(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["user_id"], np.int64)
        return pa.table({
            "user_id": pa.array(u, pa.int64()),
            "t0": pa.array(np.asarray(batch["ts"].cast(pa.int64())),
                           pa.int64()),
            "t1": pa.array(np.zeros(len(u), np.int64), pa.int64()),
            "rid": pa.array(np.asarray(batch["event_id"], np.int64),
                            pa.int64()),
            "value": pa.array(np.asarray(batch["value"], np.float64),
                              pa.float64()),
            "__iv": pa.array(np.zeros(len(u), np.int64), pa.int64()),
        })

    def tag_intervals(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["user_id"], np.int64)
        return pa.table({
            "user_id": pa.array(u, pa.int64()),
            "t0": pa.array(np.asarray(batch["start_us"], np.int64),
                           pa.int64()),
            "t1": pa.array(np.asarray(batch["end_us"], np.int64),
                           pa.int64()),
            "rid": pa.array(np.asarray(batch["interval_id"], np.int64),
                            pa.int64()),
            "value": pa.array(np.zeros(len(u), np.float64), pa.float64()),
            "__iv": pa.array(np.ones(len(u), np.int64), pa.int64()),
        })

    def local(part: pa.Table) -> pa.Table:
        iv = np.asarray(part["__iv"], np.int64) == 1
        u = np.asarray(part["user_id"], np.int64)
        t0 = np.asarray(part["t0"], np.int64)
        t1 = np.asarray(part["t1"], np.int64)
        rid = np.asarray(part["rid"], np.int64)
        val = np.asarray(part["value"], np.float64)
        e_idx = np.nonzero(~iv)[0]
        i_idx = np.nonzero(iv)[0]
        empty = pa.table({
            "interval_id": pa.array([], pa.int64()),
            "event_id": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
            "value": pa.array([], pa.float64()),
        })
        if len(e_idx) == 0 or len(i_idx) == 0:
            return empty
        iu = u[i_idx]
        ne, ni = len(e_idx), len(iu)
        # ONE combined lexsort of events + BOTH boundary sets: the tag
        # ordering start(0) < event(1) < end(2) at an equal (user, ts)
        # key makes both bounds inclusive, and the events' relative
        # order within the sort doubles as the sorted event array. The
        # cumulative event count at a boundary's sorted position is its
        # rank among the sorted events (lo for starts, hi for ends).
        cu = np.concatenate([u[e_idx], iu, iu])
        ct = np.concatenate([t0[e_idx], t0[i_idx], t1[i_idx]])
        tag = np.concatenate([np.ones(ne, np.int64),
                              np.zeros(ni, np.int64),
                              np.full(ni, 2, np.int64)])
        order = np.lexsort((tag, ct, cu))
        is_event = tag[order] == 1
        cum = np.cumsum(is_event)
        ranks = np.empty(ne + 2 * ni, np.int64)
        ranks[order] = np.arange(ne + 2 * ni)
        lo = cum[ranks[ne:ne + ni]]
        hi = cum[ranks[ne + ni:]]
        ev_sorted = e_idx[order[is_event]]      # original rows, sorted
        eu, eid, eval_ = u[ev_sorted], rid[ev_sorted], val[ev_sorted]
        counts = np.maximum(hi - lo, 0)
        if counts.sum() == 0:
            return empty
        sel = _match_ranges(lo, counts)
        return pa.table({
            "interval_id": pa.array(np.repeat(rid[i_idx], counts),
                                    pa.int64()),
            "event_id": pa.array(eid[sel], pa.int64()),
            "user_id": pa.array(eu[sel], pa.int64()),
            "value": pa.array(eval_[sel], pa.float64()),
        })

    return by_partition(
        [events.map_batches(tag_events, batch_format="pyarrow"),
         intervals.map_batches(tag_intervals, batch_format="pyarrow")],
        "user_id", local, parts=USER_PARTITIONS)


SESSION_GAP_US = 1800 * 1_000_000


def session_windows(events, *, gap_us: int = SESSION_GAP_US):
    """Session windows per user: a new session starts at the first event and
    whenever the gap to the previous event exceeds `gap_us`.

    Output: (event_id, session_idx) 1-based per user in (ts, event_id)
    order, identical to the SQL window-function oracle. Same coarse
    user-hash partition + single vectorized pass as asof_self_join: the
    per-user 1-based index is the global cumsum of new-session flags minus
    the cumsum value at each user's first row.
    """

    def local(part: pa.Table) -> pa.Table:
        n = part.num_rows
        _, u, t, e, new_user = _user_ts_sorted(part)
        gap = np.empty(n, np.int64)
        gap[0:1] = 0
        gap[1:] = t[1:] - t[:-1]
        new_sess = new_user | (gap > gap_us)
        g = np.cumsum(new_sess)
        user_start = np.nonzero(new_user)[0]
        base = np.repeat(g[user_start] - 1,
                         np.diff(np.append(user_start, n)))
        return pa.table({
            "event_id": pa.array(e, pa.int64()),
            "session_idx": pa.array(g - base, pa.int64()),
        })

    return by_partition(events, "user_id", local, parts=USER_PARTITIONS)


def lag_lead_delta(events, *, parts: int = USER_PARTITIONS):
    """Per-user LAG/LEAD in (ts, event_id) order — SQL's
    LAG(col) / LEAD(col) OVER (PARTITION BY user_id ORDER BY ts,
    event_id). One shuffle into coarse user-hash partitions, then per
    partition a single lexsort and pure shifted-array arithmetic (no
    per-user loop at all: user boundaries become null masks). Emits per
    event the previous/next event_id, the gap to the previous event in
    microseconds, and the value delta (one f64 subtraction per row —
    bit-exact vs SQL). First event of a user has null prev/gap/delta;
    last has null next."""

    def local(part: pa.Table) -> pa.Table:
        n = part.num_rows
        vals = np.asarray(part["value"], np.float64)
        order, u, t, e, new_user = _user_ts_sorted(part)
        v = vals[order]
        last_of_user = np.empty(n, bool)
        if n:
            last_of_user[:-1] = new_user[1:]
            last_of_user[-1] = True
        prev_e = np.zeros(n, np.int64)
        next_e = np.zeros(n, np.int64)
        gap = np.zeros(n, np.int64)
        dv = np.zeros(n, np.float64)
        if n > 1:
            prev_e[1:] = e[:-1]
            next_e[:-1] = e[1:]
            gap[1:] = t[1:] - t[:-1]
            dv[1:] = v[1:] - v[:-1]
        return pa.table({
            "event_id": pa.array(e, pa.int64()),
            "prev_event_id": pa.array(prev_e, pa.int64(), mask=new_user),
            "next_event_id": pa.array(next_e, pa.int64(),
                                      mask=last_of_user),
            "gap_us": pa.array(gap, pa.int64(), mask=new_user),
            "delta_value": pa.array(dv, pa.float64(), mask=new_user),
        })

    return by_partition(events.select_columns(
        ["event_id", "ts", "user_id", "value"]), "user_id", local, parts=parts)


def running_user_max(events):
    """Per-user RUNNING maximum of value in (ts, event_id) order — the
    cumulative windowed aggregate (SQL's MAX OVER PARTITION BY user
    ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING). One shuffle into
    coarse user-hash partitions (a user's history is contiguous there);
    per partition a single lexsort, then a cumulative max per user run
    (the run loop is per-user-in-partition, like the watermark kernel —
    never per row). MAX picks an element, so the output is bit-exact
    against SQL. Output: (event_id, running_max)."""

    def local(part: pa.Table) -> pa.Table:
        n = part.num_rows
        vals = np.asarray(part["value"], np.float64)
        order, u, t, e, new_user = _user_ts_sorted(part)
        v = vals[order]
        out = np.empty(n, np.float64)
        starts = np.nonzero(new_user)[0]
        for s, epos in zip(starts, np.append(starts[1:], n)):
            out[s:epos] = np.maximum.accumulate(v[s:epos])
        return pa.table({
            "event_id": pa.array(e, pa.int64()),
            "running_max": pa.array(out, pa.float64()),
        })

    return by_partition(events.select_columns(
        ["event_id", "ts", "user_id", "value"]), "user_id", local,
        parts=USER_PARTITIONS)


def window_distinct_users(events, *, window_s: int = WINDOW_SECONDS):
    """(window, n_users): EXACT distinct users per tumbling window.

    Two-phase distinct: `combine_by_key` first reduces the events to
    their distinct (window, user) pairs, then counts the pairs per
    window. Never a per-distinct-(window,user) groupby. Integer counts,
    so merge-order-free and bit-exact vs SQL COUNT(DISTINCT)."""

    def assign(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch["ts"].cast(pa.int64()))      # us since epoch
        if len(ts) and ts.min() < 0:    # SQL // truncates, numpy floors
            raise ValueError("window index needs ts >= epoch")
        return pa.table({
            "window": pa.array(ts // (window_s * 1_000_000), pa.int64()),
            "user_id": batch["user_id"].cast(pa.int64())})

    pairs = combine_by_key(events.map_batches(assign, batch_format="pyarrow"),
                           ["window", "user_id"])
    return combine_by_key(pairs, "window", {"n_users": ("user_id", "count")})
