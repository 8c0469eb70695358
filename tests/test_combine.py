"""by_partition and combine_by_key: the exchange's co-location and row
conservation, and the aggregate against a pure-Python dict reduce, over
int64, string and two-column keys, across block layouts and partition
counts; the aggregate's result in any block order; the exchange's own
tasks (no Ray Data all-to-all), empty inputs and errors. Plus the rule that no module writes a Ray Data groupby."""

import ast
import pathlib
import random
import signal
import uuid

import numpy as np
import pyarrow as pa
import pytest

from shapefile_rs_ray.stages.combine import by_partition, combine_by_key

KEYS = [["k"], ["s"], ["k", "s"]]
AGGS = {"total": ("v", "sum"), "lo": ("v", "min"), "hi": ("v", "max"),
        "n": ("v", "count")}
FOLD = {"sum": sum, "min": min, "max": max, "count": len}


def _table(n: int = 600, seed: int = 7) -> pa.Table:
    rng = random.Random(seed)
    return pa.table({
        "k": pa.array([rng.randrange(-20, 40) for _ in range(n)], pa.int64()),
        "s": pa.array([f"w{rng.randrange(25)}" for _ in range(n)]),
        "v": pa.array([rng.randrange(-10**6, 10**6) for _ in range(n)],
                      pa.int64()),
    })


def _dataset(t: pa.Table):
    """Three blocks, one of them empty and schema-less."""
    import ray
    return ray.data.from_arrow([t.slice(0, 250), pa.table({}),
                                t.slice(250)])


def _expected(t: pa.Table, keys, aggs) -> list[tuple]:
    groups: dict[tuple, list] = {}
    for row in t.to_pylist():
        groups.setdefault(tuple(row[c] for c in keys), []).append(row["v"])
    return sorted(key + tuple(FOLD[op](vs) for _, op in aggs.values())
                  for key, vs in groups.items())


def _rows(ds, keys, aggs) -> list[tuple]:
    cols = keys + list(aggs)
    assert ds.schema().names == cols
    return sorted(tuple(r[c] for c in cols) for r in ds.take_all())


@pytest.mark.parametrize("keys", KEYS, ids=["int64", "string", "two_col"])
@pytest.mark.parametrize("aggs", [AGGS, {}], ids=["ops", "distinct"])
def test_combine_matches_dict_reduce(ray_session, keys, aggs):
    t = _table()
    got = _rows(combine_by_key(_dataset(t), keys, aggs), keys, aggs)
    assert got == _expected(t, keys, aggs)


@pytest.mark.parametrize("keys", KEYS, ids=["int64", "string", "two_col"])
def test_combine_is_layout_free(ray_session, keys):
    t = _table(seed=11)
    ds = _dataset(t)
    want = _expected(t, keys, AGGS)
    for layout, parts in ((ds.repartition(1), 251), (ds.repartition(7), 251),
                          (ds, 1), (ds, 13)):
        got = _rows(combine_by_key(layout, keys, AGGS, parts=parts),
                    keys, AGGS)
        assert got == want, (layout, parts)


def _call_ids():
    """fn for by_partition: the partition's rows, minus the tag, plus one
    random id per call (a closure, so Ray ships it by value)."""
    def with_call_id(part: pa.Table) -> pa.Table:
        call = uuid.uuid4().int >> 65
        return part.drop_columns(["__p"]).append_column(
            "call", pa.array(np.full(part.num_rows, call, np.int64)))
    return with_call_id


def _calls_by_key(rows, keys) -> dict[tuple, set]:
    calls: dict[tuple, set] = {}
    for r in rows:
        calls.setdefault(tuple(r[c] for c in keys), set()).add(r["call"])
    return calls


def _multiset(rows, cols) -> list[tuple]:
    return sorted(tuple(r[c] for c in cols) for r in rows)


@pytest.mark.parametrize("keys", KEYS, ids=["int64", "string", "two_col"])
def test_by_partition_colocates_keys(ray_session, keys):
    t = _table(seed=5)
    ds = _dataset(t)
    for layout, parts in ((ds, 1), (ds, 13), (ds.repartition(7), 13)):
        rows = by_partition(layout, keys, _call_ids(),
                            parts=parts).take_all()
        assert _multiset(rows, t.column_names) == \
            _multiset(t.to_pylist(), t.column_names), (layout, parts)
        calls = _calls_by_key(rows, keys)
        # no key is split across two fn calls
        assert all(len(c) == 1 for c in calls.values()), (layout, parts)
        assert len(set().union(*calls.values())) <= parts


def test_by_partition_callable_key_is_the_partition_id(ray_session):
    t = _table(seed=9)

    def one_call(part: pa.Table) -> pa.Table:
        ids = np.unique(np.asarray(part["__p"], np.int64))
        return pa.table({"pid": pa.array(ids[:1]),
                         "n_ids": pa.array([len(ids)], pa.int64())})

    rows = by_partition(_dataset(t),
                        lambda b: np.asarray(b["k"], np.int64) + 1000,
                        one_call).take_all()
    assert all(r["n_ids"] == 1 for r in rows)
    pids = [r["pid"] for r in rows]
    # used as they are: one call per distinct value, no modulo
    assert sorted(pids) == sorted({k + 1000 for k in t["k"].to_pylist()})


@pytest.mark.parametrize("keys", KEYS, ids=["int64", "string", "two_col"])
def test_by_partition_two_inputs_meet(ray_session, keys):
    def side(t: pa.Table, s: int) -> pa.Table:
        return t.append_column("side", pa.array([s] * t.num_rows, pa.int64()))

    a, b = side(_table(seed=3), 0), side(_table(n=300, seed=4), 1)
    import ray
    rows = by_partition([_dataset(a), ray.data.from_arrow(b).repartition(3)],
                        keys, _call_ids(), parts=13).take_all()
    assert _multiset(rows, a.column_names) == _multiset(
        a.to_pylist() + b.to_pylist(), a.column_names)
    for key, calls in _calls_by_key(rows, keys).items():
        assert len(calls) == 1, key
    both = {tuple(r[c] for c in keys) for r in a.to_pylist()} & \
        {tuple(r[c] for c in keys) for r in b.to_pylist()}
    assert both          # the fixture has keys on both sides


def _blocks(ds) -> list[pa.Table]:
    import ray
    return [ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
            for ref, _ in bundle.blocks]


def test_by_partition_makes_no_all_to_all(ray_session):
    out = by_partition(_dataset(_table()), "k", _call_ids(),
                       parts=13).materialize()
    stats = out.stats()
    assert "FromArrow" in stats
    for op in ("Sort", "AllToAll", "Aggregate", "Repartition", "Shuffle"):
        assert op not in stats, op
    assert out.count() == 600


@pytest.mark.parametrize("n_blocks", [1, 7, 40])
def test_by_partition_colocates_at_any_block_count(ray_session, n_blocks):
    import ray
    t = _table(seed=13)
    ds = ray.data.from_arrow(t).repartition(n_blocks).materialize()
    assert ds.num_blocks() == n_blocks
    for parts in (1, 13, 251):
        rows = by_partition(ds, "k", _call_ids(), parts=parts).take_all()
        assert _multiset(rows, t.column_names) == \
            _multiset(t.to_pylist(), t.column_names), (n_blocks, parts)
        calls = _calls_by_key(rows, ["k"])
        assert all(len(c) == 1 for c in calls.values()), (n_blocks, parts)


def _sorted_table(ds, keys) -> pa.Table:
    import ray
    t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    return t.sort_by([(k, "ascending") for k in keys])


@pytest.mark.parametrize("n_blocks", [1, 7, 40])
def test_combine_and_zonal_ignore_block_order(ray_session, n_blocks):
    """Once a map runs tasks side by side, its outputs reach the exchange
    in completion order: the same rows in reversed and shuffled block
    order give identical `combine_by_key` and `zonal_stats` tables."""
    import ray
    from shapefile_rs_ray.stages.zonal import zonal_stats
    t = _table(n=2000, seed=17)
    cuts = np.linspace(0, t.num_rows, n_blocks + 1).astype(int)
    blocks = [t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]
    shuffled = list(blocks)
    random.Random(n_blocks).shuffle(shuffled)
    results = []
    for order in (blocks, blocks[::-1], shuffled):
        ds = ray.data.from_arrow(order)
        assert ds.num_blocks() == n_blocks
        results.append((
            _sorted_table(combine_by_key(ds, ["k", "s"], AGGS), ["k", "s"]),
            _sorted_table(zonal_stats(ds, measure_col="v", zone_col="k"),
                          ["k"])))
    for combined, zonal in results[1:]:
        assert combined.equals(results[0][0])
        assert zonal.equals(results[0][1])
    assert results[0][0].num_rows == len(_expected(t, ["k", "s"], AGGS))


def test_by_partition_callable_key_extremes(ray_session):
    """Partition ids used as they are: negative, and far above 2^40."""
    import ray
    ids = [-7, -1, 0, 5, 2**40 + 3, 2**62 + 11, -(2**50)]
    t = pa.table({"id": pa.array(ids * 20, pa.int64()),
                  "v": pa.array(range(len(ids) * 20), pa.int64())})

    def one_call(part: pa.Table) -> pa.Table:
        p = np.asarray(part["__p"], np.int64)
        assert (p == p[0]).all()
        assert (np.asarray(part["id"], np.int64) == p[0]).all()
        return pa.table({"pid": pa.array([p[0]], pa.int64()),
                         "n": pa.array([part.num_rows], pa.int64())})

    ds = ray.data.from_arrow(t).repartition(5)
    rows = by_partition(ds, lambda b: np.asarray(b["id"], np.int64),
                        one_call).take_all()
    assert sorted((r["pid"], r["n"]) for r in rows) == \
        sorted((i, 20) for i in ids)


def test_by_partition_on_no_rows(ray_session):
    """Zero-row and schema-less inputs: zero rows, no schema-less block,
    and `fn` is never called."""
    import ray
    typed = _table().slice(0, 0)

    def never(part):
        raise AssertionError("fn called on an empty exchange")

    for inputs in (ray.data.from_arrow([pa.table({}), pa.table({})]),
                   ray.data.from_arrow([typed, pa.table({})]),
                   [ray.data.from_arrow(typed),
                    ray.data.from_arrow(_table()).filter(
                        expr="k > 1000000")]):
        out = by_partition(inputs, "k", never, parts=13)
        assert out.count() == 0
        assert all(b.num_columns for b in _blocks(out))
    # a mix: the empty blocks drop out, the rows all arrive
    t = _table()
    out = by_partition(_dataset(t), "k", lambda part: part, parts=13)
    assert all(b.num_columns and b.num_rows for b in _blocks(out))
    assert out.count() == t.num_rows


def _alarm(signum, frame):
    raise TimeoutError("by_partition hung on a failing task")


@pytest.mark.parametrize("where", ["fn", "key"])
def test_by_partition_raises_task_errors(ray_session, where):
    def bad_fn(part):
        if (np.asarray(part["__p"]) == 3).any():
            raise ValueError("bad partition 3")
        return part

    def bad_key(b):
        raise ValueError("bad key")

    fn, key = ((bad_fn, lambda b: np.asarray(b["k"], np.int64) % 5)
               if where == "fn" else (lambda part: part, bad_key))
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(120)
    try:
        with pytest.raises(ValueError, match="bad"):
            by_partition(_dataset(_table()), key, fn).take_all()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _groupby_sites() -> set[tuple[str, str]]:
    """(module, top-level function) of every `.groupby(` call in the
    package and the driver entry."""
    root = pathlib.Path(__file__).resolve().parents[1]
    pkg = root / "shapefile_rs_ray"
    files = [(p.relative_to(pkg).as_posix(), p) for p in pkg.rglob("*.py")]
    files.append(("__ray_entry__.py", root / "__ray_entry__.py"))
    sites = set()
    for name, path in files:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "groupby"):
                    sites.add((name, getattr(top, "name", "<module>")))
    return sites


def test_wide_steps_go_through_combine():
    assert _groupby_sites() == set(), \
        "write the exchange as by_partition / combine_by_key / shuffle_join"
