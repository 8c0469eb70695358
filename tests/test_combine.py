"""combine_by_key against a pure-Python dict reduce, over int64, string
and two-column keys, and across block layouts and partition counts."""

import random

import pyarrow as pa
import pytest

from shapefile_rs_ray.stages.combine import combine_by_key

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
