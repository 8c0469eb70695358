"""The broadcast primitive: a small read-only side joined map-side.

Every broadcast join (the PIP join's polygons, a dimension table, kNN
sites, nearest-polygon edges, the center-in-polygon filter's polygons)
is one `map_side` call, and every exchange whose partitions join a
broadcast side (the cell-partitioned PIP and kNN joins) takes its `fn`
from `part_fn`. The driver puts the side once with a content digest; a
plain task (a `map_batches` with no `concurrency`, so Ray Data fuses it
into the maps before it, or the exchange's merge task) builds the
side's state once per worker process and keeps it in `cached`, keyed by
the digest and the build options, one entry per family. Equal digests
mean equal content; equal content may get two digests (a sliced Arrow
table pickles apart from an equal fresh one), which costs a rebuild,
never a wrong answer. Never a path, an mtime or an ObjectRef id as the
key: they outlive or misname their content.

Units that the driver plans (the flagship's lineage partitions, one
task each) go through `map_units`: one plain Ray task per unit, over
the same per-process cache. As a `from_items` + `map_batches` under
Ray Data's per-operator reservation, these units ran one at a time at 2
logical CPUs (25 units, 0.53-0.56 s of unit time in 0.69 s of wall
time): the reservation's object-store and CPU budgets admit one task
of a map at a time there (`raydata.py`, which the package now turns
off). At most the cluster's CPU count of unit tasks is in flight:
submitting all 25 at once made Ray prestart about 6 spare workers of
~76 MB each (`peak_rss_mb` +22% on `flagship_checkpoint`).

Not an actor pool: a pool's fresh workers must import Ray Data (0.8-1.0 s
per job on a 4-core host, against 0.03-0.04 s for the task map), and an
ObjectRef in `fn_constructor_kwargs` breaks actor restarts. The cache
starts no thread, process or actor; it ends with Ray's own workers.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
from typing import Any, Callable, NamedTuple


class Side(NamedTuple):
    """A broadcast side, put once: its ObjectRef and content digest."""

    ref: Any
    digest: str


def digest(obj) -> str:
    """blake2b-128 over the protocol-5 pickle of `obj` (driver side)."""
    return hashlib.blake2b(pickle.dumps(obj, protocol=5),
                           digest_size=16).hexdigest()


def put_side(obj) -> Side:
    """`ray.put` the side once, with its digest."""
    import ray
    return Side(ray.put(obj), digest(obj))


# this process's built sides: {family: (key, built)}, one entry per family
_CACHE: dict[str, tuple[Any, Any]] = {}


def cached(kind: str, key, build: Callable[[], Any]):
    """The value `build()` made for `key`, built at most once per process
    while `key` stays the last key seen for `kind`."""
    hit = _CACHE.get(kind)
    if hit is None or hit[0] != key:
        hit = (key, build())
        _CACHE[kind] = hit
    return hit[1]


def _key(side: Side, build_kwargs: dict):
    """The cache key of a side built with `build_kwargs`: its digest and
    the options, so other build options miss."""
    return side.digest, sorted(build_kwargs.items())


def _built(family: str, key, ref, build: Callable, build_kwargs: dict):
    """This process's `build(side value, **build_kwargs)` for `key`."""
    def make():
        import ray
        return build(ray.get(ref), **build_kwargs)
    return cached(family, key, make)


def map_side(ds, family: str, build: Callable, side: Side, **build_kwargs):
    """`ds.map_batches` as a plain task: each batch `b` becomes
    `cached(family, ..., lambda: build(side_value, **build_kwargs))(b)`.
    The operator is named `MapBatches(<family>)`. The cache key is the
    side's digest plus `build_kwargs`, so other build options miss."""
    key = _key(side, build_kwargs)

    def apply(batch, ref, key):
        return _built(family, key, ref, build, build_kwargs)(batch)

    apply.__name__ = apply.__qualname__ = family
    return ds.map_batches(apply, batch_format="pyarrow",
                          fn_kwargs={"ref": side.ref, "key": key})


def part_fn(family: str, build: Callable, side: Side, **build_kwargs):
    """The per-partition `fn` of `combine.by_partition` over a broadcast
    side: each call `part -> built(part)`, with `built` cached per worker
    process under the same key as `map_side`'s, so a side's state (and
    any cache it keeps, say per cell) outlives the task that built it."""
    key = _key(side, build_kwargs)
    ref = side.ref

    def apply(part):
        return _built(family, key, ref, build, build_kwargs)(part)

    apply.__name__ = apply.__qualname__ = family
    return apply


def map_units(units, family: str, build: Callable, side: Side,
              call: Callable, **build_kwargs) -> list:
    """`[call(unit, built) for unit in units]`, in unit order, one plain
    Ray task per unit, with `built` cached per worker process under the
    same key as `map_side`'s. `call` is put once and goes by value, so
    the globals it reads are the driver's. The side's ref travels nested
    in a list, so a task that hits the cache never fetches the side. At
    most the cluster's CPU count of unit tasks is in flight: the next is
    submitted when one ends."""
    import ray
    if not units:
        return []
    key = _key(side, build_kwargs)
    call_ref = ray.put(call)
    width = int(ray.cluster_resources()["CPU"])
    task = _unit_task()
    refs, running = [], []
    for unit in units:
        if len(running) >= width:
            _, running = ray.wait(running, num_returns=1, fetch_local=False)
        refs.append(task.remote(unit, call_ref, family, key, [side.ref],
                                build, build_kwargs))
        running.append(refs[-1])
    return ray.get(refs)


def _run_unit(unit, call: Callable, family: str, key, side: list,
              build: Callable, build_kwargs: dict):
    return call(unit, _built(family, key, side[0], build, build_kwargs))


@functools.cache
def _unit_task():
    """`_run_unit` as a Ray remote function."""
    import ray
    return ray.remote(_run_unit)
