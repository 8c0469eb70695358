"""The package's Ray Data settings, set where its plans start, and how
it collects a plan's blocks.

`ray_data()` returns the `ray.data` module after turning off Ray Data's
per-operator resource reservation in the current `DataContext`. A
Dataset copies the current context when it is created, so every Dataset
the package creates from outside data (`read_*`, `from_*`) is created
through `ray_data()` (`tests/test_raydata.py` fails on a
`ray.data.read_*`/`from_*` call anywhere else in the package), and the
entry points (`__ray_entry__.queries()`, `cli._init_ray`) call it too.
Nothing runs at import: the package imports Ray lazily, and
`import ray.data` alone takes 0.75-1.0 s.

`block_refs(ds)` is a plan's block refs from one execution.
`Dataset.to_arrow_refs()` of a lazy Dataset executes the plan and then
reads its schema, which a map does not know, so Ray runs the plan again
under a `limit(1)`. With every task of the map submitted at once, that
second run is the whole map again (an 8-block map at 2 logical CPUs ran
its UDF 16 times), cut short by its limit (below).

Why reservation is off. With it on, Ray Data 2.49's
`ReservationOpResourceAllocator` gives each operator its own budget of
object store and CPUs, and at 2 logical CPUs and a 512 MiB object store
that budget runs a map's tasks one at a time. A trace of the budget
over a 16-block map of 50 ms sleeps showed two steps:

- The map's object-store budget is 256 MiB, and a task whose output is
  not yet sized is priced at 2 x `target_max_block_size` = 256 MiB. So
  the first task is admitted alone.
- After that the map's CPU budget is the 2 CPUs, but a task that has
  ended still counts against it until the executor handles its end,
  which it does only when the next task's output arrives. So one more
  task is admitted each time one ends, and one runs at a time.

Without reservation the executor submits every task of a map at once,
and Ray runs one per logical CPU and queues the rest. (So a plan cut
short, by `limit` or `.schema()` of a lazy Dataset, cancels more tasks:
see `block_refs` and `stages/relational.shuffle_join`.) On a 4-core
host with Ray at 2 logical CPUs, the sleeps took 0.51-0.57 s against
0.89-1.14 s with it on, and `pip_zonal`'s fused page -> PIP operator
(16 tasks) took 0.59-0.62x its summed task wall time against
1.13-1.31x.
"""

from __future__ import annotations


def ray_data():
    """`ray.data`, with per-operator resource reservation off in the
    current DataContext. Idempotent; call it before creating a Dataset."""
    import ray.data
    ray.data.DataContext.get_current().op_resource_reservation_enabled = False
    return ray.data


def block_refs(ds) -> list:
    """The object refs of `ds`'s blocks, in order, from one execution of
    its plan (all of them, empty blocks too). Its blocks must be Arrow
    tables, as every `batch_format="pyarrow"` map's are."""
    return [ref for bundle in ds.iter_internal_ref_bundles()
            for ref, _ in bundle.blocks]
