"""The package's Ray Data plans: every plan it starts runs without Ray
Data's per-operator resource reservation (`shapefile_rs_ray/raydata.py`),
the package still imports without Ray, the page synthesis runs one
task per document block, none making more than `MAX_BLOCK_ROWS` pages,
and the package creates Datasets through `ray_data()` and collects
their blocks with `block_refs` (one run of a map)."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def reservation_on(ray_session, monkeypatch):
    """The current DataContext with reservation on, as Ray's default
    leaves it, whatever an earlier test set."""
    import ray.data
    ctx = ray.data.DataContext.get_current()
    monkeypatch.setattr(ctx, "op_resource_reservation_enabled", True)
    return ctx


@pytest.fixture(scope="module")
def flagship_inputs(tmp_path_factory):
    """(sf dir with documents.parquet, 8-lake .shp path)."""
    d = tmp_path_factory.mktemp("raydata_in")
    gen.write_documents(str(d), gen.documents_table(3, 200, 40))
    st, attrs = gen.lakes_corpus(3, 1)
    gen.write_shapefile(str(d / "lakes"), st, attrs)
    return str(d), str(d / "lakes.shp")


def _reservation(ds) -> bool:
    return ds.context.op_resource_reservation_enabled


def test_package_plans_run_without_reservation(reservation_on, sf_dir,
                                               flagship_inputs, tmp_path):
    import ray
    import __ray_entry__
    from shapefile_rs_ray.pipelines.flagship import write_lineage
    from shapefile_rs_ray.sources.webpages import read_webpages
    from shapefile_rs_ray.stages.combine import by_partition

    assert _reservation(read_webpages(sf_dir, with_html=False)) is False

    reservation_on.op_resource_reservation_enabled = True
    rows = ray.data.from_arrow(pa.table({"k": list(range(10))}))
    assert _reservation(by_partition(rows, "k", lambda t: t,
                                     parts=3)) is False

    reservation_on.op_resource_reservation_enabled = True
    sf, shp = flagship_inputs
    manifest = write_lineage(sf, str(tmp_path / "out"), polygons=shp)
    assert _reservation(manifest) is False

    reservation_on.op_resource_reservation_enabled = True
    events_window = __ray_entry__.queries()["events_window"]
    assert _reservation(events_window(sf_dir)) is False


def test_package_imports_without_ray():
    code = ("import sys\n"
            "import shapefile_rs_ray.functions.synth\n"
            "import shapefile_rs_ray.raydata\n"
            "import shapefile_rs_ray.cli\n"
            "assert 'ray' not in sys.modules, 'ray was imported'\n")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   timeout=120)


@pytest.mark.parametrize("repl", [20, 1200])
def test_page_synthesis_is_one_task_per_document_block(ray_session, sf_dir,
                                                       repl):
    """A task per document block, whatever `repl`: no two blocks bundled
    into one task, and none making more than `MAX_BLOCK_ROWS` pages."""
    from shapefile_rs_ray.sources.webpages import (MAX_BLOCK_ROWS,
                                                   page_blocks,
                                                   read_webpages)
    blocks = page_blocks(sf_dir, repl)

    def count(batch: pa.Table) -> pa.Table:
        return pa.table({"pages": [batch.num_rows]})

    counts = (read_webpages(sf_dir, repl=repl, with_html=False)
              .map_batches(count, batch_format="pyarrow", batch_size=None)
              .materialize())
    stats = counts.stats()
    tasks = re.search(r"MapBatches\(webpage_batch\)->MapBatches\(count\): "
                      r"(\d+) tasks executed", stats)
    assert tasks and int(tasks.group(1)) == blocks, stats
    pages = counts.to_pandas()["pages"]
    assert len(pages) == blocks
    assert pages.max() <= MAX_BLOCK_ROWS
    assert pages.sum() == pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows * repl


def test_document_read_keeps_eight_blocks_per_cpu(ray_session, sf_dir):
    """The docs read alone (the doc-level queries) is cut ~8 blocks per
    logical CPU; only the page synthesis sizes its blocks by `repl`."""
    import ray
    from shapefile_rs_ray.sources.webpages import read_documents
    cpus = int(ray.cluster_resources()["CPU"])
    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    docs = read_documents(sf_dir, columns=["doc_id"])
    assert docs.num_blocks() == min(8 * cpus, n)


def _creates_dataset(node) -> bool:
    """`ray.data.<read_*|from_*|range*>(...)`, or such a name imported
    from `ray.data`."""
    def source(name):
        return name.startswith(("read_", "from_", "range"))
    if isinstance(node, ast.ImportFrom) and node.module == "ray.data":
        return any(source(a.name) for a in node.names)
    f = getattr(node, "func", None)
    return (isinstance(node, ast.Call) and isinstance(f, ast.Attribute)
            and source(f.attr) and isinstance(f.value, ast.Attribute)
            and f.value.attr == "data" and isinstance(f.value.value, ast.Name)
            and f.value.value.id == "ray")


def _package_sites(match) -> list[str]:
    """`file:line` of every AST node of the package outside `raydata.py`
    for which `match(node)` holds."""
    pkg = pathlib.Path(ROOT) / "shapefile_rs_ray"
    return sorted(f"{path.relative_to(pkg)}:{node.lineno}"
                  for path in pkg.rglob("*.py") if path.name != "raydata.py"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if match(node))


def test_package_creates_datasets_through_ray_data():
    """A Dataset copies the current DataContext when it is made, so a
    source the package creates with `ray.data` directly would run with
    reservation on for a caller that has not been through `ray_data()`."""
    sites = _package_sites(_creates_dataset)
    assert not sites, f"create these through raydata.ray_data(): {sites}"


def test_package_collects_blocks_with_block_refs():
    """`Dataset.to_arrow_refs()` reads the schema of what it ran, which
    reruns a lazy map under a `limit(1)`."""
    sites = _package_sites(lambda node: isinstance(node, ast.Call)
                           and isinstance(node.func, ast.Attribute)
                           and node.func.attr == "to_arrow_refs")
    assert not sites, f"collect these with raydata.block_refs(): {sites}"


def test_block_refs_runs_a_map_once(ray_session, tmp_path):
    import ray
    from shapefile_rs_ray.raydata import block_refs, ray_data
    log = tmp_path / "calls"

    def tag(batch: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("x")
        return batch

    ds = ray_data().range(80, override_num_blocks=8).map_batches(
        tag, batch_format="pyarrow", batch_size=None)
    refs = block_refs(ds)
    assert len(refs) == 8 and log.read_text() == "x" * 8
    ids = pa.concat_tables(ray.get(refs))["id"].to_pylist()
    assert ids == list(range(80))
