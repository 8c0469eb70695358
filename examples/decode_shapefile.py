"""Decode a shapefile into Ray Data and export interop formats.

    python examples/decode_shapefile.py path/to/file.shp

Mirrors the reference's canonical read loop (Reader::from_path ->
iter_shapes_and_records) as a distributed Dataset: the .shx index plans
record ranges, each range decodes in its own task, attributes zip in
positionally, and the decoded Arrow geometry exports to WKB / GeoArrow
for shapely/geopandas/duckdb-spatial."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))          # run from anywhere, no install


import ray

from shapefile_rs_ray.geometry.wkb import (geoarrow_from_geometry,
                                           wkb_from_geometry)
from shapefile_rs_ray.pipelines.oracles import LAKES
from shapefile_rs_ray.sources.shapefile import read_shapefile_dataset


def main(path: str) -> None:
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
    ds = read_shapefile_dataset(path)
    print("records:", ds.count())
    print(ds.schema())
    wkb = ds.map_batches(wkb_from_geometry, batch_format="pyarrow")
    print("WKB sample:", wkb.take(1)[0]["wkb"][:40].hex())
    ga = ds.map_batches(geoarrow_from_geometry, batch_format="pyarrow")
    print("GeoArrow schema:", ga.schema())
    ray.shutdown()


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else LAKES)
