"""Broadcast point-in-polygon join: pages x lake polygons.

    python examples/spatial_join.py [sf_dir] [lakes.shp]

The flagship shape: synthesize/read a page table with coordinates, tile
to grid cells, broadcast the polygons once via ray.put, and join
inside an actor pool that builds the grid + y-strip index once per
actor — the doc side streams, nothing materializes."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))          # run from anywhere, no install


import ray

from shapefile_rs_ray.pipelines.flagship import add_grid_cell
from shapefile_rs_ray.pipelines.oracles import LAKES
from shapefile_rs_ray.sources.webpages import read_webpages
from shapefile_rs_ray.stages.pip_join import broadcast_pip_join, load_polygons


def main(sf_dir: str, lakes: str) -> None:
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
    polys = load_polygons(lakes)
    pages = (read_webpages(sf_dir, with_html=False)
             .map_batches(add_grid_cell, batch_format="pyarrow"))
    joined = broadcast_pip_join(pages, polys, keep_cols=("page_id",))
    print("pages inside a lake:", joined.count())
    ray.shutdown()


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001",
         sys.argv[2] if len(sys.argv) > 2 else LAKES)
