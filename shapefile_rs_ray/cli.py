"""Command-line entry points.

    python -m shapefile_rs_ray.cli flagship  [--sf DIR] [--out DIR] [--repl N]
    python -m shapefile_rs_ray.cli decode    SHP [--limit N]
    python -m shapefile_rs_ray.cli roundtrip SHP OUT_DIR
    python -m shapefile_rs_ray.cli query     NAME [--sf DIR] [--limit N]

The CLI owns its Ray session (unlike __ray_entry__, which the driver calls
with Ray already initialised).
"""

from __future__ import annotations

import argparse
import json
import sys

from .raydata import ray_data


def _init_ray(num_cpus: int | None):
    import ray
    if not ray.is_initialized():
        kwargs = {"num_cpus": num_cpus} if num_cpus else {}
        ray.init(address="local", include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR", **kwargs)
    ray_data().DataContext.get_current().enable_progress_bars = False
    return ray


def main(argv=None):
    p = argparse.ArgumentParser(prog="shapefile_rs_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    f = sub.add_parser("flagship", help="pages -> stats -> tiling -> PIP join")
    f.add_argument("--sf", default="/root/testdata/sf0.001")
    f.add_argument("--out", default=None,
                   help="write resumable keyed partitions here")
    f.add_argument("--repl", type=int, default=None)

    d = sub.add_parser("decode", help="decode a shapefile to a row preview")
    d.add_argument("shp")
    d.add_argument("--limit", type=int, default=5)

    r = sub.add_parser("roundtrip",
                       help="distributed read -> partitioned shapefile sink")
    r.add_argument("shp")
    r.add_argument("out_dir")

    q = sub.add_parser("query", help="run one queries() pipeline by name")
    q.add_argument("name")
    q.add_argument("--sf", default="/root/testdata/sf0.01")
    q.add_argument("--limit", type=int, default=10)

    args = p.parse_args(argv)
    ray = _init_ray(args.num_cpus)
    try:
        if args.cmd == "flagship":
            from .pipelines.flagship import flagship
            kw = {}
            if args.repl:
                kw["repl"] = args.repl
            joined = flagship(args.sf, out_dir=args.out, **kw).materialize()
            print(json.dumps({"joined_rows": joined.count(),
                              "schema": joined.schema().names,
                              "out": args.out}))
        elif args.cmd == "decode":
            from .sources.shapefile import read_shapefile_dataset
            ds = read_shapefile_dataset(args.shp).materialize()
            n = ds.count()
            rows = ds.limit(args.limit).to_pandas()
            print(json.dumps({"records": n,
                              "schema": list(rows.columns)}))
            print(rows[[c for c in ("geom_id", "shape_type", "is_null")
                        if c in rows.columns]].to_string(index=False))
        elif args.cmd == "roundtrip":
            from .sources.shapefile import (read_shapefile_dataset,
                                            write_shapefile_dataset)
            ds = read_shapefile_dataset(args.shp)
            manifest = write_shapefile_dataset(ds, args.out_dir,
                                               concurrency=2).to_pandas()
            print(json.dumps({"partitions": len(manifest),
                              "rows": int(manifest["rows"].sum()),
                              "out": args.out_dir}))
        elif args.cmd == "query":
            import os
            repo_root = os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)))
            sys.path.insert(0, repo_root)
            import __ray_entry__ as entry_mod
            fn = entry_mod.queries()[args.name]
            res = fn(args.sf)
            import pyarrow as pa
            if isinstance(res, ray.data.Dataset):
                res = res.materialize()   # one execution for count + head
                n = res.count()
                head = res.limit(args.limit).to_pandas()
            elif isinstance(res, pa.Table):
                n = res.num_rows
                head = res.slice(0, args.limit).to_pandas()
            else:
                n = len(res)
                head = res.head(args.limit)
            print(json.dumps({"query": args.name, "rows": n}))
            print(head.to_string(index=False))
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
