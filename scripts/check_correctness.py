"""Local emulation of the driver's correctness gate: run every queries()
pipeline at a given sf and compare rows/schema/values against oracle_sql()
via DuckDB. Usage: python scripts/check_correctness.py [sf_dir] [names...]
"""

import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))          # run from anywhere, no install


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa
    import ray

    if isinstance(res, ray.data.Dataset):
        res = res.to_pandas()
    elif isinstance(res, pa.Table):
        res = res.to_pandas()
    assert isinstance(res, pd.DataFrame)
    return res


def canon(df):
    # mirror the DRIVER's canonicalization exactly: sort columns by name,
    # then sort_values over all columns. No bytes->hex coercion — a query
    # returning raw bytes must fail HERE the same way it fails the driver
    # (pandas can't factorize bytearray), not pass locally and die remotely.
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def digest(df) -> str:
    """sha256 of a canon() frame's CSV: compares engine outputs across
    commits without an oracle."""
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()


def first_diff(got, exp):
    """Position, in canon() order, of the first row where two equally
    shaped frames differ (nulls equal nulls), or None."""
    import numpy as np

    same = (got.values == exp.values) | (got.isna().values
                                         & exp.isna().values)
    rows = np.flatnonzero(~same.all(axis=1))
    return int(rows[0]) if len(rows) else None


def check(sf_dir: str, only: set) -> list:
    """Run every selected query against its oracle, printing one line
    each; returns the names that failed."""
    import duckdb
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry_mod

    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"{name}: ENGINE ERROR {type(e).__name__}: {e}")
            failures.append(name)
            continue
        el = time.time() - t0
        if name not in oracles:
            print(f"{name}: rows-only, {len(got)} rows "
                  f"sha256={digest(got)} [{el:.1f}s]")
            continue
        try:
            exp = canon(con.execute(oracles[name]).df())
        except Exception as e:
            print(f"{name}: ORACLE ERROR {type(e).__name__}: {e} "
                  f"sha256={digest(got)}")
            failures.append(name)
            continue
        ok_rows = len(got) == len(exp)
        ok_cols = list(got.columns) == list(exp.columns)
        ok_vals = False
        if ok_rows and ok_cols:
            try:
                import pandas.testing as pdt
                exp2 = exp.copy()
                for c in got.columns:   # align dtypes (duckdb int32 etc.)
                    if got[c].dtype != exp2[c].dtype:
                        exp2[c] = exp2[c].astype(got[c].dtype)
                pdt.assert_frame_equal(got, exp2, check_exact=True)
                ok_vals = True
            except AssertionError as e:
                ok_vals = False
                msg = str(e).split("\n")[0]
        status = "OK" if (ok_rows and ok_cols and ok_vals) else "FAIL"
        print(f"{name}: {status} rows={len(got)}/{len(exp)} "
              f"cols_match={ok_cols} vals={ok_vals} sha256={digest(got)} "
              f"[{el:.1f}s]")
        if status == "FAIL":
            failures.append(name)
            if not ok_cols:
                print("   engine cols:", list(got.columns))
                print("   oracle cols:", list(exp.columns))
            elif ok_rows and not ok_vals:
                print("   ", msg)
                i = first_diff(got, exp2)
                if i is not None:
                    print(f"   first differing row {i}:")
                    for side, df in (("engine", got), ("oracle", exp2)):
                        print(f"   {side}:",
                              df.iloc[i:i + 1].to_dict("records")[0])
    return failures


def main():
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    try:
        failures = check(sf_dir, only)
    finally:
        ray.shutdown()
    if failures:
        print("FAILURES:", failures)
        sys.exit(1)
    print("all queries passed")


if __name__ == "__main__":
    main()
