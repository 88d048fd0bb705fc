"""Local stand-in for the driver's correctness gate: run every queries()
entry and its oracle SQL side-by-side, compare row count, schema (column
names), values (column-sorted, row-sorted) and per-column dtypes."""

import os
import sys

import duckdb
import numpy as np
import pandas as pd

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def run(sf_dir: str, only=None):
    import ray

    if not ray.is_initialized():
        # the Ray workers this starts import the library from here too
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (REPO, os.environ.get("PYTHONPATH")) if p)
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from wikicrawl.queries import ORACLE_SQL, QUERIES

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = []
    for name, fn in QUERIES.items():
        if only and name not in only:
            continue
        got = fn(sf_dir)
        if hasattr(got, "to_pandas"):
            got = got.to_pandas()
        sql = ORACLE_SQL.get(name)
        if sql is None:
            print(f"{name}: rows-only ({len(got)} rows) OK")
            continue
        want = con.execute(sql).fetchdf()
        status = compare(name, got, want)
        if status:
            failures.append((name, status))
            print(f"{name}: FAIL — {status}")
        else:
            print(f"{name}: OK ({len(got)} rows)")
    return failures


def compare(name, got: pd.DataFrame, want: pd.DataFrame):
    if sorted(got.columns) != sorted(want.columns):
        return f"columns {sorted(got.columns)} vs {sorted(want.columns)}"
    if len(got) != len(want):
        return f"rows {len(got)} vs {len(want)}"
    g = got[sorted(got.columns)].copy()
    w = want[sorted(want.columns)].copy()
    sort_cols = list(g.columns)

    def normcol(s):
        if s.dtype == object:
            return s.astype(str)
        return s

    g = g.apply(normcol).sort_values(sort_cols).reset_index(drop=True)
    w = w.apply(normcol).sort_values(sort_cols).reset_index(drop=True)
    for c in g.columns:
        a, b = g[c], w[c]
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            ok = np.allclose(a.astype(float).fillna(-1e18),
                             b.astype(float).fillna(-1e18), rtol=0, atol=1e-9)
        else:
            try:
                ok = (a.fillna(-1) == b.fillna(-1)).all()
            except Exception:
                ok = (a.astype(str) == b.astype(str)).all()
        if not ok:
            bad = np.flatnonzero(~(a.astype(str) == b.astype(str)).to_numpy())[:3]
            return f"col {c} differs at rows {bad.tolist()}: {a.iloc[bad].tolist()} vs {b.iloc[bad].tolist()}"
    # equal values are not enough: a column the engine returns as int64
    # where DuckDB says float64 is a different result for the driver.
    # One exception: DuckDB's fetchdf has no nullable integer dtype, so a
    # BIGINT column holding NULLs arrives as float64 where the engine
    # returns pandas' nullable Int64 (the same Arrow int64 column)
    def same_dtype(c):
        a, b = got[c].dtype, want[c].dtype
        return a == b or (str(a) == "Int64" and b == np.float64
                          and bool(want[c].isna().any()))

    dtypes = [c for c in sorted(got.columns) if not same_dtype(c)]
    if dtypes:
        return "dtype " + ", ".join(
            f"{c}: {got[c].dtype} vs {want[c].dtype}" for c in dtypes)
    return None


if __name__ == "__main__":
    import time

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2].split(",")) if len(sys.argv) > 2 else None
    t0 = time.time()
    fails = run(sf_dir, only)
    print(f"TOTAL {time.time() - t0:.1f} s wall "
          f"({'subset' if only else 'all queries'}, {sf_dir})")
    import ray

    ray.shutdown()
    sys.exit(1 if fails else 0)
