"""Local stand-in for the driver's correctness gate: run every queries()
entry and its DuckDB oracle on the same sf dir, compare row count, sorted
column names, and order-insensitive values. The run ends with what the
sweep cost beyond its results: how many execution plans carry a
``limit=1`` operator (a schema probe re-running its producer) and how
many "different schema" and "Failed to hash the schemas" warnings Ray
Data logged, on the driver and in every worker.

Usage: python tools/check_oracle.py [sf_dir] [name...]   (from the repo root)
"""

from __future__ import annotations

import glob
import logging
import os
import sys
import time
from contextlib import contextmanager

import duckdb
import numpy as np
import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WARNINGS = ("different schema", "Failed to hash the schemas")
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = np.round(df[c].astype(np.float64), 6)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


@contextmanager
def sweep_costs():
    """Yields counts that fill in while the block runs: ``limit=1`` plans
    (spied on the streaming executor) and the two ``WARNINGS``, from a
    handler on the driver's ``ray.data`` logger plus what the workers
    appended to their session ``.err`` logs meanwhile."""
    import ray
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    counts = {"limit=1 plans": 0, **dict.fromkeys(WARNINGS, 0)}
    try:  # no public API names the session log dir; without it the
        # warnings go uncounted ("n/a") and the sweep still runs
        worker_logs = os.path.join(
            ray._private.worker._global_node.get_logs_dir_path(),
            "worker-*.err")
    except AttributeError:
        worker_logs = None
    start = {f: os.path.getsize(f) for f in glob.glob(worker_logs or "")}

    class Count(logging.Handler):
        def emit(self, record):
            msg = record.getMessage()
            for w in WARNINGS:
                counts[w] += w in msg

    def op_names(op) -> list[str]:
        return [op.name] + [n for d in op.input_dependencies
                            for n in op_names(d)]

    execute = StreamingExecutor.execute

    def spy(self, dag, *args, **kwargs):
        counts["limit=1 plans"] += any("limit=1" in n for n in op_names(dag))
        return execute(self, dag, *args, **kwargs)

    handler = Count(logging.WARNING)
    logging.getLogger("ray.data").addHandler(handler)
    StreamingExecutor.execute = spy
    try:
        yield counts
    finally:
        StreamingExecutor.execute = execute
        logging.getLogger("ray.data").removeHandler(handler)
        if worker_logs is None:
            counts.update(dict.fromkeys(WARNINGS, "n/a"))
        for f in glob.glob(worker_logs or ""):
            with open(f, errors="replace") as fh:
                fh.seek(start.get(f, 0))
                text = fh.read()
            for w in WARNINGS:
                counts[w] += text.count(w)


def run_sweep(sf_dir: str, only: set[str] | None = None,
              echo=print) -> list[str]:
    """Run every queries() entry vs its DuckDB oracle on ``sf_dir``;
    return the list of failing query names (empty = ALL GREEN). Assumes
    Ray is already initialized (the caller owns the session — the
    pytest ``-m sweep`` gate reuses the test session's)."""
    sys.path.insert(0, ROOT)
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{t}.parquet')")

    with sweep_costs() as costs:
        qs = entrymod.queries()
        oracles = entrymod.oracle_sql()
        failures = []
        for name, fn in qs.items():
            if only and name not in only:
                continue
            t0 = time.time()
            try:
                mine = canon(to_pandas(fn(sf_dir)))
            except Exception as e:
                failures.append(name)
                echo(f"FAIL {name}: ray error {type(e).__name__}: {e}")
                continue
            dt = time.time() - t0
            if name not in oracles:
                echo(f"ok?  {name}: rows={len(mine)} ({dt:.1f}s) [rows-only, no oracle]")
                continue
            try:
                gold = canon(con.sql(oracles[name]).df())
            except Exception as e:
                failures.append(name)
                echo(f"FAIL {name}: oracle error {e}")
                continue
            if list(mine.columns) != list(gold.columns):
                failures.append(name)
                echo(f"FAIL {name}: columns {list(mine.columns)} != {list(gold.columns)}")
                continue
            if len(mine) != len(gold):
                failures.append(name)
                echo(f"FAIL {name}: rows {len(mine)} != {len(gold)}")
                continue
            if not mine.equals(gold):
                neq = (mine != gold) & ~(mine.isna() & gold.isna())
                bad = neq.any(axis=1)
                failures.append(name)
                echo(f"FAIL {name}: {int(bad.sum())}/{len(mine)} rows differ; first:")
                echo(pd.concat([mine[bad].head(3).add_suffix("_ray"),
                                gold[bad].head(3).add_suffix("_sql")], axis=1))
                continue
            echo(f"PASS {name}: rows={len(mine)} ({dt:.1f}s)")
    echo(f"\n{len(failures)} failures: {failures}" if failures else "\nALL GREEN")
    echo(f"limit=1 plans: {costs['limit=1 plans']}; " + "; ".join(
        f'"{w}" warnings: {costs[w]}' for w in WARNINGS))
    return failures


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    return 1 if run_sweep(sf_dir, only) else 0


if __name__ == "__main__":
    rc = main()
    import ray
    ray.shutdown()
    sys.exit(rc)
