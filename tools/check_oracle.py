"""Local stand-in for the driver's correctness gate: run every queries()
entry and its DuckDB oracle on the same sf dir, compare row count, sorted
column names, and order-insensitive values. Each query's line, and the
run's last line in total, also give what it cost beyond its results: how
many ``limit=1`` plans re-ran operators the query had already run (a
schema probe re-running its producer) and how many "different schema"
and "Failed to hash the schemas" warnings Ray Data logged, on the driver
and in every worker.

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
RERUNS = "limit=1 re-runs"
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


def _names(ops) -> set[str]:
    """The names of ``ops`` and every operator upstream of them."""
    return {n for op in ops
            for n in [op.name, *_names(op.input_dependencies)]}


def _limits(op) -> list:
    return [op] * ("limit=1" in op.name) + [
        lim for d in op.input_dependencies for lim in _limits(d)]


def reruns(plans: list) -> int:
    """How many ``limit=1`` plans re-run work: a plan counts when every
    operator under its limit already ran in an earlier plan of the list.
    ``plans`` holds one ``(names, [names under each limit])`` pair per
    execution, in execution order."""
    seen, n = set(), 0
    for names, under_limits in plans:
        n += sum(bool(u) and u <= seen for u in under_limits)
        seen |= names
    return n


@contextmanager
def sweep_costs():
    """Yields ``tally``: each call returns what the work since the
    previous call cost beyond its results and adds it to
    ``tally.totals``. The costs are the ``limit=1`` re-runs (plans spied
    on the streaming executor, see ``reruns``) and the two ``WARNINGS``,
    from a handler on the driver's ``ray.data`` logger plus what the
    workers appended to their session ``.err`` logs meanwhile."""
    import ray
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    try:  # no public API names the session log dir; without it the
        # warnings go uncounted ("n/a") and the sweep still runs
        worker_logs = os.path.join(
            ray._private.worker._global_node.get_logs_dir_path(),
            "worker-*.err")
    except AttributeError:
        worker_logs = None
    offsets = {f: os.path.getsize(f) for f in glob.glob(worker_logs or "")}
    logged = dict.fromkeys(WARNINGS, 0)
    plans = []

    class Count(logging.Handler):
        def emit(self, record):
            msg = record.getMessage()
            for w in WARNINGS:
                logged[w] += w in msg

    execute = StreamingExecutor.execute

    def spy(self, dag, *args, **kwargs):
        plans.append((_names([dag]), [_names(lim.input_dependencies)
                                      - {"Input"} for lim in _limits(dag)]))
        return execute(self, dag, *args, **kwargs)

    def tally() -> dict:
        got = {RERUNS: reruns(plans), **logged}
        plans.clear()
        logged.update(dict.fromkeys(WARNINGS, 0))
        for f in glob.glob(worker_logs or ""):
            with open(f, errors="replace") as fh:
                fh.seek(offsets.get(f, 0))
                text = fh.read()
                offsets[f] = fh.tell()
            for w in WARNINGS:
                got[w] += text.count(w)
        if worker_logs is None:
            got.update(dict.fromkeys(WARNINGS, "n/a"))
        for k, v in got.items():
            tally.totals[k] = v if isinstance(v, str) \
                else tally.totals.get(k, 0) + v
        return got

    tally.totals = dict.fromkeys((RERUNS, *WARNINGS), 0)
    handler = Count(logging.WARNING)
    logging.getLogger("ray.data").addHandler(handler)
    StreamingExecutor.execute = spy
    try:
        yield tally
    finally:
        StreamingExecutor.execute = execute
        logging.getLogger("ray.data").removeHandler(handler)


def costs_text(costs: dict) -> str:
    return "; ".join(f"{k}: {v}" if k == RERUNS else f'"{k}" warnings: {v}'
                     for k, v in costs.items())


def check(con, name: str, fn, oracle: str | None, sf_dir: str):
    """Run one query against its oracle. Returns whether it passed, its
    verdict line, and the first differing rows (or None)."""
    t0 = time.time()
    try:
        mine = canon(to_pandas(fn(sf_dir)))
    except Exception as e:
        return False, f"FAIL {name}: ray error {type(e).__name__}: {e}", None
    dt = time.time() - t0
    if oracle is None:
        return True, (f"ok?  {name}: rows={len(mine)} ({dt:.1f}s) "
                      "[rows-only, no oracle]"), None
    try:
        gold = canon(con.sql(oracle).df())
    except Exception as e:
        return False, f"FAIL {name}: oracle error {e}", None
    if list(mine.columns) != list(gold.columns):
        return False, (f"FAIL {name}: columns {list(mine.columns)} != "
                       f"{list(gold.columns)}"), None
    if len(mine) != len(gold):
        return False, f"FAIL {name}: rows {len(mine)} != {len(gold)}", None
    if not mine.equals(gold):
        neq = (mine != gold) & ~(mine.isna() & gold.isna())
        bad = neq.any(axis=1)
        return False, (f"FAIL {name}: {int(bad.sum())}/{len(mine)} rows "
                       "differ; first:"), pd.concat(
            [mine[bad].head(3).add_suffix("_ray"),
             gold[bad].head(3).add_suffix("_sql")], axis=1)
    return True, f"PASS {name}: rows={len(mine)} ({dt:.1f}s)", None


def run_sweep(sf_dir: str, only: set[str] | None = None,
              echo=print) -> list[str]:
    """Run every queries() entry vs its DuckDB oracle on ``sf_dir``;
    return the list of failing query names (empty = ALL GREEN). Each
    verdict line ends with that query's costs (``costs_text``), and the
    run ends with their totals. Assumes Ray is already initialized (the
    caller owns the session — the pytest ``-m sweep`` gate reuses the
    test session's)."""
    sys.path.insert(0, ROOT)
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{t}.parquet')")

    with sweep_costs() as tally:
        oracles = entrymod.oracle_sql()
        failures = []
        for name, fn in entrymod.queries().items():
            if only and name not in only:
                continue
            ok, line, diff = check(con, name, fn, oracles.get(name), sf_dir)
            if not ok:
                failures.append(name)
            echo(f"{line} [{costs_text(tally())}]")
            if diff is not None:
                echo(diff)
    echo(f"\n{len(failures)} failures: {failures}" if failures else "\nALL GREEN")
    echo(costs_text(tally.totals))
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
