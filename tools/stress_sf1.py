#!/usr/bin/env python
"""sf1 stress harness for the heavy-join queries (round-3 verdict item 8):
``simhash_dup_pairs``, ``asof_events_orders`` and ``event_pairs_within``
at 10x the sf0.1 row counts, with DELIBERATE group-size growth the sf0.1
bench can't produce — catching per-group pair blowups before 100 TB does.

The sf1 input is synthesized deterministically from the read-only sf0.1
tables (no external data) by tiling 10x with targeted key handling:

- events (1M rows): all tiles shift ``ts`` by tile*7919 s and offset
  ``event_id``; tiles 0-4 KEEP ``user_id`` (5x per-user history — the
  asof bucket groups and the range-join bands grow 5x), tiles 5-9 offset
  it (fresh users, volume only).
- orders (1.5M rows): orderkeys always offset; ``o_custkey`` kept for
  tiles 0-4 (5x per-customer order history on the asof build side).
- documents (50k rows): tiles 0-4 duplicate texts VERBATIM under new
  doc_ids (true 5x duplicate mass — SimHash band buckets grow
  quadratically in pair count), tiles 5-9 append a tile marker (near-dup
  mass at small Hamming distance).

Usage: python tools/stress_sf1.py   (imports the package of its own checkout)
Prints one JSON line per query plus a summary line; results are recorded
in BASELINE.md ("sf1 stress").
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
DST = "/tmp/graft_stress_sf1"
TILES = 10
KEEP_KEY_TILES = 5


def _build() -> None:
    os.makedirs(DST, exist_ok=True)
    done = os.path.join(DST, ".done_v2")  # v2: +lang column, +lineitem
    if os.path.exists(done):
        return

    ev = pq.read_table(f"{SRC}/events.parquet")
    n = ev.num_rows
    tiles = []
    for t in range(TILES):
        uid = ev.column("user_id").to_numpy(zero_copy_only=False)
        if t >= KEEP_KEY_TILES:
            uid = uid + 1_000_000 * (t + 1)
        ts = ev.column("ts").cast(pa.timestamp("us")).to_numpy(
            zero_copy_only=False).astype("datetime64[us]") \
            + np.timedelta64(t * 7919, "s")
        tiles.append(pa.table({
            "event_id": pa.array(
                ev.column("event_id").to_numpy(zero_copy_only=False)
                + t * 10_000_000, pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(uid.astype(np.int64), pa.int64()),
            "event_type": ev.column("event_type"),
            "value": ev.column("value"),
        }))
    pq.write_table(pa.concat_tables(tiles), f"{DST}/events.parquet")
    del tiles

    orders = pq.read_table(
        f"{SRC}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice",
                 "o_orderstatus"])
    tiles = []
    for t in range(TILES):
        ck = orders.column("o_custkey").to_numpy(zero_copy_only=False)
        if t >= KEEP_KEY_TILES:
            ck = ck + 1_000_000 * (t + 1)
        tiles.append(pa.table({
            "o_orderkey": pa.array(
                orders.column("o_orderkey").to_numpy(zero_copy_only=False)
                + t * 10_000_000, pa.int64()),
            "o_custkey": pa.array(ck.astype(np.int64), pa.int64()),
            "o_orderdate": orders.column("o_orderdate"),
            "o_totalprice": orders.column("o_totalprice"),
            "o_orderstatus": orders.column("o_orderstatus"),
        }))
    pq.write_table(pa.concat_tables(tiles), f"{DST}/orders.parquet")
    del tiles

    docs = pq.read_table(f"{SRC}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    base_text = docs.column("text").to_pylist()
    tiles = []
    for t in range(TILES):
        text = base_text if t < KEEP_KEY_TILES \
            else [s + f" v{t}" for s in base_text]
        tiles.append(pa.table({
            "doc_id": pa.array(
                docs.column("doc_id").to_numpy(zero_copy_only=False)
                + t * 1_000_000, pa.int64()),
            "text": pa.array(text, pa.string()),
            "lang": docs.column("lang"),
        }))
    pq.write_table(pa.concat_tables(tiles), f"{DST}/documents.parquet")
    del tiles

    # lineitem (6M rows): orderkeys track the orders offsets; partkeys
    # KEPT for tiles 0-4 (the same parts appear in 5x more orders — the
    # co-purchase degree distribution, and thus every k-core peel round
    # and triangle/band bucket, grows 5x), fresh parts for tiles 5-9
    li = pq.read_table(f"{SRC}/lineitem.parquet",
                       columns=["l_orderkey", "l_partkey"])
    tiles = []
    for t in range(TILES):
        pk = li.column("l_partkey").to_numpy(zero_copy_only=False)
        if t >= KEEP_KEY_TILES:
            pk = pk + 1_000_000 * (t + 1)
        tiles.append(pa.table({
            "l_orderkey": pa.array(
                li.column("l_orderkey").to_numpy(zero_copy_only=False)
                + t * 10_000_000, pa.int64()),
            "l_partkey": pa.array(pk.astype(np.int64), pa.int64()),
        }))
    pq.write_table(pa.concat_tables(tiles), f"{DST}/lineitem.parquet")
    open(done, "w").write("ok")
    print(f"built sf1 stress tables under {DST}: events={n * TILES}")


def main() -> int:
    import ray
    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, ROOT)
    _build()

    from chameleon_entity_linking_ray.pipelines.analytics import (
        asof_join_events_orders,
        event_pairs_within,
    )
    from chameleon_entity_linking_ray.pipelines.corpus import (
        simhash_dup_pairs,
    )
    from chameleon_entity_linking_ray.pipelines.traindata import (
        dsir_logratio,
    )
    from chameleon_entity_linking_ray.stages.graph import kcore_copurchase

    results = {}
    for name, fn in [
        ("simhash_dup_pairs", simhash_dup_pairs),
        ("asof_events_orders", asof_join_events_orders),
        ("event_pairs_within", event_pairs_within),
        ("dsir_logratio", dsir_logratio),
        ("kcore_copurchase", kcore_copurchase),
    ]:
        t0 = time.time()
        res = fn(DST)
        rows = res.num_rows if isinstance(res, pa.Table) else res.count()
        sec = round(time.time() - t0, 2)
        results[name] = {"rows": rows, "sec": sec}
        print(json.dumps({"query": name, "rows": rows, "sec": sec}))

    print(json.dumps({"metric": "sf1_stress", "tiles": TILES,
                      "queries": results}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
