"""Relational pipelines over the test star schema — the engine's general
query layer (joins, grouped aggregates, top-k, semi/anti joins, dedup-merge).

Each function takes ``sf_dir`` and returns a ``ray.data.Dataset`` whose
column names and types match the DuckDB oracle SQL in ``__ray_entry__.py``
exactly (the driver hash-compares values under sorted column names).

Money/measure sums are computed as integer cents (``round(x*100)`` cast to
int64) so distributed float-summation order can never perturb the result —
both sides sum exact integers.

Scale notes: every aggregate uses the partial/combiner form (stages/agg.py),
joins are the bucketed shuffle join (stages/joins.py), small sides are
broadcast via ``ray.put`` (stages/joins.py broadcast_*), reads prune columns
at the source.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data import Dataset

from chameleon_entity_linking_ray.stages.agg import (
    distinct,
    grouped_agg,
    grouped_top_k,
    top_k,
)
from chameleon_entity_linking_ray.stages.fold import fold
from chameleon_entity_linking_ray.stages.joins import attach
from chameleon_entity_linking_ray.stages.shuffle import bucketed, run_cumsum


def read_table(sf_dir: str, name: str, columns: list[str] | None = None) -> Dataset:
    """One table of the star schema, read with a plain Arrow schema: the
    files were written from pandas, and their ``b"pandas"`` schema
    metadata is dropped at the read. Ray cannot hash a schema that carries
    it and logs "Failed to hash the schemas" when it batches such blocks."""
    path = f"{sf_dir}/{name}.parquet"
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=schema)


def _cents(col) -> pa.Array:
    """trunc(x*100) as exact int64 cents (summation-order-proof).

    trunc, not round: both engines see bit-identical doubles, and trunc has
    no round-half tie, so results agree everywhere (ROUND diverges between
    numpy half-even and SQL half-away exactly at representable .5 cents)."""
    return pc.cast(pc.trunc(pc.multiply(col, 100.0)), pa.int64())


def _sorted(t: pa.Table, *cols: str) -> pa.Table:
    """``t`` stably sorted by ``cols``, each ascending."""
    return t.sort_by([(c, "ascending") for c in cols])


# --- Q: pricing summary (reference A5-style global aggregate over measures) ---

def q1_pricing(sf_dir: str) -> Dataset:
    li = read_table(sf_dir, "lineitem",
                    ["l_returnflag", "l_linestatus", "l_quantity",
                     "l_extendedprice", "l_discount"])

    def prep(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(batch.column("l_extendedprice"),
                           pc.subtract(pa.scalar(1.0), batch.column("l_discount")))
        return pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "qty_c": _cents(batch.column("l_quantity")),
            "base_c": _cents(batch.column("l_extendedprice")),
            "disc_c": _cents(disc),
        })

    return grouped_agg(
        li.map_batches(prep, batch_format="pyarrow"),
        keys=["l_returnflag", "l_linestatus"],
        aggs={"sum_qty_c": ("qty_c", "sum"),
              "sum_base_c": ("base_c", "sum"),
              "sum_disc_c": ("disc_c", "sum"),
              "n_rows": (None, "count")})


# --- Q: global top-k with per-block pruning (O3/O4) ---

def top_orders(sf_dir: str) -> Dataset:
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": batch.column("o_orderkey"),
                         "o_custkey": batch.column("o_custkey"),
                         "total_c": _cents(batch.column("o_totalprice"))})

    return top_k(orders.map_batches(prep, batch_format="pyarrow"),
                 by=["total_c", "o_orderkey"], ascending=[False, True], k=20)


# --- Q: join + grouped aggregate (J1/J3 analog) ---

def segment_revenue(sf_dir: str) -> Dataset:
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": batch.column("o_custkey"),
                         "total_c": _cents(batch.column("o_totalprice"))})

    # dimension join: customer is the small side — attach broadcasts it
    # once and probes it map-side; no shuffle of the orders stream
    joined = attach(orders.map_batches(prep, batch_format="pyarrow"), cust,
                    "o_custkey", right_on="c_custkey")
    return grouped_agg(joined, keys=["c_mktsegment"],
                       aggs={"n_orders": (None, "count"),
                             "sum_total_c": ("total_c", "sum")})


# --- Q: three-way dimension join (J3) ---

def nation_customers(sf_dir: str) -> Dataset:
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])
    nation = read_table(sf_dir, "nation")
    region = read_table(sf_dir, "region")

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"c_nationkey": batch.column("c_nationkey"),
                         "acctbal_c": _cents(batch.column("c_acctbal"))})

    # nation (25 rows) and region (5 rows) are broadcast dimensions:
    # two map-side lookups, zero shuffles
    j = attach(cust.map_batches(prep, batch_format="pyarrow"), nation,
               "c_nationkey", right_on="n_nationkey")
    j = attach(j, region, "n_regionkey", right_on="r_regionkey")
    return grouped_agg(j, keys=["r_name", "n_name"],
                       aggs={"n_cust": (None, "count"),
                             "sum_acctbal_c": ("acctbal_c", "sum")})


# --- Q: time-bucketed event aggregate (streaming-table analog) ---

def events_daily(sf_dir: str) -> Dataset:
    ev = read_table(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        day = pc.strftime(pc.floor_temporal(batch.column("ts"), unit="day"),
                          format="%Y-%m-%d")
        return pa.table({"event_type": batch.column("event_type"),
                         "day": day,
                         "value_c": _cents(batch.column("value"))})

    return grouped_agg(ev.map_batches(prep, batch_format="pyarrow"),
                       keys=["event_type", "day"],
                       aggs={"n_events": (None, "count"),
                             "sum_value_c": ("value_c", "sum")})


# --- Q: broadcast semi-join (M9/J4 prune filter) ---

def events_semi(sf_dir: str) -> Dataset:
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    rich = cust.filter(expr="c_acctbal > 5000")
    ev = read_table(sf_dir, "events", ["user_id", "event_type"])
    # key side stays Arrow end-to-end: one sorted key array built in a
    # fold and broadcast
    kept = attach(ev, rich, "user_id", right_on="c_custkey", how="semi")
    return grouped_agg(kept, keys=["event_type"],
                       aggs={"n_events": (None, "count")})


# --- Q: broadcast anti-join (J5) ---

def customers_no_orders(sf_dir: str) -> Dataset:
    """Customers with no big (>300k) order — broadcast anti-join against
    the distinct big-order custkey set."""
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"]) \
        .filter(expr="o_totalprice > 300000.0")
    big = distinct(orders.select_columns(["o_custkey"]), ["o_custkey"])
    cust = read_table(sf_dir, "customer", ["c_custkey"])
    return attach(cust, big, "c_custkey", right_on="o_custkey", how="anti")


# --- Q: union + dedup keep-first by priority (D1, merge_results parity) ---

def merge_runs(sf_dir: str) -> Dataset:
    """Two 'runs' over orders: priority 0 = finished orders, priority 1 =
    high-value orders; keep-first per key — numeric-priority form of
    /root/reference/utils/merge_results.py:3-28 (we match keep-first
    semantics, not its string-sorted-score quirk, SURVEY.md O2)."""
    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_orderstatus", "o_totalprice"])

    def both_runs(batch: pa.Table) -> pa.Table:
        """ONE scan emits both runs' rows (a row matching both predicates
        contributes to both, as the two-pass union did)."""
        a = batch.filter(pc.equal(batch.column("o_orderstatus"), "F"))
        b = batch.filter(pc.greater(batch.column("o_totalprice"), 100000.0))
        return pa.table({
            "o_orderkey": pa.concat_arrays(
                [a.column("o_orderkey").combine_chunks(),
                 b.column("o_orderkey").combine_chunks()]),
            "src": pa.array(np.r_[np.zeros(a.num_rows, np.int64),
                                  np.ones(b.num_rows, np.int64)], pa.int64()),
        })

    both = orders.map_batches(both_runs, batch_format="pyarrow")
    return grouped_agg(both, keys=["o_orderkey"], aggs={"src": ("src", "min")})


# --- Q: per-group top-k + rank (O1, per-query rank loop) ---

def topk_per_customer(sf_dir: str) -> Dataset:
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": batch.column("o_custkey"),
                         "o_orderkey": batch.column("o_orderkey"),
                         "total_c": _cents(batch.column("o_totalprice"))})

    out = grouped_top_k(orders.map_batches(prep, batch_format="pyarrow"),
                        group_keys=["o_custkey"], by=["total_c", "o_orderkey"],
                        ascending=[False, True], k=3, rank_col="rnk")

    def rnk64(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["rnk"] = df["rnk"].astype(np.int64)
        return df

    return out.map_batches(rnk64, batch_format="pandas")


# --- Q: distinct counts (A4) ---

def distinct_counts(sf_dir: str) -> Dataset:
    """ONE scan: each block emits its distinct (kind, val) rows for both
    columns, a single bucketed dedup counts them, and the driver folds the
    two tiny counts into one row."""
    ev = read_table(sf_dir, "events", ["event_type", "user_id"])

    def both_kinds(batch: pa.Table) -> pa.Table:
        et = pc.unique(batch.column("event_type")).cast(pa.string())
        ui = pc.cast(pc.unique(batch.column("user_id")), pa.string())
        return pa.table({
            "kind": pa.array([0] * len(et) + [1] * len(ui), pa.int8()),
            "val": pa.concat_arrays([et, ui]),
        })

    per_kind = grouped_agg(distinct(ev.map_batches(both_kinds,
                                                   batch_format="pyarrow"),
                                    ["kind", "val"]),
                           keys=["kind"], aggs={"n": (None, "count")}).take_all()
    counts = {int(r["kind"]): int(r["n"]) for r in per_kind}
    return ray.data.from_arrow(pa.table({
        "n_event_types": pa.array([counts.get(0, 0)], pa.int64()),
        "n_users": pa.array([counts.get(1, 0)], pa.int64())}))


def asof_join_events_orders(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """Distributed AS-OF join: each event matched to its user's LATEST
    order at-or-before the event time (backward inner as-of) — the
    canonical "enrich a fact stream with the most recent dimension state"
    operator that plain equality joins can't express.

    Shape: both sides are union'd into ONE ``bucketed`` shuffle on the
    user key (schema-pinned tagged union — no driver materialize, no
    per-call schema probe); each bucket group runs a vectorized
    ``pd.merge_asof`` (two mergesorts + one linear backward scan). Orders
    are pre-deduped to one row per (custkey, orderdate) with the MIN
    orderkey so tie-breaks are deterministic on both the engine and the
    DuckDB ``ASOF JOIN`` oracle. Partitioning assumption: per-user history
    fits a bucket group — at 100 TB raise num_buckets (buckets are
    hash-balanced over users; no per-user skew beyond one user's events).

    Timestamps are emitted as epoch seconds (BIGINT) so the oracle hash
    compares integers, not timezone-normalized timestamp renderings.
    """

    def _epoch_s(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray:
        # unit-aware epoch seconds (fixtures store ns, testdata us)
        unit = col.type.unit if isinstance(col.type, pa.TimestampType) else "s"
        div = {"s": 1, "ms": 1_000, "us": 1_000_000,
               "ns": 1_000_000_000}[unit]
        return pc.divide(col.cast(pa.int64()), div)

    ev = read_table(sf_dir, "events", ["event_id", "ts", "user_id",
                                       "event_type"])
    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate"])
    # one order per (custkey, day): min orderkey — deterministic ties
    orders = grouped_agg(orders.map_batches(
        lambda b: pa.table({
            "user_id": b.column("o_custkey"),
            "order_ts_s": _epoch_s(b.column("o_orderdate")),
            "o_orderkey": b.column("o_orderkey")}),
        batch_format="pyarrow"),
        keys=["user_id", "order_ts_s"],
        aggs={"matched_order": ("o_orderkey", "min")},
        num_buckets=num_buckets)

    _SCHEMA = pa.schema([
        ("_side", pa.int8()), ("user_id", pa.int64()),
        ("ts_s", pa.int64()), ("event_id", pa.int64()),
        ("event_type", pa.string()), ("matched_order", pa.int64()),
    ])
    out = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("ts_s", pa.int64()), ("event_type", pa.string()),
        ("matched_order", pa.int64()), ("order_ts_s", pa.int64()),
    ])

    def tag_events(b: pa.Table) -> pa.Table:
        n = b.num_rows
        uid = b.column("user_id").cast(pa.int64()).combine_chunks()
        return pa.table({
            "_side": pa.array(np.zeros(n, np.int8), pa.int8()),
            "user_id": uid,
            "ts_s": _epoch_s(b.column("ts")),
            "event_id": b.column("event_id").cast(pa.int64()),
            "event_type": b.column("event_type").cast(pa.string()),
            "matched_order": pa.nulls(n, pa.int64()),
        }, schema=_SCHEMA)

    def tag_orders(b: pa.Table) -> pa.Table:
        n = b.num_rows
        uid = b.column("user_id").cast(pa.int64()).combine_chunks()
        return pa.table({
            "_side": pa.array(np.ones(n, np.int8), pa.int8()),
            "user_id": uid,
            "ts_s": b.column("order_ts_s").cast(pa.int64()),
            "event_id": pa.nulls(n, pa.int64()),
            "event_type": pa.nulls(n, pa.string()),
            "matched_order": b.column("matched_order").cast(pa.int64()),
        }, schema=_SCHEMA)

    tagged = ev.map_batches(tag_events, batch_format="pyarrow").union(
        orders.map_batches(tag_orders, batch_format="pyarrow"))

    def merge(t: pa.Table) -> pa.Table:
        g = t.to_pandas()
        left = g[g["_side"] == 0]
        right = g[g["_side"] == 1]
        if left.empty or right.empty:
            return out.empty_table()
        m = pd.merge_asof(
            left.sort_values("ts_s", kind="mergesort")
                .drop(columns=["matched_order"]),
            right.sort_values("ts_s", kind="mergesort")[
                ["user_id", "ts_s", "matched_order"]]
                .rename(columns={"ts_s": "order_ts_s"}),
            left_on="ts_s", right_on="order_ts_s", by="user_id",
            direction="backward", allow_exact_matches=True)
        m = m[m["matched_order"].notna()].copy()
        # the tagged union carries nulls on the other side's columns, so
        # pandas floats the whole group column — restore int64 after the
        # match filter removed every NaN
        for c in ("event_id", "user_id", "ts_s", "matched_order",
                  "order_ts_s"):
            m[c] = m[c].astype(np.int64)
        return pa.Table.from_pandas(m[out.names], out, preserve_index=False)

    return bucketed(tagged, ["user_id"], merge, num_buckets)


def asof_next_event_after_order(sf_dir: str,
                                num_buckets: int = 32) -> Dataset:
    """FORWARD as-of join: each order matched to its customer's EARLIEST
    event at-or-after the order date — the "next interaction after
    purchase" lookup, the mirrored comparator of
    ``asof_join_events_orders`` (DuckDB ``ASOF JOIN ... ON l.ts <=
    r.ts``). Same shape: one schema-pinned tagged-union ``bucketed``
    shuffle on user, per-bucket vectorized
    ``pd.merge_asof(direction="forward")``. Events are pre-deduped to
    the MIN event_id per (user, second) so ties are deterministic on
    both engines."""
    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate"])
    ev = read_table(sf_dir, "events", ["event_id", "ts", "user_id"])
    ev = grouped_agg(ev.map_batches(
        lambda b: pa.table({
            "user_id": b.column("user_id").cast(pa.int64()),
            "event_ts_s": _epoch_seconds(b.column("ts")),
            "event_id": b.column("event_id").cast(pa.int64())}),
        batch_format="pyarrow"),
        keys=["user_id", "event_ts_s"],
        aggs={"next_event": ("event_id", "min")},
        num_buckets=num_buckets)

    _SCHEMA = pa.schema([
        ("_side", pa.int8()), ("user_id", pa.int64()),
        ("ts_s", pa.int64()), ("o_orderkey", pa.int64()),
        ("next_event", pa.int64()),
    ])
    out = pa.schema([(c, pa.int64()) for c in (
        "o_orderkey", "user_id", "order_ts_s", "next_event", "event_ts_s")])

    def tag_orders(b: pa.Table) -> pa.Table:
        n = b.num_rows
        uid = b.column("o_custkey").cast(pa.int64()).combine_chunks()
        return pa.table({
            "_side": pa.array(np.zeros(n, np.int8), pa.int8()),
            "user_id": uid,
            "ts_s": _epoch_seconds(b.column("o_orderdate")),
            "o_orderkey": b.column("o_orderkey").cast(pa.int64()),
            "next_event": pa.nulls(n, pa.int64()),
        }, schema=_SCHEMA)

    def tag_events(b: pa.Table) -> pa.Table:
        n = b.num_rows
        uid = b.column("user_id").cast(pa.int64()).combine_chunks()
        return pa.table({
            "_side": pa.array(np.ones(n, np.int8), pa.int8()),
            "user_id": uid,
            "ts_s": b.column("event_ts_s").cast(pa.int64()),
            "o_orderkey": pa.nulls(n, pa.int64()),
            "next_event": b.column("next_event").cast(pa.int64()),
        }, schema=_SCHEMA)

    tagged = orders.map_batches(tag_orders, batch_format="pyarrow").union(
        ev.map_batches(tag_events, batch_format="pyarrow"))

    def merge(t: pa.Table) -> pa.Table:
        g = t.to_pandas()
        left = g[g["_side"] == 0]
        right = g[g["_side"] == 1]
        if left.empty or right.empty:
            return out.empty_table()
        m = pd.merge_asof(
            left.sort_values("ts_s", kind="mergesort")
                .drop(columns=["next_event"])
                .rename(columns={"ts_s": "order_ts_s"}),
            right.sort_values("ts_s", kind="mergesort")[
                ["user_id", "ts_s", "next_event"]]
                .rename(columns={"ts_s": "event_ts_s"}),
            left_on="order_ts_s", right_on="event_ts_s", by="user_id",
            direction="forward", allow_exact_matches=True)
        m = m[m["next_event"].notna()].copy()
        for c in out.names:
            m[c] = m[c].astype(np.int64)
        return pa.Table.from_pandas(m[out.names], out, preserve_index=False)

    return bucketed(tagged, ["user_id"], merge, num_buckets)


def sessionize_events(sf_dir: str, gap_s: int = 1800,
                      num_buckets: int = 32) -> Dataset:
    """Gap-based session windows per user — the streaming "session window"
    aggregate expressed as one ``bucketed`` shuffle + a vectorized
    per-bucket kernel (no per-event Python, no global sort).

    A session is a maximal run of a user's events where consecutive gaps
    are <= ``gap_s``. Emits one row per session: (user_id, session_idx
    1-based in time order, session_start_s, n_events, duration_s).
    Events sharing a timestamp are gap-0 regardless of intra-tie order,
    so the output is deterministic under any within-bucket ordering.
    Partitioning assumption: one user's events fit a bucket group
    (hash-balanced over users; raise num_buckets at scale).
    """
    ev = read_table(sf_dir, "events", ["user_id", "ts"])

    def prep(b: pa.Table) -> pa.Table:
        col = b.column("ts")
        unit = col.type.unit if isinstance(col.type, pa.TimestampType) else "s"
        div = {"s": 1, "ms": 1_000, "us": 1_000_000,
               "ns": 1_000_000_000}[unit]
        return pa.table({
            "user_id": b.column("user_id").cast(pa.int64()),
            "ts_s": pc.divide(col.cast(pa.int64()), div),
        })

    def sessions(g: pa.Table) -> pa.Table:
        g = _sorted(g, "user_id", "ts_s")
        uid = g["user_id"].to_numpy()
        ts = g["ts_s"].to_numpy()
        n = len(g)
        new_user = np.r_[True, uid[1:] != uid[:-1]]
        new_sess = new_user | np.r_[False, (ts[1:] - ts[:-1]) > gap_s]
        sess_id = np.cumsum(new_sess) - 1          # global within bucket
        starts = np.flatnonzero(new_sess)
        counts = np.diff(np.r_[starts, n])
        ends = starts + counts - 1
        # 1-based per-user session index: rank of the session among its
        # user's sessions (sessions are emitted in time order per user)
        user_first = np.flatnonzero(new_user)      # session idx where a user starts
        sess_of_user_first = sess_id[user_first]
        per_user_base = np.repeat(sess_of_user_first,
                                  np.diff(np.r_[sess_of_user_first,
                                                sess_id[-1] + 1]))
        return pa.table({
            "user_id": uid[starts],
            "session_idx": (np.arange(len(starts)) - per_user_base + 1)
            .astype(np.int64),
            "session_start_s": ts[starts].astype(np.int64),
            "n_events": counts.astype(np.int64),
            "duration_s": (ts[ends] - ts[starts]).astype(np.int64),
        })

    return bucketed(ev.map_batches(prep, batch_format="pyarrow"),
                    ["user_id"], sessions, num_buckets)


def _epoch_seconds(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray:
    """Unit-aware epoch seconds for timestamp columns (fixtures use ns,
    testdata us) — int64 floor division, matching DuckDB's
    ``epoch_us(ts) // 1000000``."""
    unit = col.type.unit if isinstance(col.type, pa.TimestampType) else "s"
    div = {"s": 1, "ms": 1_000, "us": 1_000_000, "ns": 1_000_000_000}[unit]
    return pc.divide(col.cast(pa.int64()), div)


def _user_ts_prep(extra):
    """Shared prep for the per-user time-window operators: project events
    to (user_id:int64, ts_s:int64, *extra), ready for a ``bucketed``
    shuffle on ``user_id`` — the one key every window op uses."""

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b.column("user_id").cast(pa.int64()),
            "ts_s": _epoch_seconds(b.column("ts")),
            **extra(b)})

    return prep


def rolling_user_window(sf_dir: str, window_s: int = 7 * 86400,
                        num_buckets: int = 32) -> Dataset:
    """RANGE-mode rolling window aggregate: for every event, the sum and
    count of the SAME user's event values within the trailing time window
    ``[ts - window_s, ts]`` — SQL's ``SUM(x) OVER (PARTITION BY user
    ORDER BY ts RANGE BETWEEN w PRECEDING AND CURRENT ROW)``, an operator
    Ray Data has no native form for.

    Shape: ONE ``bucketed`` shuffle on user (the same key every window op
    here uses), then a fully vectorized per-bucket kernel: sort by
    (user, ts), offset each user's timestamps onto a disjoint int64 range
    (rank * span), and resolve every row's window with two
    ``np.searchsorted`` calls + a prefix-sum difference — no per-row or
    per-user Python. RANGE semantics (peers with equal ts share one
    window, so tie order can never change a value) make the output
    deterministic under any within-bucket ordering.

    Values are summed as integer cents (trunc(x*100), the module-wide
    convention) so distributed summation order is irrelevant.
    Partitioning assumption: one user's history fits a bucket group;
    raise num_buckets at scale (buckets are hash-balanced over users).
    """
    ev = read_table(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    prep = _user_ts_prep(extra=lambda b: {
        "event_id": b.column("event_id").cast(pa.int64()),
        "cents": _cents(b.column("value")),
    })

    def roll(g: pa.Table) -> pa.Table:
        g = _sorted(g, "user_id", "ts_s")
        uid = g["user_id"].to_numpy()
        ts = g["ts_s"].to_numpy()
        cents = g["cents"].to_numpy()
        # dense user rank -> offset each user onto a disjoint int64 range
        # so ONE searchsorted over the combined key resolves per-user
        # window boundaries (different users are >= span apart > window)
        rank = np.cumsum(np.r_[0, uid[1:] != uid[:-1]])
        t0 = ts.min()
        span = (ts.max() - t0) + np.int64(window_s) + 2
        combined = rank * span + (ts - t0)
        hi = np.searchsorted(combined, combined, side="right")
        lo = np.searchsorted(combined, combined - window_s, side="left")
        cs = np.concatenate(([0], np.cumsum(cents)))
        return pa.table({
            "event_id": g["event_id"],
            "user_id": uid,
            "ts_s": ts,
            "w_sum_c": (cs[hi] - cs[lo]).astype(np.int64),
            "w_count": (hi - lo).astype(np.int64),
        })

    return bucketed(ev.map_batches(prep, batch_format="pyarrow"),
                    ["user_id"], roll, num_buckets)


def event_pairs_within(sf_dir: str, window_s: int = 21600,
                       num_buckets: int = 32) -> Dataset:
    """Temporal-proximity self-join (banded range join): all PAIRS of a
    user's events at most ``window_s`` seconds apart — equality on user +
    inequality band on time, the join class (IEJoin / interval join) that
    equality-keyed shuffles can't express.

    Shape: one ``bucketed`` shuffle on user, then a vectorized per-bucket
    kernel: sort by (user, ts, event_id), offset users onto disjoint
    ranges, one ``np.searchsorted`` for every row's band end, and a
    ragged-arange emission of (anchor, partner) index pairs — zero
    per-pair Python. Pair order is canonical: (ts, event_id)
    lexicographic, so (a, b) is emitted exactly once with
    ts_a <= ts_b (event_id_a < event_id_b on ties).

    Output size is data-bounded (sum over users of within-window pair
    counts); at 100 TB pick window_s so the per-user rate keeps
    pairs-per-event O(1) and raise num_buckets — the kernel's cost is
    linear in emitted pairs, never all-pairs.
    """
    ev = read_table(sf_dir, "events", ["event_id", "ts", "user_id"])
    prep = _user_ts_prep(extra=lambda b: {
        "event_id": b.column("event_id").cast(pa.int64()),
    })

    def pairs(g: pa.Table) -> pa.Table:
        g = _sorted(g, "user_id", "ts_s", "event_id")
        n = len(g)
        uid = g["user_id"].to_numpy()
        ts = g["ts_s"].to_numpy()
        eid = g["event_id"].to_numpy()
        rank = np.cumsum(np.r_[0, uid[1:] != uid[:-1]])
        t0 = ts.min()
        span = (ts.max() - t0) + np.int64(window_s) + 2
        combined = rank * span + (ts - t0)
        hi = np.searchsorted(combined, combined + window_s, side="right")
        idx = np.arange(n)
        counts = hi - idx - 1          # partners strictly after the anchor
        total = int(counts.sum())
        idx_a = np.repeat(idx, counts)
        # ragged arange: for anchor i the partners are i+1 .. hi[i]-1
        starts = np.cumsum(counts) - counts
        idx_b = np.arange(total) - np.repeat(starts, counts) \
            + np.repeat(idx + 1, counts)
        return pa.table({
            "event_a": eid[idx_a],
            "event_b": eid[idx_b],
            "gap_s": (ts[idx_b] - ts[idx_a]).astype(np.int64),
        })

    return bucketed(ev.map_batches(prep, batch_format="pyarrow"),
                    ["user_id"], pairs, num_buckets)


def flag_corr(sf_dir: str) -> Dataset:
    """Grouped Pearson CORRELATION (quantity vs price per return flag)
    in combiner form: the shuffle carries exact integer moments
    (n, Σx, Σy, Σx², Σy², Σxy) — one partial row per (group, block) —
    and the float expression runs ONCE per group at the end, written
    identically in the oracle SQL so the IEEE doubles agree bit-for-bit.
    x = whole units, y = whole dollars (trunc), keeping Σy² inside int64
    through TPC-H SF10; beyond that switch to the pairwise/Chan
    combiner."""
    li = read_table(sf_dir, "lineitem",
                    ["l_returnflag", "l_quantity", "l_extendedprice"])

    def prep(batch: pa.Table) -> pa.Table:
        x = pc.cast(pc.trunc(batch.column("l_quantity")), pa.int64())
        y = pc.cast(pc.trunc(batch.column("l_extendedprice")), pa.int64())
        return pa.table({"l_returnflag": batch.column("l_returnflag"),
                         "x": x, "y": y,
                         "xx": pc.multiply(x, x),
                         "yy": pc.multiply(y, y),
                         "xy": pc.multiply(x, y)})

    m = grouped_agg(li.map_batches(prep, batch_format="pyarrow"),
                    keys=["l_returnflag"],
                    aggs={"n": (None, "count"), "sx": ("x", "sum"),
                          "sy": ("y", "sum"), "sxx": ("xx", "sum"),
                          "syy": ("yy", "sum"), "sxy": ("xy", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy().astype(np.float64)
        sx = df["sx"].to_numpy().astype(np.float64)
        sy = df["sy"].to_numpy().astype(np.float64)
        sxx = df["sxx"].to_numpy().astype(np.float64)
        syy = df["syy"].to_numpy().astype(np.float64)
        sxy = df["sxy"].to_numpy().astype(np.float64)
        corr = (n * sxy - sx * sy) / (np.sqrt(n * sxx - sx * sx)
                                      * np.sqrt(n * syy - sy * sy))
        out = df[["l_returnflag", "n"]].copy()
        out["corr_qty_price"] = corr
        return out

    return m.map_batches(finish, batch_format="pandas")


def profile_orders(sf_dir: str) -> Dataset:
    """Dataset PROFILER (the engine's ``SUMMARIZE``): per-column row
    count, null count, distinct count, min and max for the orders
    table's numeric columns, in one long-format table. Two passes, both
    combiner-form: (1) per-block per-column (n, n_null, min, max)
    partials — shuffle O(columns × blocks); (2) per-block distinct
    (col, val) pairs then a bucketed count — shuffle O(distinct). Money
    is profiled as exact integer cents (the module convention)."""
    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_totalprice"])

    def col_vals(batch: pa.Table) -> dict[str, pa.Array]:
        return {"o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
                "o_custkey": batch.column("o_custkey").cast(pa.int64()),
                "o_totalprice_c": _cents(batch.column("o_totalprice"))}

    def stats_partial(batch: pa.Table) -> pa.Table:
        rows = []
        for name, arr in col_vals(batch).items():
            rows.append({
                "col": name,
                "n": batch.num_rows,
                "n_null": arr.null_count,
                "min_v": pc.min(arr).as_py(),
                "max_v": pc.max(arr).as_py(),
            })
        return pa.Table.from_pylist(rows, schema=pa.schema(
            [("col", pa.string()), ("n", pa.int64()),
             ("n_null", pa.int64()), ("min_v", pa.int64()),
             ("max_v", pa.int64())]))

    stats = grouped_agg(orders.map_batches(stats_partial,
                                           batch_format="pyarrow"),
                        keys=["col"],
                        aggs={"n": ("n", "sum"), "n_null": ("n_null", "sum"),
                              "min_v": ("min_v", "min"),
                              "max_v": ("max_v", "max")})

    def distinct_rows(batch: pa.Table) -> pa.Table:
        names, vals = [], []
        for name, arr in col_vals(batch).items():
            u = pc.unique(arr.combine_chunks()
                          if isinstance(arr, pa.ChunkedArray) else arr)
            u = u.drop_null()
            names.extend([name] * len(u))
            vals.append(u)
        return pa.table({"col": pa.array(names, pa.string()),
                         "val": pa.concat_arrays(
                             [v.cast(pa.int64()) for v in vals])
                         if vals else pa.array([], pa.int64())})

    nd = grouped_agg(distinct(orders.map_batches(distinct_rows,
                                                 batch_format="pyarrow"),
                              ["col", "val"]),
                     keys=["col"], aggs={"n_distinct": (None, "count")})
    return attach(stats, nd, "col")


def _moments_fold(blocks: list[pa.Table]) -> tuple[int, int, int]:
    """(n, Σx, Σx²) from the blocks of a constant-key moment aggregate —
    a ``fold``, so the driver holds only the ref."""
    n = s = s2 = 0
    for t in blocks:
        n += int(pc.sum(t.column("n")).as_py())
        s += int(pc.sum(t.column("s")).as_py())
        s2 += int(pc.sum(t.column("s2")).as_py())
    return n, s, s2


def zscore_events(sf_dir: str) -> Dataset:
    """FIT/TRANSFORM feature standardization — the ML-preprocessing
    pattern every training pipeline needs: FIT is one combiner moment
    aggregate over exact integer cents (n, Σx, Σx² — one row per block,
    reduced in one ``fold``), TRANSFORM is a map-only broadcast pass
    computing z = (x - mean) / std with the identical IEEE expression
    the oracle uses. No shuffle at all: the fit state is O(1) and the
    transform touches each row once."""
    ev = read_table(sf_dir, "events", ["event_id", "value"])

    def moments(batch: pa.Table) -> pa.Table:
        c = _cents(batch.column("value"))
        return pa.table({
            "n": pa.array([batch.num_rows], pa.int64()),
            "s": pa.array([pc.sum(c).as_py() or 0], pa.int64()),
            "s2": pa.array([pc.sum(pc.multiply(c, c)).as_py() or 0],
                           pa.int64()),
        })

    parts = ev.map_batches(moments, batch_format="pyarrow")
    ref = fold(parts, _moments_fold)

    def transform(batch: pa.Table) -> pa.Table:
        n, s, s2 = ray.get(ref)
        mean = float(s) / n
        std = np.sqrt((float(s2) - float(s) * float(s) / n) / n)
        c = _cents(batch.column("value")).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        return pa.table({
            "event_id": batch.column("event_id").cast(pa.int64()),
            "value_c": pa.array(c.astype(np.int64), pa.int64()),
            "z": pa.array((c - mean) / std, pa.float64()),
        })

    return ev.map_batches(transform, batch_format="pyarrow")


def user_running_total(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """Cumulative running total per user (SQL ``SUM(x) OVER (PARTITION
    BY user ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING)``) — the
    prefix-sum window that closes out the window family (LAG, trailing
    ROWS, RANGE, rank/CDF, sessions). One ``bucketed`` shuffle on user,
    then a vectorized segmented cumsum per bucket; sums are exact
    integer cents and the (ts_s, event_id) order key is unique, so the
    output is deterministic under any partitioning."""
    ev = read_table(sf_dir, "events", ["event_id", "ts", "user_id",
                                       "value"])
    prep = _user_ts_prep(extra=lambda b: {
        "event_id": b.column("event_id").cast(pa.int64()),
        "cents": _cents(b.column("value")),
    })

    def run(g: pa.Table) -> pa.Table:
        g = _sorted(g, "user_id", "ts_s", "event_id")
        uid = g["user_id"].to_numpy()
        return pa.table({
            "event_id": g["event_id"],
            "user_id": uid,
            "ts_s": g["ts_s"],
            "running_c": run_cumsum(uid, g["cents"].to_numpy()),
            "row_in_user": run_cumsum(uid, np.ones(len(g), np.int64)),
        })

    return bucketed(ev.map_batches(prep, batch_format="pyarrow"),
                    ["user_id"], run, num_buckets)


def nation_balance_full(sf_dir: str) -> Dataset:
    """FULL OUTER join surface: per-nation customer balance vs supplier
    balance, nations missing on either side kept with a NULL total —
    the bucketed large-large ``hash_join(join_type="full_outer")`` path
    (broadcast joins are inner/left-only by soundness, stages/joins.py).
    Both inputs are combiner aggregates first, so the outer join moves
    O(nations) rows, never the fact tables."""
    from chameleon_entity_linking_ray.stages.joins import hash_join

    cust = read_table(sf_dir, "customer", ["c_nationkey", "c_acctbal"]) \
        .filter(expr="c_acctbal > 3000.0")
    supp = read_table(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])

    def prep(key: str, bal: str):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table({
                "nationkey": batch.column(key).cast(pa.int64()),
                "bal_c": _cents(batch.column(bal))})
        return f

    ca = grouped_agg(cust.map_batches(prep("c_nationkey", "c_acctbal"),
                                      batch_format="pyarrow"),
                     keys=["nationkey"], aggs={"cust_bal_c": ("bal_c", "sum")})
    sa = grouped_agg(supp.map_batches(prep("s_nationkey", "s_acctbal"),
                                      batch_format="pyarrow"),
                     keys=["nationkey"], aggs={"supp_bal_c": ("bal_c", "sum")})
    return hash_join(ca, sa, on=("nationkey",), join_type="full_outer")


def moving_avg_user(sf_dir: str, win: int = 3,
                    num_buckets: int = 32) -> Dataset:
    """ROWS-mode moving window per user: sum/count of the trailing
    ``win`` events (SQL ``ROWS BETWEEN win-1 PRECEDING AND CURRENT
    ROW``) ordered by the unique (ts_s, event_id) key — the row-counted
    sibling of ``rolling_user_window``'s RANGE windows. Same one
    ``bucketed`` shuffle on user; the per-bucket kernel is a prefix-sum
    difference with a clamped window start — fully vectorized. Sums are
    integer cents so the result is exact; the avg is emitted as the
    IEEE division of the two exact ints (bit-identical cross-engine)."""
    ev = read_table(sf_dir, "events", ["event_id", "ts", "user_id",
                                       "value"])
    prep = _user_ts_prep(extra=lambda b: {
        "event_id": b.column("event_id").cast(pa.int64()),
        "cents": _cents(b.column("value")),
    })

    def roll(g: pa.Table) -> pa.Table:
        g = _sorted(g, "user_id", "ts_s", "event_id")
        n = len(g)
        uid = g["user_id"].to_numpy()
        cents = g["cents"].to_numpy()
        idx = np.arange(n)
        pos = run_cumsum(uid, np.ones(n, np.int64)) - 1
        lo = idx - np.minimum(pos, win - 1)
        cs = np.concatenate(([0], np.cumsum(cents)))
        s = (cs[idx + 1] - cs[lo]).astype(np.int64)
        c = (idx - lo + 1).astype(np.int64)
        return pa.table({
            "event_id": g["event_id"],
            "user_id": uid,
            "ts_s": g["ts_s"],
            "ma_sum_c": s,
            "ma_count": c,
            "ma_avg_c": s.astype(np.float64) / c,
        })

    return bucketed(ev.map_batches(prep, batch_format="pyarrow"),
                    ["user_id"], roll, num_buckets)


def rollup_revenue(sf_dir: str) -> Dataset:
    """GROUPING-SETS / ROLLUP aggregate: revenue by (region, nation) plus
    per-region subtotals and a grand total — SQL's
    ``GROUP BY ROLLUP(r_name, n_name)`` with ``lvl`` mirroring
    ``GROUPING(r_name)*2 + GROUPING(n_name)`` (0 detail, 1 region
    subtotal, 3 grand total).

    Shape: the fact stream (orders) takes two broadcast dimension merges
    (customer -> nation -> region are the small sides) and ONE combiner
    grouped_agg down to the finest grain (|regions| x |nations| rows);
    the rollup expansion then runs over that tiny aggregate in a single
    map_batches — O(groups), never O(rows), so the subtotal pass costs
    nothing at any scale.
    """
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = read_table(sf_dir, "nation",
                        ["n_nationkey", "n_name", "n_regionkey"])
    region = read_table(sf_dir, "region")

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": batch.column("o_custkey"),
                         "total_c": _cents(batch.column("o_totalprice"))})

    j = attach(orders.map_batches(prep, batch_format="pyarrow"), cust,
               "o_custkey", right_on="c_custkey")
    j = attach(j, nation, "c_nationkey", right_on="n_nationkey")
    j = attach(j, region, "n_regionkey", right_on="r_regionkey")
    fine = grouped_agg(j, keys=["r_name", "n_name"],
                       aggs={"revenue_c": ("total_c", "sum")})

    _OUT = pa.schema([("r_name", pa.string()), ("n_name", pa.string()),
                      ("revenue_c", pa.int64()), ("lvl", pa.int64())])

    def expand(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        detail = df.assign(lvl=np.int64(0))
        sub = df.groupby("r_name", sort=False, as_index=False)["revenue_c"] \
            .sum().assign(n_name=None, lvl=np.int64(1))
        grand = pd.DataFrame({"r_name": [None], "n_name": [None],
                              "revenue_c": [df["revenue_c"].sum()],
                              "lvl": np.int64(3)})
        out = pd.concat([detail, sub, grand], ignore_index=True)
        return pa.Table.from_pandas(
            out[["r_name", "n_name", "revenue_c", "lvl"]],
            schema=_OUT, preserve_index=False)

    # the fine aggregate is |nations| rows — one block, one expansion pass
    return fine.repartition(1).map_batches(expand, batch_format="pyarrow")


def _cdf_assemble(blocks: list[pa.Table]) -> tuple[np.ndarray, np.ndarray, int]:
    """Sorted (value, inclusive-cumulative-count) table from the blocks of
    a (total_c, n) value-count aggregate — a ``fold``, so the driver only
    ever holds the object ref."""
    if not blocks:
        return np.empty(0, np.int64), np.empty(0, np.int64), 0
    t = pa.concat_tables(blocks)
    vals = t.column("total_c").to_numpy(zero_copy_only=False)
    ns = t.column("n").to_numpy(zero_copy_only=False)
    order = np.argsort(vals, kind="mergesort")
    vals, ns = vals[order], ns[order]
    cum = np.cumsum(ns)
    return vals.astype(np.int64), cum.astype(np.int64), int(cum[-1])


def _n_fold(blocks: list[pa.Table]) -> int:
    """Total row count from the blocks of a (total_c, n) value-count
    aggregate — only the int crosses back to the driver."""
    return sum(int(pc.sum(t.column("n")).as_py()) for t in blocks)


def _window_counts(withc: Dataset, num_buckets: int = 32,
                   broadcast_cap: int = 2_000_000,
                   n_range_buckets: int = 256) -> tuple[Dataset, int]:
    """The global-window backbone behind CUME_DIST / RANK / DENSE_RANK /
    PERCENT_RANK / ROW_NUMBER / top-k-with-ties: returns ``withc`` plus
    exact int64 columns ``w_lt`` (# rows with a strictly smaller
    ``total_c``), ``w_le`` (# rows <=), ``w_dlt`` (# distinct values
    strictly smaller), and the global row count ``n``.

    Two execution paths behind a CARDINALITY PROBE on the value-count
    aggregate (one combiner ``grouped_agg`` either way — the shuffle is
    O(distinct values), never O(rows)):

    - distinct <= ``broadcast_cap`` (bounded value domains — cents):
      the sorted (value, cumulative-count) CDF is assembled in a worker
      task and broadcast once; every batch attaches its counts with a
      map-side searchsorted. Zero extra shuffle.
    - beyond the cap (unbounded/continuous keys where distinct ~ rows —
      a broadcast CDF would ship O(rows) to every task): range-bucketed
      prefix sum, the ``traindata.exact_percentiles`` two-phase
      dataflow. Per-range-bucket (rows, distinct) subtotals cumsum on
      the driver (``n_range_buckets`` rows — a knob, never the data);
      within-bucket prefix sums run distributed per bucket; the
      resulting per-VALUE stat table joins back to the row stream with
      one bucketed ``hash_join`` — an O(rows) shuffle instead of an
      O(rows) broadcast.
    """
    from ray.data.aggregate import Max, Min

    from chameleon_entity_linking_ray.stages.joins import hash_join

    counts = grouped_agg(withc.select_columns(["total_c"]),
                         keys=["total_c"], aggs={"n": (None, "count")},
                         num_buckets=num_buckets).materialize()
    n = ray.get(fold(counts, _n_fold))
    n_distinct = counts.count()

    if n_distinct <= broadcast_cap:
        ref = fold(counts, _cdf_assemble)

        def attach(batch: pa.Table) -> pa.Table:
            vals, cum, _n = ray.get(ref)
            tc = batch.column("total_c").to_numpy(zero_copy_only=False)
            pos_l = np.searchsorted(vals, tc, side="left")
            pos_r = np.searchsorted(vals, tc, side="right")
            lt = np.where(pos_l > 0, cum[np.maximum(pos_l - 1, 0)], 0)
            le = np.where(pos_r > 0, cum[np.maximum(pos_r - 1, 0)], 0)
            return batch.append_column(
                "w_lt", pa.array(lt.astype(np.int64), pa.int64())
            ).append_column(
                "w_le", pa.array(le.astype(np.int64), pa.int64())
            ).append_column(
                "w_dlt", pa.array(pos_l.astype(np.int64), pa.int64()))

        return withc.map_batches(attach, batch_format="pyarrow"), n

    # ---- bucketed path: range partition the DISTINCT value table ----
    mm = counts.aggregate(Min("total_c"), Max("total_c"))
    lo, hi = int(mm["min(total_c)"]), int(mm["max(total_c)"])
    width = max(1, (hi - lo) // n_range_buckets + 1)

    def add_rbucket(batch: pa.Table) -> pa.Table:
        v = batch.column("total_c").to_numpy(zero_copy_only=False)
        rb = ((v - lo) // width).astype(np.int64)
        return batch.append_column("rbucket", pa.array(rb, pa.int64()))

    bcounts = counts.map_batches(add_rbucket,
                                 batch_format="pyarrow").materialize()

    def subtotal(batch: pa.Table) -> pa.Table:
        rb = batch.column("rbucket").to_numpy(zero_copy_only=False)
        ns = batch.column("n").to_numpy(zero_copy_only=False)
        ub, inv = np.unique(rb, return_inverse=True)
        rows = np.zeros(len(ub), np.int64)
        np.add.at(rows, inv, ns)
        dv = np.bincount(inv, minlength=len(ub)).astype(np.int64)
        return pa.table({"rbucket": pa.array(ub, pa.int64()),
                         "rows": pa.array(rows, pa.int64()),
                         "dv": pa.array(dv, pa.int64())})

    sub = grouped_agg(bcounts.map_batches(subtotal, batch_format="pyarrow"),
                      keys=["rbucket"],
                      aggs={"rows": ("rows", "sum"), "dv": ("dv", "sum")}) \
        .to_pandas().sort_values("rbucket")  # <= n_range_buckets rows
    rbs = sub["rbucket"].to_numpy(np.int64)
    below_rows = np.cumsum(sub["rows"].to_numpy(np.int64)) \
        - sub["rows"].to_numpy(np.int64)
    below_dv = np.cumsum(sub["dv"].to_numpy(np.int64)) \
        - sub["dv"].to_numpy(np.int64)
    off_ref = ray.put((rbs, below_rows, below_dv))

    def bucket_prefix(g: pa.Table) -> pa.Table:
        # several ranges per bucket: each row's offsets come from its
        # range's subtotals plus the prefix inside its range
        rbs_s, brows, bdv = ray.get(off_ref)
        g = _sorted(g, "total_c")           # ranges ascend with the value
        ns = g["n"].to_numpy().astype(np.int64)
        rb = g["rbucket"].to_numpy()
        i = np.searchsorted(rbs_s, rb)
        lt = brows[i] + run_cumsum(rb, ns) - ns
        dlt = bdv[i] + run_cumsum(rb, np.ones(len(ns), np.int64)) - 1
        return pa.table({"total_c": g["total_c"], "w_lt": lt,
                         "w_le": lt + ns, "w_dlt": dlt})

    vstats = bucketed(bcounts, ["rbucket"], bucket_prefix, num_buckets)
    joined = hash_join(withc, vstats, on=("total_c",),
                       num_partitions=num_buckets)
    return joined, n


def cume_dist_orders(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """Global cumulative distribution (SQL ``CUME_DIST() OVER (ORDER BY
    total)``) for every order — a GLOBAL rank computed WITHOUT a global
    sort: one combiner grouped_agg down to per-distinct-value counts, a
    worker-side sort+cumsum over that small value table, one broadcast,
    and a map-side searchsorted per batch.

    The shuffle cost is O(distinct values), not O(rows) — the all-to-all
    a naive ``sort + row_number`` pays never happens. CUME_DIST (unlike
    NTILE / ROW_NUMBER) is tie-deterministic: equal values share a rank,
    so the output is reproducible under any partitioning. cume_dist =
    (# rows <= mine) / N as an exact int/int division — bit-identical in
    IEEE double on both engines.

    The broadcast holds while the distinct-value table is bounded (the
    value domain — cents here); ``_window_counts``'s cardinality probe
    swaps in the range-bucketed prefix-sum + join automatically beyond
    its cap.
    """
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": batch.column("o_orderkey"),
                         "total_c": _cents(batch.column("o_totalprice"))})

    withc = orders.map_batches(prep, batch_format="pyarrow")
    wds, n = _window_counts(withc, num_buckets)

    def attach(batch: pa.Table) -> pa.Table:
        le = batch.column("w_le").to_numpy(zero_copy_only=False)
        return pa.table({
            "o_orderkey": batch.column("o_orderkey"),
            "total_c": batch.column("total_c"),
            "cume_dist": pa.array(le.astype(np.float64) / float(max(n, 1)),
                                  pa.float64())})

    return wds.map_batches(attach, batch_format="pyarrow")


def rank_orders(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """Global ``RANK()`` and ``DENSE_RANK() OVER (ORDER BY total)`` for
    every order — same no-global-sort dataflow as ``cume_dist_orders``:
    one combiner value-count aggregate (shuffle O(distinct values)), a
    worker-assembled broadcast CDF, then a map-side searchsorted per
    batch.

    Both window functions are tie-deterministic (equal values share a
    rank), so the output is reproducible under any partitioning — unlike
    ROW_NUMBER / NTILE, which need an explicit unique tie-break key.
    rank = 1 + (# rows strictly below), dense_rank = 1 + (# distinct
    values strictly below); both are exact int arithmetic.
    """
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": batch.column("o_orderkey"),
                         "total_c": _cents(batch.column("o_totalprice"))})

    withc = orders.map_batches(prep, batch_format="pyarrow")
    wds, _n = _window_counts(withc, num_buckets)

    def attach(batch: pa.Table) -> pa.Table:
        lt = batch.column("w_lt").to_numpy(zero_copy_only=False)
        dlt = batch.column("w_dlt").to_numpy(zero_copy_only=False)
        return pa.table({
            "o_orderkey": batch.column("o_orderkey"),
            "total_c": batch.column("total_c"),
            "rnk": pa.array(lt + 1, pa.int64()),
            "drnk": pa.array(dlt + 1, pa.int64())})

    return wds.map_batches(attach, batch_format="pyarrow")


def cube_revenue(sf_dir: str) -> Dataset:
    """Full CUBE grouping sets: revenue by (region, nation) plus
    per-region subtotals, per-nation subtotals, and a grand total —
    SQL's ``GROUP BY CUBE(r_name, n_name)`` with ``lvl`` mirroring
    ``GROUPING(r_name)*2 + GROUPING(n_name)`` (0 detail, 1 region
    subtotal, 2 nation subtotal, 3 grand total).

    Same shape as ``rollup_revenue``: the fact stream pays broadcast
    dimension merges plus ONE combiner grouped_agg down to the finest
    (region, nation) grain; all 2^k grouping sets are then expanded from
    that tiny aggregate in a single map_batches — O(groups) work however
    many rows feed it.
    """
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = read_table(sf_dir, "nation",
                        ["n_nationkey", "n_name", "n_regionkey"])
    region = read_table(sf_dir, "region")

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": batch.column("o_custkey"),
                         "total_c": _cents(batch.column("o_totalprice"))})

    j = attach(orders.map_batches(prep, batch_format="pyarrow"), cust,
               "o_custkey", right_on="c_custkey")
    j = attach(j, nation, "c_nationkey", right_on="n_nationkey")
    j = attach(j, region, "n_regionkey", right_on="r_regionkey")
    fine = grouped_agg(j, keys=["r_name", "n_name"],
                       aggs={"revenue_c": ("total_c", "sum")})

    _OUT = pa.schema([("r_name", pa.string()), ("n_name", pa.string()),
                      ("revenue_c", pa.int64()), ("lvl", pa.int64())])

    def expand(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        detail = df.assign(lvl=np.int64(0))
        by_region = df.groupby("r_name", sort=False, as_index=False)[
            "revenue_c"].sum().assign(n_name=None, lvl=np.int64(1))
        by_nation = df.groupby("n_name", sort=False, as_index=False)[
            "revenue_c"].sum().assign(r_name=None, lvl=np.int64(2))
        grand = pd.DataFrame({"r_name": [None], "n_name": [None],
                              "revenue_c": [df["revenue_c"].sum()],
                              "lvl": np.int64(3)})
        out = pd.concat([detail, by_region, by_nation, grand],
                        ignore_index=True)
        return pa.Table.from_pandas(
            out[["r_name", "n_name", "revenue_c", "lvl"]],
            schema=_OUT, preserve_index=False)

    # the fine aggregate is |regions| x |nations| rows — one block,
    # one expansion pass
    return fine.repartition(1).map_batches(expand, batch_format="pyarrow")


def segment_percentiles(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """Exact grouped percentiles (SQL ``PERCENTILE_DISC(q) WITHIN
    GROUP``) of order totals per market segment — computed in combiner
    form: ONE grouped value-count aggregate down to (segment, value,
    count), then a per-segment weighted-percentile kernel over that
    small distinct table. The shuffle carries O(groups x distinct
    values), never rows, so a segment with a billion orders costs the
    same as one with a thousand.

    q in {0.25, 0.5, 0.75}: exact binary fractions, so the
    ``cum >= q*n`` boundary compare is bit-identical to DuckDB's
    PERCENTILE_DISC (min value whose cumulative count reaches q*n).
    """
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": batch.column("o_custkey"),
                         "total_c": _cents(batch.column("o_totalprice"))})

    j = attach(orders.map_batches(prep, batch_format="pyarrow"), cust,
               "o_custkey", right_on="c_custkey")
    counts = grouped_agg(j, keys=["c_mktsegment", "total_c"],
                         aggs={"n": (None, "count")},
                         num_buckets=num_buckets)

    def pctl(g: pa.Table) -> pa.Table:
        outs = []
        for seg, sub in g.to_pandas().groupby("c_mktsegment", sort=False):
            sub = sub.sort_values("total_c", kind="mergesort")
            vals = sub["total_c"].to_numpy()
            cum = np.cumsum(sub["n"].to_numpy())
            n = cum[-1]
            row = {"c_mktsegment": seg}
            for q, name in ((0.25, "p25_c"), (0.5, "p50_c"),
                            (0.75, "p75_c")):
                row[name] = int(vals[np.searchsorted(cum, q * n,
                                                     side="left")])
            outs.append(row)
        return pa.Table.from_pylist(outs)

    return bucketed(counts, ["c_mktsegment"], pctl, num_buckets)


def row_number_orders(sf_dir: str, n_tiles: int = 7,
                      num_buckets: int = 32) -> Dataset:
    """Global ``ROW_NUMBER()`` and ``NTILE(n)`` over (total, orderkey)
    WITHOUT a global sort — the tie-broken completion of ``rank_orders``:

    - cross-value offsets come from the same broadcast CDF backbone
      (``_window_counts``: one combiner value-count aggregate, O(distinct
      values) shuffle);
    - within-tie order (rows sharing a total) is resolved by ONE hash
      shuffle of just the (total_c, o_orderkey) key pair — narrow rows,
      never the payload — ``bucketed`` on total_c so every tie class
      co-locates; a vectorized per-bucket cumcount ranks the ties.

    row_number = (# rows strictly below my value) + (my rank among my
    ties by orderkey); NTILE follows SQL semantics: the first
    ``N % n_tiles`` tiles get ``N // n_tiles + 1`` rows. Both are exact
    int arithmetic — deterministic under any partitioning because the
    (total_c, o_orderkey) sort key is unique per row.
    """
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": batch.column("o_orderkey"),
                         "total_c": _cents(batch.column("o_totalprice"))})

    withc = orders.map_batches(prep, batch_format="pyarrow")
    wds, n = _window_counts(withc, num_buckets)

    def rank_ties(g: pa.Table) -> pa.Table:
        g = _sorted(g, "total_c", "o_orderkey")
        tc = g["total_c"].to_numpy()
        below = g["w_lt"].to_numpy().astype(np.int64)
        tie_rank = np.arange(len(g)) - np.searchsorted(tc, tc, side="left")
        rn = (below + tie_rank + 1).astype(np.int64)
        base, rem = divmod(n, n_tiles)
        boundary = rem * (base + 1)
        r0 = rn - 1
        tile = np.where(r0 < boundary, r0 // (base + 1),
                        rem + (r0 - boundary) // max(base, 1)) + 1
        return pa.table({"o_orderkey": g["o_orderkey"], "total_c": tc,
                         "rn": rn, "tile": tile.astype(np.int64)})

    return bucketed(wds, ["total_c"], rank_ties, num_buckets)


def user_gaps(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """Per-user ``LAG``: for every event with a predecessor, the gap in
    seconds to the SAME user's previous event — SQL's
    ``ts - LAG(ts) OVER (PARTITION BY user ORDER BY ts, event_id)``.
    One ``bucketed`` shuffle on user (the shared window-op key), then a
    fully vectorized per-bucket diff — no per-row Python. The (ts_s,
    event_id) order key is unique, so the output is deterministic."""
    ev = read_table(sf_dir, "events", ["event_id", "ts", "user_id"])
    prep = _user_ts_prep(extra=lambda b: {
        "event_id": b.column("event_id").cast(pa.int64()),
    })

    def gaps(g: pa.Table) -> pa.Table:
        g = _sorted(g, "user_id", "ts_s", "event_id")
        uid = g["user_id"].to_numpy()
        ts = g["ts_s"].to_numpy()
        has_prev = np.r_[False, uid[1:] == uid[:-1]]
        gap = np.r_[0, ts[1:] - ts[:-1]]
        keep = np.flatnonzero(has_prev)
        return pa.table({
            "event_id": g["event_id"].to_numpy()[keep],
            "user_id": uid[keep],
            "ts_s": ts[keep],
            "gap_s": gap[keep].astype(np.int64),
        })

    return bucketed(ev.map_batches(prep, batch_format="pyarrow"),
                    ["user_id"], gaps, num_buckets)


def segment_stats(sf_dir: str) -> Dataset:
    """Grouped VARIANCE / STDDEV per market segment in combiner form: the
    shuffle carries exact integer moments (n, Σx, Σx²) — one partial row
    per (segment, block) — and the float math happens ONCE per group at
    the end, with the identical IEEE expression the oracle uses
    (``(Σx² - Σx·Σx/n)/n``), so results are bit-equal, not just close.
    x = whole dollars (trunc) so Σx² stays well inside int64 at any
    realistic scale (document: at 100 TB switch the moments to the
    pairwise/Chan combiner to bound the integer width)."""
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def prep(batch: pa.Table) -> pa.Table:
        d = pc.cast(pc.trunc(batch.column("o_totalprice")), pa.int64())
        return pa.table({"o_custkey": batch.column("o_custkey"),
                         "d": d, "d2": pc.multiply(d, d)})

    j = attach(orders.map_batches(prep, batch_format="pyarrow"), cust,
               "o_custkey", right_on="c_custkey")
    moments = grouped_agg(j, keys=["c_mktsegment"],
                          aggs={"n": (None, "count"),
                                "sum_d": ("d", "sum"),
                                "sumsq_d": ("d2", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy().astype(np.float64)
        s = df["sum_d"].to_numpy().astype(np.float64)
        s2 = df["sumsq_d"].to_numpy().astype(np.float64)
        var = (s2 - s * s / n) / n
        out = df[["c_mktsegment", "n", "sum_d"]].copy()
        out["mean_d"] = s / n
        out["var_d"] = var
        out["std_d"] = np.sqrt(var)
        return out

    return moments.map_batches(finish, batch_format="pandas")


def customer_order_span(sf_dir: str) -> Dataset:
    """Grouped ARG_MIN / ARG_MAX in pure combiner form: each customer's
    FIRST and LAST order (by orderdate, ties broken by min orderkey) via
    min/max over a composite ``day * 2^32 + orderkey`` encoding — the
    argmin becomes an ordinary associative min, so the shuffle moves one
    row per (customer, block), never the order rows. Encoding assumption:
    orderkey < 2^32 (holds through TPC-H SF10k); beyond that, swap the
    encoded min for a struct-min ``bucketed`` stage on the same key."""
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_orderkey",
                                           "o_orderdate"])

    def prep(batch: pa.Table) -> pa.Table:
        day = pc.divide(_epoch_seconds(batch.column("o_orderdate")), 86400)
        enc = pc.add(pc.multiply(day, 4294967296),
                     batch.column("o_orderkey"))
        return pa.table({"o_custkey": batch.column("o_custkey"),
                         "enc": enc})

    agg = grouped_agg(orders.map_batches(prep, batch_format="pyarrow"),
                      keys=["o_custkey"],
                      aggs={"lo": ("enc", "min"), "hi": ("enc", "max")})

    def decode(df: pd.DataFrame) -> pd.DataFrame:
        lo = df["lo"].to_numpy()
        hi = df["hi"].to_numpy()
        return pd.DataFrame({
            "o_custkey": df["o_custkey"].to_numpy(),
            "first_day": lo // 4294967296,
            "first_orderkey": lo % 4294967296,
            "last_day": hi // 4294967296,
            "last_orderkey": hi % 4294967296,
        })

    return agg.map_batches(decode, batch_format="pandas")


def priority_mode(sf_dir: str) -> Dataset:
    """Grouped MODE: the most frequent order priority per order status,
    ties broken lexicographically (deterministic, unlike SQL ``mode()``).
    Combiner counts per (status, priority) first — the shuffle carries
    O(groups × distinct values) — then a per-group top-1."""
    orders = read_table(sf_dir, "orders", ["o_orderstatus",
                                           "o_orderpriority"])
    counts = grouped_agg(orders, keys=["o_orderstatus", "o_orderpriority"],
                         aggs={"n": (None, "count")})
    return grouped_top_k(counts, group_keys=["o_orderstatus"],
                         by=["n", "o_orderpriority"],
                         ascending=[False, True], k=1)


def nation_set_ops(sf_dir: str) -> Dataset:
    """Distributed INTERSECT / EXCEPT (set ops Ray Data has no native
    form for): nation keys tagged by which side(s) they appear on —
    tag 1 = customers only, 2 = suppliers only, 3 = both. Each side is
    reduced to its distinct keys per block first (combiner), tagged with
    a presence bit, and ONE bucketed sum folds the bits; INTERSECT is
    ``tag == 3``, EXCEPT is ``tag == 1`` — derived from the same pass."""
    cust = read_table(sf_dir, "customer", ["c_nationkey"])
    supp = read_table(sf_dir, "supplier", ["s_nationkey"])

    def tag(col: str, bit: int):
        def f(batch: pa.Table) -> pa.Table:
            keys = pc.unique(batch.column(col)).cast(pa.int64())
            return pa.table({
                "nationkey": keys,
                "bit": pa.array(np.full(len(keys), bit, np.int64)),
            })
        return f

    both = cust.map_batches(tag("c_nationkey", 1), batch_format="pyarrow") \
        .union(supp.map_batches(tag("s_nationkey", 2),
                                batch_format="pyarrow"))
    # distinct (key, bit) first so duplicate per-block partials can't
    # inflate the presence sum
    return grouped_agg(distinct(both, ["nationkey", "bit"]),
                       keys=["nationkey"], aggs={"tag": ("bit", "sum")})


def user_event_paths(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """Grouped ORDERED collect (SQL ``string_agg(x, ',' ORDER BY ts)``):
    each user's event-type sequence in time order as one string — the
    reference's grouped-collect A1 with an explicit deterministic order
    key (ts_s, event_id unique per row). One ``bucketed`` shuffle on
    user, one vectorized sort + per-group join per bucket."""
    ev = read_table(sf_dir, "events", ["event_id", "ts", "user_id",
                                       "event_type"])
    prep = _user_ts_prep(extra=lambda b: {
        "event_id": b.column("event_id").cast(pa.int64()),
        "event_type": b.column("event_type").cast(pa.string()),
    })

    def paths(g: pa.Table) -> pa.Table:
        g = _sorted(g, "user_id", "ts_s", "event_id").to_pandas()
        out = g.groupby("user_id", sort=False)["event_type"] \
            .agg([("path", ",".join), ("n_events", "size")]).reset_index()
        out["n_events"] = out["n_events"].astype(np.int64)
        return pa.Table.from_pandas(out[["user_id", "n_events", "path"]],
                                    preserve_index=False)

    return bucketed(ev.map_batches(prep, batch_format="pyarrow"),
                    ["user_id"], paths, num_buckets)


def _pareto_frontier(df: pd.DataFrame) -> pd.DataFrame:
    """Rows not strictly dominated on (minimize price_c, maximize p_size).
    Vectorized: sort by (price asc, size desc), per-price-class max size,
    strict prefix-max over cheaper classes. Duplicates on both axes are
    kept (neither strictly dominates)."""
    if len(df) == 0:
        return df
    df = df.sort_values(["price_c", "p_size", "p_partkey"],
                        ascending=[True, False, True], kind="mergesort")
    price = df["price_c"].to_numpy()
    size = df["p_size"].to_numpy()
    new_class = np.r_[True, price[1:] != price[:-1]]
    class_id = np.cumsum(new_class) - 1
    class_max = size[np.flatnonzero(new_class)]  # sorted desc within class
    prev_best = np.r_[np.iinfo(np.int64).min,
                      np.maximum.accumulate(class_max)[:-1]]
    keep = (size == class_max[class_id]) & (class_max[class_id] >
                                            prev_best[class_id])
    return df[keep]


def pareto_parts(sf_dir: str) -> Dataset:
    """Pareto frontier (skyline) over parts — cheapest-for-their-size
    rows: no other part is at most as expensive AND at least as large
    with one strict improvement. The frontier is a valid COMBINER (the
    global frontier is a subset of the union of per-block frontiers), so
    each block prunes its dominated rows locally and only the tiny local
    frontiers reach the final single-block pass — no all-pairs work, no
    full shuffle."""
    part = read_table(sf_dir, "part", ["p_partkey", "p_size",
                                       "p_retailprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"p_partkey": batch.column("p_partkey"),
                         "price_c": _cents(batch.column("p_retailprice")),
                         "p_size": batch.column("p_size").cast(pa.int64())})

    local = part.map_batches(prep, batch_format="pyarrow") \
        .map_batches(_pareto_frontier, batch_format="pandas")
    return local.repartition(1).map_batches(_pareto_frontier,
                                            batch_format="pandas")


# the TPC-H market segments are a fixed enumeration; a pivot needs its
# output columns known up front on BOTH engines
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
             "MACHINERY"]


def pivot_revenue(sf_dir: str) -> Dataset:
    """PIVOT: revenue cents as one row per region x one column per
    market segment (missing cells = 0) — conditional aggregation, the
    shuffle-free way to pivot: the fact stream takes broadcast dimension
    merges and ONE combiner grouped_agg to (region, segment); the
    reshape runs over that |regions| x |segments| table in a single
    map_batches, O(groups)."""
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = read_table(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    region = read_table(sf_dir, "region")

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": batch.column("o_custkey"),
                         "total_c": _cents(batch.column("o_totalprice"))})

    j = attach(orders.map_batches(prep, batch_format="pyarrow"), cust,
               "o_custkey", right_on="c_custkey")
    cseg = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    j = attach(j, cseg, "o_custkey", right_on="c_custkey")
    j = attach(j, nation, "c_nationkey", right_on="n_nationkey")
    j = attach(j, region, "n_regionkey", right_on="r_regionkey")
    fine = grouped_agg(j, keys=["r_name", "c_mktsegment"],
                       aggs={"revenue_c": ("total_c", "sum")})

    _OUT = pa.schema([("r_name", pa.string())]
                     + [(s, pa.int64()) for s in _SEGMENTS])

    def reshape(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        wide = df.pivot_table(index="r_name", columns="c_mktsegment",
                              values="revenue_c", aggfunc="sum",
                              fill_value=0).reset_index()
        for s in _SEGMENTS:
            if s not in wide.columns:
                wide[s] = 0
        wide = wide[["r_name"] + _SEGMENTS]
        for s in _SEGMENTS:
            wide[s] = wide[s].astype(np.int64)
        return pa.Table.from_pandas(wide, schema=_OUT, preserve_index=False)

    return fine.repartition(1).map_batches(reshape, batch_format="pyarrow")


def funnel_events(sf_dir: str, steps: tuple[str, str, str] =
                  ("view", "click", "purchase"),
                  num_buckets: int = 32) -> Dataset:
    """Ordered-sequence funnel per user: how far each user progressed
    through ``steps`` where each step must occur STRICTLY AFTER the
    previous step's first completion (the classic product-analytics
    funnel; the reference's per-qid candidate loops are the same
    group-then-scan shape, /root/reference/CrossEncoder/test.py:80-106).

    One ``bucketed`` shuffle co-locates each user's events; the per-bucket
    kernel is a vectorized three-stage min-cascade (pandas groupby-min per
    stage, no per-event Python). Timestamps compare in epoch-us int64, so
    "after" is exact and tie-handling (same-microsecond events do NOT
    satisfy strictly-after) is deterministic under any ordering.

    Emits one row per distinct user: (user_id, depth 0-3, t1, t2, t3
    nullable epoch-us).
    """
    ev = read_table(sf_dir, "events", ["user_id", "ts", "event_type"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b.column("user_id").cast(pa.int64()),
            "ts_us": b.column("ts").cast(pa.timestamp("us"))
            .cast(pa.int64()),
            "event_type": b.column("event_type").cast(pa.string()),
        })

    a, bstep, cstep = steps

    def _nullable_int(col: pd.Series) -> pa.Array:
        v = col.to_numpy(dtype=np.float64, na_value=np.nan)
        m = np.isnan(v)
        return pa.array(np.where(m, 0, v).astype(np.int64), pa.int64(),
                        mask=m)

    def funnel(t: pa.Table) -> pa.Table:
        g = t.to_pandas()
        users = pd.DataFrame({"user_id":
                              np.unique(g["user_id"].to_numpy())})
        s1 = g[g["event_type"] == a].groupby("user_id")["ts_us"] \
            .min().rename("t1").reset_index()
        m2 = g[g["event_type"] == bstep].merge(s1, on="user_id")
        s2 = m2[m2["ts_us"] > m2["t1"]].groupby("user_id")["ts_us"] \
            .min().rename("t2").reset_index()
        m3 = g[g["event_type"] == cstep].merge(s2, on="user_id")
        s3 = m3[m3["ts_us"] > m3["t2"]].groupby("user_id")["ts_us"] \
            .min().rename("t3").reset_index()
        out = users.merge(s1, on="user_id", how="left") \
                   .merge(s2, on="user_id", how="left") \
                   .merge(s3, on="user_id", how="left")
        depth = (out["t1"].notna().astype(np.int64)
                 + out["t2"].notna().astype(np.int64)
                 + out["t3"].notna().astype(np.int64))
        return pa.table({
            "user_id": pa.array(out["user_id"].to_numpy(np.int64),
                                pa.int64()),
            "depth": pa.array(depth.to_numpy(np.int64), pa.int64()),
            "t1": _nullable_int(out["t1"]),
            "t2": _nullable_int(out["t2"]),
            "t3": _nullable_int(out["t3"])})

    return bucketed(ev.map_batches(prep, batch_format="pyarrow"),
                    ["user_id"], funnel, num_buckets)


def histogram_orders(sf_dir: str, width_c: int = 50_000_00) -> Dataset:
    """Equi-width histogram of order totals: bucket = total_c //
    ``width_c`` (exact int64 floor division, so bucket edges agree with
    SQL's ``//`` everywhere). ONE combiner grouped_agg over at most
    O(value range / width) rows — the profiler histogram whose shuffle
    never touches the fact rows.
    """
    orders = read_table(sf_dir, "orders", ["o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        tc = _cents(batch.column("o_totalprice"))
        return pa.table({
            "bucket": pc.divide(tc, width_c)})

    agg = grouped_agg(orders.map_batches(prep, batch_format="pyarrow"),
                      keys=["bucket"], aggs={"n": (None, "count")})

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        b = df["bucket"].to_numpy(np.int64)
        return pd.DataFrame({"bucket": b, "lo_c": b * width_c,
                             "n": df["n"].to_numpy(np.int64)})

    return agg.map_batches(shape, batch_format="pandas")


def unpivot_revenue(sf_dir: str) -> Dataset:
    """UNPIVOT / melt surface: the wide ``pivot_revenue`` table reshaped
    back to one row per (region, segment, revenue_c) cell — pure
    O(groups) Arrow reshaping on top of the same shuffle-free pivot
    aggregate; the fact stream is never touched twice."""
    wide = pivot_revenue(sf_dir)
    segs = list(_SEGMENTS)

    def melt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), len(segs)))
        vals = np.empty((n, len(segs)), np.int64)
        for j, s in enumerate(segs):
            vals[:, j] = batch.column(s).to_numpy(zero_copy_only=False)
        return pa.table({
            "r_name": batch.column("r_name").take(idx),
            "segment": pa.array(np.tile(np.asarray(segs, object), n),
                                pa.string()),
            "revenue_c": pa.array(vals.reshape(-1), pa.int64())})

    return wide.map_batches(melt, batch_format="pyarrow")


def _iqr_bounds(blocks: list[pa.Table]) -> tuple[float, float]:
    """Fold (total_c, n) value-count blocks into Tukey fences
    (q1 - 1.5*IQR, q3 + 1.5*IQR); PERCENTILE_DISC convention = min value
    whose cumulative count reaches q*n, the same boundary compare
    ``segment_percentiles`` pins against DuckDB."""
    if not blocks:
        return (0.0, 0.0)
    df = pd.concat([t.select(["total_c", "n"]).to_pandas() for t in blocks]) \
        .sort_values("total_c", kind="mergesort")
    vals = df["total_c"].to_numpy(np.int64)
    cum = np.cumsum(df["n"].to_numpy(np.int64))
    n = cum[-1]
    q1 = int(vals[np.searchsorted(cum, 0.25 * n, side="left")])
    q3 = int(vals[np.searchsorted(cum, 0.75 * n, side="left")])
    iqr = q3 - q1
    return (q1 - 1.5 * iqr, q3 + 1.5 * iqr)


def outlier_events(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """Tukey-fence (1.5*IQR) outlier filter over event values (the one
    heavy-tailed measure in the star schema) — the data-cleaning gate
    every training pipeline runs before aggregates. Shape: one combiner
    value-count aggregate (shuffle O(distinct cents)), a worker-task
    fold to the two fence floats, broadcast, then a map-side filter —
    the fact rows are scanned twice but never shuffled. Fences are
    q1/q3 ints plus an exact 1.5x float, so the boundary compares are
    bit-identical in SQL.
    """
    events = read_table(sf_dir, "events", ["event_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch.column("value")))
        return pa.table({"event_id": t.column("event_id"),
                         "total_c": _cents(t.column("value"))})

    withc = events.map_batches(prep, batch_format="pyarrow")
    counts = grouped_agg(withc, keys=["total_c"],
                         aggs={"n": (None, "count")},
                         num_buckets=num_buckets)
    ref = fold(counts, _iqr_bounds)

    def flt(batch: pa.Table) -> pa.Table:
        lo, hi = ray.get(ref)
        tc = batch.column("total_c").to_numpy(zero_copy_only=False)
        keep = (tc < lo) | (tc > hi)
        return batch.filter(pa.array(keep))

    return withc.map_batches(flt, batch_format="pyarrow")


def event_lift(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """Market-basket association stats over event types: for every
    UNORDERED pair of event types, the users supporting both, plus
    support / confidence / lift — the co-occurrence mining pass a
    behavioral dataset runs before feature selection. One distinct
    (user, type) combiner aggregate; the pair expansion happens on the
    per-user DISTINCT TYPE SETS (bounded by the type vocabulary), never
    on raw events. Counts exact ints; support/confidence/lift single
    float expressions mirrored in SQL.
    """
    from chameleon_entity_linking_ray.stages.agg import distinct, grouped_agg

    ev = read_table(sf_dir, "events", ["user_id", "event_type"])
    # consumed three times (pair gen, per-type counts, user count):
    # materialize once instead of re-executing the read+dedup lineage
    ut = distinct(ev, ["user_id", "event_type"]).materialize()
    pair_counts = pa.schema([("type_a", pa.string()),
                             ("type_b", pa.string()), ("n_both", pa.int64())])

    def type_pairs(g: pa.Table) -> pa.Table:
        g = _sorted(g, "user_id", "event_type")
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        _, counts = np.unique(uid, return_counts=True)
        starts = np.cumsum(counts) - counts
        within = np.arange(len(g)) - np.repeat(starts, counts)
        c_of = np.repeat(counts, counts)
        rem = c_of - within - 1
        tot = int(rem.sum())
        li = np.repeat(np.arange(len(g)), rem)
        seg = np.cumsum(rem) - rem
        ri = np.arange(tot) - np.repeat(seg, rem) + li + 1
        pairs = pd.DataFrame({"type_a": et[li], "type_b": et[ri]})
        out = pairs.groupby(["type_a", "type_b"], sort=False).size() \
            .rename("n_both").reset_index()
        return pa.Table.from_pandas(out, pair_counts, preserve_index=False)

    both = bucketed(ut, ["user_id"], type_pairs, num_buckets)
    both = grouped_agg(both, keys=["type_a", "type_b"],
                       aggs={"n_both": ("n_both", "sum")})

    singles = grouped_agg(ut, keys=["event_type"],
                          aggs={"n": (None, "count")}).to_pandas()
    if len(singles) == 0:  # empty input loses pandas columns entirely
        return ray.data.from_arrow(pa.table({
            "type_a": pa.array([], pa.string()),
            "type_b": pa.array([], pa.string()),
            "n_both": pa.array([], pa.int64()),
            "support": pa.array([], pa.float64()),
            "confidence": pa.array([], pa.float64()),
            "lift": pa.array([], pa.float64())}))
    n_users = int(distinct(ut, ["user_id"]).count())
    counts_ref = ray.put((dict(zip(singles["event_type"], singles["n"])),
                          n_users))

    def attach(batch: pa.Table) -> pa.Table:
        cmap, n = ray.get(counts_ref)
        ta = batch.column("type_a").to_pylist()
        tb = batch.column("type_b").to_pylist()
        nb = batch.column("n_both").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        na = np.array([cmap[t] for t in ta], np.float64)
        nb_ = np.array([cmap[t] for t in tb], np.float64)
        support = nb / n
        confidence = nb / na
        lift = (nb / n) / ((na / n) * (nb_ / n))
        return pa.table({
            "type_a": batch.column("type_a"),
            "type_b": batch.column("type_b"),
            "n_both": batch.column("n_both").cast(pa.int64()),
            "support": pa.array(support, pa.float64()),
            "confidence": pa.array(confidence, pa.float64()),
            "lift": pa.array(lift, pa.float64())})

    return both.map_batches(attach, batch_format="pyarrow")


def event_transitions(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """First-order Markov transition counts over each user's event
    stream: (prev_type -> type) pairs in (ts, event_id) order — the
    sequence-model statistics pass (session-path mining). One ``bucketed``
    shuffle co-locates each user's events; the per-bucket kernel is a
    sort + one shifted compare, no per-event Python. The (ts_us,
    event_id) composite order key is unique, so transition counts are
    deterministic under any partitioning.
    """
    from chameleon_entity_linking_ray.stages.agg import grouped_agg

    ev = read_table(sf_dir, "events", ["user_id", "ts", "event_id",
                                       "event_type"])
    counts = pa.schema([("prev_type", pa.string()),
                        ("event_type", pa.string()), ("n", pa.int64())])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b.column("user_id").cast(pa.int64()),
            "ts_us": b.column("ts").cast(pa.timestamp("us"))
            .cast(pa.int64()),
            "event_id": b.column("event_id").cast(pa.int64()),
            "event_type": b.column("event_type").cast(pa.string())})

    def trans(g: pa.Table) -> pa.Table:
        g = _sorted(g, "user_id", "ts_us", "event_id")
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        same = np.r_[False, uid[1:] == uid[:-1]]
        prev = np.r_[[""], et[:-1]]
        sub = pd.DataFrame({"prev_type": prev[same],
                            "event_type": et[same]})
        return pa.Table.from_pandas(
            sub.groupby(["prev_type", "event_type"], sort=False).size()
            .rename("n").reset_index(), counts, preserve_index=False)

    parts = bucketed(ev.map_batches(prep, batch_format="pyarrow"),
                     ["user_id"], trans, num_buckets)
    return grouped_agg(parts, keys=["prev_type", "event_type"],
                       aggs={"n": ("n", "sum")})


def cohort_retention(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """Cohort retention matrix: users grouped by first-activity week
    (the cohort), counted as retained in every later week they appear —
    the standard product-analytics cohort table. Weeks are exact integer
    epoch-week indices (epoch_us // (7 * 86400 * 1e6)), so cohort and
    offset arithmetic is identical in SQL. Shape: one distinct
    (user, week) combiner, one per-user min (the cohort), a broadcast of
    the user->cohort map, then a final (cohort, offset) count — no
    raw-event shuffle. Partitioning assumption: the user->cohort map
    fits a broadcast (O(users) narrow ints); past that, swap the
    broadcast for a bucketed hash join on user_id (stages/joins.py) —
    the surrounding combiners are already user-cardinality-proof.
    """
    from chameleon_entity_linking_ray.stages.agg import distinct, grouped_agg

    ev = read_table(sf_dir, "events", ["user_id", "ts"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b.column("user_id").cast(pa.int64()),
            "week": pc.divide(b.column("ts").cast(pa.timestamp("us"))
                              .cast(pa.int64()), 7 * 86400 * 1_000_000)})

    uw = distinct(ev.map_batches(prep, batch_format="pyarrow"),
                  ["user_id", "week"])
    cohorts = grouped_agg(uw, keys=["user_id"],
                          aggs={"cohort": ("week", "min")}).to_pandas()
    if len(cohorts) == 0:  # empty input loses pandas columns entirely
        e64 = pa.array([], pa.int64())
        return ray.data.from_arrow(pa.table({
            "cohort_week": e64, "week_offset": e64, "n_users": e64}))
    ref = ray.put((cohorts["user_id"].to_numpy(np.int64),
                   cohorts["cohort"].to_numpy(np.int64)))

    def attach(batch: pa.Table) -> pa.Table:
        uids_s, coh = ray.get(ref)
        order = np.argsort(uids_s, kind="mergesort")
        uids_s, coh = uids_s[order], coh[order]
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        w = batch.column("week").to_numpy(zero_copy_only=False)
        c = coh[np.searchsorted(uids_s, u)]
        return pa.table({
            "cohort_week": pa.array(c, pa.int64()),
            "week_offset": pa.array((w - c).astype(np.int64), pa.int64())})

    cells = uw.map_batches(attach, batch_format="pyarrow")
    return grouped_agg(cells, keys=["cohort_week", "week_offset"],
                       aggs={"n_users": (None, "count")})


def priority_segment_chisq(sf_dir: str) -> Dataset:
    """Chi-square contingency decomposition of order priority x customer
    market segment: per cell, observed count, expected count under
    independence (row_total * col_total / n — integer product, ONE
    division), and the chi-square contribution (obs - exp)^2 / exp.
    Emitting per-cell contributions instead of the global statistic
    keeps every float a short deterministic expression (a global sum
    would depend on SQL's aggregation order). One combiner aggregate to
    the contingency table; margins derived from it O(cells).
    """
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    j = attach(orders, cust, "o_custkey", right_on="c_custkey")
    cont = grouped_agg(j, keys=["o_orderpriority", "c_mktsegment"],
                       aggs={"observed": (None, "count")})
    cdf = cont.to_pandas()
    ref = ray.put((cdf.groupby("o_orderpriority")["observed"].sum()
                   .to_dict(),
                   cdf.groupby("c_mktsegment")["observed"].sum().to_dict(),
                   int(cdf["observed"].sum())))

    def cell(batch: pa.Table) -> pa.Table:
        rm, cm, n = ray.get(ref)
        pr = batch.column("o_orderpriority").to_pylist()
        sg = batch.column("c_mktsegment").to_pylist()
        obs = batch.column("observed").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        rtot = np.array([rm[p] for p in pr], np.int64)
        ctot = np.array([cm[s] for s in sg], np.int64)
        exp = (rtot * ctot).astype(np.float64) / n
        contrib = (obs - exp) ** 2 / exp
        return pa.table({
            "o_orderpriority": batch.column("o_orderpriority"),
            "c_mktsegment": batch.column("c_mktsegment"),
            "observed": pa.array(obs, pa.int64()),
            "expected": pa.array(exp, pa.float64()),
            "contrib": pa.array(contrib, pa.float64())})

    return cont.map_batches(cell, batch_format="pyarrow")


def revenue_share(sf_dir: str) -> Dataset:
    """Ratio-to-report window (share of each nation's revenue within its
    region, and within the grand total) — SQL's ``SUM() OVER (PARTITION
    BY region)`` ratio pattern without any window shuffle: ONE combiner
    aggregate to (region, nation) cents, then O(groups) margin math.
    Revenue cents exact ints; both shares single divisions.
    """
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = read_table(sf_dir, "nation",
                        ["n_nationkey", "n_name", "n_regionkey"])
    region = read_table(sf_dir, "region")

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": batch.column("o_custkey"),
                         "total_c": _cents(batch.column("o_totalprice"))})

    j = attach(orders.map_batches(prep, batch_format="pyarrow"), cust,
               "o_custkey", right_on="c_custkey")
    j = attach(j, nation, "c_nationkey", right_on="n_nationkey")
    j = attach(j, region, "n_regionkey", right_on="r_regionkey")
    fine = grouped_agg(j, keys=["r_name", "n_name"],
                       aggs={"revenue_c": ("total_c", "sum")}).to_pandas()
    ref = ray.put((fine.groupby("r_name")["revenue_c"].sum().to_dict(),
                   int(fine["revenue_c"].sum())))
    fine_ds = ray.data.from_pandas(fine)

    def share(batch: pa.Table) -> pa.Table:
        rm, tot = ray.get(ref)
        rn = batch.column("r_name").to_pylist()
        rev = batch.column("revenue_c").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        rtot = np.array([rm[r] for r in rn], np.int64)
        return pa.table({
            "r_name": batch.column("r_name"),
            "n_name": batch.column("n_name"),
            "revenue_c": pa.array(rev, pa.int64()),
            "region_share": pa.array(rev.astype(np.float64) / rtot,
                                     pa.float64()),
            "total_share": pa.array(rev.astype(np.float64) / tot,
                                    pa.float64())})

    return fine_ds.map_batches(share, batch_format="pyarrow")


def _mad_fold(blocks: list[pa.Table]):
    """PERCENTILE_DISC(0.5) over a (v, n) value-count table (min value
    whose cumulative count reaches n/2 — the segment_percentiles
    convention). Returns None on empty input — values can legitimately
    be any int (including negatives), so no in-band sentinel."""
    if not blocks:
        return None
    df = pd.concat([t.select(["v", "n"]).to_pandas() for t in blocks]) \
        .sort_values("v", kind="mergesort")
    vals = df["v"].to_numpy(np.int64)
    cum = np.cumsum(df["n"].to_numpy(np.int64))
    return int(vals[np.searchsorted(cum, 0.5 * cum[-1], side="left")])


def value_mad(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """Median absolute deviation of event values — the robust scale
    estimator (outlier-insensitive twin of stddev). Two passes, each a
    combiner value-count aggregate + a worker-task median over the tiny
    distinct table: shuffles carry O(distinct cents), never rows. Both
    medians are PERCENTILE_DISC ints, so the single output row is
    hash-exact.
    """
    from chameleon_entity_linking_ray.stages.agg import grouped_agg

    ev = read_table(sf_dir, "events", ["value"])

    def prep(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch.column("value")))
        return pa.table({"v": _cents(t.column("value"))})

    withc = ev.map_batches(prep, batch_format="pyarrow")
    c1 = grouped_agg(withc, keys=["v"], aggs={"n": (None, "count")},
                     num_buckets=num_buckets)
    med = ray.get(fold(c1, _mad_fold))
    if med is None:  # empty input: emit the typed empty aggregate
        e64 = pa.array([], pa.int64())
        return ray.data.from_arrow(pa.table({"median_c": e64,
                                             "mad_c": e64}))

    def absdev(batch: pa.Table) -> pa.Table:
        v = batch.column("v").to_numpy(zero_copy_only=False)
        return pa.table({"v": pa.array(np.abs(v - med), pa.int64())})

    c2 = grouped_agg(withc.map_batches(absdev, batch_format="pyarrow"),
                     keys=["v"], aggs={"n": (None, "count")},
                     num_buckets=num_buckets)
    mad = ray.get(fold(c2, _mad_fold))
    return ray.data.from_arrow(pa.table({
        "median_c": pa.array([med], pa.int64()),
        "mad_c": pa.array([mad], pa.int64())}))


def top_orders_ties(sf_dir: str, k: int = 20,
                    num_buckets: int = 32) -> Dataset:
    """Global top-k orders WITH TIES (SQL ``QUALIFY RANK() <= k``) and
    the tie-sharing rank — no global sort: the broadcast-CDF backbone
    (``_window_counts``) gives rank = 1 + #rows strictly above as exact int
    arithmetic, and the filter is map-side. Unlike ``top_orders``
    (ROW_NUMBER semantics), ties at the boundary all survive, so the
    output is reproducible without a tie-break key.
    """
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": batch.column("o_orderkey"),
                         "total_c": _cents(batch.column("o_totalprice"))})

    withc = orders.map_batches(prep, batch_format="pyarrow")
    wds, n = _window_counts(withc, num_buckets)

    def attach(batch: pa.Table) -> pa.Table:
        le = batch.column("w_le").to_numpy(zero_copy_only=False)
        rnk = n - le + 1
        out = pa.table({
            "o_orderkey": batch.column("o_orderkey"),
            "total_c": batch.column("total_c"),
            "rnk": pa.array(rnk.astype(np.int64), pa.int64())})
        return out.filter(pa.array(rnk <= k))

    return wds.map_batches(attach, batch_format="pyarrow")


def throttle_events(sf_dir: str, gap_s: int = 600,
                    num_buckets: int = 32) -> Dataset:
    """Rate-limit dedup: keep an event iff the PREVIOUS raw event of the
    same (user, type) stream is more than ``gap_s`` seconds older (LAG
    semantics — non-iterative, so it is exactly SQL-expressible, unlike
    keep-first-of-burst cascades). The standard event-stream
    de-bouncing/cleaning op. One ``bucketed`` shuffle per user; the
    kernel is a sort + one shifted compare over the unique (ts_us,
    event_id) order key.
    """
    ev = read_table(sf_dir, "events", ["user_id", "ts", "event_id",
                                       "event_type"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b.column("user_id").cast(pa.int64()),
            "ts_us": b.column("ts").cast(pa.timestamp("us"))
            .cast(pa.int64()),
            "event_id": b.column("event_id").cast(pa.int64()),
            "event_type": b.column("event_type").cast(pa.string())})

    gap_us = gap_s * 1_000_000

    def keep(g: pa.Table) -> pa.Table:
        g = _sorted(g, "user_id", "event_type", "ts_us", "event_id")
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        ts = g["ts_us"].to_numpy()
        same = np.r_[False, (uid[1:] == uid[:-1]) & (et[1:] == et[:-1])]
        close = np.r_[False, (ts[1:] - ts[:-1]) <= gap_us]
        return g.filter(pa.array(~(same & close))).select(
            ["event_id", "user_id", "event_type", "ts_us"])

    return bucketed(ev.map_batches(prep, batch_format="pyarrow"),
                    ["user_id"], keep, num_buckets)


def _orders_changes(sf_dir: str) -> Dataset:
    """Deterministic synthetic change set for the table-maintenance ops:
    every order with odd orderkey gets total_c + 100 (an UPDATE), and a
    shifted copy of orders with orderkey < 100 arrives as new rows
    (INSERTs, keys offset by 10^9). Derived from the input tables only —
    no external data."""
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def make(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        tc = _cents(batch.column("o_totalprice")) \
            .to_numpy(zero_copy_only=False)
        upd = k % 2 == 1
        new = k < 100
        keys = np.concatenate([k[upd], k[new] + 1_000_000_000])
        vals = np.concatenate([tc[upd] + 100, tc[new]])
        return pa.table({"o_orderkey": pa.array(keys, pa.int64()),
                         "total_c": pa.array(vals, pa.int64())})

    return orders.map_batches(make, batch_format="pyarrow")


def merge_upsert(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """SQL MERGE / upsert: apply a change set to the orders table —
    matched keys take the change's value, unmatched change rows insert,
    unmatched base rows carry over. The table-maintenance primitive
    every incremental pipeline needs, expressed as ONE ``bucketed``
    full-outer merge on the key (per-bucket vectorized combine) — no
    driver materialization of either side.
    """
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def base_prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
            "total_c": _cents(batch.column("o_totalprice")),
            "side": pa.array(np.zeros(batch.num_rows, np.int8), pa.int8())})

    def chg_prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
            "total_c": batch.column("total_c").cast(pa.int64()),
            "side": pa.array(np.ones(batch.num_rows, np.int8), pa.int8())})

    tagged = orders.map_batches(base_prep, batch_format="pyarrow") \
        .union(_orders_changes(sf_dir).map_batches(chg_prep,
                                                   batch_format="pyarrow"))

    def combine(g: pa.Table) -> pa.Table:
        # change side (1) wins per key: sort by (key, side), keep last
        g = _sorted(g, "o_orderkey", "side")
        k = g["o_orderkey"].to_numpy()
        return g.filter(pa.array(np.r_[k[1:] != k[:-1], True])) \
            .select(["o_orderkey", "total_c"])

    return bucketed(tagged, ["o_orderkey"], combine, num_buckets)


def snapshot_diff(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """Change-data-capture diff between the orders table and its
    post-merge snapshot: one row per key with status ADDED / CHANGED
    (UNCHANGED rows are suppressed — at 100 TB the diff output must be
    change-proportional, never table-proportional). Same single
    bucketed full-outer merge shape as ``merge_upsert``.
    """
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def base_prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
            "v": _cents(batch.column("o_totalprice")),
            "side": pa.array(np.zeros(batch.num_rows, np.int8), pa.int8())})

    new = merge_upsert(sf_dir)

    def new_prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
            "v": batch.column("total_c").cast(pa.int64()),
            "side": pa.array(np.ones(batch.num_rows, np.int8), pa.int8())})

    tagged = orders.map_batches(base_prep, batch_format="pyarrow") \
        .union(new.map_batches(new_prep, batch_format="pyarrow"))

    def diff(g: pa.Table) -> pa.Table:
        p = g.to_pandas().pivot_table(index="o_orderkey", columns="side",
                                      values="v", aggfunc="first")
        p = p.rename(columns={0: "old_c", 1: "new_c"}).reset_index()
        if "old_c" not in p:
            p["old_c"] = np.nan
        if "new_c" not in p:
            p["new_c"] = np.nan
        added = p["old_c"].isna() & p["new_c"].notna()
        changed = p["old_c"].notna() & p["new_c"].notna() \
            & (p["old_c"] != p["new_c"])
        keep = p[added | changed]
        old = keep["old_c"].to_numpy(np.float64)
        miss = np.isnan(old)
        return pa.table({
            "o_orderkey": pa.array(keep["o_orderkey"].to_numpy(np.int64),
                                   pa.int64()),
            "old_c": pa.array(np.where(miss, 0, old).astype(np.int64),
                              pa.int64(), mask=miss),
            "new_c": pa.array(keep["new_c"].to_numpy(np.int64),
                              pa.int64()),
            "status": pa.array(np.where(miss, "ADDED", "CHANGED"),
                               pa.string())})

    return bucketed(tagged, ["o_orderkey"], diff, num_buckets)


def user_value_history(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """SCD2-style history build: each user's event stream becomes
    validity intervals — every event's value is current from its
    timestamp until the user's next event (NULL for the open current
    row). The slowly-changing-dimension table every warehouse derives
    from change streams; SQL's LEAD window. One ``bucketed`` shuffle per
    user; the kernel is a sort + one shifted compare over the unique
    (ts_us, event_id) order key, so intervals are deterministic.
    """
    ev = read_table(sf_dir, "events", ["user_id", "ts", "event_id",
                                       "value"])

    def prep(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b.column("value")))
        return pa.table({
            "user_id": t.column("user_id").cast(pa.int64()),
            "event_id": t.column("event_id").cast(pa.int64()),
            "ts_us": t.column("ts").cast(pa.timestamp("us"))
            .cast(pa.int64()),
            "value_c": _cents(t.column("value"))})

    def history(g: pa.Table) -> pa.Table:
        g = _sorted(g, "user_id", "ts_us", "event_id")
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        nxt_same = np.r_[uid[1:] == uid[:-1], False]
        nxt_ts = np.r_[ts[1:], 0]
        return pa.table({
            "user_id": g["user_id"],
            "event_id": g["event_id"],
            "value_c": g["value_c"],
            "valid_from_us": g["ts_us"],
            "valid_to_us": pa.array(np.where(nxt_same, nxt_ts, 0),
                                    pa.int64(), mask=~nxt_same)})

    return bucketed(ev.map_batches(prep, batch_format="pyarrow"),
                    ["user_id"], history, num_buckets)


def lineitem_big_orders(sf_dir: str,
                        threshold_c: int = 40_000_000) -> Dataset:
    """Semi-join surface: lineitem rows whose order total clears
    ``threshold_c`` cents, a ``semi`` ``attach`` against the big-order
    keys (a broadcast while they fit ``joins.BROADCAST_ROWS``, a bucketed
    shuffle when the key set itself is table-scale). The plain SQL
    semi-join is the oracle.
    """
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def big(batch: pa.Table) -> pa.Table:
        t = pa.table({"o_orderkey": batch.column("o_orderkey")
                      .cast(pa.int64()),
                      "total_c": _cents(batch.column("o_totalprice"))})
        return t.filter(pc.greater(t.column("total_c"), threshold_c))

    keys = orders.map_batches(big, batch_format="pyarrow")
    li = read_table(sf_dir, "lineitem",
                    ["l_orderkey", "l_partkey", "l_extendedprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": batch.column("l_orderkey").cast(pa.int64()),
            "l_partkey": batch.column("l_partkey").cast(pa.int64()),
            "price_c": _cents(batch.column("l_extendedprice"))})

    return attach(li.map_batches(prep, batch_format="pyarrow"), keys,
                  "l_orderkey", right_on="o_orderkey", how="semi")


def zorder_parts(sf_dir: str, bits: int = 16) -> Dataset:
    """Z-order (Morton) clustering key over (p_size, price-cents
    bucket): the space-filling-curve layout key a lakehouse sorts files
    by so multi-column range predicates prune together. Pure integer
    bit-interleave (column values clamped to ``bits`` bits, x in even
    positions, y in odd) — exact int64 arithmetic, so the code column is
    hash-identical in SQL (generate_series bit expansion). Map-only;
    the actual re-layout is a plain ``sort(zcode)`` on top.
    """
    part = read_table(sf_dir, "part", ["p_partkey", "p_size",
                                       "p_retailprice"])
    mask = (1 << bits) - 1

    def code(batch: pa.Table) -> pa.Table:
        x = np.minimum(batch.column("p_size").cast(pa.int64())
                       .to_numpy(zero_copy_only=False), mask)
        y = np.minimum(_cents(batch.column("p_retailprice"))
                       .to_numpy(zero_copy_only=False) // 100, mask)
        z = np.zeros(len(x), np.int64)
        for j in range(bits):
            z |= ((x >> j) & 1) << (2 * j)
            z |= ((y >> j) & 1) << (2 * j + 1)
        return pa.table({
            "p_partkey": batch.column("p_partkey").cast(pa.int64()),
            "x": pa.array(x, pa.int64()),
            "y": pa.array(y, pa.int64()),
            "zcode": pa.array(z, pa.int64())})

    return part.map_batches(code, batch_format="pyarrow")


def percent_rank_orders(sf_dir: str, num_buckets: int = 32) -> Dataset:
    """Global ``PERCENT_RANK() OVER (ORDER BY total)`` — (rank - 1) /
    (n - 1) with RANK from the same broadcast-CDF backbone as
    ``rank_orders`` (no global sort; exact int arithmetic into one
    final division, bit-identical in SQL). Completes the no-shuffle
    window-function family: ROW_NUMBER/NTILE/RANK/DENSE_RANK/CUME_DIST/
    PERCENT_RANK all off one O(distinct-values) combiner aggregate.
    """
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": batch.column("o_orderkey"),
                         "total_c": _cents(batch.column("o_totalprice"))})

    withc = orders.map_batches(prep, batch_format="pyarrow")
    wds, n = _window_counts(withc, num_buckets)

    def attach(batch: pa.Table) -> pa.Table:
        lt = batch.column("w_lt").to_numpy(zero_copy_only=False)
        pr = lt.astype(np.float64) / float(n - 1) if n > 1 \
            else np.zeros(batch.num_rows, np.float64)
        return pa.table({
            "o_orderkey": batch.column("o_orderkey"),
            "total_c": batch.column("total_c"),
            "pct_rank": pa.array(pr, pa.float64())})

    return wds.map_batches(attach, batch_format="pyarrow")


# --- O2: the reference's lexicographic string-score sort, faithful mode ---

def stringsort_rank_quirk(sf_dir: str, k: int = 10,
                          num_buckets: int = 32) -> Dataset:
    """O2 FAITHFUL MODE: the reference's merge_results.py keeps run
    scores as STRINGS and sorts them lexicographically
    (/root/reference/utils/merge_results.py:11,24 — so '99000.00' ranks
    above '100000.00'). The engine's run writers use numeric semantics
    (documented divergence, SURVEY.md O2); this op reproduces the
    lexicographic quirk so a user migrating byte-for-byte reference
    output has the faithful path, and emits both rankings side by side
    so the quirk's bite is visible (rows where rank_str != rank_num).

    Scores are formatted '%.2f' from exact integer cents with pure
    numpy string ops (no per-row Python), ranked per customer by
    (score_str DESC — binary collation, matching Python's byte-wise
    str comparison — pid ASC as a DETERMINISTIC STAND-IN tie-break: the
    reference's stable sorted() keeps run-file insertion order on tied
    score strings, which depends on the order merge inputs were read,
    so byte-for-byte parity is guaranteed only where score strings are
    tie-free; pid-asc makes the engine's choice reproducible). One
    ``bucketed`` shuffle on qid.
    """
    orders = read_table(sf_dir, "orders",
                        ["o_custkey", "o_orderkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        c = np.asarray(_cents(batch.column("o_totalprice"))
                       .to_numpy(zero_copy_only=False), np.int64)
        whole = (c // 100).astype("U")
        frac = np.char.zfill((c % 100).astype("U"), 2)
        s = np.char.add(np.char.add(whole, "."), frac)
        return pa.table({
            "qid": batch.column("o_custkey").cast(pa.int64()),
            "pid": batch.column("o_orderkey").cast(pa.int64()),
            "score_str": pa.array(s, pa.string()),
            "score_c": pa.array(c, pa.int64()),
        })

    def ranks(t: pa.Table) -> pa.Table:
        g = t.to_pandas().sort_values(["qid", "score_str", "pid"],
                          ascending=[True, False, True], kind="mergesort")
        g["rank_str"] = g.groupby("qid", sort=False).cumcount() + 1
        g = g.sort_values(["qid", "score_c", "pid"],
                          ascending=[True, False, True], kind="mergesort")
        g["rank_num"] = g.groupby("qid", sort=False).cumcount() + 1
        g = g[g["rank_str"] <= k]
        return pa.Table.from_pandas(
            g[["qid", "pid", "score_str", "rank_str", "rank_num"]]
            .astype({"rank_str": np.int64, "rank_num": np.int64}),
            preserve_index=False)

    return bucketed(orders.map_batches(prep, batch_format="pyarrow"),
                    ["qid"], ranks, num_buckets)


# --- data-quality: population-stability drift between two periods ---

def psi_drift(sf_dir: str, split: str = "1998-01-01",
              bucket_width: float = 50000.0,
              n_bkt: int = 10) -> Dataset:
    """Population Stability Index decomposition for order-value drift
    between two date halves — the production data-quality check a
    long-running ingest pipeline gates on (PSI > 0.2 = investigate).

    One COMBINER pass: per-block (half, bucket) counts collapse through
    one tiny grouped aggregate (2 x n_bkt rows on the driver — a knob);
    each bucket's Laplace-smoothed contribution
    ``(p - q) * ln(p / q)`` is emitted per row, so the output is exact
    per-bucket arithmetic with NO cross-engine float summation (sum the
    ``contrib`` column for the headline PSI). Output
    (bucket, n_ref, n_cur, contrib).
    """
    orders = read_table(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
    split_ns = np.datetime64(split)

    def partial(batch: pa.Table) -> pa.Table:
        d = batch.column("o_orderdate").cast(pa.timestamp("us")) \
            .to_numpy(zero_copy_only=False)
        half = (d >= split_ns).astype(np.int64)
        price = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        bkt = np.minimum(n_bkt - 1,
                         (price // bucket_width).astype(np.int64))
        df = pd.DataFrame({"half": half, "bucket": bkt})
        out = df.groupby(["half", "bucket"]).size().reset_index(name="n")
        out["n"] = out["n"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    counts = grouped_agg(orders.map_batches(partial, batch_format="pyarrow"),
                         ["half", "bucket"], {"n": ("n", "sum")}) \
        .to_pandas()
    n0 = np.zeros(n_bkt, np.int64)
    n1 = np.zeros(n_bkt, np.int64)
    for _, r in counts.iterrows():
        (n0 if r["half"] == 0 else n1)[int(r["bucket"])] = int(r["n"])
    t0, t1 = float(n0.sum()), float(n1.sum())
    p = (n0 + 1.0) / (t0 + n_bkt)
    q = (n1 + 1.0) / (t1 + n_bkt)
    contrib = np.round((p - q) * np.log(p / q), 6)
    return ray.data.from_arrow(pa.table({
        "bucket": pa.array(np.arange(n_bkt, dtype=np.int64)),
        "n_ref": pa.array(n0), "n_cur": pa.array(n1),
        "contrib": pa.array(contrib, pa.float64())}))


# --- data-quality: declarative constraint checks with violation counts ---

def dq_checks(sf_dir: str) -> Dataset:
    """Constraint-violation report over orders — the data-quality gate an
    ingest pipeline runs before promoting a batch: key uniqueness,
    referential integrity to customer, domain and nullability rules.
    One row per rule: (rule, violations, n_checked).

    Shape: the row-local rules (null / domain / range) are ONE map-only
    combiner pass emitting per-block partial counts (a tiny aggregate
    collapses them); uniqueness is COUNT(*) minus the bucketed distinct
    count; the FK check broadcasts the customer key set (dimension-table
    small by definition) and counts anti-join survivors — no shuffle of
    the fact table anywhere. Driver state: one scalar per rule.
    """
    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_totalprice",
                         "o_orderdate"])
    lo = np.datetime64("1990-01-01")
    hi = np.datetime64("2030-01-01")

    def partial(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ck = batch.column("o_custkey")
        price = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        d = batch.column("o_orderdate").cast(pa.timestamp("us")) \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "null_custkey": pa.array([ck.null_count], pa.int64()),
            "neg_price": pa.array([int((price < 0).sum())], pa.int64()),
            "date_oob": pa.array([int(((d < lo) | (d >= hi)).sum())],
                                 pa.int64()),
        })

    sums = grouped_agg(
        orders.map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: b.append_column("g", pa.array([0] * b.num_rows,
                                                             pa.int64())),
                     batch_format="pyarrow"),
        ["g"], {"n": ("n", "sum"), "null_custkey": ("null_custkey", "sum"),
                "neg_price": ("neg_price", "sum"),
                "date_oob": ("date_oob", "sum")}).to_pandas().iloc[0]

    n_rows = int(sums["n"])
    n_distinct = int(distinct(orders.select_columns(["o_orderkey"]),
                              ["o_orderkey"]).count())

    cust = read_table(sf_dir, "customer", ["c_custkey"])
    fk_bad = attach(orders.select_columns(["o_custkey"]), cust, "o_custkey",
                    right_on="c_custkey", how="anti").count()

    rules = ["unique_orderkey", "fk_custkey_customer", "null_custkey",
             "nonneg_price", "date_in_range"]
    viol = [n_rows - n_distinct, fk_bad, int(sums["null_custkey"]),
            int(sums["neg_price"]), int(sums["date_oob"])]
    return ray.data.from_arrow(pa.table({
        "rule": pa.array(rules, pa.string()),
        "violations": pa.array(viol, pa.int64()),
        "n_checked": pa.array([n_rows] * len(rules), pa.int64())}))
