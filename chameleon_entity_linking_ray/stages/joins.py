"""Distributed join / semi-join helpers.

The reference does every join as a driver-side dict lookup (SURVEY.md §2.4);
here the large-large case is a self-built hash-bucketed shuffle join and the
small-side case is an object-store broadcast (``ray.put`` once, read inside
each task) — never re-shipped per batch, never a shuffle.

Why not ``Dataset.join``: Ray 2.49's hash-shuffle join spawns one aggregator
actor per partition up front; with ``num_partitions`` > cluster CPUs the
actor pool can never be fully placed and the query deadlocks (observed at
num_cpus=4 / 32 partitions), and fully-empty sides lose their schema and
crash the join. ``hash_join`` runs on ``stages.shuffle.bucketed``, the same
sort-shuffle every other keyed stage uses (no actor pool), scales with
``num_partitions`` as plain tasks, and pins its output schema explicitly.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from chameleon_entity_linking_ray.stages.shuffle import bucketed

_HOW = {"inner": "inner", "left_outer": "left", "right_outer": "right",
        "full_outer": "outer"}


def hash_join(left: Dataset, right: Dataset, on: tuple[str, ...],
              join_type: str = "inner", num_partitions: int = 32,
              right_on: tuple[str, ...] | None = None,
              left_suffix: str = "", right_suffix: str = "_r",
              schemas: tuple[pa.Schema, pa.Schema] | None = None) -> Dataset:
    """Hash-bucketed distributed equi-join (both sides large).

    Both sides are tagged with their side and unioned under one
    harmonized Arrow schema (absent columns = typed nulls, right keys under
    the left key names), shuffled once by ``bucketed`` on the key columns
    into ``num_partitions`` buckets, and merged per bucket with a
    vectorized ``pd.merge``. Output schema is pinned so empty buckets /
    all-null fill columns can never change dtypes between runs.

    ``schemas=(left_schema, right_schema)``: caller-supplied Arrow schemas
    skip the materialize-before-schema-probe below — join CHAINS pay the
    probe/materialize once per link otherwise (measured on the exact-
    Jaccard pipelines, which join candidate pairs to texts twice).
    """
    on = tuple(on)
    right_on = tuple(right_on) if right_on else on
    if schemas is None:
        # pin both sides before asking for schemas: .schema() on a lazy
        # dataset executes its upstream just to peek one block and then
        # throws the work away, so a chain of joins would re-run every
        # producer once per peek. A hash join consumes both sides fully
        # anyway; materializing here costs nothing extra and makes the
        # schema probes free.
        left, right = left.materialize(), right.materialize()
        lschema, rschema = left.schema(), right.schema()
    else:
        lschema, rschema = schemas
    lnames = list(lschema.names)

    # right value columns (join keys excluded), renamed on collision
    rmap: dict[str, str] = {}  # right col -> output col
    for name in rschema.names:
        if name in right_on:
            continue
        out = name + right_suffix if (name in lnames or
                                      name + right_suffix in lnames) else name
        rmap[name] = out

    lfields = list(zip(lschema.names, lschema.types))
    rfields = [(rmap[n], t) for n, t in zip(rschema.names, rschema.types)
               if n in rmap]
    out_schema = pa.schema(lfields + rfields)
    union_schema = pa.schema(lfields + rfields + [("__side", pa.int8())])
    # output column -> source column per side; the right keys go under the
    # LEFT key names, so the per-bucket merge is a plain `on=on`
    sources = ({n: n for n in lnames},
               {**dict(zip(on, right_on)), **{v: k for k, v in rmap.items()}})

    def tag(side: int):
        src = sources[side]

        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = [batch.column(src[f.name]).cast(f.type)
                    if src.get(f.name) in batch.column_names
                    else pa.nulls(n, f.type) for f in out_schema]
            cols.append(pa.array(np.full(n, side, np.int8())))
            return pa.Table.from_arrays(cols, schema=union_schema)
        return fn

    tagged = left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow"))

    how = _HOW[join_type]

    def merge(t: pa.Table) -> pa.Table:
        g = t.to_pandas()
        # an integer column with nulls (every right-only value column of
        # the tagged union) would default to float64, which rounds values
        # past 2**53 — 64-bit hash ids among them; keep those exact (and
        # drop the pandas metadata that would bring the Arrow-backed dtype
        # back on every later to_pandas)
        for name, col in zip(t.column_names, t.columns):
            if pa.types.is_integer(col.type) and col.null_count:
                g[name] = col.to_pandas(types_mapper=pd.ArrowDtype)
        lpart = g.loc[g["__side"] == 0, lnames]
        rpart = g.loc[g["__side"] == 1, list(on) + list(rmap.values())]
        out = lpart.merge(rpart, how=how, on=list(on))
        return pa.Table.from_pandas(out[out_schema.names], schema=out_schema,
                                    preserve_index=False) \
            .replace_schema_metadata(None)

    return bucketed(tagged, on, merge, num_partitions)


def broadcast_semi_join(ds: Dataset, keys: Iterable, key_col: str,
                        anti: bool = False) -> Dataset:
    """Semi/anti join against a small key set: the set is ``ray.put`` once
    as an Arrow array; every task reads the same object-store copy (no
    shuffle, no re-ship) and filters with the vectorized ``pc.is_in`` kernel.

    Engine form of the reference's prune filter
    (/root/reference/utils/prune_retrieved.py:19-26) and its merge anti-join
    (/root/reference/utils/merge_results.py:14-20).
    """
    keys = keys if isinstance(keys, pa.Array) else pa.array(list(dict.fromkeys(keys)))
    ref = ray.put(keys)

    def semi_filter(batch: pa.Table) -> pa.Table:
        value_set = ray.get(ref)  # object-store handle, fetched per task
        col = batch.column(key_col)
        if value_set.type != col.type:
            value_set = value_set.cast(col.type)
        mask = pc.is_in(col, value_set=value_set)
        if anti:
            mask = pc.invert(mask)
        return batch.filter(pc.fill_null(mask, False))

    # plain tasks: parallelism follows block count, no actor-pool ramp
    return ds.map_batches(semi_filter, batch_format="pyarrow")


def semi_join_ds(ds: Dataset, keys_ds: Dataset, key_col: str,
                 keys_col: str | None = None, anti: bool = False) -> Dataset:
    """Semi/anti join where the key side is itself a Dataset: key blocks are
    concatenated into ONE Arrow array (zero-copy ``ray.get`` of block refs —
    no Python-object round trip through the driver) and broadcast once."""
    keys_col = keys_col or key_col
    blocks = [ray.get(r) for r in keys_ds.select_columns([keys_col]).to_arrow_refs()]
    # pandas-format blocks come back as DataFrames — normalize to Arrow;
    # groupby outputs can include schema-less EMPTY blocks — drop them
    blocks = [pa.Table.from_pandas(b, preserve_index=False)
              if not isinstance(b, pa.Table) else b for b in blocks]
    # per-block projection: select_columns can leave stray columns on
    # blocks of mixed (pandas/arrow, empty/non-empty) lineages
    blocks = [b.select([keys_col]) for b in blocks
              if keys_col in b.column_names]
    if blocks:
        keys = pa.concat_tables(blocks).column(keys_col).combine_chunks()
        keys = keys.unique() if isinstance(keys, pa.Array) else \
            pa.concat_arrays(keys.chunks).unique()
    else:
        keys = pa.array([], pa.int64())
    return broadcast_semi_join(ds, keys, key_col, anti=anti)


def broadcast_hash_join(large: Dataset, small: Dataset, on: tuple[str, ...],
                        join_type: str = "inner",
                        right_on: tuple[str, ...] | None = None,
                        right_suffix: str = "_r") -> Dataset:
    """Map-side join against a SMALL dimension table: the small side is
    collected once, ``ray.put`` once, and every task merges its batch against
    the shared copy — no shuffle of the large side at all. The textbook
    broadcast-join case (dimension tables, lookup tables); use ``hash_join``
    when both sides are large."""
    if join_type not in ("inner", "left_outer"):
        # right_outer / full_outer are NOT sound map-side: an unmatched
        # small-side row would be emitted once per large-side batch.
        raise ValueError(
            f"broadcast_hash_join supports inner/left_outer, got {join_type!r};"
            " use hash_join for right/full outer")
    on = tuple(on)
    right_on = tuple(right_on) if right_on else on
    sdf = small.to_pandas()
    sdf = sdf.rename(columns=dict(zip(right_on, on)))
    ref = ray.put(sdf)
    how = _HOW[join_type]

    def merge(batch: pa.Table) -> pa.Table:
        right = ray.get(ref)
        left_df = batch.to_pandas()
        clash = [c for c in right.columns
                 if c not in on and c in left_df.columns]
        r = right.rename(columns={c: c + right_suffix for c in clash})
        return pa.Table.from_pandas(left_df.merge(r, how=how, on=list(on)),
                                    preserve_index=False)

    return large.map_batches(merge, batch_format="pyarrow")


_BLOOM_SEEDS = (131, 137, 139, 149)


def _bloom_positions(keys: np.ndarray, m_bits: int) -> list[np.ndarray]:
    """k hash positions per key (mix64 with fixed seeds) — deterministic,
    so build and probe agree across processes."""
    from chameleon_entity_linking_ray.functions.hashing import mix64
    u = keys.astype(np.uint64)
    return [(mix64(u, seed=s) % np.uint64(m_bits)).astype(np.int64)
            for s in _BLOOM_SEEDS]


@ray.remote
def _bloom_build(m_bits: int, *blocks) -> np.ndarray:
    """OR-merge per-block key sets into one bitmap (uint64 words) — the
    combiner-form Bloom build; the driver only ever holds the ref."""
    words = np.zeros((m_bits + 63) // 64, np.uint64)
    for b in blocks:
        t = (b if isinstance(b, pa.Table)
             else pa.Table.from_pandas(b, preserve_index=False))
        if t.num_rows == 0 or "key" not in t.column_names:
            continue
        k = t.column("key").to_numpy(zero_copy_only=False)
        for pos in _bloom_positions(k, m_bits):
            np.bitwise_or.at(words, pos // 64,
                             np.uint64(1) << (pos % 64).astype(np.uint64))
    return words


def bloom_semi_join(large: Dataset, keys_ds: Dataset, key_col: str,
                    keys_col: str | None = None,
                    m_bits: int = 1 << 20) -> Dataset:
    """Semi-join with a BLOOM PREFILTER: the key side folds into an
    ``m_bits`` bitmap in a worker task (combiner OR-merge — constant-size
    state per block, unlike a broadcast key SET which grows with the key
    count), every large-side batch probes the broadcast bitmap
    map-side, and the surviving superset (false positives only) takes
    the EXACT semi-join. Same answer as a plain semi-join — the Bloom
    pass only changes how many rows reach the exact stage, which is the
    point at 100 TB: the bitmap stays a few MB however many keys exist,
    and the exact pass sees survivors, not the table.
    """
    keys_col = keys_col or key_col

    def as_key(batch: pa.Table) -> pa.Table:
        return pa.table({"key": batch.column(keys_col).cast(pa.int64())})

    keyed = keys_ds.map_batches(as_key, batch_format="pyarrow")
    bloom_ref = _bloom_build.remote(m_bits, *keyed.to_arrow_refs())

    def probe(batch: pa.Table) -> pa.Table:
        words = ray.get(bloom_ref)  # zero-copy shared-memory read
        k = batch.column(key_col).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        hit = np.ones(len(k), bool)
        for pos in _bloom_positions(k, m_bits):
            bits = (words[pos // 64] >> (pos % 64).astype(np.uint64)) \
                & np.uint64(1)
            hit &= bits.astype(bool)
        return batch.filter(pa.array(hit))

    survivors = large.map_batches(probe, batch_format="pyarrow")
    # exact cleanup: false positives out (broadcast set here; swap for a
    # bucketed hash semi-join when the key set outgrows a broadcast)
    return semi_join_ds(survivors, keyed, key_col, keys_col="key")
