"""Keyed joins: ``attach`` for every one-key lookup, ``hash_join`` for
outer and multi-key joins.

The reference does every join as a driver-side dict lookup (SURVEY.md
§2.4). ``attach`` is that lookup as one primitive: ``ds`` rows against a
keyed ``table`` (inner, left, semi or anti). It counts the table once; up
to ``BROADCAST_ROWS`` rows the table is sorted by key in one ``fold`` and
broadcast (the driver holds only object refs, never the rows), above it
both sides shuffle on the key with ``stages.shuffle.bucketed``. Both paths
run the same probe kernel (``_probe``) — per batch, or per bucket where
all rows of a key meet — so they share one semantics: a null key never
matches, a duplicated table key under ``inner``/``left`` raises, clashing
value columns get ``_r`` and the table's key column is dropped.

Why not ``Dataset.join``: Ray 2.49's hash-shuffle join spawns one aggregator
actor per partition up front; with ``num_partitions`` > cluster CPUs the
actor pool can never be fully placed and the query deadlocks (observed at
num_cpus=4 / 32 partitions), and fully-empty sides lose their schema and
crash the join. ``hash_join`` and ``attach`` run on
``stages.shuffle.bucketed``, the same sort-shuffle every other keyed stage
uses (no actor pool), scale with ``num_partitions`` as plain tasks, and pin
their output schema explicitly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from chameleon_entity_linking_ray.stages.fold import fold
from chameleon_entity_linking_ray.stages.shuffle import bucketed

# the most table rows ``attach`` broadcasts; above it both sides shuffle
BROADCAST_ROWS = 4_000_000

_HOW = {"inner": "inner", "left_outer": "left", "right_outer": "right",
        "full_outer": "outer"}
_ATTACH_HOWS = ("inner", "left", "semi", "anti")
_SUFFIX = "_r"


def hash_join(left: Dataset, right: Dataset, on: tuple[str, ...],
              join_type: str = "inner", num_partitions: int = 32,
              right_on: tuple[str, ...] | None = None,
              schemas: tuple[pa.Schema, pa.Schema] | None = None) -> Dataset:
    """Hash-bucketed distributed equi-join for outer and multi-key joins
    (a one-key inner/left/semi/anti lookup is ``attach``).

    Both sides are tagged with their side and unioned under one
    harmonized Arrow schema (``_tagged_union``), shuffled once by
    ``bucketed`` on the key columns into ``num_partitions`` buckets, and
    merged per bucket with a vectorized ``pd.merge``. Output schema is
    pinned so empty buckets / all-null fill columns can never change
    dtypes between runs.

    ``schemas=(left_schema, right_schema)``: caller-supplied Arrow schemas
    skip the materialize-before-schema-probe below — join CHAINS pay the
    probe/materialize once per link otherwise.
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
        schemas = left.schema(), right.schema()
    tagged, out_schema = _tagged_union(left, right, on, right_on, *schemas)
    lnames = list(schemas[0].names)
    rnames = list(on) + out_schema.names[len(lnames):]
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
        rpart = g.loc[g["__side"] == 1, rnames]
        out = lpart.merge(rpart, how=how, on=list(on))
        return pa.Table.from_pandas(out[out_schema.names], schema=out_schema,
                                    preserve_index=False) \
            .replace_schema_metadata(None)

    return bucketed(tagged, on, merge, num_partitions)


def _right_names(names, left_names) -> list[str]:
    """Output names of the right side's value columns: ``_r`` added where
    a name (or the name plus ``_r``) is already a left column."""
    return [n + _SUFFIX if n in left_names or n + _SUFFIX in left_names
            else n for n in names]


def _tagged_union(left: Dataset, right: Dataset, on, right_on, lschema,
                  rschema) -> tuple[Dataset, pa.Schema]:
    """Both sides under one harmonized Arrow schema: the left columns, the
    right value columns (renamed by ``_right_names``, absent = typed
    nulls) and an int8 ``__side``; the right keys sit under the LEFT key
    names. Returns the union and its schema without ``__side``."""
    lnames = list(lschema.names)
    rvals = [(n, t) for n, t in zip(rschema.names, rschema.types)
             if n not in right_on]
    rfields = list(zip(_right_names([n for n, _ in rvals], lnames),
                       [t for _, t in rvals]))
    out_schema = pa.schema(list(zip(lnames, lschema.types)) + rfields)
    union_schema = out_schema.append(pa.field("__side", pa.int8()))
    # output column -> source column per side
    sources = ({n: n for n in lnames},
               {**dict(zip(on, right_on)),
                **{out: n for (n, _), (out, _) in zip(rvals, rfields)}})

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

    return left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow")), out_schema


def attach(ds: Dataset, table: Dataset, on: str, right_on: str | None = None,
           how: str = "inner", num_partitions: int = 32) -> Dataset:
    """``ds`` rows looked up by their ``on`` key in ``table`` (keyed by
    ``right_on``, default ``on``):

    - ``inner``: matched rows plus the table's value columns;
    - ``left``: every row, value columns null where unmatched;
    - ``semi`` / ``anti``: the rows with / without a match, unchanged.

    A null key never matches. Under ``inner``/``left`` a key repeated in
    ``table`` raises ``ValueError`` naming it. Value columns that clash
    with ``ds`` columns get ``_r``; the table's key column is dropped.

    ``table`` is materialized and counted once. Up to ``BROADCAST_ROWS``
    rows it is sorted by key in one ``fold`` and broadcast once, and
    every ``ds`` batch is probed in place (a map: ``ds`` keeps its
    blocks). Above that, both sides are shuffled on the key into
    ``num_partitions`` buckets and each bucket is probed.
    """
    if how not in _ATTACH_HOWS:
        raise ValueError(f"attach: how must be one of {_ATTACH_HOWS}, "
                         f"got {how!r}")
    right_on = right_on or on
    if how in ("semi", "anti"):
        table = table.select_columns([right_on])
    table = table.materialize()
    if table.count() <= BROADCAST_ROWS:
        schema = table.schema()
        ref, dup_ref = fold(table, _key_sorted, right_on,
                            schema and schema.base_schema, num_returns=2)
        _check_unique(ray.get(dup_ref), right_on, how)

        def probe(batch: pa.Table) -> pa.Table:
            keys, values = ray.get(ref)
            return _probe(batch, on, keys, values, how)

        return ds.map_batches(probe, batch_format="pyarrow")

    ds = ds.materialize()
    lschema = ds.schema()
    if lschema is None:  # an empty ds: nothing to look up
        return ds
    tagged, out_schema = _tagged_union(ds, table, (on,), (right_on,),
                                       lschema, table.schema())
    lnames = list(lschema.names)
    rnames = [on] + out_schema.names[len(lnames):]

    def probe_bucket(t: pa.Table) -> pa.Table:
        side = t.column("__side")
        right = t.filter(pc.equal(side, 1)).select(rnames)
        (keys, values), dup = _sort_by_key(right, on)
        _check_unique(dup, right_on, how)
        return _probe(t.filter(pc.equal(side, 0)).select(lnames), on, keys,
                      values, how)

    return bucketed(tagged, [on], probe_bucket, num_partitions)


def _sort_by_key(t: pa.Table, key: str) -> tuple[tuple, object]:
    """((sorted non-null keys as numpy, the value columns in that order),
    a key that occurs more than once or None)."""
    t = t.filter(pc.is_valid(t.column(key))).sort_by(key)
    keys = t.column(key).to_numpy(zero_copy_only=False)
    dup = np.flatnonzero(keys[1:] == keys[:-1])
    return ((keys, t.drop_columns([key])),
            t.column(key)[int(dup[0])].as_py() if len(dup) else None)


def _key_sorted(blocks: list[pa.Table], key: str,
                schema) -> tuple[tuple, object]:
    """``_sort_by_key`` over a table's blocks, folded in a worker: the
    driver only ever holds the refs. A table without rows takes its value
    columns' types from ``schema`` (its Arrow schema, if it has one)."""
    if blocks:
        t = pa.concat_tables(blocks, promote_options="permissive")
    elif isinstance(schema, pa.Schema):
        t = schema.empty_table()
    else:
        t = pa.table({key: pa.array([], pa.null())})
    return _sort_by_key(t, key)


def _check_unique(dup, key: str, how: str) -> None:
    if dup is not None and how in ("inner", "left"):
        raise ValueError(f"attach: key {key}={dup!r} occurs more than once "
                         f"in the table; an {how} attach needs unique keys")


def _probe(left: pa.Table, on: str, keys: np.ndarray, values: pa.Table,
           how: str) -> pa.Table:
    """The one lookup kernel of ``attach``: each ``left`` row's ``on`` key
    binary-searched in the sorted ``keys``; ``semi``/``anti`` filter the
    rows, ``inner``/``left`` add the matched ``values`` rows (null where
    none)."""
    col = left.column(on)
    row = np.full(left.num_rows, -1, np.int64)
    valid = np.flatnonzero(pc.is_valid(col).to_numpy(zero_copy_only=False))
    if len(keys) and len(valid):
        probe = col.drop_null().to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
        hit = keys[pos] == probe
        row[valid[hit]] = pos[hit]
    found = row >= 0
    if how == "semi":
        return left.filter(pa.array(found))
    if how == "anti":
        return left.filter(pa.array(~found))
    if how == "inner":
        left, row = left.filter(pa.array(found)), row[found]
    gathered = values.take(pa.array(row, mask=row < 0))
    for name, c in zip(_right_names(values.column_names, left.column_names),
                       gathered.columns):
        left = left.append_column(name, c)
    return left
