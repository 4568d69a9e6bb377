"""The engine's keyed shuffle: one key hash and one bucketed Arrow stage.

Grouping by a raw key would pay one Python call per distinct key. Every
keyed shuffle of the package instead shuffles rows by ``key_hash %
num_buckets``: all rows of a key meet in one bucket, and the callback runs
once per bucket on an Arrow table, vectorized over the keys inside it. Its
callers: the vocabulary merge, both blocked-pair stages, the
connected-components star steps, ``agg.grouped_agg``/``distinct``/
``grouped_top_k``, the shuffle paths of ``hash_join``/``attach``, the
per-key metrics of ``metrics.per_query_ir_metrics``, PPR, the co-purchase
graph and its triangles (``stages/graph.py``), and the per-user, per-key
and per-range operators of ``pipelines/analytics.py``, ``corpus.py``,
``traindata.py``, ``prep.curation_funnel`` and
``ingest.select_hard_negatives``. No other module calls ``map_groups``.
"""

from __future__ import annotations

from functools import wraps
from typing import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from chameleon_entity_linking_ray.functions.hashing import hash64, mix64

_BUCKET = "__bucket"
_NULL_FLAG = np.uint64(0x9E3779B97F4A7C15)


def key_hash(columns: Sequence) -> np.ndarray:
    """uint64 hash per row of its key columns' values, one array per
    column: an integer numpy array by value, anything else by ``hash64``,
    each column mixed with its own seed."""
    h = np.zeros(len(columns[0]), dtype=np.uint64)
    for i, vals in enumerate(columns):
        if not (isinstance(vals, np.ndarray)
                and np.issubdtype(vals.dtype, np.integer)):
            vals = hash64(vals)
        h ^= mix64(vals, seed=31 + i)
    return h


def bucket_of(columns: Sequence, num_buckets: int) -> np.ndarray:
    return (key_hash(columns) % np.uint64(num_buckets)).astype(np.int32)


def arrow_key_values(table: pa.Table, keys: Sequence[str]) -> list:
    """``key_hash`` input for Arrow key columns: integers as exact uint64
    numpy (nulls filled, then flagged), other types as Python values."""
    return [_exact_ints(col) if pa.types.is_integer(col.type)
            else col.to_pylist() for col in map(table.column, keys)]


def _exact_ints(col: pa.ChunkedArray) -> np.ndarray:
    """An integer column as uint64 without a float64 detour: a null
    reads as 0 with ``_NULL_FLAG`` mixed in, every other value as itself."""
    vals = pc.fill_null(col, 0).to_numpy(zero_copy_only=False) \
        .astype(np.uint64)
    if col.null_count:
        vals[pc.is_null(col).to_numpy(zero_copy_only=False)] ^= _NULL_FLAG
    return vals


def run_cumsum(key: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Inclusive cumsum of ``vals`` that restarts at every change of
    ``key``: per-key running sums over a bucket sorted by its key, for a
    ``bucketed`` callback that sees several keys at once."""
    cs = np.cumsum(vals)
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    run = np.diff(np.r_[first, len(key)])
    return cs - np.repeat(cs[first] - vals[first], run)


def bucketed(ds: Dataset, keys: Sequence[str],
             fn: Callable[[pa.Table], pa.Table], num_buckets: int) -> Dataset:
    """``fn`` over each of ``num_buckets`` buckets of ``ds``, shuffled by
    the hash of its ``keys`` columns. ``fn`` is Arrow in and Arrow out: it
    gets all rows of a bucket (so every row of several key tuples) in one
    non-empty Arrow table without a bucket column. Its output's schema
    metadata (pandas writes some) is dropped here. An empty input gives
    no rows and no schema: Ray calls no ``map_groups`` UDF on an empty
    shuffle partition."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        # pandas schema metadata (a dict) would make Ray fail to hash the
        # shuffled blocks' schemas
        b = bucket_of(arrow_key_values(batch, keys), num_buckets)
        return batch.replace_schema_metadata(None) \
            .append_column(_BUCKET, pa.array(b))

    @wraps(fn)
    def per_bucket(group: pa.Table) -> pa.Table:
        # pandas schema metadata (a dict) would make Ray fail to hash the
        # schemas of the blocks it batches downstream
        return fn(group.drop_columns([_BUCKET])).replace_schema_metadata(None)

    return ds.map_batches(add_bucket, batch_format="pyarrow") \
        .groupby(_BUCKET).map_groups(per_bucket, batch_format="pyarrow")
