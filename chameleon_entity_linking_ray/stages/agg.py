"""Partial (combiner-style) grouped aggregation.

The scalable grouped-aggregate pattern for wide data: aggregate INSIDE each
``map_batches`` task first (one Arrow ``group_by``), so the shuffle moves
one row per (group, block) instead of one per input row, then combine per
hash bucket. This is the engine-wide replacement for the reference's driver-side
counter dicts (e.g. /root/reference/CrossEncoder/train.py:77,109-112) and
grouped collects (/root/reference/BiEncoder/test.py:70-79).

At 100 TB the pre-aggregation is the difference between shuffling ~1e12 rows
and shuffling (n_groups x n_blocks) partials.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from chameleon_entity_linking_ray.stages.shuffle import bucketed

# out_col -> (src_col, kind); kind in {"sum", "count", "min", "max"}
AggSpec = dict[str, tuple[str | None, str]]

_COMBINE = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def grouped_agg(ds: Dataset, keys: list[str], aggs: AggSpec,
                num_buckets: int = 32) -> Dataset:
    """ds -> one row per distinct non-null key tuple with the named
    aggregates (``count`` counts rows).

    Stage 1 (map_batches): one Arrow ``group_by`` per input block — the
    partial/combiner step. Stage 2: ``bucketed`` shuffles the partials by
    key hash and combines them per bucket with a second ``group_by``
    (sum-of-sums, min-of-mins, ...).
    """
    outs = list(aggs)

    def partial(batch: pa.Table) -> pa.Table:
        valid = [pc.invert(pc.is_null(batch.column(k), nan_is_null=True))
                 for k in keys]
        batch = batch.filter(functools.reduce(pc.and_, valid))
        return _group_by(batch, keys, [([], "count_all") if kind == "count"
                                       else (src, kind)
                                       for src, kind in aggs.values()], outs)

    def combine(t: pa.Table) -> pa.Table:
        return _group_by(t, keys, [(out, _COMBINE[kind]) for out, (_, kind)
                                   in aggs.items()], outs)

    return bucketed(ds.map_batches(partial, batch_format="pyarrow"), keys,
                    combine, num_buckets)


def distinct(ds: Dataset, keys: list[str], num_buckets: int = 32) -> Dataset:
    """Distinct key tuples — a per-block Arrow ``group_by`` (the combiner)
    then a bucketed exact dedup; never a full-row global sort."""

    def dedup(batch: pa.Table) -> pa.Table:
        return _group_by(batch, keys, [], [])

    return bucketed(ds.map_batches(dedup, batch_format="pyarrow"), keys,
                    dedup, num_buckets)


def _group_by(t: pa.Table, keys: list[str], aggs: list, outs: list[str]
              ) -> pa.Table:
    """One single-threaded Arrow ``group_by`` (groups in first-seen order):
    the key columns, then ``aggs`` named ``outs``."""
    return t.group_by(keys, use_threads=False).aggregate(aggs) \
        .rename_columns(keys + outs)


def embedding_matrix(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """A ``list`` or ``fixed_size_list`` vector column (chunked or not) as
    a writable float64 ``(rows, dim)`` matrix, read from the column's flat
    child values — no per-row Python lists. Every row must be non-null
    and of one width; an empty column gives ``(0, list_size)`` (or
    ``(0, 0)`` for a variable-width list)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        raise ValueError("embedding_matrix: null vector rows")
    n = len(col)
    dim = getattr(col.type, "list_size", 0)
    if n and not dim:
        lens = pc.list_value_length(col)
        dim = pc.max(lens).as_py()
        if pc.min(lens).as_py() != dim:
            raise ValueError("embedding_matrix: vectors of different widths")
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return flat.astype(np.float64).reshape(n, dim)


def mean_pool_vectors(ds: Dataset, group_col: str, vec_col: str,
                      num_buckets: int = 16, round_to: int = 6,
                      all_groups: Dataset | None = None,
                      dim: int | None = None) -> Dataset:
    """Grouped element-wise mean of ``list<float>`` vectors — the engine
    form of the reference's per-doc entity-vector mean pool
    (/root/reference/BiEncoder/test_wikipedia2vec.py:56-67), combiner
    style: each block pre-aggregates (group, pos) partial sums + counts
    (one ``np.add.at`` scatter per block), the bucketed combine sums the
    partials, and the mean divides once. Emits LONG format
    (group, pos, mean_v) so results are scalar-comparable cross-engine.

    ``all_groups`` (a Dataset with ``group_col``): groups present there
    but with NO vector rows in ``ds`` emit a ZERO vector — the reference's
    zeros fallback for docs whose entities resolve to no embedding
    (/root/reference/BiEncoder/test_wikipedia2vec.py:63-67). ``dim`` pins
    the vector width for that case (required if ``ds`` can be empty)."""

    _partial_schema = pa.schema([(group_col, pa.int64()), ("pos", pa.int64()),
                                 ("s", pa.float64()), ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # empty blocks occur after upstream filters
            return _partial_schema.empty_table()
        mat = embedding_matrix(batch.column(vec_col))
        grp = batch.column(group_col).to_numpy(zero_copy_only=False)
        gu, inv = np.unique(grp, return_inverse=True)
        dim = mat.shape[1]
        sums = np.zeros((len(gu), dim), np.float64)
        np.add.at(sums, inv, mat)
        counts = np.bincount(inv).astype(np.int64)
        return pa.table({
            group_col: pa.array(np.repeat(gu, dim), pa.int64()),
            "pos": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(gu)),
                            pa.int64()),
            "s": pa.array(sums.reshape(-1), pa.float64()),
            "n": pa.array(np.repeat(counts, dim), pa.int64()),
        })

    summed = grouped_agg(ds.map_batches(partial, batch_format="pyarrow"),
                         keys=[group_col, "pos"],
                         aggs={"s": ("s", "sum"), "n": ("n", "sum")},
                         num_buckets=num_buckets)

    def mean(df: pd.DataFrame) -> pd.DataFrame:
        out = df[[group_col, "pos"]].copy()
        out["mean_v"] = np.round(df["s"].to_numpy() /
                                 np.maximum(df["n"].to_numpy(), 1), round_to)
        return out

    pooled = summed.map_batches(mean, batch_format="pandas")
    if all_groups is None:
        return pooled

    from chameleon_entity_linking_ray.stages.joins import attach
    pooled = pooled.materialize()  # consumed by the anti-join AND the union
    if dim is None:
        if pooled.count() == 0:
            raise ValueError("cannot infer vector dim from an empty input; "
                             "pass dim= explicitly")
        dim = int(pooled.max("pos")) + 1

    missing = attach(all_groups.select_columns([group_col]), pooled,
                     group_col, how="anti")

    def zero_rows(batch: pa.Table) -> pa.Table:
        g = batch.column(group_col).to_numpy(zero_copy_only=False)
        return pa.table({
            group_col: pa.array(np.repeat(g, dim), pa.int64()),
            "pos": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(g)),
                            pa.int64()),
            "mean_v": pa.array(np.zeros(len(g) * dim), pa.float64()),
        })

    return pooled.union(missing.map_batches(zero_rows, batch_format="pyarrow"))


def top_k(ds: Dataset, by: list[str], ascending: list[bool], k: int) -> Dataset:
    """Global top-k with per-block pruning: each block keeps its own top-k
    (vectorized nsmallest/nlargest-style sort), then one tiny final sort.
    The Ray form of the reference's per-query rank cut
    (/root/reference/BiEncoder/test_retrieval.py:72-82)."""

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(by, ascending=ascending, kind="mergesort").head(k)

    pruned = ds.map_batches(prune, batch_format="pandas")
    out = pruned.sort(by, descending=[not a for a in ascending]).limit(k)
    return out


def grouped_top_k(ds: Dataset, group_keys: list[str], by: list[str],
                  ascending: list[bool], k: int, num_buckets: int = 32,
                  rank_col: str | None = None) -> Dataset:
    """Per-group top-k (the reference's per-query sort-desc + rank,
    /root/reference/CrossEncoder/test.py:102-106): top-k is a COMBINER,
    so each block first prunes to its own per-group top-k (the shuffle
    then moves <= k rows per (group, block) instead of every row), then
    one ``bucketed`` shuffle on the group keys finishes each bucket with
    one vectorized sort + head(k)."""

    def head_k(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(group_keys + by,
                              ascending=[True] * len(group_keys) + ascending,
                              kind="mergesort") \
            .groupby(group_keys, sort=False).head(k)

    def per_bucket(t: pa.Table) -> pa.Table:
        out = head_k(t.to_pandas())
        if rank_col:
            out[rank_col] = out.groupby(group_keys, sort=False).cumcount() + 1
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucketed(ds.map_batches(head_k, batch_format="pandas"),
                    group_keys, per_bucket, num_buckets)
