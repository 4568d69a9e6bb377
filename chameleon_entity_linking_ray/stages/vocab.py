"""Surface vocabulary — collapse mentions to distinct normalized surfaces.

Cluster identity depends only on the normalized surface, so all expensive
work (blocking, pairing, scoring, CC) runs over DISTINCT surfaces: at
10^12-turn scale the vocabulary is orders of magnitude smaller than the
mention stream, and every mention with the same norm joins the same cluster
by construction (node = hash(norm)). This is the engine's answer to the
reference re-embedding every duplicated passage independently
(/root/reference/BiEncoder/test_retrieval.py:43-49).
"""

from __future__ import annotations

import pyarrow as pa
from ray.data import Dataset

from chameleon_entity_linking_ray.functions.hashing import node_id
from chameleon_entity_linking_ray.stages.shuffle import bucketed


def add_node_column(text_col: str = "norm", out_col: str = "node",
                    source_col: str = "surface"):
    """Attach node = hash(norm). When the stream carries only ``surface``
    (the lean mention table — norm is derivable and skipped at
    materialize), norm is recomputed vectorized here and kept on the
    stream for downstream consumers."""

    def fn(batch: pa.Table) -> pa.Table:
        if text_col not in batch.column_names:
            from chameleon_entity_linking_ray.functions.text import normalize_array
            norm = normalize_array(batch.column(source_col))
            if isinstance(norm, pa.ChunkedArray):
                norm = norm.combine_chunks()
            batch = batch.append_column(text_col, norm)
        ids = node_id(batch.column(text_col).to_pylist())
        return batch.append_column(out_col, pa.array(ids, pa.int64()))

    return fn


def build_vocab(mentions: Dataset, text_col: str = "norm",
                num_buckets: int = 64) -> Dataset:
    """Distinct norms + occurrence counts, combiner form: each input block
    collapses to its own partial (norm, count) table BEFORE the shuffle, so
    the exchange moves ~n_blocks x vocab rows instead of every mention —
    the difference between shuffling 10^12 rows and 10^7 at target scale."""

    def combine(part: pa.Table) -> pa.Table:
        # (norm, n_mentions) summed per norm, in first-appearance order
        return part.group_by(text_col, use_threads=False) \
            .aggregate([("n_mentions", "sum")]) \
            .rename_columns([text_col, "n_mentions"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if batch.num_rows == 0:
            return pa.table({text_col: pa.array([], pa.string()),
                             "n_mentions": pa.array([], pa.int64())})
        if text_col in batch.column_names:
            vc = pc.value_counts(batch.column(text_col).combine_chunks())
            part = pa.table({text_col: vc.field("values"),
                             "n_mentions": vc.field("counts").cast(pa.int64())})
        else:
            # lean mention stream: count DISTINCT raw surfaces first (Arrow
            # C value_counts over the 60M-row stream), then normalize only
            # the per-block distinct values — orders of magnitude fewer
            # regex passes than normalizing every mention row, and no
            # Arrow->pandas object conversion of the wide stream
            from chameleon_entity_linking_ray.functions.text import normalize_array
            vc = pc.value_counts(batch.column("surface").combine_chunks())
            norm = normalize_array(vc.field("values"))
            if isinstance(norm, pa.ChunkedArray):
                norm = norm.combine_chunks()
            # distinct surfaces can share a norm -> re-aggregate by norm
            part = combine(pa.table({
                text_col: norm, "n_mentions": vc.field("counts").cast(pa.int64())}))
        return part

    vocab = bucketed(mentions.map_batches(partial, batch_format="pyarrow"),
                     [text_col], combine, num_buckets)
    return vocab.map_batches(add_node_column(text_col), batch_format="pyarrow")
