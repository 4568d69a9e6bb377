"""Output checks run on every benchmark job, in the driver, on Arrow tables.

Each ``check_*`` function raises ``VerificationError`` on the first broken
invariant and otherwise returns the figures the benchmark reports.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MENTION_KEYS = ["conv_id", "turn_idx", "span_start"]


class VerificationError(AssertionError):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise VerificationError(msg)


def _codes(col) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return np.asarray(pc.dictionary_encode(arr).indices, np.int64)


def _pairs(counts: np.ndarray) -> int:
    c = counts.astype(np.int64)
    return int((c * (c - 1) // 2).sum())


def pairwise_f1(pred, truth) -> float:
    """Pairwise F1 of two labelings of the same items, from contingency
    counts: linear in the number of items however large a cluster gets."""
    p, t = _codes(pred), _codes(truth)
    _require(len(p) == len(t), "labelings differ in length")
    if len(p) == 0:
        return 1.0
    tp = _pairs(np.unique(p * (t.max() + 1) + t, return_counts=True)[1])
    pred_pairs = _pairs(np.bincount(p))
    true_pairs = _pairs(np.bincount(t))
    if pred_pairs == 0 and true_pairs == 0:
        return 1.0
    prec = tp / pred_pairs if pred_pairs else 1.0
    rec = tp / true_pairs if true_pairs else 1.0
    return 0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec)


def largest_share(labels) -> float:
    c = np.bincount(_codes(labels))
    return float(c.max() / c.sum()) if len(c) else 0.0


def _is_sorted(table: pa.Table, keys: list[str]) -> bool:
    idx = np.asarray(pc.sort_indices(
        table, sort_keys=[(k, "ascending") for k in keys]))
    return bool(np.array_equal(idx, np.arange(table.num_rows)))


def mention_ids(table: pa.Table) -> pa.Array:
    return pc.binary_join_element_wise(
        pc.cast(table.column("conv_id"), pa.string()),
        pc.cast(table.column("turn_idx"), pa.string()),
        pc.cast(table.column("span_start"), pa.string()), ":").combine_chunks()


def check_mentions(out: pa.Table, truth: pa.Table) -> dict:
    """Clustered mentions (conv_id, turn_idx, span_start, surface,
    cluster_id) against the planted truth."""
    from chameleon_entity_linking_ray.functions.text import normalize_array

    ids = mention_ids(out)
    _require(pc.count_distinct(ids).as_py() == len(ids),
             "duplicate mention ids in output")
    order = pc.sort_indices(ids)
    t_ids = truth.column("mention_id").combine_chunks()
    t_order = pc.sort_indices(t_ids)
    _require(ids.take(order).equals(t_ids.take(t_order)),
             f"mention_id set differs from truth ({len(ids)} vs {len(t_ids)})")
    _require(_is_sorted(out, MENTION_KEYS),
             "output not sorted by (conv_id, turn_idx, span_start)")

    cluster = out.column("cluster_id").combine_chunks()
    norm = normalize_array(out.column("surface"))
    per_norm = pa.table({"norm": norm, "c": cluster}).group_by("norm") \
        .aggregate([("c", "count_distinct")])
    _require(pc.max(per_norm.column("c_count_distinct")).as_py() == 1,
             "mentions sharing a norm were given different clusters")

    entity = truth.column("entity_id").combine_chunks().take(t_order)
    f1 = pairwise_f1(cluster.take(order), entity)
    return {"pairwise_f1": f1, "rows": out.num_rows,
            "largest_share": largest_share(cluster)}


def flatten_entities(annotated: pa.Table) -> pa.Table:
    """One row per entity of the annotated turns, in output order."""
    ents = annotated.column("entities").combine_chunks()
    lens = np.asarray(pc.list_value_length(ents).fill_null(0), np.int64)
    parent = pa.array(np.repeat(np.arange(annotated.num_rows), lens))
    flat = pc.list_flatten(ents)
    return pa.table({
        "conv_id": annotated.column("conv_id").take(parent),
        "turn_idx": annotated.column("turn_idx").take(parent),
        "span_start": flat.field("start"),
        "surface": flat.field("surface"),
        "cluster_id": flat.field("cluster_id"),
    })


def check_annotated(out: pa.Table, turns: pa.Table, truth: pa.Table) -> dict:
    """Annotated turns: one row per input turn in (conv_id, turn_idx)
    order, text byte-identical to the input, one entity per mention; the
    entities then pass ``check_mentions``."""
    _require(out.num_rows == turns.num_rows,
             f"{out.num_rows} output turns for {turns.num_rows} input turns")
    _require(_is_sorted(out, ["conv_id", "turn_idx"]),
             "annotated turns not sorted by (conv_id, turn_idx)")
    want = turns.take(pc.sort_indices(
        turns, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]))
    for col in ("conv_id", "turn_idx", "text"):
        _require(out.column(col).combine_chunks().equals(
            want.column(col).combine_chunks()),
            f"column {col!r} differs from the input turns")
    mentions = flatten_entities(out)
    _require(mentions.num_rows == truth.num_rows,
             f"{mentions.num_rows} entities for {truth.num_rows} mentions")
    return check_mentions(mentions, truth)
