"""Grouped IR metric aggregate (SURVEY.md A5) — the engine form of
``ir_measures.calc_aggregate([nDCG@10, P@10, AP@10, RR@10, R@10], qrels,
run)`` that closes every reference test script
(/root/reference/BiEncoder/test.py:134-137, CrossEncoder/test.py:114-117,
Fully/test.py:128-131).

Shape: run(qid, pid, score) x qrels(qid, pid, rel) -> per-query metrics via
one ``shuffle.bucketed`` stage on qid (each bucket computes ALL its queries
vectorized with numpy — ranking by (score desc, pid asc), binary
relevance), then a combiner mean -> ONE global row. At 100 TB the shuffle
moves only (qid, pid, score, rel) tuples.

Metric definitions (binary rel, cutoff k, ties broken by pid asc —
identical arithmetic in the DuckDB oracle in ``__ray_entry__.py``):
  P@k    = (# relevant in top-k) / k
  R@k    = (# relevant in top-k) / max(1, # relevant for qid)
  RR@k   = 1 / rank of first relevant within top-k, else 0
  AP@k   = sum_{i<=k, rel_i} P@i / max(1, # relevant for qid)
  nDCG@k = DCG@k / IDCG@k;  DCG = sum rel_i/log2(i+1),
           IDCG = sum_{i=1..min(k, #rel)} 1/log2(i+1)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from chameleon_entity_linking_ray.stages.agg import grouped_agg
from chameleon_entity_linking_ray.stages.joins import hash_join
from chameleon_entity_linking_ray.stages.shuffle import bucketed


def _per_query_metrics(g: pa.Table, k: int) -> pa.Table:
    """All queries of one bucket, vectorized: sort once by (qid, -score,
    pid), then segment arithmetic per qid run."""
    g = g.sort_by([("qid", "ascending"), ("score", "descending"),
                   ("pid", "ascending")])
    qid = g["qid"].to_numpy()
    rel = g["rel"].to_numpy().astype(np.float64)
    # qrels-only docs (not retrieved by the run) sort last (-inf score);
    # they count in recall/AP denominators but can never be hits
    retrieved = g["retrieved"].to_numpy()
    # per-qid run boundaries + within-run rank
    new_q = np.r_[True, qid[1:] != qid[:-1]]
    run_id = np.cumsum(new_q) - 1
    starts = np.flatnonzero(new_q)
    rank = np.arange(len(g), dtype=np.int64) - starts[run_id] + 1

    n_rel_total = np.bincount(run_id, weights=rel)
    in_k = (rank <= k) & retrieved
    n_rel_k = np.bincount(run_id, weights=rel * in_k)

    qk = np.maximum(1.0, n_rel_total)
    p_at_k = n_rel_k / k
    r_at_k = n_rel_k / qk

    # RR@k: first relevant rank within top-k
    rr_cand = np.where((rel > 0) & in_k, rank, np.iinfo(np.int64).max)
    first = np.full(len(starts), np.iinfo(np.int64).max, np.int64)
    np.minimum.at(first, run_id, rr_cand)
    rr = np.where(first <= k, 1.0 / np.maximum(first, 1), 0.0)

    # AP@k: sum over relevant i<=k of P@i = (cumulative rel)/rank
    total = np.cumsum(rel)
    run_offset = np.where(starts > 0, total[np.maximum(starts - 1, 0)], 0.0)
    cumrel = total - run_offset[run_id]
    p_at_i = cumrel / rank
    ap = np.bincount(run_id, weights=p_at_i * rel * in_k) / qk

    # nDCG@k
    dcg = np.bincount(run_id, weights=rel * in_k / np.log2(rank + 1))
    ideal_n = np.minimum(n_rel_total, k).astype(np.int64)
    max_n = int(ideal_n.max()) if len(ideal_n) else 0
    ideal_cum = np.r_[0.0, np.cumsum(1.0 / np.log2(np.arange(1, max_n + 1) + 1))]
    idcg = ideal_cum[ideal_n]
    ndcg = np.divide(dcg, idcg, out=np.zeros_like(dcg), where=idcg > 0)

    return pa.table({
        "qid": qid[starts],
        "ndcg": ndcg, "p_at_k": p_at_k, "ap": ap, "rr": rr, "r_at_k": r_at_k,
    })


def per_query_ir_metrics(run: Dataset, qrels: Dataset | None, k: int = 10,
                         num_buckets: int = 16) -> Dataset:
    """(qid, ndcg, p_at_k, ap, rr, r_at_k) — one row per qid in the run.
    qrels rows not in the run still count toward recall/AP denominators via
    a full outer join per qid (un-run relevant docs are never hits).

    Pass ``qrels=None`` when the run already carries a ``rel`` column
    (qrels ⊆ run, e.g. relevance derivable from the scored rows): the
    full-outer join — the expensive step — is skipped entirely."""
    if qrels is None:
        j = run
    else:
        j = hash_join(run, qrels, on=("qid", "pid"), join_type="full_outer",
                      num_partitions=num_buckets)

    def clean(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        rel = pc.fill_null(batch.column("rel"), 0)
        retrieved = pc.is_valid(batch.column("score"))
        # rows only in qrels (no run score) rank last: -inf score
        score = pc.fill_null(batch.column("score"), float("-inf"))
        return pa.table({"qid": batch.column("qid"),
                         "pid": batch.column("pid"),
                         "score": score, "rel": pc.cast(rel, pa.float64()),
                         "retrieved": retrieved})

    return bucketed(j.map_batches(clean, batch_format="pyarrow"), ["qid"],
                    lambda g: _per_query_metrics(g, k), num_buckets)


def ir_metrics_aggregate(run: Dataset, qrels: Dataset | None, k: int = 10,
                         num_buckets: int = 16, round_to: int = 6) -> Dataset:
    """ONE row of global means over per-query metrics — the
    ``calc_aggregate`` analog. Combiner form: per-bucket partial sums,
    one tiny final combine."""
    import ray.data

    per_q = per_query_ir_metrics(run, qrels, k, num_buckets)
    cols = ["ndcg", "p_at_k", "ap", "rr", "r_at_k"]

    # round PER-QUERY metrics first: both engines then average identical
    # 1e-6-granular values, so cross-engine float drift cannot reach the
    # rounded global mean
    def round_cols(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        for c in cols:
            df[c] = np.round(df[c].astype(np.float64), round_to)
        return df

    per_q = per_q.map_batches(round_cols, batch_format="pandas")
    sums = grouped_agg(
        per_q.map_batches(
            lambda b: b.append_column("__one", pa.array([0] * b.num_rows,
                                                        pa.int8())),
            batch_format="pyarrow"),
        keys=["__one"],
        aggs={**{c: (c, "sum") for c in cols},
              "n_queries": (None, "count")}).to_pandas()
    n = max(1, int(sums["n_queries"].iloc[0])) if len(sums) else 1
    out = {c: pa.array([round(float(sums[c].iloc[0]) / n, round_to)
                        if len(sums) else 0.0], pa.float64()) for c in cols}
    out["n_queries"] = pa.array([int(sums["n_queries"].iloc[0])
                                 if len(sums) else 0], pa.int64())
    return ray.data.from_arrow(pa.table(out))
