"""Model-backed retrieval pipeline (pipelines/retrieval.py): pinned
against a SINGLE-PROCESS recomputation with the same seeded weights —
corpus encode, flat-L2 top-k, 1/rank run scores, cross-encoder rerank —
so the distributed actor-pool + combiner dataflow is verified value-for-
value against the semantics of /root/reference/BiEncoder/test_retrieval.py
and /root/reference/CrossEncoder/test.py."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _local_reference(n_queries=24, top_k=10, q_tokens=6, snippet_tokens=10):
    """The reference flow, single process, same model classes."""
    import re

    from chameleon_entity_linking_ray.stages.model import ModelEmbedder

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    qdf = docs[docs["doc_id"] < n_queries].copy()
    qdf["query"] = qdf["text"].map(
        lambda t: " ".join(re.split(r"\s+", t.strip())[:q_tokens]))

    enc = ModelEmbedder()
    enc._embed_surfaces(docs["text"].tolist())
    cmat = np.stack([enc._emb_cache[t]
                     for t in docs["text"]]).astype(np.float64)
    enc._embed_surfaces(qdf["query"].tolist())
    qmat = np.stack([enc._emb_cache[t]
                     for t in qdf["query"]]).astype(np.float64)

    d2 = (np.einsum("ij,ij->i", cmat, cmat)[:, None]
          - 2.0 * (cmat @ qmat.T)
          + np.einsum("ij,ij->i", qmat, qmat)[None, :])
    pids = docs["doc_id"].to_numpy(np.int64)
    rows = []
    for j, (qid, qtext) in enumerate(zip(qdf["doc_id"], qdf["query"])):
        sel = np.lexsort((pids, d2[:, j]))[:top_k]
        for r, i in enumerate(sel, start=1):
            snip = " ".join(re.split(
                r"\s+", docs["text"].iloc[i].strip())[:snippet_tokens])
            rows.append((int(qid), int(pids[i]), r, 1.0 / r,
                         qtext, snip, float(d2[i, j])))
    return pd.DataFrame(rows, columns=["qid", "pid", "rank_bi", "score_bi",
                                       "query", "snippet", "dist"])


class TestModelRetrievalRun:
    def test_bi_stage_matches_local_flat_l2(self):
        from chameleon_entity_linking_ray.pipelines.retrieval import (
            model_retrieval_run)
        got = model_retrieval_run(SF, rerank=False).to_pandas() \
            .sort_values(["qid", "rank_bi"]).reset_index(drop=True)
        want = _local_reference().sort_values(["qid", "rank_bi"]) \
            .reset_index(drop=True)
        assert got["qid"].tolist() == want["qid"].tolist()
        assert got["pid"].tolist() == want["pid"].tolist()
        assert got["rank_bi"].tolist() == want["rank_bi"].tolist()
        assert np.allclose(got["score_bi"], want["score_bi"])

    def test_rerank_matches_local_cross_encoder(self):
        from chameleon_entity_linking_ray.pipelines.retrieval import (
            model_retrieval_run)
        from chameleon_entity_linking_ray.stages.model import (
            ModelPairScorer)
        import pyarrow as pa

        got = model_retrieval_run(SF).to_pandas() \
            .sort_values(["qid", "rank_ce"]).reset_index(drop=True)
        want = _local_reference()
        ce = ModelPairScorer(mode="cross", use_entity_markers=True)
        scored = ce(pa.table({"left_text": want["query"].tolist(),
                              "right_text": want["snippet"].tolist()}))
        want["score_ce"] = scored.column("score").to_numpy(
            zero_copy_only=False).astype(np.float64)
        want["tok_fallback"] = scored.column("tok_fallback") \
            .to_numpy(zero_copy_only=False)
        want = want.sort_values(["qid", "score_ce", "pid"],
                                ascending=[True, False, True],
                                kind="mergesort")
        want["rank_ce"] = want.groupby("qid").cumcount() + 1
        want = want.sort_values(["qid", "rank_ce"]).reset_index(drop=True)

        assert got["pid"].tolist() == want["pid"].tolist()
        assert got["rank_ce"].tolist() == want["rank_ce"].tolist()
        assert np.allclose(got["score_ce"], want["score_ce"], atol=1e-6)
        assert got["tok_fallback"].tolist() == \
            want["tok_fallback"].tolist()
        # both tokenizer branches must actually run (M6 + M7)
        assert got["tok_fallback"].any()
        assert (~got["tok_fallback"]).any()

    def test_documents_read_without_pandas_metadata(self):
        # the sf files carry b"pandas" schema metadata, which Ray cannot
        # hash when it batches the blocks; read_table drops it
        from chameleon_entity_linking_ray.pipelines.analytics import read_table
        import pyarrow as pa
        import ray

        want = pq.read_table(f"{SF}/documents.parquet")
        assert b"pandas" in want.schema.metadata
        for cols in (None, ["text", "doc_id"]):
            ds = read_table(SF, "documents", cols)
            got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
            assert ds.schema().base_schema.metadata is None
            assert got.schema.metadata is None
            assert got.equals(want.select(cols or want.column_names)
                              .replace_schema_metadata(None))

    def test_run_shape_invariants(self):
        from chameleon_entity_linking_ray.pipelines.retrieval import (
            model_retrieval_run)
        got = model_retrieval_run(SF).to_pandas()
        assert got.groupby("qid").size().eq(10).all()
        per_q = got.groupby("qid")["rank_ce"].apply(
            lambda s: sorted(s) == list(range(1, 11)))
        assert per_q.all()
        # score_bi is the reference's 1/rank run-file formula
        assert np.allclose(got["score_bi"], 1.0 / got["rank_bi"])
