"""Tests for the query layer: partial aggregation, bucketed joins,
corpus ops (dedup / text analysis / ANN), multimodal plumbing, and the
distributed synth source."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from chameleon_entity_linking_ray.stages.agg import (
    distinct,
    embedding_matrix,
    grouped_agg,
    grouped_top_k,
    top_k,
)
from chameleon_entity_linking_ray.stages.joins import hash_join


@pytest.fixture(scope="module")
def sales():
    rng = np.random.RandomState(3)
    n = 5000
    return pd.DataFrame({
        "k": rng.randint(0, 7, n),
        "g": rng.choice(list("abc"), n),
        "v": rng.randint(0, 1000, n).astype(np.int64),
    })


class TestGroupedAgg:
    def test_matches_pandas(self, sales):
        ds = rd.from_pandas(sales)
        got = grouped_agg(ds, ["k", "g"], {
            "total": ("v", "sum"), "n": (None, "count"),
            "lo": ("v", "min"), "hi": ("v", "max")}).to_pandas()
        want = sales.groupby(["k", "g"]).agg(
            total=("v", "sum"), n=("v", "size"),
            lo=("v", "min"), hi=("v", "max")).reset_index()
        got = got.sort_values(["k", "g"]).reset_index(drop=True)[want.columns.tolist()]
        want = want.sort_values(["k", "g"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_distinct(self, sales):
        ds = rd.from_pandas(sales)
        got = distinct(ds, ["k", "g"]).to_pandas()
        assert len(got) == len(sales[["k", "g"]].drop_duplicates())

    def test_output_blocks_are_arrow_with_the_keys(self, sales):
        """grouped_agg and distinct combine in Arrow: every block is an
        Arrow table, and every block with rows carries the key columns
        (an empty shuffle partition stays a column-less empty block —
        Ray calls no UDF on it)."""
        ds = rd.from_pandas(sales).repartition(4)
        for out in (grouped_agg(ds, ["g"], {"n": (None, "count")}),
                    distinct(ds, ["g"])):
            blocks = [ray.get(ref) for bundle in
                      out.materialize().iter_internal_ref_bundles()
                      for ref, _ in bundle.blocks]
            assert all(isinstance(b, pa.Table) for b in blocks)
            full = [b for b in blocks if b.num_rows]
            assert full and all("g" in b.column_names for b in full)

    def test_top_k(self, sales):
        ds = rd.from_pandas(sales)
        got = top_k(ds, by=["v", "k"], ascending=[False, True], k=10).to_pandas()
        want = sales.sort_values(["v", "k"], ascending=[False, True]).head(10)
        assert got["v"].tolist() == want["v"].tolist()

    def test_grouped_top_k_rank(self, sales):
        ds = rd.from_pandas(sales)
        got = grouped_top_k(ds, ["g"], by=["v"], ascending=[False], k=3,
                            rank_col="rnk").to_pandas()
        assert set(got["rnk"]) == {1, 2, 3}
        for g, sub in got.groupby("g"):
            want = sales[sales["g"] == g].nlargest(3, "v")["v"].tolist()
            assert sorted(sub["v"].tolist(), reverse=True) == want


class TestEmbeddingMatrix:
    """``embedding_matrix`` reads the flat child values; it must give what
    stacking the per-row Python lists gave."""

    ROWS = [[0.5, -1.25, 3.0], [2.0, 0.0, -0.75], [1e-3, 7.5, 4.25],
            [-2.5, 1.0, 0.125]]

    @pytest.mark.parametrize("typ", [pa.list_(pa.float32()),
                                     pa.list_(pa.float64()),
                                     pa.list_(pa.float32(), 3)])
    def test_matches_stacked_rows(self, typ):
        arr = pa.array(self.ROWS, typ)
        want = np.stack(arr.to_pylist()).astype(np.float64)
        got = embedding_matrix(arr)
        assert got.dtype == np.float64 and got.flags.writeable
        assert np.array_equal(got, want)
        # chunked, with sliced chunks (their child values start mid-buffer)
        chunked = pa.chunked_array([arr.slice(1, 2), arr.slice(0, 1),
                                    arr.slice(3)])
        assert np.array_equal(embedding_matrix(chunked), want[[1, 2, 0, 3]])

    def test_empty_batch(self):
        assert embedding_matrix(pa.array([], pa.list_(pa.float32(), 4))).shape == (0, 4)
        assert embedding_matrix(pa.chunked_array([], pa.list_(pa.float64()))).shape == (0, 0)

    def test_rejects_ragged_or_null_rows(self):
        with pytest.raises(ValueError, match="widths"):
            embedding_matrix(pa.array([[1.0, 2.0], [3.0]]))
        with pytest.raises(ValueError, match="null"):
            embedding_matrix(pa.array([[1.0], None]))


class TestHashJoin:
    def test_inner_and_left(self):
        left = rd.from_items([{"k": i, "a": i * 2} for i in range(100)])
        right = rd.from_items([{"k": i, "b": i * 3} for i in range(0, 100, 2)])
        inner = hash_join(left, right, on=("k",), join_type="inner").to_pandas()
        assert len(inner) == 50
        assert (inner["b"] == inner["k"] * 3).all()
        louter = hash_join(left, right, on=("k",), join_type="left_outer").to_pandas()
        assert len(louter) == 100
        assert louter["b"].isna().sum() == 50

    def test_string_keys_and_rename(self):
        left = rd.from_items([{"name": f"x{i}", "v": i} for i in range(20)])
        right = rd.from_items([{"id": f"x{i}", "v": -i} for i in range(10)])
        j = hash_join(left, right, on=("name",), right_on=("id",),
                      join_type="inner").to_pandas()
        assert len(j) == 10
        assert "v_r" in j.columns
        assert (j["v"] == -j["v_r"]).all()

    def test_duplicate_keys_cross_product(self):
        left = rd.from_items([{"k": 1, "a": i} for i in range(3)])
        right = rd.from_items([{"k": 1, "b": i} for i in range(4)])
        j = hash_join(left, right, on=("k",), join_type="inner").to_pandas()
        assert len(j) == 12


SF = "/root/testdata/sf0.001"


class TestCorpusOps:
    def test_doc_tokens_deterministic(self):
        from chameleon_entity_linking_ray.pipelines.corpus import doc_tokens
        a = doc_tokens(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
        b = doc_tokens(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert a.equals(b)
        assert (a["n_tokens"] > 0).all()

    def test_dedup_exact_keeps_min(self):
        import pyarrow.parquet as pq
        from chameleon_entity_linking_ray.pipelines.corpus import dedup_exact
        got = dedup_exact(SF).to_pandas()
        docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
        want = docs.groupby("text")["doc_id"].min()
        assert len(got) == len(want)
        merged = got.set_index("text")["keep_id"]
        assert (merged.sort_index() == want.sort_index()).all()

    def test_minhash_finds_planted_near_dups(self):
        """Plant true near-duplicates; LSH must surface them."""
        from chameleon_entity_linking_ray.config import LinkageConfig
        from chameleon_entity_linking_ray.functions.minhash import (
            lsh_band_keys, minhash_signatures)
        texts = ["the quick brown fox jumps over the lazy dog " * 3,
                 "the quick brown fox jumps over the lazy dogs " * 3,
                 "completely different content about ray data engines"]
        c = LinkageConfig()
        sigs = minhash_signatures(texts, c.shingle_k, c.num_perm, c.minhash_seed)
        keys = lsh_band_keys(sigs, c.num_bands, c.minhash_seed)
        shared01 = (keys[0] == keys[1]).sum()
        shared02 = (keys[0] == keys[2]).sum()
        assert shared01 > 0 and shared02 == 0

    def test_ann_topk_matches_bruteforce(self):
        import pyarrow.parquet as pq
        from chameleon_entity_linking_ray.pipelines.corpus import ann_topk
        got = ann_topk(SF, n_queries=3, k=4).to_pandas()
        emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
        mat = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
        mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        ids = emb["vec_id"].to_numpy()
        for q in range(3):
            qi = np.flatnonzero(ids == q)[0]
            scores = mat @ mat[qi]
            scores[qi] = -np.inf
            want = ids[np.argsort(-scores)[:4]]
            sub = got[got["query_id"] == q].sort_values("rnk")
            assert sub["vec_id"].tolist() == want.tolist()

    def test_ann_lsh_topk_axis_matches_bucket_bruteforce(self):
        """Axis-plane mode: buckets = sign pattern of the leading coords;
        output must equal exact within-bucket top-k (the value-oracle
        contract in __ray_entry__._ann_lsh_sql)."""
        import pyarrow.parquet as pq
        from chameleon_entity_linking_ray.pipelines.corpus import ann_lsh_topk
        got = ann_lsh_topk(SF, n_queries=3, k=4, n_planes=6).to_pandas()
        emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
        mat = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
        mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        ids = emb["vec_id"].to_numpy()
        bucket = ((mat[:, :6] > 0) << np.arange(6)).sum(axis=1)
        for q in range(3):
            qi = np.flatnonzero(ids == q)[0]
            mask = (bucket == bucket[qi]) & (ids != q)
            cids, cscores = ids[mask], mat[mask] @ mat[qi]
            order = np.lexsort((cids, -cscores))[:4]
            sub = got[got["query_id"] == q].sort_values("rnk")
            assert sub["vec_id"].tolist() == cids[order].tolist()

    def test_ann_lsh_topk_random_mode_runs(self):
        from chameleon_entity_linking_ray.pipelines.corpus import ann_lsh_topk
        out = ann_lsh_topk(SF, n_queries=2, k=3, planes="random").to_pandas()
        assert set(out.columns) == {"query_id", "vec_id", "rnk"}
        assert (out.groupby("query_id")["rnk"].max() <= 3).all()

    def test_simhash_near_dup_small_hamming(self):
        from chameleon_entity_linking_ray.pipelines.corpus import simhash_docs
        out = simhash_docs(SF).to_pandas()
        assert len(out) == 500
        assert out["simhash"].nunique() > 1


class TestMultimodal:
    def test_real_decode_matches_source_pixels(self):
        from chameleon_entity_linking_ray.stages.multimodal import (
            decode_bmp, decode_media, synth_media)
        import numpy as np
        media = synth_media(50, seed=7)
        ds = rd.from_arrow(media)
        out = decode_media(ds, feature_dim=8, concurrency=2).to_pandas()
        assert len(out) == 50
        assert set(out.columns) == {"media_id", "mean_intensity", "feature",
                                    "status"}
        assert (out["status"] == "ok").all()
        assert all(len(f) == 8 for f in out["feature"])
        # spot-check: mean_intensity equals the luminance mean of the
        # actual BMP pixels (real decode, not a byte fake)
        out = out.sort_values("media_id").reset_index(drop=True)
        for i in (0, 13, 49):
            px = decode_bmp(media.column("payload")[i].as_py())
            assert out["mean_intensity"][i] == pytest.approx(px.mean(),
                                                             abs=1e-3)
        out2 = decode_media(rd.from_arrow(media), feature_dim=8,
                            concurrency=2).to_pandas() \
            .sort_values("media_id").reset_index(drop=True)
        assert (out["mean_intensity"] == out2["mean_intensity"]).all()

    def test_wav_roundtrip_and_audio_decode(self):
        from chameleon_entity_linking_ray.stages.multimodal import (
            decode_media, decode_wav, encode_wav, synth_media)
        import numpy as np
        wave = (np.sin(np.arange(500) / 7.0) * 9000).astype(np.int16)
        got, rate = decode_wav(encode_wav(wave, 8000))
        assert rate == 8000 and (got == wave).all()
        out = decode_media(rd.from_arrow(synth_media(12, seed=3, kind="audio")),
                           concurrency=2).to_pandas()
        assert (out["status"] == "ok").all() and len(out) == 12

    def test_dead_letter_on_bad_payload(self):
        import pyarrow as pa
        from chameleon_entity_linking_ray.stages.multimodal import (
            decode_media, synth_media)
        tbl = synth_media(4, seed=7)
        bad = tbl.set_column(2, "payload",
                             pa.array([b"\x00garbage"] * 4, pa.binary()))
        out = decode_media(rd.from_arrow(bad), concurrency=2).to_pandas()
        assert out["status"].str.startswith("decode_error").all()

    def test_frame_sampler_real_frames(self):
        from chameleon_entity_linking_ray.stages.multimodal import (
            decode_bmp, sample_frames, synth_media)
        ds = rd.from_arrow(synth_media(10, kind="video", seed=11))
        out = sample_frames(ds, n_frames=2).to_pandas()
        assert (out["status"] == "ok").all()
        assert out.groupby("media_id").size().between(1, 2).all()
        px = decode_bmp(out["frame_payload"].iloc[0])
        assert px.ndim == 2 and px.size > 0


class TestSynthSource:
    def test_partitioning_invariant(self):
        """Same (seed, conv) content no matter how many blocks generate it."""
        from chameleon_entity_linking_ray.sources.synth import synth_transcripts
        a = synth_transcripts(40, n_entities=10, seed=5, num_blocks=2) \
            .to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
        b = synth_transcripts(40, n_entities=10, seed=5, num_blocks=13) \
            .to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
        assert a.equals(b)
        assert a["conv_id"].nunique() == 40
