"""Round-3 regression tests: output-order seam check and order pin,
empty-block/value-shape edge cases, float64 score cache parity."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from chameleon_entity_linking_ray.config import LinkageConfig
from chameleon_entity_linking_ray.pipelines.linkage import (
    _ends,
    _output_order,
    _seams_in_order,
    run_linkage,
)
from chameleon_entity_linking_ray.stages.agg import mean_pool_vectors
from chameleon_entity_linking_ray.stages import joins
from chameleon_entity_linking_ray.stages.fold import each
from chameleon_entity_linking_ray.stages.scoring import (
    edit_similarity,
    edit_similarity_batch,
)
from chameleon_entity_linking_ray.testing.synth import make_transcripts


@pytest.fixture
def sort_calls(monkeypatch):
    """The key lists of the ``Dataset.sort`` calls: which output tail ran
    (the bucketed shuffles sort on a single internal column name)."""
    calls = []
    real = rd.Dataset.sort

    def spy(self, key, *args, **kwargs):
        if isinstance(key, list):
            calls.append(key)
        return real(self, key, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "sort", spy)
    return calls


class TestOrderAuto:
    def test_range_partitioned_true_on_disjoint_blocks(self, sort_calls):
        # sorted, disjoint blocks pass the seam check: the per-block sort
        # is the output, no global sort runs
        a = pa.table({"k": ["a", "a", "b"], "t": [0, 1, 0]})
        b = pa.table({"k": ["c", "d"], "t": [5, 0]})
        ds = rd.from_arrow(a).union(rd.from_arrow(b))
        out = _output_order(ds, ["k", "t"])
        assert sort_calls == []
        assert [(r["k"], r["t"]) for r in out.take_all()] == \
            [("a", 0), ("a", 1), ("b", 0), ("c", 5), ("d", 0)]

    def test_range_partitioned_false_on_overlap(self, sort_calls):
        # overlapping blocks fail the seam check: the global sort runs
        a = pa.table({"k": ["a", "c"], "t": [0, 0]})
        b = pa.table({"k": ["b", "d"], "t": [0, 0]})
        ds = rd.from_arrow(a).union(rd.from_arrow(b))
        out = _output_order(ds, ["k", "t"])
        assert sort_calls == [["k", "t"]]
        assert [r["k"] for r in out.take_all()] == ["a", "b", "c", "d"]

    def test_ordered_materialize_keeps_logical_block_order(self, tmp_path):
        # The session fixture pins preserve_order=True; this test flips it
        # OFF to exercise the production default, where plain materialize()
        # stores blocks in completion order. The order pin must keep the
        # logical order (the probe passes) under that default — the
        # silent 4x flagship regression of the round was this probe failing
        # on a completion-ordered materialize and re-routing the flagship
        # onto the global sort. A checkpoint write must read back in
        # logical order too.
        from chameleon_entity_linking_ray.stages.order import in_logical_order
        from chameleon_entity_linking_ray.state.checkpoint import (
            CheckpointManager,
        )
        ctx = rd.DataContext.get_current()
        saved = ctx.execution_options.preserve_order
        ctx.execution_options.preserve_order = False
        try:
            import time as _t

            def slow_first(batch: pa.Table) -> pa.Table:
                # make low blocks finish LAST so completion order != logical
                if batch.column("k").to_pylist()[0] < 500:
                    _t.sleep(0.3)
                return batch

            ds = rd.from_arrow(pa.table({"k": list(range(1000))})) \
                .repartition(8).map_batches(slow_first, batch_format="pyarrow")
            m = in_logical_order(ds, rd.Dataset.materialize)
            assert m.num_blocks() == 8
            assert _seams_in_order(ray.get(each(m, _ends, ["k"]))) is True
            # the shared context flags were restored
            assert ds.context.execution_options.preserve_order is False
            assert m.context.execution_options.preserve_order is False

            back = CheckpointManager(str(tmp_path), "fp").save(
                "k", ds, ["input"], 0.0)
            assert back.take_all() == [{"k": i} for i in range(1000)]
            assert ds.context.execution_options.preserve_order is False
        finally:
            ctx.execution_options.preserve_order = saved

    def test_probe_reads_bounds_in_logical_order(self, monkeypatch):
        # Timing cannot make blocks finish out of order reliably (the test
        # above passes with or without the pin), so check the seam check's
        # plumbing instead: its per-block ``each`` tasks read the blocks of
        # the output that went through the order pin, as materialize.
        import chameleon_entity_linking_ray.pipelines.linkage as linkage
        real_pin, real_each = linkage.in_logical_order, linkage.each
        actions, pinned, read = [], [], []

        def pin(ds, action):
            actions.append(action)
            pinned.append(real_pin(ds, action))
            return pinned[-1]

        def each_spy(ds, fn, *args):
            read.append(ds)
            return real_each(ds, fn, *args)

        monkeypatch.setattr(linkage, "in_logical_order", pin)
        monkeypatch.setattr(linkage, "each", each_spy)
        a = pa.table({"k": ["a", "b"], "t": [0, 0]})
        b = pa.table({"k": ["c", "d"], "t": [0, 0]})
        out = _output_order(rd.from_arrow(a).union(rd.from_arrow(b)),
                            ["k", "t"])
        assert actions == [rd.Dataset.materialize]
        assert read == pinned == [out]

    def test_auto_falls_back_to_global_on_interleaved_input(
            self, sort_calls):
        transcripts, _ = make_transcripts(n_convs=30, n_entities=8, seed=7)
        perm = np.random.default_rng(0).permutation(transcripts.num_rows)
        shuffled = transcripts.take(pa.array(perm)) \
            .select(["conv_id", "turn_idx", "text"])
        ds = rd.from_arrow(shuffled).repartition(6)
        # batches below the block size keep the output in several blocks;
        # the default would coalesce this small input into one sorted block
        clustered, _ = run_linkage(ds, LinkageConfig(batch_size=32))
        assert sort_calls == [["conv_id", "turn_idx", "span_start"]]
        out = clustered.to_pandas()
        key = out[["conv_id", "turn_idx", "span_start"]]
        assert key.equals(
            key.sort_values(["conv_id", "turn_idx", "span_start"])
               .reset_index(drop=True))


class TestAnnotateOrder:
    def _run(self, transcripts_tbl):
        import ray.data as rd2
        from chameleon_entity_linking_ray.pipelines.linkage import (
            annotate_transcripts,
            run_linkage,
        )
        # batches below the block size keep the outputs in several blocks;
        # the default would coalesce this small input into one sorted block
        cfg = LinkageConfig(batch_size=32)
        ds = rd2.from_arrow(transcripts_tbl).repartition(4)
        clustered, _ = run_linkage(ds, cfg)
        return annotate_transcripts(ds, clustered, cfg).to_pandas()

    def test_partitioned_equals_global_on_sorted_input(self, sort_calls):
        # the seam check keeps the sorted turns on the per-block sort and
        # sends the permuted ones (mentions and turns) to the global sort
        transcripts, _ = make_transcripts(n_convs=25, n_entities=8, seed=5)
        tbl = transcripts.select(["conv_id", "turn_idx", "text"])
        perm = np.random.default_rng(3).permutation(tbl.num_rows)
        permuted = tbl.take(pa.array(perm))
        a = self._run(tbl)
        assert sort_calls == []
        b = self._run(permuted)
        assert sort_calls == [["conv_id", "turn_idx", "span_start"],
                              ["conv_id", "turn_idx"]]
        assert a[["conv_id", "turn_idx", "text"]].equals(
            b[["conv_id", "turn_idx", "text"]])
        assert a["entities"].map(list).tolist() == b["entities"].map(list).tolist()
        assert a["entities"].map(len).sum() > 0
        key = a[["conv_id", "turn_idx"]]
        assert key.equals(key.sort_values(["conv_id", "turn_idx"])
                          .reset_index(drop=True))

    def test_order_pinned_under_production_default(self, tmp_path):
        # The session fixture pins preserve_order=True; production runs
        # with it OFF, where blocks reach take_all and write_parquet in
        # completion order. The slow low-conv blocks run in an operator
        # that does not fuse with the annotate map (num_cpus differs), so
        # they finish last; the annotated turns must still come back in
        # (conv_id, turn_idx) order from a take_all and a written file set.
        # A batch size below the block size keeps one annotate task per
        # block; the default would coalesce this small input into one task.
        import time as _t

        import pyarrow.parquet as pq
        from chameleon_entity_linking_ray.pipelines.linkage import (
            annotate_transcripts,
        )
        transcripts, _ = make_transcripts(n_convs=40, n_entities=8, seed=5)
        tbl = transcripts.select(["conv_id", "turn_idx", "text"])
        cfg = LinkageConfig(batch_size=32)
        clustered, _ = run_linkage(rd.from_arrow(tbl), cfg)
        low = sorted(set(tbl.column("conv_id").to_pylist()))[10]

        def slow_low(batch: pa.Table) -> pa.Table:
            if batch.num_rows and batch.column("conv_id")[0].as_py() < low:
                _t.sleep(0.5)
            return batch

        ctx = rd.DataContext.get_current()
        saved = ctx.execution_options.preserve_order
        ctx.execution_options.preserve_order = False
        try:
            turns = rd.from_arrow(tbl).repartition(8).map_batches(
                slow_low, batch_format="pyarrow", num_cpus=0.5)
            out = annotate_transcripts(turns, clustered, cfg)
            out.write_parquet(str(tmp_path))
            rows = out.take_all()
        finally:
            ctx.execution_options.preserve_order = saved
        want = sorted(zip(tbl.column("conv_id").to_pylist(),
                          tbl.column("turn_idx").to_pylist()))
        back = pq.read_table(str(tmp_path))
        assert list(zip(back.column("conv_id").to_pylist(),
                        back.column("turn_idx").to_pylist())) == want
        assert [(r["conv_id"], r["turn_idx"]) for r in rows] == want

    def test_turns_without_mentions(self):
        from chameleon_entity_linking_ray.pipelines.linkage import (
            annotate_transcripts,
        )
        tbl = pa.table({"conv_id": ["b", "a", "b", "a"],
                        "turn_idx": pa.array([1, 0, 0, 1], pa.int32()),
                        "text": ["no names here", "all lower case",
                                 "", "nothing to link 42"]})
        ds = rd.from_arrow(tbl).repartition(2)
        clustered, _ = run_linkage(ds, LinkageConfig())
        out = pa.concat_tables(ray.get(annotate_transcripts(
            ds, clustered, LinkageConfig()).to_arrow_refs()))
        assert out.schema.field("entities").type == pa.list_(pa.struct([
            ("start", pa.int32()), ("end", pa.int32()),
            ("surface", pa.string()), ("cluster_id", pa.int64())]))
        assert out.column("entities").to_pylist() == [[]] * 4
        assert list(zip(out.column("conv_id").to_pylist(),
                        out.column("turn_idx").to_pylist())) == \
            [("a", 0), ("a", 1), ("b", 0), ("b", 1)]

    def test_rejects_clustered_from_another_config(self):
        # a higher rho threshold drops the short surfaces from `clustered`;
        # annotating under the default re-extracts them and must say so.
        # Ray Data re-raises the map's ValueError as a UserCodeException
        # that carries its message.
        from chameleon_entity_linking_ray.pipelines.linkage import (
            annotate_transcripts,
        )
        transcripts, _ = make_transcripts(n_convs=10, n_entities=5, seed=7)
        ds = rd.from_arrow(transcripts.select(["conv_id", "turn_idx", "text"]))
        clustered, _ = run_linkage(ds, LinkageConfig(rho_threshold=0.5))
        with pytest.raises(Exception,
                           match=r"ValueError: surface '.+' at \(conv_id"):
            annotate_transcripts(ds, clustered, LinkageConfig()).take_all()

    def test_lookup_collected_in_one_execution(self, monkeypatch):
        # the surface -> cluster_id table is a fold task over the
        # materialized `clustered`: annotating runs ONE execution (the
        # annotate map and its order tail), no distinct map and no schema
        # probe under a `limit` operator
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        from chameleon_entity_linking_ray.pipelines.linkage import (
            annotate_transcripts,
        )
        transcripts, _ = make_transcripts(n_convs=10, n_entities=5, seed=7)
        ds = rd.from_arrow(transcripts.select(["conv_id", "turn_idx", "text"]))
        clustered, _ = run_linkage(ds, LinkageConfig())

        def op_names(op) -> list[str]:
            return [op.name] + [n for d in op.input_dependencies
                                for n in op_names(d)]

        plans = []
        execute = StreamingExecutor.execute

        def spy(self, dag, *args, **kwargs):
            plans.append(op_names(dag))
            return execute(self, dag, *args, **kwargs)

        monkeypatch.setattr(StreamingExecutor, "execute", spy)
        out = annotate_transcripts(ds, clustered, LinkageConfig()).take_all()
        assert len(out) == transcripts.num_rows
        assert len(plans) == 1
        assert "MapBatches(annotate)" in " ".join(plans[0])
        assert "distinct" not in " ".join(plans[0])
        assert not [n for n in plans[0] if "limit" in n]

    def test_auto_falls_back_on_interleaved(self):
        transcripts, _ = make_transcripts(n_convs=25, n_entities=8, seed=5)
        perm = np.random.default_rng(3).permutation(transcripts.num_rows)
        tbl = transcripts.take(pa.array(perm)) \
            .select(["conv_id", "turn_idx", "text"])
        out = self._run(tbl)
        key = out[["conv_id", "turn_idx"]]
        assert key.equals(key.sort_values(["conv_id", "turn_idx"])
                          .reset_index(drop=True))


class TestEmptyBlocks:
    def test_mean_pool_survives_filtered_empty_blocks(self):
        tbl = pa.table({"g": [1, 1, 2], "v": [[1.0, 3.0], [3.0, 5.0], [2.0, 2.0]],
                        "keep": [True, True, False]})
        ds = rd.from_arrow(tbl).repartition(3).filter(lambda r: r["keep"])
        out = mean_pool_vectors(ds.drop_columns(["keep"]), "g", "v") \
            .to_pandas().sort_values(["g", "pos"]).reset_index(drop=True)
        assert out["mean_v"].tolist() == [2.0, 4.0]


SF = "/root/testdata/sf0.001"


class TestLshRecall:
    def test_minhash_equals_bruteforce_above_threshold(self):
        """LSH candidates + exact-Jaccard disposal == brute-force exact
        pairs at j>=0.5 (full recall on this corpus — the property the
        value oracle relies on)."""
        import duckdb
        from chameleon_entity_linking_ray.pipelines.corpus import (
            minhash_dup_pairs,
        )
        got = minhash_dup_pairs(SF).to_pandas() \
            .sort_values(["left_doc", "right_doc"]).reset_index(drop=True)
        gold = duckdb.sql(f"""
            WITH sets AS (SELECT doc_id, list_distinct([substring(text, i, 8)
                    FOR i IN generate_series(1, length(text)-7)]) sh
                FROM '{SF}/documents.parquet'),
            p AS (SELECT a.doc_id left_doc, b.doc_id right_doc,
                   ROUND(len(list_intersect(a.sh,b.sh))::DOUBLE /
                     GREATEST(len(a.sh)+len(b.sh)-len(list_intersect(a.sh,b.sh)),1),
                     6) jaccard
                  FROM sets a JOIN sets b ON a.doc_id < b.doc_id)
            SELECT * FROM p WHERE jaccard >= 0.5
            ORDER BY left_doc, right_doc""").df()
        assert got["left_doc"].tolist() == gold["left_doc"].tolist()
        assert got["right_doc"].tolist() == gold["right_doc"].tolist()
        assert np.allclose(got["jaccard"], gold["jaccard"], atol=1e-9)

    def test_embedding_lsh_equals_exact(self):
        from chameleon_entity_linking_ray.pipelines.corpus import (
            embedding_near_dups,
            embedding_near_dups_lsh,
        )
        exact = embedding_near_dups(SF).to_pandas() \
            .sort_values(["left_vec", "right_vec"]).reset_index(drop=True)
        lsh = embedding_near_dups_lsh(SF).to_pandas() \
            .sort_values(["left_vec", "right_vec"]).reset_index(drop=True)
        assert exact[["left_vec", "right_vec"]].equals(
            lsh[["left_vec", "right_vec"]])
        assert np.allclose(exact["cosine"], lsh["cosine"], atol=1e-9)


class TestPairFamilyOracle:
    def test_pair_operators_match_duckdb(self):
        """The candidate-pair operators (four on ``block_pairs``, plus the
        edit-distance join) against their DuckDB oracles — the default
        suite's gate for the pair family."""
        import sys
        from pathlib import Path
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
        from check_oracle import run_sweep

        assert run_sweep(SF, only={
            "minhash_dup_pairs", "ngram_jaccard_pairs",
            "embedding_near_dups_lsh", "tf_cosine_pairs",
            "edit_distance_pairs"}) == []


class TestMediaFormula:
    def test_decoded_mean_matches_closed_form(self):
        """encode->decode round trip: decoded mean equals the closed-form
        pixel mean computed WITHOUT the codec (what the SQL oracle does)."""
        import ray.data as rd2
        from chameleon_entity_linking_ray.stages.multimodal import (
            decode_media,
            media_from_keys,
        )
        keys = pa.table({"p_partkey": pa.array([1, 26, 260, 999], pa.int64())})
        out = decode_media(rd2.from_arrow(media_from_keys(keys)),
                           feature_dim=8).to_pandas() \
            .sort_values("media_id").reset_index(drop=True)
        assert (out["status"] == "ok").all()
        for _, row in out.iterrows():
            k = int(row["media_id"])
            w, h = 8 + k % 25, 8 + (k // 25) % 25
            want = float(np.mean((k + np.arange(w * h)) % 256))
            assert row["mean_intensity"] == want, k


class TestPprSeedExclusion:
    def test_matches_reference_argpartition_intent(self):
        """ppr top-k excludes the seed — the deterministic reading of the
        reference's argpartition[-(k+1):][:-1] (entity_expander.py:125):
        top k+1 by rank minus the seed (which personalization puts on top)."""
        import ray.data as rd2
        from chameleon_entity_linking_ray.stages.graph import (
            personalized_pagerank,
        )
        rng = np.random.RandomState(12)
        edges = {(int(a), int(b)) for a, b in rng.randint(0, 15, (50, 2))
                 if a != b}
        ds = rd2.from_items([{"src": a, "dst": b} for a, b in edges])
        k = 5
        ranks = personalized_pagerank(ds, [0], alpha=0.85, iters=15) \
            .to_pandas()
        got = set(ranks[ranks["node"] != 0]
                  .sort_values(["rank", "node"], ascending=[False, True])
                  .head(k)["node"])

        # dense reference semantics
        nodes = sorted({x for e in edges for x in e})
        idx = {x: i for i, x in enumerate(nodes)}
        A = np.zeros((len(nodes), len(nodes)))
        for a, b in edges:
            A[idx[b], idx[a]] = 1.0
        deg = A.sum(axis=0)
        restart = np.zeros(len(nodes))
        restart[idx[0]] = 1.0
        r = restart.copy()
        for _ in range(15):
            share = np.divide(r, deg, out=np.zeros_like(r), where=deg > 0)
            r = 0.85 * (A @ share + r[deg == 0].sum() * restart) + 0.15 * restart
        top_kp1 = set(np.argpartition(r, -(k + 1))[-(k + 1):])
        assert idx[0] in top_kp1, "seed must rank in top k+1 for the test"
        want = {nodes[i] for i in top_kp1} - {0}
        assert got == want


class TestNoDriverMaterializationCorpus:
    def test_expand_per_seed_and_near_dups_stay_off_driver(self, monkeypatch):
        """Regression for the two round-2 driver-materialization paths:
        expand_per_seed's CSR and embedding_near_dups' broadcast matrix are
        now assembled in worker tasks; with Dataset.to_pandas patched to
        raise, both pipelines must still run."""
        import ray.data as rdm
        from chameleon_entity_linking_ray.pipelines.corpus import (
            embedding_near_dups,
        )
        from chameleon_entity_linking_ray.stages.graph import expand_per_seed

        real = rdm.Dataset.to_pandas

        def boom(*a, **k):
            raise AssertionError("driver-side to_pandas in pipeline")

        with monkeypatch.context() as m:
            m.setattr(rdm.Dataset, "to_pandas", boom)
            ds = rdm.from_items([{"src": 0, "dst": 1}, {"src": 1, "dst": 2},
                                 {"src": 2, "dst": 0}])
            walked = expand_per_seed(ds, [0], k=3, mode="dfs").materialize()
            nd = embedding_near_dups(SF).materialize()
        wdf = real(walked)
        assert sorted(wdf["node"].tolist()) == [1, 2]  # both non-seed nodes
        assert len(real(nd)) > 0


class TestMeanPoolZerosFallback:
    def test_groups_without_vectors_emit_zero_vector(self):
        import ray.data as rd2
        from chameleon_entity_linking_ray.stages.agg import mean_pool_vectors
        vecs = rd2.from_arrow(pa.table({
            "g": pa.array([1, 1], pa.int64()),
            "v": [[2.0, 4.0], [4.0, 8.0]]}))
        groups = rd2.from_arrow(pa.table({"g": pa.array([1, 2, 3], pa.int64())}))
        out = mean_pool_vectors(vecs, "g", "v", all_groups=groups) \
            .to_pandas().sort_values(["g", "pos"]).reset_index(drop=True)
        assert out[out["g"] == 1]["mean_v"].tolist() == [3.0, 6.0]
        assert out[out["g"] == 2]["mean_v"].tolist() == [0.0, 0.0]
        assert out[out["g"] == 3]["mean_v"].tolist() == [0.0, 0.0]


class TestRealModelContract:
    def test_hf_tokenizer_actor_protocol(self):
        """Pins the M6/T1 real-model actor contract beyond the CPU analog
        (/root/reference/BiEncoder/model.py:68-166): a scorer-shaped actor
        whose __init__ loads an HF tokenizer once and whose __call__
        tokenizes an Arrow batch. Skips when transformers/weights are
        unavailable (this container is offline)."""
        transformers = pytest.importorskip("transformers")
        try:
            tok = transformers.AutoTokenizer.from_pretrained(
                "bert-base-uncased")
        except Exception:
            pytest.skip("no local HF weights / offline")

        class TokenizeStage:
            def __init__(self):
                self.tok = tok

            def __call__(self, batch: pa.Table) -> pa.Table:
                enc = self.tok(batch.column("text").to_pylist(),
                               truncation=True, max_length=32)
                n = [len(x) for x in enc["input_ids"]]
                return batch.append_column("n_wordpieces",
                                           pa.array(n, pa.int64()))

        stage = TokenizeStage()
        out = stage(pa.table({"text": ["hello world", "entity linking"]}))
        assert out.column("n_wordpieces").to_pylist()[0] > 2


class TestScoreCacheParity:
    def test_batch_bit_equal_to_scalar_float64(self):
        pairs = [("wayne", "wbyne"), ("ind", "industries"),
                 ("acme corp", "acme inc"), ("xyz", "xyz"),
                 ("globex", "gl0bex"), ("a", "ab")]
        batch = edit_similarity_batch([a for a, _ in pairs],
                                      [b for _, b in pairs])
        assert batch.dtype == np.float64
        for (a, b), v in zip(pairs, batch):
            assert v == edit_similarity(a, b), (a, b)


class TestAsofJoin:
    def test_matches_pandas_merge_asof_oracle(self, tmp_path):
        rng = np.random.default_rng(11)
        n_ev, n_ord, n_users = 400, 120, 25
        ev = pd.DataFrame({
            "event_id": np.arange(n_ev, dtype=np.int64),
            "ts": pd.to_datetime(
                rng.integers(1_600_000_000, 1_700_000_000, n_ev), unit="s"),
            "user_id": rng.integers(0, n_users, n_ev).astype(np.int64),
            "event_type": rng.choice(["view", "buy"], n_ev),
            "value": rng.random(n_ev),
            "props": [""] * n_ev,
        })
        od = pd.DataFrame({
            "o_orderkey": np.arange(n_ord, dtype=np.int64),
            "o_custkey": rng.integers(0, n_users, n_ord).astype(np.int64),
            "o_orderstatus": ["O"] * n_ord,
            "o_totalprice": rng.random(n_ord),
            "o_orderdate": pd.to_datetime(
                rng.integers(1_590_000_000, 1_695_000_000, n_ord),
                unit="s"),
            "o_orderpriority": ["1"] * n_ord,
        })
        sf = tmp_path / "sf"
        sf.mkdir()
        ev.to_parquet(sf / "events.parquet")
        od.to_parquet(sf / "orders.parquet")

        from chameleon_entity_linking_ray.pipelines.analytics import (
            asof_join_events_orders,
        )
        got = asof_join_events_orders(str(sf)).to_pandas() \
            .sort_values(["event_id"]).reset_index(drop=True)

        # pandas reference: dedupe orders per (user, second), backward asof
        odd = od.assign(order_ts_s=od["o_orderdate"].astype(np.int64)
                        // 1_000_000_000)
        odd = odd.groupby(["o_custkey", "order_ts_s"], as_index=False) \
            .agg(matched_order=("o_orderkey", "min")) \
            .rename(columns={"o_custkey": "user_id"})
        evv = ev.assign(ts_s=ev["ts"].astype(np.int64) // 1_000_000_000)
        ref = pd.merge_asof(
            evv.sort_values("ts_s", kind="mergesort"),
            odd.sort_values("order_ts_s", kind="mergesort"),
            left_on="ts_s", right_on="order_ts_s", by="user_id",
            direction="backward")
        ref = ref[ref["matched_order"].notna()].sort_values("event_id") \
            .reset_index(drop=True)
        assert got["event_id"].tolist() == ref["event_id"].tolist()
        assert got["matched_order"].tolist() == \
            ref["matched_order"].astype(np.int64).tolist()
        assert got["order_ts_s"].tolist() == \
            ref["order_ts_s"].astype(np.int64).tolist()


class TestSessionize:
    def test_matches_pandas_reference(self, tmp_path):
        rng = np.random.default_rng(23)
        n = 600
        ev = pd.DataFrame({
            "event_id": np.arange(n, dtype=np.int64),
            # coarse grid forces duplicate timestamps per user (ties)
            "ts": pd.to_datetime(
                rng.integers(0, 400, n) * 900 + 1_600_000_000, unit="s"),
            "user_id": rng.integers(0, 12, n).astype(np.int64),
            "event_type": ["view"] * n,
            "value": np.zeros(n),
            "props": [""] * n,
        })
        sf = tmp_path / "sf"
        sf.mkdir()
        ev.to_parquet(sf / "events.parquet")

        from chameleon_entity_linking_ray.pipelines.analytics import (
            sessionize_events,
        )
        got = sessionize_events(str(sf), gap_s=1800).to_pandas() \
            .sort_values(["user_id", "session_idx"]).reset_index(drop=True)

        rows = []
        e = ev.assign(ts_s=ev["ts"].astype(np.int64) // 1_000_000_000)
        for uid, sub in e.groupby("user_id"):
            ts = np.sort(sub["ts_s"].to_numpy())
            new = np.r_[True, (ts[1:] - ts[:-1]) > 1800]
            starts = np.flatnonzero(new)
            cnt = np.diff(np.r_[starts, len(ts)])
            for i, (s, c) in enumerate(zip(starts, cnt), 1):
                rows.append((uid, i, ts[s], c, ts[s + c - 1] - ts[s]))
        ref = pd.DataFrame(rows, columns=["user_id", "session_idx",
                                          "session_start_s", "n_events",
                                          "duration_s"])
        pd.testing.assert_frame_equal(
            got.astype(np.int64), ref.astype(np.int64))


class TestNoDriverMaterializationR3:
    """Round-3 fixes of the last two driver-materialization paths: the
    expand_per_seed CSR and the embedding_near_dups broadcast matrix are
    assembled in Ray tasks from block refs — with the bulk
    driver-materialization APIs patched to raise, both ops must complete."""

    def _patch(self, m):
        import ray.data as rdm

        def boom(*a, **k):
            raise AssertionError("driver-side materialization")

        m.setattr(rdm.Dataset, "to_pandas", boom)
        m.setattr(rdm.Dataset, "to_numpy_refs", boom)

    def test_expand_per_seed_csr_in_task(self, monkeypatch):
        from chameleon_entity_linking_ray.stages.graph import expand_per_seed
        edges = rd.from_items(
            [{"src": a, "dst": b} for a, b in
             [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]])
        with monkeypatch.context() as m:
            self._patch(m)
            out = expand_per_seed(edges, [0], k=3, mode="bfs").take_all()
        assert {r["node"] for r in out} == {1, 2, 3}

    def test_embedding_near_dups_broadcast_in_task(self, monkeypatch):
        from chameleon_entity_linking_ray.pipelines.corpus import (
            embedding_near_dups,
        )
        with monkeypatch.context() as m:
            self._patch(m)
            out = embedding_near_dups(SF).take_all()
        assert len(out) > 0
        assert all(r["left_vec"] < r["right_vec"] for r in out)


class TestExactJaccardPaths:
    def test_broadcast_equals_bucketed_join_path(self, monkeypatch):
        import ray.data as rdm
        from chameleon_entity_linking_ray.pipelines.corpus import (
            exact_jaccard_filter,
            read_table,
        )
        docs = read_table(SF, "documents", ["doc_id", "text"]).materialize()
        ids = [r["doc_id"] for r in
               docs.select_columns(["doc_id"]).take(40)]
        cand = rdm.from_items(
            [{"left_doc": min(a, b), "right_doc": max(a, b)}
             for a, b in zip(ids[:20], ids[20:40]) if a != b])
        bc = exact_jaccard_filter(cand, docs, 8, 0.0).to_pandas() \
            .sort_values(["left_doc", "right_doc"]).reset_index(drop=True)
        monkeypatch.setattr(joins, "BROADCAST_ROWS", 0)
        jn = exact_jaccard_filter(cand, docs, 8, 0.0).to_pandas() \
            .sort_values(["left_doc", "right_doc"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(bc, jn)
        assert len(bc) == 20
