"""Sorted-Neighborhood blocking (stages/blocking.py:sorted_neighborhood_pairs)."""

import numpy as np
import pandas as pd
import pytest
import pyarrow as pa


def _brute_snm(df: pd.DataFrame, window: int) -> set[tuple[int, int]]:
    s = df.sort_values(["key", "id"], kind="mergesort").reset_index(drop=True)
    ids = s["id"].to_numpy()
    out = set()
    for j in range(len(ids)):
        for i in range(max(0, j - window + 1), j):
            out.add((int(ids[i]), int(ids[j])))
    return out


class TestSortedNeighborhood:
    @pytest.mark.parametrize("window", [2, 4, 7])
    def test_matches_bruteforce_multiblock(self, window):
        import ray.data as rd
        from chameleon_entity_linking_ray.stages.blocking import (
            sorted_neighborhood_pairs,
        )
        rng = np.random.default_rng(41)
        n = 300
        # duplicate keys on purpose: the id tie-break must make the pair
        # set deterministic
        keys = [f"k{rng.integers(0, 80):03d}" for _ in range(n)]
        df = pd.DataFrame({"id": np.arange(n, dtype=np.int64), "key": keys})
        shuffled = df.sample(frac=1.0, random_state=7).reset_index(drop=True)
        ds = rd.from_pandas(shuffled).repartition(11)
        got = sorted_neighborhood_pairs(ds, key_col="key", id_col="id",
                                        window=window).to_pandas()
        got_set = set(zip(got["left_id"].astype(int),
                          got["right_id"].astype(int)))
        assert got_set == _brute_snm(df, window)
        # exactly one row per in-window pair (no dupes across blocks)
        assert len(got) == len(got_set)

    def test_left_is_sort_earlier(self):
        import ray.data as rd
        from chameleon_entity_linking_ray.stages.blocking import (
            sorted_neighborhood_pairs,
        )
        # keys sort AGAINST id order: left_id > right_id is legitimate
        df = pd.DataFrame({"id": np.arange(5, dtype=np.int64),
                           "key": ["e", "d", "c", "b", "a"]})
        got = sorted_neighborhood_pairs(rd.from_pandas(df), "key", "id",
                                        window=2).to_pandas() \
            .sort_values(["left_id", "right_id"]).reset_index(drop=True)
        assert got["left_id"].tolist() == [1, 2, 3, 4]
        assert got["right_id"].tolist() == [0, 1, 2, 3]

    def test_window_must_be_ge_2(self):
        import ray.data as rd
        from chameleon_entity_linking_ray.stages.blocking import (
            sorted_neighborhood_pairs,
        )
        df = pd.DataFrame({"id": [1], "key": ["a"]})
        with pytest.raises(ValueError):
            sorted_neighborhood_pairs(rd.from_pandas(df), "key", "id",
                                      window=1)


class TestRerankBM25:
    def test_composition_invariants(self):
        from chameleon_entity_linking_ray.pipelines.corpus import (
            BM25_QUERIES, bm25_topk, rerank_bm25,
        )
        sf = "/root/testdata/sf0.001"
        got = rerank_bm25(sf, k_retrieve=50, k_final=10).to_pandas()
        cand = bm25_topk(sf, k=50).to_pandas()
        cand_set = set(zip(cand["query_id"], cand["doc_id"]))
        for q in BM25_QUERIES:
            g = got[got["query_id"] == q].sort_values("rnk")
            assert g["rnk"].tolist() == list(range(1, len(g) + 1))
            assert len(g) <= 10
            # rerank is non-increasing down the ranking
            rr = g["rerank"].to_numpy()
            assert (rr[:-1] >= rr[1:]).all()
        # every reranked (q, doc) came out of the retrieve stage
        assert set(zip(got["query_id"], got["doc_id"])) <= cand_set
        # the blend is the documented 0.9/0.1 mix of its own columns
        # (rounded at 6dp; bm25 is already 6dp-rounded)
        import numpy as np
        lo = 0.9 * got["bm25"] + 0.1 * (got["jac"] - 5e-7)
        hi = 0.9 * got["bm25"] + 0.1 * (got["jac"] + 5e-7)
        assert ((got["rerank"] >= np.round(lo, 6) - 1e-6)
                & (got["rerank"] <= np.round(hi, 6) + 1e-6)).all()


class TestFunnelEvents:
    def test_strict_order_and_ties(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            funnel_events,
        )
        # u0: full funnel in order; u1: purchase BEFORE click (depth 2);
        # u2: click at the SAME us as view (strictly-after fails, depth 1);
        # u3: no view at all (depth 0)
        rows = [
            (0, 100, "view"), (0, 200, "click"), (0, 300, "purchase"),
            (1, 100, "view"), (1, 50, "purchase"), (1, 200, "click"),
            (2, 100, "view"), (2, 100, "click"),
            (3, 100, "click"), (3, 200, "purchase"),
        ]
        ev = pd.DataFrame({
            "user_id": [r[0] for r in rows],
            "ts": pd.to_datetime([r[1] for r in rows], unit="us"),
            "event_type": [r[2] for r in rows],
        })
        d = tmp_path / "sf"
        d.mkdir()
        ev.to_parquet(d / "events.parquet")
        got = funnel_events(str(d)).to_pandas() \
            .sort_values("user_id").reset_index(drop=True)
        assert got["depth"].tolist() == [3, 2, 1, 0]
        assert got.loc[0, ["t1", "t2", "t3"]].tolist() == [100, 200, 300]
        # u1's click at 200 never finds a later purchase
        assert got.loc[1, "t2"] == 200 and pd.isna(got.loc[1, "t3"])
        assert pd.isna(got.loc[2, "t2"])
        assert pd.isna(got.loc[3, "t1"])


class TestQuickOps:
    def test_histogram_counts_sum_to_rows(self):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            histogram_orders,
        )
        import pyarrow.parquet as pq
        got = histogram_orders("/root/testdata/sf0.001").to_pandas()
        n = pq.read_metadata(
            "/root/testdata/sf0.001/orders.parquet").num_rows
        assert got["n"].sum() == n
        assert (got["lo_c"] == got["bucket"] * 5_000_00 * 10).all() or \
            (got["lo_c"] == got["bucket"] * 5_000_000).all()

    def test_unpivot_cells_match_pivot(self):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            pivot_revenue, unpivot_revenue,
        )
        wide = pivot_revenue("/root/testdata/sf0.001").to_pandas() \
            .set_index("r_name")
        tall = unpivot_revenue("/root/testdata/sf0.001").to_pandas()
        assert len(tall) == wide.shape[0] * wide.shape[1]
        for _, r in tall.iterrows():
            assert wide.loc[r["r_name"], r["segment"]] == r["revenue_c"]

    def test_weighted_sample_prefers_big_orders(self):
        from chameleon_entity_linking_ray.pipelines.traindata import (
            weighted_sample,
        )
        import duckdb
        got = weighted_sample("/root/testdata/sf0.001").to_pandas()
        all_tc = duckdb.sql(
            "SELECT CAST(trunc(o_totalprice*100) AS BIGINT) AS tc FROM "
            "'/root/testdata/sf0.001/orders.parquet'").df()["tc"]
        # selection is Bernoulli(total/wmax): the sampled mean must sit
        # well above the population mean
        assert got["total_c"].mean() > all_tc.mean() * 1.15
        # determinism: re-run is identical
        again = weighted_sample("/root/testdata/sf0.001").to_pandas()
        assert sorted(got["o_orderkey"]) == sorted(again["o_orderkey"])


class TestDamerauKernel:
    def test_fuzz_matches_duckdb(self):
        import duckdb
        import random
        from chameleon_entity_linking_ray.stages.scoring import (
            damerau_levenshtein_batch,
        )
        rng = random.Random(13)
        A, B = [], []
        for _ in range(600):
            A.append("".join(rng.choice("abcd")
                             for _ in range(rng.randint(0, 12))))
            B.append("".join(rng.choice("abcd")
                             for _ in range(rng.randint(0, 12))))
        got = damerau_levenshtein_batch(A, B)
        df = pd.DataFrame({"a": A, "b": B})
        exp = duckdb.connect().execute(
            "select damerau_levenshtein(a,b) from df").df() \
            .iloc[:, 0].to_numpy()
        assert (got == exp).all()

    def test_unrestricted_not_osa(self):
        from chameleon_entity_linking_ray.stages.scoring import (
            damerau_levenshtein_batch,
        )
        # the canonical OSA-vs-DL separator: OSA("ca","abc") = 3, true
        # Damerau-Levenshtein = 2 (transpose then insert)
        assert damerau_levenshtein_batch(["ca"], ["abc"])[0] == 2
        assert damerau_levenshtein_batch(["ab"], ["ba"])[0] == 1
        assert damerau_levenshtein_batch(["", "xy"], ["abc", ""]) \
            .tolist() == [3, 2]


class TestSoundex:
    def test_known_codes(self):
        from chameleon_entity_linking_ray.pipelines.corpus import _soundex
        # classic Soundex fixtures (simplified variant, no H/W rule)
        assert _soundex("robert") == "R163"
        assert _soundex("rupert") == "R163"
        assert _soundex("smith") == _soundex("smyth") == "S530"
        assert _soundex("blue") == "B400"
        assert _soundex("a") == "A000"

    def test_collapse_before_zero_drop(self):
        from chameleon_entity_linking_ray.pipelines.corpus import _soundex
        # 'small': S,M,A,L,L -> 25044 -> collapse 2504 -> drop 0 -> S540
        # (zero-drop-first would give S544)
        assert _soundex("small") == "S540"


class TestDedupPartsSnm:
    def test_clusters_are_transitive_closure(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.corpus import (
            dedup_parts_snm,
        )
        # planted near-duplicate chain: a ~ b ~ c (each within dl<=4 of
        # its sort neighbor) plus isolated names
        names = ["anchor steel rod", "anchor steel rd", "anchor steel r",
                 "copper wire", "zinc plate", "zinc plates"]
        df = pd.DataFrame({"p_partkey": np.arange(len(names),
                                                  dtype=np.int64),
                           "p_name": names})
        d = tmp_path / "sf"
        d.mkdir()
        df.to_parquet(d / "part.parquet")
        got = dedup_parts_snm(str(d), window=3, cap=4).to_pandas() \
            .sort_values("p_partkey").reset_index(drop=True)
        # chain 0-1-2 collapses to min id 0; zinc pair to 4
        assert got["cluster_id"].tolist() == [0, 0, 0, 3, 4, 4]
        assert got["keep"].tolist() == [True, False, False, True, True,
                                        False]


class TestJaroWinklerKernel:
    def test_fuzz_bit_equal_to_duckdb(self):
        import duckdb
        import random
        from chameleon_entity_linking_ray.stages.scoring import (
            jaro_winkler_batch,
        )
        rng = random.Random(11)
        A, B = [], []
        for _ in range(3000):
            A.append("".join(rng.choice("abcde")
                             for _ in range(rng.randint(0, 10))))
            B.append("".join(rng.choice("abcde")
                             for _ in range(rng.randint(0, 10))))
        A += ["", "a", "", "hello", "martha", "dixon"]
        B += ["", "", "b", "hello", "marhta", "dicksonx"]
        got = jaro_winkler_batch(A, B)
        df = pd.DataFrame({"a": A, "b": B})
        exp = duckdb.connect().execute(
            "select jaro_winkler_similarity(a,b) from df").df() \
            .iloc[:, 0].to_numpy()
        # BIT equality, not allclose — the oracle hashes raw doubles
        assert (got == exp).all()

    def test_conventions(self):
        from chameleon_entity_linking_ray.stages.scoring import (
            jaro_winkler_batch,
        )
        got = jaro_winkler_batch(["", "abc", "martha"],
                                 ["", "abc", "marhta"])
        assert got[0] == 0.0          # empty-empty scores 0 (DuckDB)
        assert got[1] == 1.0
        assert abs(got[2] - 0.9611111111111111) < 1e-15  # classic fixture


class TestClusteringEval:
    def test_perfect_and_zero_f1(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.corpus import (
            clustering_eval,
        )
        # exact duplicates only, tight cap: predicted == truth -> F1 = 1
        d1 = tmp_path / "sf1"
        d1.mkdir()
        pd.DataFrame({"p_partkey": np.arange(4, dtype=np.int64),
                      "p_name": ["aa", "aa", "bb", "bb"]}) \
            .to_parquet(d1 / "part.parquet")
        r = clustering_eval(str(d1), window=2, cap=1).to_pandas().iloc[0]
        assert r["pairs_pred"] == r["pairs_true"] == r["pairs_both"] == 2
        assert r["precision"] == r["recall"] == r["f1"] == 1.0
        # all-distinct names merged by a loose cap: truth has no pairs
        d2 = tmp_path / "sf2"
        d2.mkdir()
        pd.DataFrame({"p_partkey": np.arange(3, dtype=np.int64),
                      "p_name": ["aaa", "aab", "aac"]}) \
            .to_parquet(d2 / "part.parquet")
        r2 = clustering_eval(str(d2), window=3, cap=2).to_pandas().iloc[0]
        assert r2["pairs_true"] == 0 and r2["recall"] == 0.0
        assert r2["f1"] == 0.0

    def test_mostly_singletons_one_execution(self, tmp_path, monkeypatch):
        # 300 distinct random names (singleton clusters), 20 exact
        # duplicates (truth pairs) and 10 one-letter variants (predicted
        # merges across truth groups)
        import duckdb
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        import __ray_entry__ as entry
        from chameleon_entity_linking_ray.pipelines import corpus
        rng = np.random.RandomState(5)
        names = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), 12))
                 for _ in range(300)]
        names += names[:20] + [n[:-1] + "+" for n in names[20:30]]
        d = tmp_path / "sf"
        d.mkdir()
        pd.DataFrame({"p_partkey": np.arange(len(names), dtype=np.int64),
                      "p_name": names}).to_parquet(d / "part.parquet")

        def op_names(op) -> list[str]:
            return [op.name] + [n for d in op.input_dependencies
                                for n in op_names(d)]

        plans = []
        execute = StreamingExecutor.execute

        def spy(self, dag, *args, **kwargs):
            plans.append(op_names(dag))
            return execute(self, dag, *args, **kwargs)

        monkeypatch.setattr(StreamingExecutor, "execute", spy)
        got = corpus.clustering_eval(str(d)).to_pandas()
        con = duckdb.connect()
        con.sql("CREATE VIEW part AS SELECT * FROM "
                f"read_parquet('{d}/part.parquet')")
        want = con.sql(entry.oracle_sql()["clustering_eval"]).df()
        assert got["pairs_true"].iloc[0] == 20
        pd.testing.assert_frame_equal(got, want[list(got.columns)],
                                      check_dtype=False)
        # the contingency blocks reach the fold from the execution that
        # computes them; a schema probe would re-run it under a limit
        assert any("MapBatches(rename)" in " ".join(p) for p in plans)
        assert not [p for p in plans if any("limit" in n for n in p)]


class TestOutlierAndBlockingStats:
    def test_outlier_fences(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            outlier_events,
        )
        vals = [1.0] * 50 + [2.0] * 50 + [100.0, -100.0, None]
        ev = pd.DataFrame({
            "event_id": np.arange(len(vals), dtype=np.int64),
            "value": vals})
        d = tmp_path / "sf"
        d.mkdir()
        ev.to_parquet(d / "events.parquet")
        got = outlier_events(str(d)).to_pandas()
        # q1=100c, q3=200c, fences [-50c, 350c]: only the two extremes
        assert sorted(got["total_c"].tolist()) == [-10000, 10000]

    def test_blocking_stats_identities(self):
        from chameleon_entity_linking_ray.pipelines.corpus import (
            blocking_stats,
        )
        r = blocking_stats("/root/testdata/sf0.001").to_pandas().iloc[0]
        assert r["n_records"] == 200
        assert r["total_pairs"] == 200 * 199 // 2
        assert 0.0 <= r["reduction_ratio"] <= 1.0
        assert r["covered_pairs"] <= r["true_pairs"]
        assert r["covered_pairs"] <= r["cand_pairs"]
        # window-5 neighbors over a name-sorted table catch every
        # same-name pair whose run fits the window; completeness > 0
        assert r["pairs_completeness"] > 0.0


class TestTfCosinePairs:
    def test_cosine_exactness_and_blocking(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.corpus import (
            tf_cosine_pairs,
        )
        docs = pd.DataFrame({
            "doc_id": np.arange(4, dtype=np.int64),
            "text": ["rareword a a b", "rareword a b b",
                     "c c c d", "a b"]})
        d = tmp_path / "sf"
        d.mkdir()
        docs.to_parquet(d / "documents.parquet")
        got = tf_cosine_pairs(str(d), threshold=0.0, df_cap=2).to_pandas()
        # only docs 0 and 1 share a df<=2 token ("rareword")
        assert len(got) == 1
        r = got.iloc[0]
        assert (r["left_doc"], r["right_doc"]) == (0, 1)
        # tf0 = {rareword:1, a:2, b:1}, tf1 = {rareword:1, a:1, b:2}
        # dot = 1 + 2 + 2 = 5; norms = sqrt(6)*sqrt(6)
        assert r["cosine"] == 5.0 / (np.sqrt(6.0) * np.sqrt(6.0))


class TestEventMiningAndFs:
    def test_transitions_counts(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            event_transitions,
        )
        ev = pd.DataFrame({
            "user_id": [1, 1, 1, 2, 2],
            "ts": pd.to_datetime([10, 20, 30, 10, 20], unit="us"),
            "event_id": np.arange(5, dtype=np.int64),
            "event_type": ["a", "b", "a", "a", "b"]})
        d = tmp_path / "sf"
        d.mkdir()
        ev.to_parquet(d / "events.parquet")
        got = event_transitions(str(d)).to_pandas() \
            .set_index(["prev_type", "event_type"])["n"]
        assert got[("a", "b")] == 2 and got[("b", "a")] == 1
        assert len(got) == 2

    def test_lift_identities(self):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            event_lift,
        )
        got = event_lift("/root/testdata/sf0.001").to_pandas()
        assert (got["type_a"] < got["type_b"]).all()
        assert (got["support"] > 0).all() and (got["support"] <= 1).all()
        assert (got["confidence"] <= 1).all()

    def test_fs_m_exceeds_u_on_correlated_attrs(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.corpus import fs_weights
        # brand determined by name (strong m), size random-ish (weak)
        rng = np.random.default_rng(3)
        names = [f"name {i % 5}" for i in range(40)]
        df = pd.DataFrame({
            "p_partkey": np.arange(40, dtype=np.int64),
            "p_name": names,
            "p_brand": [n.replace("name", "brand") for n in names],
            "p_type": [f"t{i % 2}" for i in range(40)],
            "p_size": rng.integers(0, 50, 40).astype(np.int32)})
        d = tmp_path / "sf"
        d.mkdir()
        df.to_parquet(d / "part.parquet")
        got = fs_weights(str(d)).to_pandas().set_index("field")
        assert got.loc["p_brand", "m"] == 1.0  # brand == f(name)
        assert got.loc["p_brand", "u"] < 1.0
        assert set(got.index) == {"p_brand", "p_type", "p_size"}
        assert (got["agree_match"] <= got["n_match"]).all()
        assert (got["agree_unmatch"] <= got["n_unmatch"]).all()


class TestCohortChisqShare:
    def test_cohort_cell_identities(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            cohort_retention,
        )
        wk = 7 * 86400 * 1_000_000
        ev = pd.DataFrame({
            "user_id": [1, 1, 1, 2, 2, 3],
            "ts": pd.to_datetime(
                [0, wk, 3 * wk, wk, 2 * wk, 3 * wk], unit="us")})
        d = tmp_path / "sf"
        d.mkdir()
        ev.to_parquet(d / "events.parquet")
        got = cohort_retention(str(d)).to_pandas() \
            .set_index(["cohort_week", "week_offset"])["n_users"]
        # u1 cohort 0 at offsets 0,1,3; u2 cohort 1 at 0,1; u3 cohort 3
        assert got[(0, 0)] == 1 and got[(0, 1)] == 1 and got[(0, 3)] == 1
        assert got[(1, 0)] == 1 and got[(1, 1)] == 1
        assert got[(3, 0)] == 1
        assert len(got) == 6

    def test_chisq_margins(self):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            priority_segment_chisq,
        )
        got = priority_segment_chisq("/root/testdata/sf0.001").to_pandas()
        # expected sums to n along both margins
        assert np.isclose(got["expected"].sum(), got["observed"].sum())
        assert (got["contrib"] >= 0).all()

    def test_share_sums_to_one(self):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            revenue_share,
        )
        got = revenue_share("/root/testdata/sf0.001").to_pandas()
        assert np.isclose(got["total_share"].sum(), 1.0)
        for _, g in got.groupby("r_name"):
            assert np.isclose(g["region_share"].sum(), 1.0)


class TestGraphFeatures:
    def test_degree_histogram_mass(self, tmp_path):
        from chameleon_entity_linking_ray.stages.graph import (
            degree_histogram,
        )
        # two orders: {1,2,3} and {3,4} -> degrees 1:2 2:2 3:3 4:1
        li = pd.DataFrame({"l_orderkey": [10, 10, 10, 20, 20],
                           "l_partkey": [1, 2, 3, 3, 4]})
        d = tmp_path / "sf"
        d.mkdir()
        li.to_parquet(d / "lineitem.parquet")
        got = degree_histogram(str(d)).to_pandas() \
            .set_index("d")["n_nodes"]
        assert got[2] == 2 and got[3] == 1 and got[1] == 1

    def test_edge_overlap_values(self, tmp_path):
        from chameleon_entity_linking_ray.stages.graph import edge_overlap
        # triangle {1,2,3} plus pendant 4 on 3
        li = pd.DataFrame({"l_orderkey": [10, 10, 10, 20, 20],
                           "l_partkey": [1, 2, 3, 3, 4]})
        d = tmp_path / "sf"
        d.mkdir()
        li.to_parquet(d / "lineitem.parquet")
        got = edge_overlap(str(d)).to_pandas() \
            .set_index(["node_a", "node_b"])
        # edge (1,2): common neighbor {3}; N(1)={2,3}, N(2)={1,3}
        assert got.loc[(1, 2), "cn"] == 1
        assert got.loc[(1, 2), "jaccard"] == 1.0 / 3.0
        # edge (3,4): no common neighbors
        assert got.loc[(3, 4), "cn"] == 0
        assert got.loc[(3, 4), "jaccard"] == 0.0
        assert len(got) == 4


class TestMadTiesThrottle:
    def test_mad_known(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            value_mad,
        )
        ev = pd.DataFrame({"value": [1.0, 2.0, 3.0, 4.0, 100.0]})
        ev["event_id"] = np.arange(5)
        d = tmp_path / "sf"
        d.mkdir()
        ev.to_parquet(d / "events.parquet")
        r = value_mad(str(d)).to_pandas().iloc[0]
        # median 300c; |x-300|: 200,100,0,100,9700 -> MAD 100c
        assert r["median_c"] == 300 and r["mad_c"] == 100

    def test_ties_all_survive(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            top_orders_ties,
        )
        od = pd.DataFrame({
            "o_orderkey": np.arange(6, dtype=np.int64),
            "o_totalprice": [9.0, 9.0, 9.0, 5.0, 5.0, 1.0]})
        d = tmp_path / "sf"
        d.mkdir()
        od.to_parquet(d / "orders.parquet")
        got = top_orders_ties(str(d), k=2).to_pandas()
        # rank 1 x3 ties all survive even though k=2
        assert sorted(got["o_orderkey"]) == [0, 1, 2]
        assert (got["rnk"] == 1).all()

    def test_throttle_keeps_gap_events(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            throttle_events,
        )
        us = 1_000_000
        ev = pd.DataFrame({
            "user_id": [1, 1, 1, 1],
            "event_id": np.arange(4, dtype=np.int64),
            "event_type": ["a", "a", "a", "b"],
            "ts": pd.to_datetime([0, 100 * us, 800 * us, 50 * us],
                                 unit="ns").astype("datetime64[us]")})
        ev["ts"] = pd.to_datetime([0, 100 * us, 800 * us, 50 * us],
                                  unit="us")
        d = tmp_path / "sf"
        d.mkdir()
        ev.to_parquet(d / "events.parquet")
        got = throttle_events(str(d), gap_s=600).to_pandas()
        # a@0 kept; a@100s dropped (<=600s after prev raw); a@800s kept
        # (700s after prev raw a@100s); b kept (own stream)
        assert sorted(got["event_id"]) == [0, 2, 3]


class TestGoldenRecords:
    def test_survivorship_rules(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.corpus import (
            golden_records,
        )
        df = pd.DataFrame({
            "p_partkey": np.arange(5, dtype=np.int64),
            "p_name": ["acme corp", "acme corp!", "acme cor",
                       "zeta ltd", "zeta ltd"],
            "p_brand": ["b2", "b1", "b1", "b9", "b3"],
            "p_size": np.array([3, 9, 1, 4, 2], np.int32)})
        d = tmp_path / "sf"
        d.mkdir()
        df.to_parquet(d / "part.parquet")
        got = golden_records(str(d), window=3, cap=4).to_pandas() \
            .set_index("cluster_id").sort_index()
        # cluster 0: ids 0,1,2 (names within dl<=4 of sort neighbors)
        assert got.loc[0, "n_members"] == 3
        assert got.loc[0, "canonical_name"] == "acme corp"  # min id's
        assert got.loc[0, "mode_brand"] == "b1"  # 2x b1 beats 1x b2
        assert got.loc[0, "max_size"] == 9
        # cluster 3: exact dup names, brand tie -> lexicographic min
        assert got.loc[3, "n_members"] == 2
        assert got.loc[3, "mode_brand"] == "b3"
        assert got.loc[3, "max_size"] == 4


class TestMergeAndDiff:
    def test_merge_semantics(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            merge_upsert, snapshot_diff,
        )
        od = pd.DataFrame({
            "o_orderkey": np.array([1, 2, 200], np.int64),
            "o_totalprice": [10.0, 20.0, 30.0]})
        d = tmp_path / "sf"
        d.mkdir()
        od.to_parquet(d / "orders.parquet")
        got = merge_upsert(str(d)).to_pandas() \
            .set_index("o_orderkey")["total_c"].sort_index()
        # key1 odd -> updated +100c; key2 even -> unchanged; key200
        # unchanged; keys 1,2 < 100 -> inserted copies at +1e9
        assert got[1] == 1100 and got[2] == 2000 and got[200] == 3000
        assert got[1_000_000_001] == 1000 and got[1_000_000_002] == 2000
        assert len(got) == 5
        diff = snapshot_diff(str(d)).to_pandas() \
            .set_index("o_orderkey").sort_index()
        assert diff.loc[1, "status"] == "CHANGED"
        assert diff.loc[1, "old_c"] == 1000 and diff.loc[1, "new_c"] == 1100
        assert (diff.loc[[1_000_000_001, 1_000_000_002], "status"]
                == "ADDED").all()
        assert 2 not in diff.index and 200 not in diff.index


class TestUserValueHistory:
    def test_intervals(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            user_value_history,
        )
        ev = pd.DataFrame({
            "user_id": [1, 1, 2],
            "event_id": np.arange(3, dtype=np.int64),
            "value": [1.0, 2.0, 5.0],
            "ts": pd.to_datetime([100, 300, 50], unit="us")})
        d = tmp_path / "sf"
        d.mkdir()
        ev.to_parquet(d / "events.parquet")
        got = user_value_history(str(d)).to_pandas() \
            .set_index("event_id").sort_index()
        assert got.loc[0, "valid_from_us"] == 100
        assert got.loc[0, "valid_to_us"] == 300
        assert pd.isna(got.loc[1, "valid_to_us"])  # open current row
        assert pd.isna(got.loc[2, "valid_to_us"])
        assert got.loc[2, "value_c"] == 500


class TestSplitAndZorder:
    def test_split_partitions_everything(self):
        from chameleon_entity_linking_ray.pipelines.traindata import (
            dataset_split,
        )
        got = dataset_split("/root/testdata/sf0.001").to_pandas()
        assert set(got["split"]) <= {"train", "val", "test"}
        assert got["split"].value_counts()["train"] > len(got) * 0.7
        again = dataset_split("/root/testdata/sf0.001").to_pandas()
        assert got.sort_values("doc_id")["split"].tolist() == \
            again.sort_values("doc_id")["split"].tolist()

    def test_zorder_interleave(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            zorder_parts,
        )
        df = pd.DataFrame({"p_partkey": np.array([1, 2], np.int64),
                           "p_size": np.array([0b101, 1], np.int32),
                           "p_retailprice": [3.0, 0.0]})  # y = 3, 0
        d = tmp_path / "sf"
        d.mkdir()
        df.to_parquet(d / "part.parquet")
        got = zorder_parts(str(d)).to_pandas().set_index("p_partkey")
        # x=5 (101), y=3 (011): interleave y1x1 y0x0 ... = 0b011011+...
        # z = sum x_j<<2j | y_j<<(2j+1) = (1<<0)+(1<<2)*0+(1<<4) for x
        x, y = 0b101, 0b11
        z = sum(((x >> j) & 1) << (2 * j) for j in range(16)) \
            + sum(((y >> j) & 1) << (2 * j + 1) for j in range(16))
        assert got.loc[1, "zcode"] == z
        assert got.loc[2, "zcode"] == 1  # x=1,y=0


class TestEmptyInputRobustness:
    def test_event_ops_survive_empty_table(self, tmp_path):
        """Empty inputs lose Arrow schema through Ray groupbys — every
        event-family op must emit a typed empty result, not crash."""
        from chameleon_entity_linking_ray.pipelines import analytics as A
        ev = pd.DataFrame({
            "event_id": pd.Series(dtype=np.int64),
            "user_id": pd.Series(dtype=np.int64),
            "event_type": pd.Series(dtype=object),
            "value": pd.Series(dtype=np.float64),
            "ts": pd.Series(dtype="datetime64[us]")})
        d = tmp_path / "sf"
        d.mkdir()
        ev.to_parquet(d / "events.parquet")
        for name in ("funnel_events", "event_transitions",
                     "throttle_events", "user_value_history",
                     "outlier_events", "value_mad", "cohort_retention",
                     "event_lift"):
            assert getattr(A, name)(str(d)).count() == 0, name


class TestEmptyPartRobustness:
    def test_er_ops_survive_empty_tables(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines import corpus as C
        d = tmp_path / "sf"
        d.mkdir()
        pd.DataFrame({"p_partkey": pd.Series(dtype=np.int64),
                      "p_name": pd.Series(dtype=object),
                      "p_brand": pd.Series(dtype=object),
                      "p_type": pd.Series(dtype=object),
                      "p_size": pd.Series(dtype=np.int32),
                      "p_retailprice": pd.Series(dtype=np.float64)}) \
            .to_parquet(d / "part.parquet")
        pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                      "text": pd.Series(dtype=object)}) \
            .to_parquet(d / "documents.parquet")
        for name in ("snm_pairs", "soundex_parts", "damerau_pairs",
                     "jw_name_pairs", "dedup_parts_snm", "golden_records",
                     "fs_weights", "dedup_fuzzy_docs", "tf_cosine_pairs"):
            res = getattr(C, name)(str(d))  # must not raise
            # all-empty results may surface as a typed Arrow table (the
            # query contract allows Dataset | pa.Table — see
            # tf_cosine_pairs' driver-side typed-empty exit)
            res.num_rows if isinstance(res, pa.Table) else res.count()


class TestPercentRank:
    def test_bounds_and_ties(self, tmp_path):
        from chameleon_entity_linking_ray.pipelines.analytics import (
            percent_rank_orders,
        )
        od = pd.DataFrame({"o_orderkey": np.arange(5, dtype=np.int64),
                           "o_totalprice": [1.0, 2.0, 2.0, 3.0, 4.0]})
        d = tmp_path / "sf"
        d.mkdir()
        od.to_parquet(d / "orders.parquet")
        got = percent_rank_orders(str(d)).to_pandas() \
            .set_index("o_orderkey")["pct_rank"]
        assert got[0] == 0.0
        assert got[1] == got[2] == 1.0 / 4.0  # ties share (rank-1)/(n-1)
        assert got[4] == 1.0
